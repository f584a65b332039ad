"""Core linear-algebra contracts: kron, Jacobi eigenvalues, partial ops.

Frozen expected values are hand-derived (entrywise expansions, 2x2/3x3
spectra); randomized checks cross-check against an independent oracle
(explicit index loops, numpy's eigvalsh) rather than the implementation.
"""

import numpy as np
import pytest

from qutrit_se.linalg import (
    NoConvergenceError,
    NonHermitianError,
    dagger,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
    random_density_matrix,
)
from qutrit_se.states import max_entangled

SX, SY, SZ = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def scalar_jacobi(a, tol=1e-12):
    """Reference: the one-matrix row-cyclic Jacobi loop the stacked solver replaces."""
    m = (a + dagger(a)) / 2.0
    n = m.shape[0]
    for _ in range(100):
        if np.abs(m - np.diag(m.diagonal())).max() <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(m[p, q])
                if r < 1e-300:
                    continue
                phase = m[p, q] / r
                theta = (m[q, q].real - m[p, p].real) / (2.0 * r)
                sgn = 1.0 if theta >= 0.0 else -1.0
                t = sgn / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = m[:, p].copy()
                col_q = m[:, q].copy()
                m[:, p] = c * col_p - s * np.conj(phase) * col_q
                m[:, q] = s * phase * col_p + c * col_q
                row_p = m[p, :].copy()
                row_q = m[q, :].copy()
                m[p, :] = c * row_p - s * phase * row_q
                m[q, :] = s * np.conj(phase) * row_p + c * row_q
                m[p, q] = m[q, p] = 0.0
                m[p, p] = m[p, p].real
                m[q, q] = m[q, q].real
    else:
        raise NoConvergenceError("reference did not converge")
    return np.sort(m.diagonal().real)


def kron_loop(a, b):
    """Independent entrywise Kronecker oracle."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sx_sz_entrywise(self):
        # hand expansion: nonzeros at (0,2)=+1, (1,3)=-1, (2,0)=+1, (3,1)=-1
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 2] = expected[2, 0] = 1
        expected[1, 3] = expected[3, 1] = -1
        np.testing.assert_array_equal(kron(SX, SZ), expected)
        np.testing.assert_array_equal(kron_loop(SX, SZ), expected)

    def test_matches_loop_oracle_on_random(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(kron(a, b), kron_loop(a, b), atol=1e-15)

    def test_associative_on_integer_matrices(self):
        rng = np.random.default_rng(4)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    @pytest.mark.parametrize(
        "shape_a, shape_b", [((2, 3), (3, 2)), ((3, 3), (3, 3)), ((9, 9), (1, 1)), ((1, 4), (2, 1))]
    )
    def test_bitwise_equal_to_numpy_kron(self, shape_a, shape_b):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
            b = rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b)
            for x, y in ((a, b), (a.real, b), (a, b.real), (-a, b * 0.0)):
                got, want = kron(x, y), np.kron(x.astype(complex), y.astype(complex))
                np.testing.assert_array_equal(got, want)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.ones(3), np.eye(2)),
            (np.eye(2), np.ones((2, 2, 2))),
            (np.float64(2.0), np.eye(2)),
            (np.ones((1, 2, 2)), np.ones((1, 2, 2))),
        ],
    )
    def test_rejects_inputs_that_are_not_matrices(self, a, b):
        with pytest.raises(ValueError, match="two matrices"):
            kron(a, b)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3], atol=1e-14
        )

    def test_pauli_x(self):
        np.testing.assert_allclose(hermitian_eigenvalues(SX), [-1, 1], atol=1e-14)

    def test_lambda8_spectrum(self):
        lam8 = np.diag([1, 1, -2]) / np.sqrt(3)
        expected = np.array([-2, 1, 1]) / np.sqrt(3)
        np.testing.assert_allclose(hermitian_eigenvalues(lam8), expected, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_against_numpy_on_random_hermitian(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + dagger(a)) / 2
        np.testing.assert_allclose(
            hermitian_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-10
        )

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = (a + dagger(a)) / 2
            assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-10

    def test_density_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3, 4, 9):
            eigs = hermitian_eigenvalues(random_density_matrix(dim, rng))
            assert eigs[0] >= -1e-10 and eigs[-1] <= 1 + 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.zeros((2, 3)))

    def test_no_convergence_is_reachable(self):
        # off-diagonal below the rotation guard but above an absurd tol
        stuck = np.array([[1.0, 1e-305], [1e-305, 2.0]])
        with pytest.raises(NoConvergenceError):
            hermitian_eigenvalues(stuck, tol=1e-312)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN or inf must fail the Hermiticity guard, not exhaust the sweeps
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_stack_matches_per_matrix_and_scalar_loop(self, n):
        rng = np.random.default_rng(60 + n)
        stack = np.stack([random_density_matrix(n, rng) for _ in range(12)])
        stack[3] = np.diag(np.arange(n) / n)  # converged before the first sweep
        stack[4] = partial_transpose(max_entangled(3), 3, 3)[:n, :n]  # sparse
        stack[5] = partial_transpose(stack[5], 1, n)
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (12, n)
        for k in range(12):
            single = hermitian_eigenvalues(stack[k])
            assert single.shape == (n,)
            assert np.max(np.abs(eigs[k] - single)) <= 1e-15
            np.testing.assert_allclose(single, scalar_jacobi(stack[k]), rtol=0, atol=1e-15)

    def test_stack_shape_follows_leading_axes(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_density_matrix(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (2, 3, 4)
        np.testing.assert_array_equal(eigs[1, 2], hermitian_eigenvalues(stack[1, 2]))

    def test_stack_raises_for_any_failing_member(self):
        stuck = np.array([[1.0, 1e-305], [1e-305, 2.0]])
        with pytest.raises(NoConvergenceError):
            hermitian_eigenvalues(np.stack([np.eye(2), stuck, SX]), tol=1e-312)
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.stack([np.eye(2), SX, skew]))


class TestPartialTranspose:
    def test_max_entangled_qubit_matrix(self):
        # PT of (1/2) sum |ii><jj| : the two coherences move to (01,10) slots
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        expected[1, 2] = expected[2, 1] = 0.5
        pt = partial_transpose(max_entangled(2), 2, 2, side="B")
        np.testing.assert_allclose(pt, expected, atol=1e-15)
        eigs = hermitian_eigenvalues(pt)
        np.testing.assert_allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_max_entangled_qutrit_min_eigenvalue(self):
        eigs = hermitian_eigenvalues(partial_transpose(max_entangled(3), 3, 3))
        assert abs(eigs[0] + 1.0 / 3.0) < 1e-12

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(21)
        rho = kron(random_density_matrix(2, rng), random_density_matrix(3, rng))
        eigs_pt = hermitian_eigenvalues(partial_transpose(rho, 2, 3))
        np.testing.assert_allclose(eigs_pt, hermitian_eigenvalues(rho), atol=1e-10)
        assert eigs_pt[0] >= -1e-10

    def test_involution(self):
        rng = np.random.default_rng(22)
        rho = random_density_matrix(6, rng)
        for side in ("A", "B"):
            back = partial_transpose(partial_transpose(rho, 2, 3, side), 2, 3, side)
            np.testing.assert_array_equal(back, rho)

    def test_side_independent_spectrum(self):
        rng = np.random.default_rng(23)
        dims = [(2, 2), (2, 3), (3, 3)]
        for k in range(50):
            da, db = dims[k % 3]
            rho = random_density_matrix(da * db, rng)
            ea = hermitian_eigenvalues(partial_transpose(rho, da, db, "A"))
            eb = hermitian_eigenvalues(partial_transpose(rho, da, db, "B"))
            np.testing.assert_allclose(ea, eb, atol=1e-10)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(24)
        rhos = np.stack([random_density_matrix(6, rng) for _ in range(4)])
        for side in ("A", "B"):
            stacked = partial_transpose(rhos, 2, 3, side)
            assert stacked.shape == (4, 6, 6)
            for k in range(4):
                np.testing.assert_array_equal(stacked[k], partial_transpose(rhos[k], 2, 3, side))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(5) / 5, 2, 2)
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4) / 4, 2, 2, side="C")


class TestPartialTrace:
    def test_product_factorization(self):
        rng = np.random.default_rng(31)
        rho_a = random_density_matrix(3, rng)
        rho_b = random_density_matrix(2, rng)
        rho = kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(rho, 3, 2, "B"), rho_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, 3, 2, "A"), rho_b, atol=1e-12)

    def test_max_entangled_marginals(self):
        for d in (2, 3):
            rho = max_entangled(d)
            for side in ("A", "B"):
                np.testing.assert_allclose(
                    partial_trace(rho, d, d, side), np.eye(d) / d, atol=1e-12
                )

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(33)
        rhos = np.stack([random_density_matrix(6, rng) for _ in range(3)])
        for side in ("A", "B"):
            stacked = partial_trace(rhos, 2, 3, side)
            for k in range(3):
                np.testing.assert_array_equal(stacked[k], partial_trace(rhos[k], 2, 3, side))

    def test_trace_preserved(self):
        rng = np.random.default_rng(32)
        rho = random_density_matrix(6, rng)
        assert abs(np.trace(partial_trace(rho, 2, 3, "A")) - 1) < 1e-12
        assert abs(np.trace(partial_trace(rho, 2, 3, "B")) - 1) < 1e-12


def test_random_density_matrix_is_state():
    rng = np.random.default_rng(41)
    rho = random_density_matrix(4, rng)
    assert np.max(np.abs(rho - dagger(rho))) < 1e-14
    assert abs(np.trace(rho) - 1) < 1e-14
    assert hermitian_eigenvalues(rho)[0] >= -1e-12
