"""Core linear-algebra contracts: kron, Jacobi eigenvalues, partial ops.

Frozen expected values are hand-derived (entrywise expansions, 2x2/3x3
spectra); randomized checks cross-check against an independent oracle
(explicit index loops, numpy's eigvalsh) rather than the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_se import linalg
from qutrit_se.linalg import (
    NoConvergenceError,
    NonHermitianError,
    dagger,
    hermitian_eigenvalues,
    kron,
    partial_transpose,
    random_density_matrix,
)
from qutrit_se.channels import lift, se_kraus, superoperator
from qutrit_se.states import max_entangled, werner

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


def whole_matrix_eigenvalues(a, tol=1e-12, shift_tol=1e-15):
    """Reference: the stacked sweep loop over whole matrices that the block split replaces.

    Same Hermiticity guard, symmetrisation, rotation order and member
    activity, on every (p, q) pair of the (B, n, n) stack. A member is active
    while an off-diagonal |a_pq| exceeds tol, or while |a_pq|^2 /
    max(|a_pq|, |a_pp - a_qq|), the most that rotating it could move an
    eigenvalue, exceeds shift_tol.
    """
    m = np.asarray(a, dtype=complex)
    lead, n = m.shape[:-2], m.shape[-1]
    m = m.reshape((-1, n, n))
    assert np.abs(m - dagger(m)).max(initial=0.0) <= 1e-10
    m = (m + dagger(m)) / 2.0
    diag = np.arange(n)
    for _ in range(100):
        off = np.abs(m)
        off[:, diag, diag] = 0.0
        d = m[:, diag, diag].real
        bound = np.maximum(off, np.abs(d[:, :, None] - d[:, None, :]))
        small = np.minimum(off, tol)  # a larger entry makes its member active anyway
        shift = np.divide(small * small, bound, out=np.zeros_like(bound), where=bound > 0.0)
        active = off.max(axis=(1, 2), initial=0.0) > tol
        active |= shift.max(axis=(1, 2), initial=0.0) > shift_tol
        todo = np.flatnonzero(active)
        if todo.size == 0:
            break
        sub = m[todo]
        for p in range(n - 1):
            for q in range(p + 1, n):
                if not np.count_nonzero(sub[:, p, q]):
                    continue
                r = np.hypot(sub[:, p, q].real, sub[:, p, q].imag)
                rotate = r >= 1e-300
                r = np.where(rotate, r, 1.0)
                phase = sub[:, p, q] / r
                theta = (sub[:, q, q].real - sub[:, p, p].real) / (2.0 * r)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = sgn / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = np.where(rotate, t * c, 0.0)[:, None]
                c = np.where(rotate, c, 1.0)[:, None]
                s_phase = s * phase[:, None]
                s_conj = s * np.conj(phase)[:, None]
                col_p, col_q = sub[:, :, p].copy(), sub[:, :, q].copy()
                sub[:, :, p] = c * col_p - s_conj * col_q
                sub[:, :, q] = s_phase * col_p + c * col_q
                row_p, row_q = sub[:, p, :].copy(), sub[:, q, :].copy()
                sub[:, p, :] = c * row_p - s_phase * row_q
                sub[:, q, :] = s_conj * row_p + c * row_q
                sub[:, p, q] = np.where(rotate, 0.0, sub[:, p, q])
                sub[:, q, p] = np.where(rotate, 0.0, sub[:, q, p])
                sub[:, p, p] = sub[:, p, p].real
                sub[:, q, q] = sub[:, q, q].real
        m[todo] = sub
    else:
        raise NoConvergenceError("reference did not converge")
    return np.sort(m[:, diag, diag].real, axis=-1).reshape(lead + (n,))


def smith_division_sweep(m):
    """Reference: the stacked rotation loop with the phase as numpy's complex division.

    The solver's rotation loop with ``pivot / r`` (Smith's algorithm) for the
    phase, and the diagonal's imaginary parts always zeroed.
    """
    n = m.shape[-1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            pivot = m[..., p, q]
            r = np.hypot(pivot.real, pivot.imag)
            rotate = r >= 1e-300
            r[~rotate] = 1.0
            phase = pivot / r
            with np.errstate(over="ignore"):
                theta = (m[..., q, q].real - m[..., p, p].real) / (2.0 * r)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = sgn / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = np.where(rotate, t * c, 0.0)[..., None]
            c = np.where(rotate, c, 1.0)[..., None]
            s_phase = s * phase[..., None]
            s_conj = s * np.conj(phase)[..., None]
            col_p, col_q = m[..., :, p].copy(), m[..., :, q].copy()
            m[..., :, p] = c * col_p - s_conj * col_q
            m[..., :, q] = s_phase * col_p + c * col_q
            row_p, row_q = m[..., p, :].copy(), m[..., q, :].copy()
            m[..., p, :] = c * row_p - s_phase * row_q
            m[..., q, :] = s_conj * row_p + c * row_q
            pivot[rotate] = 0.0
            m[..., q, p][rotate] = 0.0
            m[..., p, p].imag = 0.0
            m[..., q, q].imag = 0.0
    return m


# a block of CI's `curves --a2 0.001 --a3 12 --q 0.15 --t-max 70` case, whose
# pivot overflows theta^2
OVERFLOW_BLOCK = np.array([
    [0.05000000000000001, 4.525972197681051e-158],
    [4.525972197681051e-158, 0.2833333333333334],
])


@st.composite
def symmetric_stacks(draw, complex_entries):
    """(B, n, n) Hermitian stacks, real symmetric unless complex_entries.

    A random shared zero pattern varies the blocks; members may hold zero
    rows, a pivot below the 1e-300 rotation guard or the overflowing-theta
    pivot, and a complex stack may be real-valued.
    """
    n = draw(st.integers(min_value=2, max_value=9))
    members = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.standard_normal((members, n, n))
    if complex_entries:  # real-valued or not
        a = a + 1j * rng.standard_normal((members, n, n)) * draw(st.sampled_from([0.0, 1.0]))
    a = a + dagger(a)
    a[:, rng.random((n, n)) < draw(st.floats(min_value=0.0, max_value=0.95))] = 0.0
    a = (a + dagger(a)) / 2.0  # the zero pattern made symmetric
    i, j = rng.choice(n, size=2, replace=False)
    for k in range(members):
        kind = draw(st.sampled_from(["dense", "zero row", "tiny pivot", "overflow pivot"]))
        if kind == "zero row":
            a[k, i, :] = a[k, :, i] = 0.0
        elif kind == "tiny pivot":
            a[k, i, :] = a[k, :, i] = 0.0
            a[k, i, i], a[k, i, j] = 0.5, 1e-301 * draw(st.floats(min_value=0.0, max_value=9.0))
            a[k, j, i] = np.conj(a[k, i, j])
        elif kind == "overflow pivot":
            a[k, [i, j], :] = a[k, :, [i, j]] = 0.0
            a[k][np.ix_([i, j], [i, j])] = OVERFLOW_BLOCK
    return a if complex_entries else a.real.copy()


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

    def test_no_convergence_is_reachable(self, monkeypatch):
        # off-diagonal below the rotation guard but above an absurd target
        monkeypatch.setattr(linalg, "JACOBI_TOL", 1e-312)
        stuck = np.array([[1.0, 1e-305], [1e-305, 2.0]])
        with pytest.raises(NoConvergenceError):
            hermitian_eigenvalues(stuck)

    def test_target_is_the_module_constant(self):
        assert linalg.JACOBI_TOL == 1e-12
        with pytest.raises(TypeError):
            hermitian_eigenvalues(SX, tol=1e-3)

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
            np.testing.assert_array_equal(eigs[k], single)
            np.testing.assert_allclose(single, scalar_jacobi(stack[k]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [3, 4, 9])
    def test_in_place_and_gather_sweeps_match_single_calls(self, n, monkeypatch):
        # a stack whose members all stay active is swept in place; one whose
        # members converge at different sweeps gathers the active ones
        rng = np.random.default_rng(80 + n)
        a = random_density_matrix(n, rng)
        all_active = np.stack([a, a.conj(), 2.0 * a])  # mirrored or scaled sweeps
        mixed = np.stack([random_density_matrix(n, rng) for _ in range(8)])
        mixed[2] = np.diag(np.arange(n) / n)  # converged before the first sweep
        sweep, batches = linalg._jacobi_sweep, []
        monkeypatch.setattr(linalg, "_jacobi_sweep", lambda m: batches.append(len(m)) or sweep(m))
        for stack, in_place in ((all_active, True), (mixed, False)):
            batches.clear()
            eigs = hermitian_eigenvalues(stack)
            assert (set(batches) == {len(stack)}) == in_place
            for k in range(len(stack)):
                np.testing.assert_array_equal(eigs[k], hermitian_eigenvalues(stack[k]))

    def test_stack_shape_follows_leading_axes(self):
        rng = np.random.default_rng(13)
        stack = np.stack([random_density_matrix(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        eigs = hermitian_eigenvalues(stack)
        assert eigs.shape == (2, 3, 4)
        np.testing.assert_array_equal(eigs[1, 2], hermitian_eigenvalues(stack[1, 2]))

    def test_stack_raises_for_any_failing_member(self, monkeypatch):
        stuck = np.array([[1.0, 1e-305], [1e-305, 2.0]])
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "JACOBI_TOL", 1e-312)
            with pytest.raises(NoConvergenceError):
                hermitian_eigenvalues(np.stack([np.eye(2), stuck, SX]))
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.stack([np.eye(2), SX, skew]))

    @settings(max_examples=150, deadline=None)
    @given(symmetric_stacks(complex_entries=False))
    def test_real_stack_has_the_bits_of_its_complex_sweep(self, a):
        real, full = hermitian_eigenvalues(a), hermitian_eigenvalues(a.astype(complex))
        assert real.dtype == full.dtype == np.float64
        assert real.tobytes() == full.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(symmetric_stacks(complex_entries=True))
    def test_phase_has_the_bits_of_the_complex_division(self, a):
        # pivot * (1/r) against the rotation loop that divides, pivot / r
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_jacobi_sweep", smith_division_sweep)
            want = hermitian_eigenvalues(a)
        assert hermitian_eigenvalues(a).tobytes() == want.tobytes()


class TestBlockSplit:
    """The solver sweeps the blocks of the shared nonzero pattern, not whole matrices."""

    def test_blocks_join_through_chains_of_entries(self):
        a = np.zeros((2, 7, 7))
        a[0, 0, 5] = a[0, 5, 0] = 1.0
        a[0, 1, 4] = a[0, 4, 1] = 2.0
        a[1, 5, 4] = 3.0  # one-sided, in another member: joins {0, 5} and {1, 4}
        a[1, 6, 2] = np.nan  # NaN counts as nonzero
        a[0, 3, 3] = 4.0  # a diagonal entry joins nothing
        assert linalg._blocks(a) == [[3], [2, 6], [0, 1, 4, 5]]
        assert linalg._blocks(np.zeros((0, 3, 3))) == [[0], [1], [2]]

    @pytest.mark.parametrize("seed", range(4))
    def test_permuted_block_stacks_match_the_whole_matrix_sweep(self, seed):
        rng = np.random.default_rng(90 + seed)
        sizes = (3, 1, 2, 1, 2)
        n, members = sum(sizes), 12
        perm = rng.permutation(n)
        stack = np.zeros((members, n, n), dtype=complex)
        start = 0
        for size in sizes:
            idx = perm[start:start + size]
            start += size
            shape = (members, size, size)
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            scale = np.exp(rng.uniform(-8.0, 2.0, members))[:, None, None]
            stack[:, idx[:, None], idx[None, :]] = scale * (g + dagger(g))
        stack[3] = 0.0
        stack[4] = np.diag(np.diag(stack[4]))  # converged before the first sweep
        # a sub-tol pivot on a zero diagonal, beside an active block: still rotated
        pair, other = perm[4:6], perm[:3]
        for k, active in ((5, True), (6, False), (7, False)):
            stack[k] = 0.0
            stack[k, pair[0], pair[1]] = stack[k, pair[1], pair[0]] = 5e-13
            if active:
                stack[k, other[:, None], other[None, :]] = 2.0 * np.eye(3) + 0.5
        # the same pivot against a diagonal gap of 1 could move an eigenvalue by
        # 2.5e-25 at most, and is left as is
        stack[7, pair[1], pair[1]] = 1.0
        eigs = hermitian_eigenvalues(stack)
        np.testing.assert_array_equal(eigs, whole_matrix_eigenvalues(stack))
        assert eigs[5, 0] < -4e-13 and eigs[5, 1] == 0.0  # the pair became -x and +x
        # no block above JACOBI_TOL, but a degenerate pair: rotated to -x and +x
        assert eigs[6, 0] < -4e-13 and eigs[6, -1] > 4e-13 and not eigs[6, 1:-1].any()
        assert eigs[7, -1] == 1.0 and not eigs[7, :-1].any()  # no member active: left as is
        for k in range(members):
            np.testing.assert_array_equal(eigs[k], whole_matrix_eigenvalues(stack[k]))

    # q = 1 lifts the channel to A only and q = 0 to B only; None draws a mixing weight
    @pytest.mark.parametrize("q", [
        pytest.param(1.0, id="A"), pytest.param(0.0, id="B"), pytest.param(None, id="symmetric"),
    ])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_werner_partial_transpose_splits_into_pairs(self, d, q):
        # ROADMAP item 1: a Werner state under emission has nonzero entries only
        # at <ij|rho|ij> and <ii|rho|jj>, so its partial transpose has d blocks
        # of size 1 and d(d-1)/2 blocks of size 2 on {|ij>, |ji>}
        expected = [[i * d + i] for i in range(d)]
        expected += [[i * d + j, j * d + i] for i in range(d) for j in range(i + 1, d)]
        inside = np.zeros((d * d, d * d), dtype=bool)
        for block in expected:
            inside[np.ix_(block, block)] = True
        rng = np.random.default_rng(100 * d + (9 if q is None else 1))
        for _ in range(20):
            rates = rng.uniform(0.0, 5.0, d - 1) * (rng.random(d - 1) < 0.7)  # zeros too
            times = np.r_[0.0, rng.uniform(0.0, 10.0, 4)]
            p, q_drawn = rng.uniform(0.05, 1.0), rng.uniform()
            q_mix = q_drawn if q is None else q
            rho = lift(werner(d, p), superoperator(se_kraus(rates, times)), q_mix)
            pt = partial_transpose(rho, d, d)
            assert linalg._blocks(pt) == expected
            for member in pt:
                assert linalg._blocks(member[None]) == expected
                assert not member[~inside].any()
            np.testing.assert_array_equal(hermitian_eigenvalues(pt), whole_matrix_eigenvalues(pt))


class TestPartialTranspose:
    def test_max_entangled_qubit_matrix(self):
        # PT of (1/2) sum |ii><jj| : the two coherences move to (01,10) slots
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        expected[1, 2] = expected[2, 1] = 0.5
        pt = partial_transpose(max_entangled(2), 2, 2)
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
        back = partial_transpose(partial_transpose(rho, 2, 3), 2, 3)
        np.testing.assert_array_equal(back, rho)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(24)
        rhos = np.stack([random_density_matrix(6, rng) for _ in range(4)])
        stacked = partial_transpose(rhos, 2, 3)
        assert stacked.shape == (4, 6, 6)
        for k in range(4):
            np.testing.assert_array_equal(stacked[k], partial_transpose(rhos[k], 2, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(5) / 5, 2, 2)


def test_random_density_matrix_is_state():
    rng = np.random.default_rng(41)
    rho = random_density_matrix(4, rng)
    assert np.max(np.abs(rho - dagger(rho))) < 1e-14
    assert abs(np.trace(rho) - 1) < 1e-14
    assert hermitian_eigenvalues(rho)[0] >= -1e-12
