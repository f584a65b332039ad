"""Generator algebra: structure constants, Bloch dictionaries, pure-state conditions.

Spot values f_123 = 1, d_338 = 1/sqrt(3), d_888 = -1/sqrt(3) are the
hand-computed anchors; the full product identity

    g_i g_j = (2/d) delta_ij I + (d_ijk + i f_ijk) g_k   (d = 3)
    s_i s_j = delta_ij I + i f_ijk s_k                    (d = 2)

is reconstructed entrywise for every pair.
"""

import math
import warnings

import numpy as np
import pytest

from qutrit_se import channels, su
from qutrit_se.analysis import (
    fidelity_closed,
    haar_bloch_vectors,
    indicator_crossing,
    ppt_threshold,
    preservation_inequality,
)
from qutrit_se.channels import ChannelParams, se_kraus
from qutrit_se.linalg import (
    NonHermitianError,
    dagger,
    hermitian_eigenvalues,
    random_density_matrix,
)
from qutrit_se.states import max_entangled, werner
from qutrit_se.su import (
    bloch_to_density,
    density_to_bloch,
    generator_basis,
    star_product,
    structure_constants,
)

GROUND_BLOCH = np.array([0, 0, np.sqrt(3) / 2, 0, 0, 0, 0, 0.5])

# literal Pauli and Gell-Mann tables in their textbook order
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
R3 = 1 / np.sqrt(3.0)
GELL_MANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[R3, 0, 0], [0, R3, 0], [0, 0, -2 * R3]],
    ],
    dtype=complex,
)


def haar_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def mixed_from_haar(d, rng, k=4):
    """Random mixture of Haar pure states."""
    w = rng.dirichlet(np.ones(k))
    rho = np.zeros((d, d), dtype=complex)
    for i in range(k):
        v = haar_state(d, rng)
        rho += w[i] * np.outer(v, v.conj())
    return rho


class TestGeneratorSets:
    def test_literal_pauli_and_gell_mann_tables(self):
        np.testing.assert_array_equal(generator_basis(2).generators, PAULI)
        np.testing.assert_array_equal(generator_basis(3).generators, GELL_MANN)

    def test_order_rule_for_d4(self):
        g = generator_basis(4).generators
        assert g.shape == (15, 4, 4)
        # level 3 starts at index 8: pairs (0,3), (1,3), (2,3), then diagonal
        for j in range(3):
            sym, anti = g[8 + 2 * j], g[9 + 2 * j]
            assert sym[j, 3] == sym[3, j] == 1 and np.count_nonzero(sym) == 2
            assert anti[j, 3] == -1j and anti[3, j] == 1j and np.count_nonzero(anti) == 2
        np.testing.assert_allclose(np.diag(g[14]), np.array([1, 1, 1, -3]) / np.sqrt(6))
        np.testing.assert_array_equal(g[:8, :3, :3], GELL_MANN)
        assert not g[:8, 3].any() and not g[:8, :, 3].any()

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_orthonormal_traceless_hermitian(self, dim):
        # the build checks nothing: structure_constants does, when d is first read
        g = generator_basis(dim).generators
        k = len(g)
        gram = np.einsum("iab,jba->ij", g, g)
        np.testing.assert_allclose(gram, 2 * np.eye(k), atol=1e-14)
        for gi in g:
            assert abs(np.trace(gi)) < 1e-14
            assert np.max(np.abs(gi - dagger(gi))) < 1e-14

    def test_structure_constant_spot_values(self):
        b = generator_basis(3)
        s3 = np.sqrt(3.0)
        assert abs(structure_constants(b.generators)[0][0, 1, 2] - 1.0) < 1e-14
        assert abs(b.d[2, 2, 7] - 1 / s3) < 1e-14
        assert abs(b.d[7, 7, 7] + 1 / s3) < 1e-14
        assert abs(structure_constants(generator_basis(2).generators)[0][0, 1, 2] - 1.0) < 1e-14

    def test_f_antisymmetric_d_symmetric(self):
        for dim in (2, 3):
            b = generator_basis(dim)
            f = structure_constants(b.generators)[0]
            assert np.max(np.abs(f + f.transpose(1, 0, 2))) < 1e-12
            assert np.max(np.abs(f - f.transpose(2, 0, 1))) < 1e-12
            assert np.max(np.abs(b.d - b.d.transpose(1, 0, 2))) < 1e-12
            assert np.max(np.abs(b.d - b.d.transpose(2, 0, 1))) < 1e-12

    def test_qubit_d_vanishes(self):
        assert np.max(np.abs(generator_basis(2).d)) < 1e-14

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_product_identity_reconstruction(self, dim):
        b = generator_basis(dim)
        g = b.generators
        f = structure_constants(g)[0]
        eye = np.eye(dim)
        for i in range(len(g)):
            for j in range(len(g)):
                rebuilt = (2.0 / dim) * (i == j) * eye + np.einsum(
                    "k,kab->ab", b.d[i, j] + 1j * f[i, j], g
                )
                np.testing.assert_allclose(g[i] @ g[j], rebuilt, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_diagonals_and_pair_rows(self, dim):
        # the affine Bloch map's index data, read off the generators once per d
        basis = generator_basis(dim)
        g = basis.generators
        layout = channels._affine_layout(dim)
        toward, lam_t, eye, rows, js, ks, shift_scale = layout
        diagonals = np.diagonal(g, axis1=1, axis2=2).real
        np.testing.assert_array_equal(lam_t, diagonals.T)
        np.testing.assert_array_equal(toward, diagonals[:, :1] - diagonals)
        np.testing.assert_array_equal(eye, np.eye(len(g)))
        assert shift_scale == basis.bloch_scale / dim
        assert len(rows) == len(js) == len(ks) == dim * (dim - 1)
        # every generator with no diagonal is a pair row, each listed once
        assert sorted(rows) == [i for i in range(len(g)) if not diagonals[i].any()]
        for r, j, k in zip(rows, js, ks):
            assert j < k and g[r, j, k] != 0 and g[r, k, j] != 0
            assert np.count_nonzero(g[r]) == 2
        assert all(g[rows[::2], js[::2], ks[::2]] == 1)  # symmetric first
        assert all(g[rows[1::2], js[1::2], ks[1::2]] == -1j)
        for arr in layout[:-1]:
            assert not arr.flags.writeable
        assert channels._affine_layout(dim) is layout  # built once

    def test_the_basis_builds_no_structure_constants(self, monkeypatch):
        # d is built by the first star product at each d >= 3, once; a zero
        # stand-in keeps su(9)'s O(d^9) build out of this count, and the cache
        # is cleared on both sides so no basis holding it outlives the test
        calls = []

        def counting(generators):
            k = len(generators)
            calls.append(k)
            return np.zeros((k, k, k)), np.zeros((k, k, k))

        monkeypatch.setattr(su, "structure_constants", counting)
        generator_basis.cache_clear()
        try:
            for dim in range(2, 10):
                generator_basis(dim)
            assert calls == []
            for dim in range(3, 10):
                n = np.zeros(dim * dim - 1)
                for _ in range(2):
                    star_product(n, n)
                assert calls == [k * k - 1 for k in range(3, dim + 1)]
        finally:
            generator_basis.cache_clear()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_d_is_structure_constants_own_and_read_only(self, dim):
        b = generator_basis(dim)
        want = structure_constants(b.generators)[1]
        assert b.d.tobytes() == want.tobytes() and b.d.dtype == want.dtype
        assert b.d is b.d and not b.d.flags.writeable
        with pytest.raises(ValueError):
            b.d[0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            b.d = want

    def test_rejects_non_orthonormal_basis(self):
        bad = PAULI.copy()
        bad[0] *= 2.0
        with pytest.raises(ValueError):
            structure_constants(bad)

    def test_unsupported_dimension(self):
        for dim in (0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                generator_basis(dim)


def eye_bloch_to_density(n):
    """rho = (I + b n . g)/d with a new complex identity and a new array for every term."""
    basis = generator_basis(math.isqrt(len(n) + 1))
    weighted = np.einsum("i,iab->ab", n, basis.generators)
    return (np.eye(basis.dim, dtype=complex) + basis.bloch_norm * weighted) / basis.dim


def dagger_density_to_bloch(rho):
    """n_i = (b/(d-1)) Tr(rho g_i) after the Hermiticity check against dagger(rho)."""
    basis = generator_basis(len(rho))
    assert np.max(np.abs(rho - dagger(rho))) <= 1e-10
    assert abs(np.trace(rho).real - 1.0) <= 1e-10
    coeffs = np.einsum("iab,ba->i", basis.generators, rho)
    return basis.bloch_scale * coeffs.real


def signed_zero_states(rng, dim, count):
    """Random states, every other one with -0.0 in some real and imaginary parts."""
    for i in range(count):
        rho = random_density_matrix(dim, rng)
        if i % 2:
            rho[0, 1] = complex(-0.0, rho[0, 1].imag)
            rho[1, 0] = complex(-0.0, -rho[0, 1].imag)
            rho[-1, -1] = complex(rho[-1, -1].real, -0.0)
        yield rho


class TestBlochMapsKeepTheirBits:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_density_to_bloch(self, dim):
        rng = np.random.default_rng(210 + dim)
        for rho in signed_zero_states(rng, dim, 40):
            got, want = density_to_bloch(rho), dagger_density_to_bloch(rho)
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bloch_to_density(self, dim):
        rng = np.random.default_rng(220 + dim)
        for i, rho in enumerate(signed_zero_states(rng, dim, 40)):
            n = dagger_density_to_bloch(rho)
            if i % 4 == 1:  # signed zeros in the vector itself
                n[::3] = -0.0
            elif i % 4 == 3:
                n[1::3] = 0.0
            got, want = bloch_to_density(n), eye_bloch_to_density(n)
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
            assert got.flags.writeable

    def test_identity_stays_shared_and_unchanged(self):
        # bloch_to_density adds a cached identity in place into its own result
        first = bloch_to_density(np.zeros(8))
        first += 1.0
        np.testing.assert_array_equal(bloch_to_density(np.zeros(8)), np.eye(3) / 3)


class TestStackedFormsKeepTheirBits:
    # a stack gives each member the bits of a call on that member alone
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_density_to_bloch(self, dim):
        rhos = np.stack(list(signed_zero_states(np.random.default_rng(230 + dim), dim, 24)))
        got = density_to_bloch(rhos.reshape(2, 12, dim, dim))
        want = np.stack([density_to_bloch(rho) for rho in rhos])
        assert got.shape == (2, 12, dim * dim - 1)
        assert got.reshape(want.shape).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bloch_to_density(self, dim):
        rng = np.random.default_rng(240 + dim)
        n = density_to_bloch(np.stack(list(signed_zero_states(rng, dim, 24))))
        n[1::4, ::3] = -0.0  # signed zeros in the vectors themselves
        got = bloch_to_density(n.reshape(3, 8, -1))
        want = np.stack([bloch_to_density(m) for m in n])
        assert got.shape == (3, 8, dim, dim)
        assert got.reshape(want.shape).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [3, 4])
    def test_star_product(self, dim):
        rng = np.random.default_rng(250 + dim)
        n = density_to_bloch(np.stack([random_density_matrix(dim, rng) for _ in range(24)]))
        m = n[::-1].copy()
        for a, b in ((n, n), (n, m)):
            got = star_product(a.reshape(4, 6, -1), b.reshape(4, 6, -1))
            want = np.stack([star_product(x, y) for x, y in zip(a, b)])
            assert got.reshape(want.shape).tobytes() == want.tobytes()

    def test_haar_pure_states(self):
        # validate's stacked pure-state check: 200 star products at once, and norms
        # by a stacked matmul, which keeps n @ n's bits where an einsum does not
        for seed in range(41):
            n = haar_bloch_vectors(3, 200, seed)
            star = star_product(n, n)
            assert star.tobytes() == np.stack([star_product(m, m) for m in n]).tobytes()
            norms = (n[:, None, :] @ n[:, :, None])[:, 0, 0]
            assert norms.tobytes() == np.array([m @ m for m in n]).tobytes()

    def test_a_stack_names_its_first_bad_trace(self):
        rhos = np.stack([np.eye(3) / 3, np.eye(3) / 2, np.eye(3)])
        with pytest.raises(ValueError) as err:
            density_to_bloch(rhos)
        assert str(err.value) == "matrix trace 1.5 is not 1"
        with pytest.raises(ValueError, match="square"):
            density_to_bloch(np.zeros((4, 2, 3)))
        with pytest.raises(ValueError, match="length d\\^2 - 1"):
            bloch_to_density(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="one d >= 3"):
            star_product(np.zeros((2, 8)), np.zeros((3, 8)))


class TestBlochMaps:
    def test_zero_vector_is_maximally_mixed(self):
        np.testing.assert_allclose(bloch_to_density(np.zeros(8)), np.eye(3) / 3)
        np.testing.assert_allclose(bloch_to_density(np.zeros(3)), np.eye(2) / 2)

    def test_qubit_poles(self):
        np.testing.assert_allclose(
            bloch_to_density(np.array([0, 0, 1.0])), np.diag([1.0, 0.0]), atol=1e-15
        )
        np.testing.assert_allclose(
            density_to_bloch(np.diag([0.0, 1.0])), [0, 0, -1], atol=1e-15
        )

    def test_ground_state_bloch(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        np.testing.assert_allclose(density_to_bloch(rho), GROUND_BLOCH, atol=1e-15)
        np.testing.assert_allclose(bloch_to_density(GROUND_BLOCH), rho, atol=1e-15)

    def test_third_level_is_minus_e8(self):
        n = density_to_bloch(np.diag([0.0, 0.0, 1.0]))
        expected = np.zeros(8)
        expected[7] = -1.0
        np.testing.assert_allclose(n, expected, atol=1e-15)

    def test_round_trip_on_random_mixtures(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = 2 if rng.integers(2) else 3
            rho = mixed_from_haar(d, rng)
            np.testing.assert_allclose(
                bloch_to_density(density_to_bloch(rho)), rho, atol=1e-12
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bloch_to_density(np.zeros(5))
        with pytest.raises(NonHermitianError):
            density_to_bloch(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            density_to_bloch(np.eye(3))  # trace 3

    def test_one_hermiticity_rule_with_the_eigensolver(self):
        # density_to_bloch and hermitian_eigenvalues share the check, its 1e-10
        # tolerance and its message
        for defect, accepted in ((0.5e-10, True), (1.5e-10, False)):
            rho = np.array([[0.5, 0.1], [0.1 + defect, 0.5]], dtype=complex)
            if accepted:
                assert density_to_bloch(rho).shape == (3,)
                assert hermitian_eigenvalues(rho).shape == (2,)
                continue
            messages = set()
            for check in (density_to_bloch, hermitian_eigenvalues):
                with pytest.raises(NonHermitianError) as err:
                    check(rho)
                messages.add(str(err.value))
            assert messages == {"matrix deviates from Hermitian by 1.500e-10"}

    def test_trace_message_prints_a_plain_float(self):
        # the same text under numpy 1 and 2, never np.float64(1.5)
        with pytest.raises(ValueError) as err:
            density_to_bloch(np.eye(3) / 2)
        assert str(err.value) == "matrix trace 1.5 is not 1"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_vector_fails_closed(self, bad, dim):
        # a NaN component gave a NaN "state", an infinite one a RuntimeWarning
        n = np.zeros(dim * dim - 1)
        n[-1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                bloch_to_density(n)
        assert str(err.value) == f"Bloch vector must be finite, got {bad}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_fails_closed(self, bad):
        # a NaN defect compares False with any tolerance: it must still fail
        with pytest.raises(NonHermitianError):
            density_to_bloch(np.full((2, 2), bad))
        rho = np.eye(3, dtype=complex) / 3
        rho[1, 2] = rho[2, 1] = bad
        with pytest.raises(NonHermitianError):
            density_to_bloch(rho)


class TestStarProduct:
    def test_ground_state_fixed_point(self):
        np.testing.assert_allclose(
            star_product(GROUND_BLOCH, GROUND_BLOCH), GROUND_BLOCH, atol=1e-14
        )

    def test_e8_component(self):
        e8 = np.zeros(8)
        e8[7] = 1.0
        out = star_product(e8, e8)
        assert abs(out[7] + 1.0) < 1e-14  # sqrt(3) d_888 = -1

    def test_zero(self):
        np.testing.assert_array_equal(star_product(np.zeros(8), np.zeros(8)), np.zeros(8))

    def test_qubit_rejected(self):
        with pytest.raises(ValueError):
            star_product(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            star_product(np.zeros(8), np.zeros(15))

    def test_pure_d4_states_are_idempotent(self):
        # the factor b/(d-2) makes n * n = n for every pure state, here d = 4
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = haar_state(4, rng)
            n = density_to_bloch(np.outer(v, v.conj()))
            assert abs(n @ n - 1.0) <= 1e-12
            np.testing.assert_allclose(star_product(n, n), n, atol=1e-12)
        assert np.zeros(15) @ np.zeros(15) == 0.0  # no unit norm
        e15 = np.zeros(15)
        e15[14] = 1.0  # |n| = 1, but the last level alone is not a pure direction
        assert e15 @ e15 == 1.0
        assert np.max(np.abs(star_product(e15, e15) - e15)) > 0.5


def assert_pure(n):
    """|n| = 1 and, for d >= 3, n * n = n: the conditions validate measures, to 1e-10."""
    assert abs(n @ n - 1.0) <= 1e-10
    if n.size > 3:  # the qubit's d tensor vanishes, so |n| = 1 is its only condition
        assert np.max(np.abs(star_product(n, n) - n)) <= 1e-10


class TestPurity:
    def test_basis_states_pure(self):
        for k in range(3):
            rho = np.zeros((3, 3), dtype=complex)
            rho[k, k] = 1.0
            assert_pure(density_to_bloch(rho))

    def test_haar_states_pure(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = 2 if rng.integers(2) else 3
            v = haar_state(d, rng)
            assert_pure(density_to_bloch(np.outer(v, v.conj())))

    def test_maximally_mixed_not_pure(self):
        for size in (3, 8):
            n = np.zeros(size)
            assert abs(n @ n - 1.0) == 1.0
        np.testing.assert_array_equal(star_product(np.zeros(8), np.zeros(8)), np.zeros(8))

    @pytest.mark.parametrize("size", [3, 8])
    def test_non_finite_vector_is_not_pure(self, size):
        # a NaN or inf entry fails the norm condition: no comparison with it holds
        n = np.zeros(size)
        n[0] = 1.0
        for bad in (np.full(size, np.nan), np.r_[n[:-1], np.nan], np.r_[n[:-1], np.inf]):
            assert not abs(bad @ bad - 1.0) <= 1e-10

    def test_unit_norm_but_not_idempotent_fails(self):
        e8 = np.zeros(8)
        e8[7] = 1.0  # |n| = 1 yet n*n = -n: not a pure state direction
        assert e8 @ e8 == 1.0
        np.testing.assert_allclose(star_product(e8, e8), -e8, atol=1e-15)

    def test_basis_states_pairwise_angle(self):
        # orthogonal pure states open at cos(theta) = -1/2
        vecs = []
        for k in range(3):
            rho = np.zeros((3, 3), dtype=complex)
            rho[k, k] = 1.0
            vecs.append(density_to_bloch(rho))
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(vecs[i] @ vecs[j] + 0.5) < 1e-12


def atom_state(p2, p3, d12, d13, d23):
    """Three-level state from its excited populations and its coherences rho_jk."""
    return np.array(
        [
            [1.0 - p2 - p3, d12, d13],
            [np.conj(d12), p2, d23],
            [np.conj(d13), np.conj(d23), p3],
        ],
        dtype=complex,
    )


class TestAtomVars:
    """The Bloch vector of a qutrit given by populations and coherences."""

    def test_ground(self):
        np.testing.assert_allclose(
            density_to_bloch(atom_state(0.0, 0.0, 0, 0, 0)), GROUND_BLOCH, atol=1e-15
        )

    def test_excited_populations(self):
        n = density_to_bloch(atom_state(0.5, 0.5, 0, 0, 0))
        assert abs(n[2] + np.sqrt(3) / 4) < 1e-14
        assert abs(n[7] + 0.25) < 1e-14

    def test_matches_density_reconstruction(self):
        # n_i = (sqrt(3)/2) Tr(rho lambda_i): a coherence rho_jk gives the pair
        # (sqrt(3) Re rho_jk, -sqrt(3) Im rho_jk), and the populations p1
        # (ground), p2, p3 give n_3 = (sqrt(3)/2)(p1 - p2), n_8 = (p1 + p2 - 2 p3)/2
        rng = np.random.default_rng(9)
        r3 = np.sqrt(3)
        for _ in range(50):
            p1, p2, p3 = rng.dirichlet([1.0, 1.0, 1.0])
            scale = 0.1
            d12, d13, d23 = (
                scale * (rng.standard_normal() + 1j * rng.standard_normal())
                for _ in range(3)
            )
            rho = atom_state(p2, p3, d12, d13, d23)
            expected = [
                r3 * d12.real, -r3 * d12.imag, r3 / 2 * (p1 - p2),
                r3 * d13.real, -r3 * d13.imag, r3 * d23.real, -r3 * d23.imag,
                (p1 + p2 - 2 * p3) / 2,
            ]
            n = density_to_bloch(rho)
            np.testing.assert_allclose(n, expected, atol=1e-12)
            np.testing.assert_allclose(bloch_to_density(n), rho, atol=1e-12)

    def test_rejects_bad_populations(self):
        # populations that do not sum to 1 are not a state
        with pytest.raises(ValueError, match="trace"):
            density_to_bloch(np.diag([0.0, 0.7, 0.7]))
        with pytest.raises(ValueError, match="trace"):
            density_to_bloch(np.diag([0.0, -0.1, 0.5]))


def test_gell_mann_count_and_shape():
    g = generator_basis(3).generators
    assert g.shape == (8, 3, 3)
    rho = random_density_matrix(3, np.random.default_rng(10))
    n = density_to_bloch(rho)
    assert n.shape == (8,) and np.max(np.abs(n.imag if np.iscomplexobj(n) else 0)) == 0


DIMENSION_TAKERS = {
    "generator_basis": generator_basis,
    "werner": lambda d: werner(d, 0.5),
    "max_entangled": max_entangled,
    # the rate takers get the tuple of d - 1 unit rates
    "fidelity_closed": lambda d: fidelity_closed((1.0,) * (d - 1), 0.5),
    "indicator_crossing": lambda d: indicator_crossing(1.0, (1.0,) * (d - 1)),
    "preservation_inequality": lambda d: preservation_inequality(1.0, (1.0,) * (d - 1)),
    "haar_bloch_vectors": lambda d: haar_bloch_vectors(d, 10, 0),
    "ppt_threshold": ppt_threshold,
    "se_kraus_on_a_grid": lambda d: se_kraus((1.0,) * (d - 1), [0.5]),
    "se_kraus": lambda d: se_kraus((1.0,) * (d - 1), 0.5),
    "ChannelParams.rates": lambda d: ChannelParams().rates(d),
    "bloch_to_density": lambda d: bloch_to_density(np.zeros(d * d - 1)),
}


RATE_TAKERS = {
    "fidelity_closed", "indicator_crossing", "preservation_inequality", "se_kraus_on_a_grid",
    "se_kraus",
}


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("name", sorted(DIMENSION_TAKERS))
def test_unsupported_dimension_rejected_by_the_one_check(name, d):
    # every public function taking a dimension reaches su's one dimension check
    # (through generator_basis, or alone where it needs no basis), which rejects
    # d < 2, and every one taking arm rates reaches the one rate check, which
    # rejects d = 1's empty tuple; all of them answer d = 4, apart from
    # ChannelParams.rates, whose fields hold the qubit's and the qutrit's rates
    if d == 4 and name != "ChannelParams.rates":
        DIMENSION_TAKERS[name](d)
        return
    match = "dimension must be at least 2"
    if name in RATE_TAKERS:
        match = "arm rates must be"
    elif name == "ChannelParams.rates":
        match = "arm rates exist"
    with pytest.raises(ValueError, match=match):
        DIMENSION_TAKERS[name](d)
