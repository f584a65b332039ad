"""Channel forms: affine Bloch map, Kraus sets, Lindblad RK4, bipartite lifts.

The load-bearing test is the three-way agreement between the analytic affine
map, the operator-sum form, and fixed-step integration of the master
equation — three constructions sharing no code path beyond the generator
tables.
"""

import warnings

import numpy as np
import pytest

from qutrit_se import channels
from qutrit_se.channels import (
    AffineBlochMap,
    ChannelParams,
    apply_kraus,
    bipartite_channel,
    lindblad_evolve,
    lindblad_jump_ops,
    se_affine_map,
    se_kraus,
    se_kraus_qutrit,
)
from qutrit_se.linalg import dagger, hermitian_eigenvalues, kron, random_density_matrix
from qutrit_se.states import correlation_matrix, max_entangled, validate_density, werner
from qutrit_se.su import bloch_to_density, density_to_bloch, generator_basis

GROUND_BLOCH = np.array([0, 0, np.sqrt(3) / 2, 0, 0, 0, 0, 0.5])


def affine_route(rho, params):
    return bloch_to_density(se_affine_map(params).apply(density_to_bloch(rho)))


class TestChannelParams:
    def test_defaults_and_ratios(self):
        par = ChannelParams()
        assert par.q == 0.5 and par.t == 0.0
        par = ChannelParams(a1=2.0, a2=1.0, a3=3.0)
        assert par.a21 == 0.5 and par.a31 == 1.5

    def test_with_time(self):
        par = ChannelParams(a2=2.0).with_time(1.5)
        assert par.t == 1.5 and par.a2 == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(a2=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(t=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(q=1.5)
        for bad in ({"a1": np.nan}, {"a2": np.inf}, {"a3": -np.inf}, {"t": np.nan},
                    {"t": np.inf}, {"q": np.nan}):
            with pytest.raises(ValueError):
                ChannelParams(**bad)
        with pytest.raises(ValueError):
            ChannelParams(a2=1.0).with_time(np.inf)

    def test_rate_map(self):
        par = ChannelParams(a1=0.3, a2=1.7, a3=2.9)
        assert par.rates(2) == (0.3,) and par.rates(3) == (1.7, 2.9)


class TestAffineMap:
    def test_t_zero_is_identity(self):
        m = se_affine_map(ChannelParams(a2=1.3, a3=0.4, t=0.0))
        np.testing.assert_allclose(m.damping, np.eye(8), atol=1e-15)
        np.testing.assert_allclose(m.shift, np.zeros(8), atol=1e-15)

    def test_structure_diagonal_except_coupling(self):
        m = se_affine_map(ChannelParams(a2=1.0, a3=0.25, t=0.8))
        off = m.damping - np.diag(np.diag(m.damping))
        off[2, 7] = 0.0
        assert np.max(np.abs(off)) == 0.0
        # equal rates close the coupling entry
        m_eq = se_affine_map(ChannelParams(a2=0.7, a3=0.7, t=0.8))
        assert abs(m_eq.damping[2, 7]) < 1e-15

    def test_damping_profile(self):
        a2, a3, t = 1.0, 0.5, 0.9
        m = se_affine_map(ChannelParams(a2=a2, a3=a3, t=t))
        h2, h3 = np.exp(-a2 * t / 2), np.exp(-a3 * t / 2)
        expected = [h2, h2, h2 * h2, h3, h3, h2 * h3, h2 * h3, h3 * h3]
        np.testing.assert_allclose(np.diag(m.damping), expected, atol=1e-15)

    def test_ground_state_fixed_point(self):
        for t in (0.2, 1.0, 7.0):
            m = se_affine_map(ChannelParams(a2=1.1, a3=0.3, t=t))
            np.testing.assert_allclose(m.apply(GROUND_BLOCH), GROUND_BLOCH, atol=1e-14)

    def test_long_time_limit(self):
        m = se_affine_map(ChannelParams(a2=1.0, a3=1.5, t=80.0))
        assert np.max(np.abs(m.damping)) < 1e-15
        np.testing.assert_allclose(m.shift, GROUND_BLOCH, atol=1e-14)

    def test_semigroup_composition(self):
        par = ChannelParams(a2=1.3, a3=0.4)
        m1 = se_affine_map(par.with_time(0.6))
        m2 = se_affine_map(par.with_time(1.1))
        m12 = se_affine_map(par.with_time(1.7))
        np.testing.assert_allclose(m2.damping @ m1.damping, m12.damping, atol=1e-12)
        np.testing.assert_allclose(
            m2.damping @ m1.shift + m2.shift, m12.shift, atol=1e-12
        )


class TestKrausQutrit:
    def test_operator_entries(self):
        a2, a3, t = 1.0, 0.7, 0.9
        ch = se_kraus_qutrit(ChannelParams(a2=a2, a3=a3, t=t))
        k0, k1, k2 = ch.operators
        np.testing.assert_allclose(
            k0, np.diag([1.0, np.exp(-a2 * t / 2), np.exp(-a3 * t / 2)]), atol=1e-15
        )
        expected1 = np.zeros((3, 3), dtype=complex)
        expected1[0, 1] = np.sqrt(1 - np.exp(-a2 * t))
        np.testing.assert_allclose(k1, expected1, atol=1e-15)
        expected2 = np.zeros((3, 3), dtype=complex)
        expected2[0, 2] = np.sqrt(1 - np.exp(-a3 * t))
        np.testing.assert_allclose(k2, expected2, atol=1e-15)

    def test_t_zero_is_identity_channel(self):
        ch = se_kraus_qutrit(ChannelParams(a2=2.0, a3=0.5, t=0.0))
        np.testing.assert_allclose(ch.operators[0], np.eye(3), atol=1e-15)
        assert np.max(np.abs(ch.operators[1])) == 0.0
        assert np.max(np.abs(ch.operators[2])) == 0.0

    @pytest.mark.parametrize("rates", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_completeness(self, rates, t):
        ch = se_kraus_qutrit(ChannelParams(a2=rates[0], a3=rates[1], t=t))
        assert ch.completeness_defect() <= 1e-12

    def test_coefficient_table_keys(self):
        # key k<m><j>: Kraus operator m has a nonzero tr(lambda_j K_m), j = 0 the identity
        ops = se_kraus_qutrit(ChannelParams(a2=1.0, a3=1.0, t=0.3)).operators
        basis = np.concatenate([np.eye(3)[None], generator_basis(3).generators])
        coeff = np.einsum("jba,mab->mj", basis, np.array(ops))
        keys = {f"k{m}{j}" for m, j in zip(*np.nonzero(coeff))}
        assert keys == {"k00", "k03", "k08", "k11", "k12", "k24", "k25"}


class TestKrausQubit:
    def test_operator_entries(self):
        t = np.log(4.0)  # exp(-t) = 1/4
        ch = se_kraus((1.0,), t)
        k0, k1 = ch.operators
        np.testing.assert_allclose(k0, np.diag([1.0, 0.5]), atol=1e-15)
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = np.sqrt(3) / 2
        np.testing.assert_allclose(k1, expected, atol=1e-15)

    @pytest.mark.parametrize("a1", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_completeness(self, a1, t):
        assert se_kraus((a1,), t).completeness_defect() <= 1e-12

    def test_excited_population_decay(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        for a1, t in ((1.0, 0.5), (2.0, 1.7), (0.3, 4.0)):
            out = apply_kraus(rho, se_kraus((a1,), t))
            assert abs(out[1, 1].real - np.exp(-a1 * t)) < 1e-12
            assert abs(out[0, 0].real - (1 - np.exp(-a1 * t))) < 1e-12


class TestApplyKraus:
    def test_ground_state_invariant(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for t in (0.1, 1.0, 30.0):
            out = apply_kraus(rho, se_kraus_qutrit(ChannelParams(t=t)))
            np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_everything_decays_to_ground(self):
        rho = np.diag([0.0, 0.0, 1.0]).astype(complex)
        out = apply_kraus(rho, se_kraus_qutrit(ChannelParams(a2=1.0, a3=0.8, t=60.0)))
        np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-14)

    def test_third_level_population_decay(self):
        rho = np.diag([0.0, 0.0, 1.0]).astype(complex)
        out = apply_kraus(rho, se_kraus_qutrit(ChannelParams(a2=1.0, a3=0.8, t=1.3)))
        assert abs(out[2, 2].real - np.exp(-0.8 * 1.3)) < 1e-14

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(17)
        par = ChannelParams(a2=1.2, a3=0.4)
        for i in range(200):
            rho = random_density_matrix(3, rng)
            t = (0.1, 0.5, 1.0, 2.0)[i % 4]
            out = apply_kraus(rho, se_kraus_qutrit(par.with_time(t)))
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert validate_density(out).passed

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_kraus(np.eye(2) / 2, se_kraus_qutrit(ChannelParams(t=1.0)))


class TestLindblad:
    def test_jump_operator_matrices(self):
        l1, l2 = lindblad_jump_ops((4.0, 9.0))
        expected1 = np.zeros((3, 3), dtype=complex)
        expected1[0, 1] = 2.0  # sqrt(4)
        expected2 = np.zeros((3, 3), dtype=complex)
        expected2[0, 2] = 3.0  # sqrt(9)
        np.testing.assert_allclose(l1, expected1, atol=1e-15)
        np.testing.assert_allclose(l2, expected2, atol=1e-15)

    def test_zero_rates_freeze_the_state(self):
        rng = np.random.default_rng(18)
        rho = random_density_matrix(3, rng)
        out = lindblad_evolve(rho, ChannelParams(a2=0.0, a3=0.0, t=2.0), steps=50)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_population_decay_rate(self):
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        out = lindblad_evolve(rho, ChannelParams(a2=1.0, a3=0.5, t=1.0), steps=1000)
        assert abs(out[1, 1].real - np.exp(-1.0)) < 1e-9

    def test_three_way_agreement(self):
        # 50 random states; t grid {0.1, 0.5, 1, 2}/max(a2, a3); h = 1e-3
        rng = np.random.default_rng(19)
        a2, a3 = 1.0, 0.7
        par = ChannelParams(a2=a2, a3=a3)
        checkpoints = np.array([0.1, 0.5, 1.0, 2.0]) / max(a2, a3)
        worst_affine = worst_ode = 0.0
        for _ in range(50):
            rho0 = random_density_matrix(3, rng)
            rho_ode = rho0
            t_prev = 0.0
            for t in checkpoints:
                kraus = apply_kraus(rho0, se_kraus_qutrit(par.with_time(t)))
                affine = affine_route(rho0, par.with_time(t))
                worst_affine = max(worst_affine, np.max(np.abs(kraus - affine)))
                dt = t - t_prev
                rho_ode = lindblad_evolve(
                    rho_ode, par.with_time(dt), steps=int(np.ceil(dt / 1e-3))
                )
                t_prev = t
                worst_ode = max(worst_ode, np.max(np.abs(kraus - rho_ode)))
        assert worst_affine <= 1e-10
        assert worst_ode <= 1e-6

    def test_matches_classical_rk4_loop(self):
        # reference: k1..k4 written out from drho/dt = sum L rho L^dag - {G, rho}/2
        rng = np.random.default_rng(20)
        rho0 = random_density_matrix(3, rng)
        par = ChannelParams(a2=1.0, a3=0.7)
        jumps = lindblad_jump_ops(par.rates(3))
        gsum = sum(l.conj().T @ l for l in jumps)

        def rhs(r):
            return sum(l @ r @ l.conj().T for l in jumps) - 0.5 * (gsum @ r + r @ gsum)

        def rk4_loop(rho, h, steps):
            for _ in range(steps):
                k1 = rhs(rho)
                k2 = rhs(rho + 0.5 * h * k1)
                k3 = rhs(rho + 0.5 * h * k2)
                k4 = rhs(rho + h * k3)
                rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            return rho

        for t, steps, tol in ((0.3, 1, 1e-15), (2.0, 200, 1e-13)):
            got = lindblad_evolve(rho0, par.with_time(t), steps=steps)
            assert np.max(np.abs(got - rk4_loop(rho0, t / steps, steps))) <= tol

    def test_fourth_order_convergence(self):
        # error against the Kraus route at t = 1 must fall like h^4; an exact
        # exponential in place of RK4 would not show this order
        rng = np.random.default_rng(21)
        rho = random_density_matrix(3, rng)
        par = ChannelParams(a2=1.0, a3=0.7, t=1.0)
        exact = apply_kraus(rho, se_kraus_qutrit(par))
        errs = [
            np.max(np.abs(lindblad_evolve(rho, par, steps=n) - exact))
            for n in (4, 8, 16, 32)
        ]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders >= 3.8) & (orders <= 4.3)), orders

    def test_independent_of_other_routes(self, monkeypatch):
        # RK4 must not be derived from the Kraus form, the affine map or an
        # eigen-decomposition
        rng = np.random.default_rng(22)
        rho = random_density_matrix(3, rng)
        par = ChannelParams(a2=1.3, a3=0.4, t=0.8)
        expected = lindblad_evolve(rho, par, steps=800)

        def forbidden(*args, **kwargs):
            raise AssertionError("lindblad_evolve used another route")

        for name in ("se_kraus_qutrit", "_kraus_operators", "se_affine_map", "_affine_map"):
            monkeypatch.setattr(channels, name, forbidden)
        monkeypatch.setattr(np.linalg, "eig", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        # a cached ladder would skip the build this test guards
        channels._rk4_ladder.cache_clear()
        misses = channels._rk4_ladder.cache_info().misses
        np.testing.assert_array_equal(channels.lindblad_evolve(rho, par, steps=800), expected)
        assert channels._rk4_ladder.cache_info().misses > misses

    def test_generator_built_without_numpy_kron(self, monkeypatch):
        # the superoperator comes from linalg.kron, not np.kron
        rng = np.random.default_rng(23)
        rho = random_density_matrix(3, rng)
        par = ChannelParams(a2=0.9, a3=2.2, t=1.4)
        expected = lindblad_evolve(rho, par, steps=1400)

        def forbidden(*args, **kwargs):
            raise AssertionError("lindblad_evolve called np.kron")

        monkeypatch.setattr(np, "kron", forbidden)
        # a cached ladder would skip the build this test guards
        channels._rk4_ladder.cache_clear()
        misses = channels._rk4_ladder.cache_info().misses
        out = channels.lindblad_evolve(rho, par, steps=1400)
        assert out.tobytes() == expected.tobytes()
        assert channels._rk4_ladder.cache_info().misses > misses

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lindblad_evolve(np.eye(4) / 4, ChannelParams(t=1.0), steps=10)
        with pytest.raises(ValueError):
            lindblad_evolve(np.eye(3) / 3, ChannelParams(t=1.0), steps=0)


def reference_rk4_power(rho, rates, t, steps):
    """The RK4 step-matrix power with the generator built by np.kron."""
    dim = len(rates) + 1
    jumps = lindblad_jump_ops(rates)
    gsum = sum(dagger(l) @ l for l in jumps)
    eye = np.eye(dim)
    gen = sum(np.kron(l, l.conj()) for l in jumps) - 0.5 * (
        np.kron(gsum, eye) + np.kron(eye, gsum.T)
    )
    hs = (t / steps) * gen
    eye = np.eye(dim * dim)
    step = eye + hs @ (eye + hs @ (eye / 2 + hs @ (eye / 6 + hs / 24)))
    return (np.linalg.matrix_power(step, steps) @ rho.reshape(-1)).reshape(dim, dim)


class TestRk4Ladder:
    """The cached squaring ladder gives the uncached power's exact bits."""

    RATES = {"a2": 1.3, "a3": 0.4}

    @pytest.mark.parametrize(
        "steps",
        [1, 2, 3, 4, 5, 7, 8, 700, 1023, 1024, 2000, np.int64(700),
         pytest.param(2**600 + 5, id="2**600+5")],
    )
    def test_cold_and_warm_match_reference(self, steps):
        rng = np.random.default_rng(60)
        rho = random_density_matrix(3, rng)
        par = ChannelParams(**self.RATES, t=0.9)
        want = reference_rk4_power(rho, par.rates(3), par.t, steps)
        channels._rk4_ladder.cache_clear()
        cold = lindblad_evolve(rho, par, steps)
        misses = channels._rk4_ladder.cache_info().misses
        assert misses > 0
        warm = lindblad_evolve(rho, par, steps)
        assert channels._rk4_ladder.cache_info().misses == misses
        assert_same_bytes(cold, want)
        assert_same_bytes(warm, want)

    def test_repeat_with_another_state_reuses_the_ladder(self):
        rng = np.random.default_rng(61)
        par = ChannelParams(**self.RATES, t=1.7)
        first, second = random_density_matrix(3, rng), random_density_matrix(3, rng)
        channels._rk4_ladder.cache_clear()
        lindblad_evolve(first, par, 1700)
        misses = channels._rk4_ladder.cache_info().misses
        got = lindblad_evolve(second, par, 1700)
        assert channels._rk4_ladder.cache_info().misses == misses
        assert_same_bytes(got, reference_rk4_power(second, par.rates(3), par.t, 1700))

    def test_cached_matrices_are_read_only(self):
        ladder = channels._rk4_ladder((1.3, 0.4), 1e-3, 4)
        assert isinstance(ladder, tuple) and len(ladder) == 4
        for square in ladder:
            assert not square.flags.writeable
            with pytest.raises(ValueError):
                square[0, 0] = 0.0
        out = lindblad_evolve(np.eye(3) / 3, ChannelParams(**self.RATES, t=8e-3), 8)
        assert out.flags.writeable

    def test_cache_stays_bounded(self):
        bound = channels.RK4_LADDER_CACHE
        channels._rk4_ladder.cache_clear()
        for i in range(bound + 10):
            lindblad_evolve(np.eye(3) / 3, ChannelParams(a2=1.0 + i, t=0.5), 4)
            assert channels._rk4_ladder.cache_info().currsize <= bound
        assert channels._rk4_ladder.cache_info().currsize == bound


def reference_affine_map(rates, t):
    """The affine map with the pair damping written by a loop over (j, k)."""
    basis = generator_basis(len(rates) + 1)
    h = np.exp(-np.array((0.0, *rates)) * t / 2.0)
    lam = basis.generators.diagonal(axis1=1, axis2=2).real
    moved = (lam[:, :1] - lam) * (1.0 - h * h)
    damping = np.eye(basis.n_generators) + 0.5 * moved @ lam.T
    for k in range(1, basis.dim):
        for j in range(k):
            pair = k * k - 1 + 2 * j
            damping[pair, pair] = damping[pair + 1, pair + 1] = h[j] * h[k]
    shift = basis.bloch_scale / basis.dim * moved.sum(axis=1)
    return damping, shift


def assert_same_bytes(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def random_rates(rng, dim, undamped_first):
    """Log-uniform arm rates on [e^-3, e^3]; the first arm optionally at rate 0."""
    rates = np.exp(rng.uniform(-3.0, 3.0, dim - 1))
    if undamped_first:
        rates[0] = 0.0
    return tuple(rates)


class TestBuildersMatchReferences:
    """The Lindblad and affine builders return the references' exact bits."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_lindblad_evolve(self, dim):
        rng = np.random.default_rng(40 + dim)
        for i, steps in enumerate((1, 2, 3, 17, 250, 300, 999, 1000, 2048, 3000)):
            rates = random_rates(rng, dim, undamped_first=i == 5)
            t = float(rng.uniform(0.0, 20.0))
            rho = random_density_matrix(dim, rng)
            want = reference_rk4_power(rho, rates, t, steps)
            if dim == 4:  # ChannelParams maps d = 2 and 3 only
                got = channels._rk4_power(rho, rates, t, steps)
            else:
                rate_args = {"a1": rates[0]} if dim == 2 else dict(zip(("a2", "a3"), rates))
                got = lindblad_evolve(rho, ChannelParams(**rate_args, t=t), steps)
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_affine_map(self, dim):
        rng = np.random.default_rng(50 + dim)
        for i, t in enumerate(np.concatenate(([0.0, 20.0], rng.uniform(0.0, 20.0, 30)))):
            rates = random_rates(rng, dim, undamped_first=i % 8 == 3)
            m = channels._affine_map(rates, float(t))
            damping, shift = reference_affine_map(rates, float(t))
            assert_same_bytes(m.damping, damping)
            assert_same_bytes(m.shift, shift)


def test_diffusive_short_time_order():
    # ||K1(dt) - sqrt(dt) L1|| should shrink like dt^(3/2): order >= 1.4
    a2, a3 = 1.0, 0.7
    l1 = lindblad_jump_ops((a2, a3))[0]
    dts = 1e-2 / 2.0 ** np.arange(7)  # 1e-2 ... 1.5625e-4
    errs = []
    for dt in dts:
        k1 = se_kraus_qutrit(ChannelParams(a2=a2, a3=a3, t=dt)).operators[1]
        errs.append(np.max(np.abs(k1 - np.sqrt(dt) * l1)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.4


def test_choi_positivity_sampled_times():
    for i in range(20):
        t = 0.05 + 0.3 * i
        ch = se_kraus_qutrit(ChannelParams(a2=1.1, a3=0.6, t=t))
        choi = bipartite_channel(max_entangled(3), ch, mode="A")
        assert hermitian_eigenvalues(choi)[0] >= -1e-10


class TestKrausStack:
    @pytest.mark.parametrize("dim, build", [
        pytest.param(2, lambda par: se_kraus(par.rates(2), par.t), id="2-se_kraus"),
        (3, se_kraus_qutrit),
    ])
    def test_matches_single_time_builders(self, dim, build):
        par = ChannelParams(a1=0.7, a2=1.9, a3=0.35)
        times = np.array([0.0, 0.05, 0.9, 3.0, 40.0])
        stack = se_kraus(par.rates(dim), times)
        assert stack.dim == dim
        np.testing.assert_array_equal(stack.t, times)
        for i, t in enumerate(times):
            single = build(par.with_time(t))
            assert len(stack.operators) == len(single.operators)
            for k_stack, k_single in zip(stack.operators, single.operators):
                assert k_stack.shape == (len(times), dim, dim)
                np.testing.assert_array_equal(k_stack[i], k_single)
        assert stack.completeness_defect() <= 1e-12

    def test_rejects_other_dimensions(self):
        # d = 1 has no arm and is rejected; d = 4 (three arms) is answered
        with pytest.raises(ValueError, match="arm rates must be"):
            se_kraus((), [0.5])
        stack = se_kraus((1.3, 0.4, 2.1), [0.5])
        assert stack.dim == 4 and stack.operators[0].shape == (1, 4, 4)
        assert stack.completeness_defect() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("times", [[-1.0], [0.5, -1e-300], [np.nan], [1.0, np.nan, 2.0]])
    def test_rejects_negative_and_nan_times(self, dim, times):
        # a negative time gives h > 1, not a channel; ChannelParams rejects it too
        with pytest.raises(ValueError, match="times must be >= 0"):
            se_kraus(ChannelParams().rates(dim), times)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_infinite_time_is_fully_decayed(self, dim):
        stack = se_kraus(ChannelParams().rates(dim), [0.0, np.inf])
        k0, *jumps = stack.operators
        np.testing.assert_array_equal(k0[1], np.diag([1.0] + [0.0] * (dim - 1)))
        for m, k in enumerate(jumps, 1):
            np.testing.assert_array_equal(k[1], np.outer(np.eye(dim)[0], np.eye(dim)[m]))

    @pytest.mark.parametrize("times", [[np.inf], [0.0, 1.0, np.inf]])
    def test_undamped_arm_stays_undamped_at_infinite_time(self, times):
        # h = exp(-a t/2) is exp(nan) for a = 0 at t = inf; the limit is h = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = se_kraus((0.0, 1.0), times)
        k0 = stack.operators[0][-1]
        np.testing.assert_array_equal(k0, np.diag([1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(stack.operators[1][-1], np.zeros((3, 3)))
        assert stack.completeness_defect() == 0.0


class TestKrausInput:
    """``se_kraus`` and ``lindblad_jump_ops`` check their arm rates (and times)."""

    @pytest.mark.parametrize("rates", [(), (1.0, -0.5), (np.nan,), (1.0, np.inf)])
    def test_rejects_bad_rates(self, rates):
        with pytest.raises(ValueError, match="arm rates must be"):
            se_kraus(rates, 0.5)

    @pytest.mark.parametrize("rates", [(), (1.0, -0.5), (np.nan,)])
    def test_jump_operators_reject_bad_rates(self, rates):
        with pytest.raises(ValueError, match="arm rates must be"):
            lindblad_jump_ops(rates)

    @pytest.mark.parametrize("t", [-1.0, -1e-300, np.nan])
    def test_rejects_bad_scalar_time(self, t):
        with pytest.raises(ValueError, match="times must be >= 0"):
            se_kraus((1.0, 1.0), t)

    def test_scalar_time_gives_single_operators(self):
        ch = se_kraus((1.0, 2.0), np.inf)
        assert ch.dim == 3 and ch.t == np.inf and type(ch.t) is float
        assert [k.shape for k in ch.operators] == [(3, 3)] * 3
        np.testing.assert_array_equal(ch.operators[0], np.diag([1.0, 0.0, 0.0]))

    def test_matches_the_qutrit_builder(self):
        par = ChannelParams(a2=1.3, a3=0.4, t=0.8)
        for got, want in zip(se_kraus((1.3, 0.4), 0.8).operators, se_kraus_qutrit(par).operators):
            np.testing.assert_array_equal(got, want)


def kron_bipartite(rho, channel, mode, q=0.5):
    """Reference: lift each Kraus operator to A (x) B with an explicit kron."""
    ident = np.eye(channel.dim)

    def one_sided(side):
        lifted = [kron(k, ident) if side == "A" else kron(ident, k) for k in channel.operators]
        return sum(l @ rho @ dagger(l) for l in lifted)

    if mode == "symmetric":
        return q * one_sided("A") + (1 - q) * one_sided("B")
    return one_sided(mode)


def einsum_bipartite(rho, channel, mode, q=0.5):
    """Reference: contract each side with the (d, d, d, d) tensor of rho by einsum."""
    dim = channel.dim
    ops = np.stack(channel.operators, axis=-3)
    tensor = rho.reshape(dim, dim, dim, dim)
    specs = {"A": "...kax,xbyc,...kzy->...abzc", "B": "...kbx,axcy,...kzy->...abcz"}

    def one_sided(side):
        out = np.einsum(specs[side], ops, tensor, ops.conj(), optimize=True)
        return out.reshape(out.shape[:-4] + rho.shape)

    if mode == "symmetric":
        return q * one_sided("A") + (1 - q) * one_sided("B")
    return one_sided(mode)


class TestBipartite:
    @pytest.mark.parametrize("mode", ["A", "B", "symmetric"])
    @pytest.mark.parametrize("dim, build", [
        pytest.param(2, lambda par: se_kraus(par.rates(2), par.t), id="2-se_kraus"),
        (3, se_kraus_qutrit),
    ])
    def test_matches_kron_lifting(self, mode, dim, build):
        rng = np.random.default_rng(17 + dim)
        rho = random_density_matrix(dim * dim, rng)
        ch = build(ChannelParams(a1=1.2, a2=0.8, a3=2.1, t=0.65))
        out = bipartite_channel(rho, ch, mode, 0.35)
        np.testing.assert_allclose(out, kron_bipartite(rho, ch, mode, 0.35), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("stack", [None, 1, 7, 64])
    @pytest.mark.parametrize("mode", ["A", "B", "symmetric"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_einsum_contraction(self, dim, mode, stack, monkeypatch):
        rng = np.random.default_rng(60 + dim)
        rates = random_rates(rng, dim, undamped_first=False)
        times = rng.uniform(0.0, 6.0, stack or 1)
        ch = se_kraus(rates, times if stack else times[0])
        rho = random_density_matrix(dim * dim, rng)
        want = einsum_bipartite(rho, ch, mode, 0.35)

        def forbidden(*args, **kwargs):
            raise AssertionError("bipartite_channel must not call np.einsum")

        monkeypatch.setattr(np, "einsum", forbidden)
        got = bipartite_channel(rho, ch, mode, 0.35)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_stack_matches_per_time_calls(self):
        rng = np.random.default_rng(18)
        rho = random_density_matrix(9, rng)
        par = ChannelParams(a2=1.4, a3=0.5)
        times = np.linspace(0.0, 4.0, 7)
        for mode in ("A", "B", "symmetric"):
            out = bipartite_channel(rho, se_kraus(par.rates(3), times), mode, 0.7)
            assert out.shape == (7, 9, 9)
            for i, t in enumerate(times):
                single = bipartite_channel(rho, se_kraus_qutrit(par.with_time(t)), mode, 0.7)
                np.testing.assert_allclose(out[i], single, rtol=0, atol=1e-15)

    def test_t_zero_identity(self):
        rho = werner(3, 0.7)
        ch = se_kraus_qutrit(ChannelParams(t=0.0))
        np.testing.assert_allclose(bipartite_channel(rho, ch), rho, atol=1e-14)

    def test_one_sided_scales_diagonal_correlations(self):
        # equal rates: C_jj(t) = D_jj C_jj(0) for a one-sided channel
        a = 0.9
        par = ChannelParams(a2=a, a3=a, t=0.75)
        d_diag = np.diag(se_affine_map(par).damping)
        c0 = np.diag(correlation_matrix(max_entangled(3), 3))
        for mode in ("A", "B"):
            evolved = bipartite_channel(max_entangled(3), se_kraus_qutrit(par), mode)
            c_t = correlation_matrix(evolved, 3)
            np.testing.assert_allclose(np.diag(c_t), d_diag * c0, atol=1e-12)

    def test_symmetric_mixture_definition(self):
        rho = werner(3, 0.8)
        ch = se_kraus_qutrit(ChannelParams(a2=1.0, a3=0.4, t=0.6))
        q = 0.3
        mixed = bipartite_channel(rho, ch, "symmetric", q)
        direct = q * bipartite_channel(rho, ch, "A") + (1 - q) * bipartite_channel(
            rho, ch, "B"
        )
        np.testing.assert_allclose(mixed, direct, atol=1e-14)

    def test_output_is_a_state(self):
        rho = werner(2, 0.9)
        ch = se_kraus((1.3,), 0.8)
        out = bipartite_channel(rho, ch, "symmetric", 0.25)
        assert validate_density(out).passed

    def test_rejects_bad_mode_and_shape(self):
        ch = se_kraus_qutrit(ChannelParams(t=0.5))
        with pytest.raises(ValueError):
            bipartite_channel(werner(3, 0.5), ch, mode="C")
        with pytest.raises(ValueError):
            bipartite_channel(werner(2, 0.5), ch)
        with pytest.raises(ValueError):
            bipartite_channel(werner(3, 0.5), ch, q=1.1)


def test_affine_map_apply_type():
    m = AffineBlochMap(damping=np.eye(8), shift=np.zeros(8), t=0.0)
    n = np.arange(8.0)
    np.testing.assert_array_equal(m.apply(n), n)


ARM_RATES = {2: (0.8,), 3: (1.9, 0.35), 4: (1.3, 0.4, 2.1), 5: (1.3, 0.4, 2.1, 0.05)}


class TestEveryArmCount:
    """The rate-tuple builders for one to four arms (d = 2 to 5)."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_kraus_operator_entries(self, dim):
        rates, t = ARM_RATES[dim], 0.9
        ch = se_kraus(rates, t)
        k0, *jumps = ch.operators
        h = np.exp(-np.array(rates) * t / 2)
        np.testing.assert_array_equal(k0, np.diag([1.0, *h]))
        for m, (k, hm) in enumerate(zip(jumps, h), 1):
            expected = np.zeros((dim, dim), dtype=complex)
            expected[0, m] = np.sqrt(1 - hm * hm)
            np.testing.assert_array_equal(k, expected)
        assert ch.dim == dim and ch.completeness_defect() <= 1e-12

    def test_kraus_builders_read_no_generator(self, monkeypatch):
        # the Kraus form is written in the level basis; only the Bloch-vector
        # route reads the generator order
        par = ChannelParams(a1=0.7, a2=1.3, a3=0.4, t=0.8)
        builds = (lambda: se_kraus(par.rates(2), par.t), lambda: se_kraus_qutrit(par),
                  lambda: se_kraus(par.rates(3), [0.0, 2.0]))
        expected = [build() for build in builds]

        def forbidden(*args, **kwargs):
            raise AssertionError("the Kraus builder read the generator basis")

        monkeypatch.setattr(channels, "generator_basis", forbidden)
        built = [build() for build in builds]
        for got, want in zip(built, expected):
            for k_got, k_want in zip(got.operators, want.operators):
                np.testing.assert_array_equal(k_got, k_want)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_jump_operators(self, dim):
        jumps = lindblad_jump_ops((4.0, 9.0, 16.0)[: dim - 1])
        for m, l in enumerate(jumps, 1):
            expected = np.zeros((dim, dim), dtype=complex)
            expected[0, m] = m + 1.0
            np.testing.assert_array_equal(l, expected)

    def test_qubit_affine_map_is_amplitude_damping(self):
        a1, t = 0.8, 1.1
        m = channels._affine_map((a1,), t)
        h, e = np.exp(-a1 * t / 2), np.exp(-a1 * t)
        np.testing.assert_allclose(m.damping, np.diag([h, h, e]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(m.shift, [0, 0, 1 - e], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_affine_structure(self, dim):
        rates = ARM_RATES[dim]
        size = dim * dim - 1
        ground = density_to_bloch(np.diag([1.0] + [0.0] * (dim - 1)))
        m0 = channels._affine_map(rates, 0.0)
        np.testing.assert_allclose(m0.damping, np.eye(size), atol=1e-15)
        np.testing.assert_allclose(m0.shift, np.zeros(size), atol=1e-15)
        for t in (0.2, 1.0, 7.0):
            m = channels._affine_map(rates, t)
            np.testing.assert_allclose(m.apply(ground), ground, atol=1e-14)
            # only diagonal generators of a lower level feel a higher one
            diag = [(k + 1) ** 2 - 2 for k in range(1, dim)]
            off = m.damping - np.diag(np.diag(m.damping))
            off[np.ix_(diag, diag)] = np.tril(off[np.ix_(diag, diag)])
            assert not off.any()
        late = channels._affine_map(rates, 200.0)
        assert np.max(np.abs(late.damping)) < 1e-15
        np.testing.assert_allclose(late.shift, ground, atol=1e-14)
        m1, m2, m12 = (channels._affine_map(rates, t) for t in (0.6, 1.1, 1.7))
        np.testing.assert_allclose(m2.damping @ m1.damping, m12.damping, atol=1e-12)
        np.testing.assert_allclose(m2.damping @ m1.shift + m2.shift, m12.shift, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_three_way_agreement(self, dim):
        # Kraus vs affine <= 1e-10, Kraus vs RK4 at h = 1e-3 <= 1e-6
        rng = np.random.default_rng(30 + dim)
        rates = ARM_RATES[dim]
        worst_affine = worst_ode = 0.0
        for _ in range(10):
            rho0 = random_density_matrix(dim, rng)
            rho_ode, t_prev = rho0, 0.0
            for t in (0.1, 0.5, 1.0, 2.0):
                kraus = apply_kraus(rho0, se_kraus(rates, t))
                n = channels._affine_map(rates, t).apply(density_to_bloch(rho0))
                worst_affine = max(worst_affine, np.max(np.abs(kraus - bloch_to_density(n))))
                steps = int(round((t - t_prev) / 1e-3))
                rho_ode = channels._rk4_power(rho_ode, rates, t - t_prev, steps)
                t_prev = t
                worst_ode = max(worst_ode, np.max(np.abs(kraus - rho_ode)))
        assert worst_affine <= 1e-10
        assert worst_ode <= 1e-6

    def test_qubit_lindblad_from_the_state_shape(self):
        rho = random_density_matrix(2, np.random.default_rng(33))
        par = ChannelParams(a1=0.8, a2=5.0, a3=7.0, t=1.2)
        out = lindblad_evolve(rho, par, steps=1200)
        np.testing.assert_array_equal(out, channels._rk4_power(rho, (0.8,), 1.2, 1200))
        assert np.max(np.abs(out - apply_kraus(rho, se_kraus((0.8,), 1.2)))) <= 1e-6
