"""Channel forms: affine Bloch map, Kraus sets, Lindblad RK4, bipartite lifts.

The load-bearing test is the three-way agreement between the analytic affine
map, the operator-sum form, and fixed-step integration of the master
equation — three constructions sharing no code path beyond the generator
tables.
"""

import numpy as np
import pytest

from qutrit_se import channels
from qutrit_se.channels import (
    AffineBlochMap,
    ChannelParams,
    KrausChannel,
    apply_kraus,
    bipartite_channel,
    lindblad_evolve,
    lindblad_jump_ops,
    se_affine_map,
    se_kraus_qubit,
    se_kraus_qutrit,
    se_kraus_stack,
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
        ch = se_kraus_qubit(ChannelParams(a1=1.0, t=t))
        k0, k1 = ch.operators
        np.testing.assert_allclose(k0, np.diag([1.0, 0.5]), atol=1e-15)
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = np.sqrt(3) / 2
        np.testing.assert_allclose(k1, expected, atol=1e-15)

    @pytest.mark.parametrize("a1", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_completeness(self, a1, t):
        assert se_kraus_qubit(ChannelParams(a1=a1, t=t)).completeness_defect() <= 1e-12

    def test_excited_population_decay(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        for a1, t in ((1.0, 0.5), (2.0, 1.7), (0.3, 4.0)):
            out = apply_kraus(rho, se_kraus_qubit(ChannelParams(a1=a1, t=t)))
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
        l1, l2 = lindblad_jump_ops(4.0, 9.0)
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
        jumps = lindblad_jump_ops(par.a2, par.a3)
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
        np.testing.assert_array_equal(channels.lindblad_evolve(rho, par, steps=800), expected)

    def test_generator_built_without_numpy_kron(self, monkeypatch):
        # the superoperator comes from linalg.kron, not np.kron
        rng = np.random.default_rng(23)
        rho = random_density_matrix(3, rng)
        par = ChannelParams(a2=0.9, a3=2.2, t=1.4)
        expected = lindblad_evolve(rho, par, steps=1400)

        def forbidden(*args, **kwargs):
            raise AssertionError("lindblad_evolve called np.kron")

        monkeypatch.setattr(np, "kron", forbidden)
        out = channels.lindblad_evolve(rho, par, steps=1400)
        assert out.tobytes() == expected.tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            lindblad_evolve(np.eye(4) / 4, ChannelParams(t=1.0), steps=10)
        with pytest.raises(ValueError):
            lindblad_evolve(np.eye(3) / 3, ChannelParams(t=1.0), steps=0)


def reference_rk4_power(rho, rates, t, steps):
    """The RK4 step-matrix power with the generator built by np.kron."""
    dim = len(rates) + 1
    jumps = lindblad_jump_ops(*rates)
    gsum = sum(dagger(l) @ l for l in jumps)
    eye = np.eye(dim)
    gen = sum(np.kron(l, l.conj()) for l in jumps) - 0.5 * (
        np.kron(gsum, eye) + np.kron(eye, gsum.T)
    )
    hs = (t / steps) * gen
    eye = np.eye(dim * dim)
    step = eye + hs @ (eye + hs @ (eye / 2 + hs @ (eye / 6 + hs / 24)))
    return (np.linalg.matrix_power(step, steps) @ rho.reshape(-1)).reshape(dim, dim)


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
    l1 = lindblad_jump_ops(a2, a3)[0]
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
    @pytest.mark.parametrize("dim, build", [(2, se_kraus_qubit), (3, se_kraus_qutrit)])
    def test_matches_single_time_builders(self, dim, build):
        par = ChannelParams(a1=0.7, a2=1.9, a3=0.35)
        times = np.array([0.0, 0.05, 0.9, 3.0, 40.0])
        stack = se_kraus_stack(dim, par, times)
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
        with pytest.raises(ValueError):
            se_kraus_stack(4, ChannelParams(), [0.5])


def kron_bipartite(rho, channel, mode, q=0.5):
    """Reference: lift each Kraus operator to A (x) B with an explicit kron."""
    ident = np.eye(channel.dim)

    def one_sided(side):
        lifted = [kron(k, ident) if side == "A" else kron(ident, k) for k in channel.operators]
        return sum(l @ rho @ dagger(l) for l in lifted)

    if mode == "symmetric":
        return q * one_sided("A") + (1 - q) * one_sided("B")
    return one_sided(mode)


class TestBipartite:
    @pytest.mark.parametrize("mode", ["A", "B", "symmetric"])
    @pytest.mark.parametrize("dim, build", [(2, se_kraus_qubit), (3, se_kraus_qutrit)])
    def test_matches_kron_lifting(self, mode, dim, build):
        rng = np.random.default_rng(17 + dim)
        rho = random_density_matrix(dim * dim, rng)
        ch = build(ChannelParams(a1=1.2, a2=0.8, a3=2.1, t=0.65))
        out = bipartite_channel(rho, ch, mode, 0.35)
        np.testing.assert_allclose(out, kron_bipartite(rho, ch, mode, 0.35), rtol=0, atol=1e-15)

    def test_stack_matches_per_time_calls(self):
        rng = np.random.default_rng(18)
        rho = random_density_matrix(9, rng)
        par = ChannelParams(a2=1.4, a3=0.5)
        times = np.linspace(0.0, 4.0, 7)
        for mode in ("A", "B", "symmetric"):
            out = bipartite_channel(rho, se_kraus_stack(3, par, times), mode, 0.7)
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
        ch = se_kraus_qubit(ChannelParams(a1=1.3, t=0.8))
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


ARM_RATES = {2: (0.8,), 4: (1.3, 0.4, 2.1)}


class TestEveryArmCount:
    """The rate-tuple builders for one and three arms (d = 2, 4)."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_kraus_operator_entries(self, dim):
        rates, t = ARM_RATES[dim], 0.9
        k0, *jumps = channels._kraus_operators(rates, t)
        h = np.exp(-np.array(rates) * t / 2)
        np.testing.assert_allclose(k0, np.diag([1.0, *h]), atol=1e-15)
        for m, (k, hm) in enumerate(zip(jumps, h), 1):
            expected = np.zeros((dim, dim), dtype=complex)
            expected[0, m] = np.sqrt(1 - hm * hm)
            np.testing.assert_allclose(k, expected, atol=1e-15)
        assert KrausChannel(dim, (k0, *jumps), t).completeness_defect() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 4])
    def test_jump_operators(self, dim):
        jumps = lindblad_jump_ops(*(4.0, 9.0, 16.0)[: dim - 1])
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
                ops = channels._kraus_operators(rates, t)
                kraus = apply_kraus(rho0, KrausChannel(dim, ops, t))
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
        assert np.max(np.abs(out - apply_kraus(rho, se_kraus_qubit(par)))) <= 1e-6
