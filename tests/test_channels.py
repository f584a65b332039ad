"""Channel forms: affine Bloch map, Kraus sets, Lindblad RK4, bipartite lifts.

The load-bearing test is the three-way agreement between the analytic affine
map, the operator-sum form, and fixed-step integration of the master
equation — three constructions sharing no code path beyond the generator
tables.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qutrit_se import channels
from qutrit_se.analysis import negativity
from qutrit_se.channels import (
    AffineBlochMap,
    ChannelParams,
    apply_kraus,
    completeness_defect,
    lift,
    lindblad_evolve,
    lindblad_jump_ops,
    se_affine_map,
    se_kraus,
    se_kraus_qutrit,
    superoperator,
)
from qutrit_se.linalg import dagger, hermitian_eigenvalues, random_density_matrix
from qutrit_se.states import correlation_matrix, max_entangled, werner
from qutrit_se.su import bloch_to_density, density_to_bloch, generator_basis

GROUND_BLOCH = np.array([0, 0, np.sqrt(3) / 2, 0, 0, 0, 0, 0.5])


def affine_route(rho, params):
    return bloch_to_density(se_affine_map(params).apply(density_to_bloch(rho)))


def assert_is_state(rho):
    # unit trace, and no eigenvalue below -1e-10; the eigensolver raises on a
    # matrix more than 1e-10 from Hermitian
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert hermitian_eigenvalues(rho)[0] >= -1e-10


class TestChannelParams:
    def test_defaults_and_ratios(self):
        par = ChannelParams()
        assert par.q == 0.5 and par.t == 0.0

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
                    {"q": np.nan}):
            with pytest.raises(ValueError):
                ChannelParams(**bad)

    @pytest.mark.parametrize("builds", [
        pytest.param((lambda: ChannelParams(a2=-1.0),
                      lambda: se_kraus((-1.0, 1.0), 0.5),
                      lambda: lindblad_jump_ops((-1.0,))), id="arm-rate"),
        pytest.param((lambda: ChannelParams(q=1.5),
                      lambda: lift(werner(3, 0.5), superoperator(se_kraus((1.0, 1.0), 0.5)),
                                   q=1.5)),
                     id="mixing-weight"),
        pytest.param((lambda: ChannelParams(t=-0.1),
                      lambda: ChannelParams(a2=2.0).with_time(-0.1),
                      lambda: se_kraus((1.0,), -0.1),
                      lambda: se_kraus((1.0, 1.0), [0.5, -0.1])), id="time"),
    ])
    def test_one_rule_one_message(self, builds):
        # each input rule has one owner, so every entry point that takes the
        # input rejects it with the same message
        messages = set()
        for build in builds:
            with pytest.raises(ValueError) as err:
                build()
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    def test_rate_map(self):
        par = ChannelParams(a1=0.3, a2=1.7, a3=2.9)
        assert par.rates(2) == (0.3,) and par.rates(3) == (1.7, 2.9)

    @pytest.mark.parametrize("a2, a3", [(1.3, 0.4), (0.0, 0.4), (1.3, 0.0)])
    def test_infinite_time_is_the_decayed_limit(self, a2, a3):
        # t = inf as se_kraus takes it: the Kraus operators of the limit, bit
        # for bit, and an affine map that acts as they do, which a time long
        # enough to decay every damped arm below 1e-80 also gives
        par = ChannelParams(a2=a2, a3=a3, t=np.inf)
        assert par == ChannelParams(a2=a2, a3=a3).with_time(np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kraus, m = se_kraus_qutrit(par), se_affine_map(par)
        limit = se_kraus((a2, a3), np.inf)
        np.testing.assert_array_equal(kraus, limit)
        late = se_affine_map(par.with_time(1e3))
        np.testing.assert_allclose(m.damping, late.damping, rtol=0, atol=1e-15)
        np.testing.assert_allclose(m.shift, late.shift, rtol=0, atol=1e-15)
        rng = np.random.default_rng(47)
        for _ in range(5):
            rho = random_density_matrix(3, rng)
            got = bloch_to_density(m.apply(density_to_bloch(rho)))
            assert np.max(np.abs(got - apply_kraus(rho, limit))) <= 1e-12


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

    @pytest.mark.parametrize("num", [float, np.float64])
    @pytest.mark.parametrize("a2, a3", [(1e308, 1.0), (0.5, 1e308)])
    def test_overflowing_decay_is_the_kraus_limit(self, num, a2, a3):
        # a*t past the float range is meant: the arm is fully decayed, h = 0,
        # with no overflow warning, as in the Kraus route
        params = ChannelParams(a2=num(a2), a3=num(a3), t=num(10.0))
        rho = random_density_matrix(3, np.random.default_rng(30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = affine_route(rho, params)
            want = apply_kraus(rho, se_kraus_qutrit(params))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

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
        k0, k1, k2 = ch
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
        np.testing.assert_allclose(ch[0], np.eye(3), atol=1e-15)
        assert np.max(np.abs(ch[1])) == 0.0
        assert np.max(np.abs(ch[2])) == 0.0

    @pytest.mark.parametrize("rates", [(1.0, 1.0), (2.0, 1.0), (0.5, 3.0)])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_completeness(self, rates, t):
        ch = se_kraus_qutrit(ChannelParams(a2=rates[0], a3=rates[1], t=t))
        assert completeness_defect(ch) <= 1e-12

    def test_coefficient_table_keys(self):
        # key k<m><j>: Kraus operator m has a nonzero tr(lambda_j K_m), j = 0 the identity
        ops = se_kraus_qutrit(ChannelParams(a2=1.0, a3=1.0, t=0.3))
        basis = np.concatenate([np.eye(3)[None], generator_basis(3).generators])
        coeff = np.einsum("jba,mab->mj", basis, ops)
        keys = {f"k{m}{j}" for m, j in zip(*np.nonzero(coeff))}
        assert keys == {"k00", "k03", "k08", "k11", "k12", "k24", "k25"}


class TestKrausQubit:
    def test_operator_entries(self):
        t = np.log(4.0)  # exp(-t) = 1/4
        ch = se_kraus((1.0,), t)
        k0, k1 = ch
        np.testing.assert_allclose(k0, np.diag([1.0, 0.5]), atol=1e-15)
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = np.sqrt(3) / 2
        np.testing.assert_allclose(k1, expected, atol=1e-15)

    @pytest.mark.parametrize("a1", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
    def test_completeness(self, a1, t):
        assert completeness_defect(se_kraus((a1,), t)) <= 1e-12

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
            assert_is_state(out)

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

    def test_infinite_time_is_rejected(self):
        # RK4's step h = t/steps needs a finite t, which ChannelParams does not
        rho = random_density_matrix(3, np.random.default_rng(17))
        for par in (ChannelParams(t=np.inf), ChannelParams(a2=1.0).with_time(np.inf)):
            with pytest.raises(ValueError, match="RK4 needs a finite t, got inf"):
                lindblad_evolve(rho, par, steps=10)

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
        # the generator's jump term is one einsum over the jump operators and
        # its decay term a diagonal, so neither is built with np.kron
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
        for rho in (np.ones((3, 2)), np.ones(3) / 3):
            with pytest.raises(ValueError, match="expected a square state"):
                lindblad_evolve(rho, ChannelParams(t=1.0), steps=10)


class TestRk4Stability:
    """RK4 raises past h * max(rates) = 2.785..., and inside it gives a state."""

    def test_bound_is_where_the_amplification_returns_to_one(self):
        def amplification(z):
            return 1.0 + z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0

        bound = channels._RK4_BOUND
        assert abs(bound - 2.785293563405282) <= 1e-15
        assert abs(amplification(-bound) - 1.0) <= 1e-15
        assert amplification(-1.001 * bound) > 1.0 > amplification(-0.999 * bound)

    def test_diverging_step_raises(self):
        # h * max(rates) = 10 returned populations (-290, 145.5, 145.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^RK4 is unstable: h \* max\(rates\) = 10 > 2\.78529$"):
                lindblad_evolve(np.diag([0.0, 0.5, 0.5]), ChannelParams(t=10.0), steps=1)

    @pytest.mark.parametrize("steps", [1, 4, 1024])
    def test_step_just_past_the_bound_raises(self, steps):
        # t = steps * h is exact for these step counts; a3 = 1 is the largest rate
        rho = np.diag([0.0, 0.5, 0.5])
        bound = channels._RK4_BOUND
        inside = lindblad_evolve(rho, ChannelParams(a2=0.5, a3=1.0, t=steps * bound), steps)
        assert abs(np.trace(inside) - 1.0) <= 1e-12
        past = ChannelParams(a2=0.5, a3=1.0, t=steps * math.nextafter(bound, 3.0))
        with pytest.raises(ValueError, match="RK4 is unstable"):
            lindblad_evolve(rho, past, steps)

    @settings(max_examples=200, deadline=None)
    @given(
        rates=st.lists(st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(math.exp)),
                       min_size=1, max_size=2),
        share=st.floats(0.0, 1.0),
        steps=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inside_the_bound_the_state_keeps_trace_and_populations(self, rates, share, steps, seed):
        bound, top = channels._RK4_BOUND, max(rates)
        t = share * bound * steps / top if top else share * steps
        assume(t / steps * top <= bound)
        rate_args = {"a1": rates[0]} if len(rates) == 1 else dict(zip(("a2", "a3"), rates))
        rho = random_density_matrix(len(rates) + 1, np.random.default_rng(seed))
        out = lindblad_evolve(rho, ChannelParams(**rate_args, t=t), steps)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        # in [0, 1] to rounding: a decayed ground level may round to 1 + 2^-52
        populations = out.diagonal().real
        assert populations.min() >= -1e-12 and populations.max() <= 1.0 + 1e-12


def reference_rk4_power(rho, rates, t, steps, dtype=float):
    """The RK4 step-matrix power with the generator built by np.kron.

    The jump operators are real, so by default the generator, the step matrix
    and its power are float64, as in ``lindblad_evolve``; ``dtype=complex``
    builds them all in complex128. The state is complex128 either way.
    """
    dim = len(rates) + 1
    jumps = lindblad_jump_ops(rates).real.astype(dtype)
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
            assert square.dtype == np.float64
        out = lindblad_evolve(np.eye(3) / 3, ChannelParams(**self.RATES, t=8e-3), 8)
        assert out.flags.writeable
        assert out.dtype == np.complex128

    def test_cache_stays_bounded(self):
        bound = channels.RK4_LADDER_CACHE
        channels._rk4_ladder.cache_clear()
        for i in range(bound + 10):
            # h = 0.0125, so h * a2 <= 1.73 stays within RK4's stability bound
            lindblad_evolve(np.eye(3) / 3, ChannelParams(a2=1.0 + i, t=0.05), 4)
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


def reference_apply_kraus(rho, kraus):
    """sum_k K_k rho K_k^dag as a Python sum over the operators, in order."""
    return sum(k @ rho @ dagger(k) for k in kraus)


def reference_completeness_defect(kraus):
    """max |sum_k K_k^dag K_k - I| with the k terms added by a Python sum."""
    acc = sum(dagger(k) @ k for k in kraus)
    return float(np.max(np.abs(acc - np.eye(np.shape(kraus)[-1]))))


def kraus_cases(rng, dim):
    """Operator arrays at scalar times and on (d, T, d, d) grids, t = 0 and inf included."""
    for i, t in enumerate((0.0, np.inf, *rng.uniform(0.0, 20.0, 6))):
        rates = random_rates(rng, dim, undamped_first=i % 3 == 1)
        yield se_kraus(rates, t)
        yield se_kraus(rates, np.concatenate(([0.0, np.inf, t], rng.uniform(0.0, 20.0, 4))))


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
    """The Lindblad, affine and Kraus builders return the references' exact bits."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_lindblad_evolve(self, dim):
        rng = np.random.default_rng(40 + dim)
        for i, steps in enumerate((1, 2, 3, 17, 250, 300, 999, 1000, 2048, 3000)):
            rates = random_rates(rng, dim, undamped_first=i == 5)
            # t up to 20, and h * max(rates) <= 2.5, within RK4's stability bound
            t = float(rng.uniform(0.0, min(20.0, 2.5 * steps / max(*rates, 0.125))))
            rho = random_density_matrix(dim, rng)
            want = reference_rk4_power(rho, rates, t, steps)
            if dim > 3:  # ChannelParams maps d = 2 and 3 only
                got = channels._rk4_power(rho, rates, t, steps)
            else:
                rate_args = {"a1": rates[0]} if dim == 2 else dict(zip(("a2", "a3"), rates))
                got = lindblad_evolve(rho, ChannelParams(**rate_args, t=t), steps)
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_lindblad_evolve_stays_near_the_complex_route(self, dim):
        # the float64 step matrix and its powers sum in dgemm's order, not
        # zgemm's, so a general draw may differ from the complex128 kron
        # reference in the last bits, here by at most 4e-15
        rng = np.random.default_rng(70 + dim)
        for i, steps in enumerate((1, 2, 3, 5, 17, 64, 250, 999, 1000, 2048, 3000)):
            rates = random_rates(rng, dim, undamped_first=i == 4)
            t = float(rng.uniform(0.0, min(20.0, 2.7 * steps / max(*rates, 0.125))))
            rho = random_density_matrix(dim, rng)
            got = channels._rk4_power(rho, rates, t, steps)
            want = reference_rk4_power(rho, rates, t, steps, dtype=complex)
            assert got.dtype == want.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 4e-15

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_affine_map(self, dim):
        rng = np.random.default_rng(50 + dim)
        for i, t in enumerate(np.concatenate(([0.0, 20.0], rng.uniform(0.0, 20.0, 30)))):
            rates = random_rates(rng, dim, undamped_first=i % 8 == 3)
            m = channels._affine_map(rates, float(t))
            damping, shift = reference_affine_map(rates, float(t))
            assert_same_bytes(m.damping, damping)
            assert_same_bytes(m.shift, shift)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_apply_kraus(self, dim):
        rng = np.random.default_rng(70 + dim)
        for kraus in kraus_cases(rng, dim):
            rho = random_density_matrix(dim, rng)
            assert_same_bytes(apply_kraus(rho, kraus), reference_apply_kraus(rho, kraus))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_completeness_defect(self, dim):
        rng = np.random.default_rng(80 + dim)
        for kraus in kraus_cases(rng, dim):
            got = np.float64(completeness_defect(kraus))
            assert_same_bytes(got, np.float64(reference_completeness_defect(kraus)))


@np.errstate(over="ignore")  # a*t = inf is meant: h = exp(-inf) = 0
def errstate_arm_factors(rates, t):
    """The arm factors with np.errstate entered for every operand type."""
    return [np.exp(-a * t / 2.0) if a else np.ones_like(t, dtype=float) for a in rates]


def errstate_kraus_operators(rates, t):
    """The operator array of se_kraus, its arm factors from ``errstate_arm_factors``."""
    dim = len(rates) + 1
    ops = np.zeros((dim, *np.shape(t), dim, dim), dtype=complex)
    ops[0, ..., 0, 0] = 1.0
    for m, h in enumerate(errstate_arm_factors(rates, t), 1):
        ops[0, ..., m, m] = h
        ops[m, ..., 0, m] = np.sqrt(1.0 - h * h)
    return ops


def allocating_affine_map(rates, t):
    """The affine map with a new array for every term and the shift by ``.sum``."""
    toward, lam_t, eye, pairs, js, ks, shift_scale = channels._affine_layout(len(rates) + 1)
    h = np.array([1.0, *errstate_arm_factors(rates, t)])
    moved = toward * (1.0 - h * h)
    damping = eye + 0.5 * moved @ lam_t
    damping[pairs, pairs] = h[js] * h[ks]
    return damping, shift_scale * moved.sum(axis=1)


def summed_apply_kraus(rho, kraus):
    """sum_k K_k rho K_k^dag by ``.sum`` over the stacked products."""
    return (kraus @ rho @ dagger(kraus)).sum(axis=0)


def complex_jump_ops(rates):
    """The jump operators sqrt(a_m) |0><m| written into a complex array."""
    ops = np.zeros((len(rates), len(rates) + 1, len(rates) + 1), dtype=complex)
    for m, a in enumerate(rates, 1):
        ops[m - 1, 0, m] = np.sqrt(a)
    return ops


def superoperator_rk4_step(rates, h):
    """The RK4 step matrix, its jump term from superoperator, its decay term by np.diag."""
    jumps = complex_jump_ops(rates).real
    g = (dagger(jumps) @ jumps).sum(axis=0).diagonal()
    gen = superoperator(jumps) - 0.5 * np.diag((g[:, None] + g[None, :]).ravel())
    hs = h * gen
    eye = np.eye(len(g) ** 2)
    return eye + hs @ (eye + hs @ (eye / 2 + hs @ (eye / 6 + hs / 24)))


def operand_types(rates, t):
    """(rates, t) as Python floats, as np.float64, and the two mixed."""
    plain, wide = tuple(map(float, rates)), tuple(map(np.float64, rates))
    return [(plain, float(t)), (wide, np.float64(t)),
            (plain, np.float64(t)), (wide, float(t))]


def single_time_draws(rng, dim, times=None):
    """(rates, t) at t = 0, inf (unless ``times`` is given) and U(0, 20), each in every
    operand type; every third draw has an undamped first arm, at rate 0.0 or -0.0."""
    times = (0.0, np.inf, *rng.uniform(0.0, 20.0, 7)) if times is None else times
    for i, t in enumerate(times):
        rates = random_rates(rng, dim, undamped_first=i % 3 == 1)
        if i % 6 == 4:
            rates = (-0.0, *rates[1:])
        yield from operand_types(rates, t)


def signed_zero_state(rng, dim):
    """A random state with -0.0 in the real or imaginary part of some entries."""
    rho = random_density_matrix(dim, rng)
    rho[0, 1] = complex(-0.0, rho[0, 1].imag)
    rho[1, 0] = complex(-0.0, -rho[0, 1].imag)
    rho[0, 0] = complex(rho[0, 0].real, -0.0)
    return rho


class TestSingleTimeRoutesKeepTheirBits:
    """The single-time Kraus, affine and RK4 builders give the exact bytes of their
    allocating, always-errstate forms, for float and np.float64 operands."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_arm_factors(self, dim):
        rng = np.random.default_rng(140 + dim)
        for rates, t in single_time_draws(rng, dim):
            got, want = channels._arm_factors(rates, t), errstate_arm_factors(rates, t)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same_bytes(np.asarray(a), np.asarray(b))

    def test_numpy_operands_overflow_without_a_warning(self):
        # np.float64 is a float, yet its products warn on overflow, so the
        # errstate of _arm_factors must cover them
        with pytest.warns(RuntimeWarning, match="overflow"):
            np.float64(1e300) * 1e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rates, t in operand_types((1e300, 0.0, 2.0), 1e10):
                h = channels._arm_factors(rates, t)
                assert [float(x) for x in h] == [0.0, 1.0, float(np.exp(-1e10))]

    def test_plain_float_operands_enter_no_errstate(self, monkeypatch):
        # no Python float product warns, so floats skip the errstate's cost
        want = channels._arm_factors((1e300, 0.0), 1e10)

        def forbidden(*args, **kwargs):
            raise AssertionError("entered np.errstate")

        monkeypatch.setattr(np, "errstate", forbidden)
        assert channels._arm_factors((1e300, 0.0), 1e10) == want
        with pytest.raises(AssertionError, match="entered np.errstate"):
            channels._arm_factors((np.float64(1e300), 0.0), 1e10)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_kraus_operators(self, dim):
        rng = np.random.default_rng(150 + dim)
        for rates, t in single_time_draws(rng, dim):
            want = errstate_kraus_operators(rates, t)
            assert_same_bytes(channels._kraus_operators(rates, t), want)
            assert_same_bytes(se_kraus(rates, t), want)
            if dim < 4:
                names = ("a2", "a3") if dim == 3 else ("a1",)
                par = ChannelParams(**dict(zip(names, rates)), t=t)
                assert_same_bytes(se_kraus(par.rates(dim), par.t), want)
                if dim == 3:
                    assert_same_bytes(se_kraus_qutrit(par), want)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_affine_map(self, dim):
        rng = np.random.default_rng(160 + dim)
        for rates, t in single_time_draws(rng, dim):
            damping, shift = allocating_affine_map(rates, t)
            got = channels._affine_map(rates, t)
            assert_same_bytes(got.damping, damping)
            assert_same_bytes(got.shift, shift)
            if dim == 3:
                got = se_affine_map(ChannelParams(a2=rates[0], a3=rates[1], t=t))
                assert_same_bytes(got.damping, damping)
                assert_same_bytes(got.shift, shift)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_apply_kraus(self, dim):
        rng = np.random.default_rng(170 + dim)
        for i, (rates, t) in enumerate(single_time_draws(rng, dim)):
            rho = signed_zero_state(rng, dim) if i % 2 else random_density_matrix(dim, rng)
            kraus = se_kraus(rates, t)
            assert_same_bytes(apply_kraus(rho, kraus), summed_apply_kraus(rho, kraus))
            # a list of operators is an operator array too
            assert_same_bytes(apply_kraus(rho, list(kraus)), summed_apply_kraus(rho, kraus))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_jump_operators(self, dim):
        rng = np.random.default_rng(180 + dim)
        for rates, _ in single_time_draws(rng, dim, times=(1.0,) * 6):
            want = complex_jump_ops(tuple(map(float, rates)))
            assert_same_bytes(lindblad_jump_ops(rates), want)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_rk4_step(self, dim):
        rng = np.random.default_rng(190 + dim)
        for rates, t in single_time_draws(rng, dim, times=(0.0, *rng.uniform(0.0, 20.0, 7))):
            for steps in (1, 3, 1000):
                h = t / steps
                want = superoperator_rk4_step(rates, h)
                assert_same_bytes(channels._rk4_step(rates, h), want)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_with_time(self, dim):
        rng = np.random.default_rng(200 + dim)
        names = ("a2", "a3") if dim == 3 else ("a1",)
        for rates, t in single_time_draws(rng, dim):
            par = ChannelParams(**dict(zip(names, rates)), q=float(rng.uniform()))
            got, want = par.with_time(t), ChannelParams(par.a1, par.a2, par.a3, t, par.q)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert list(map(type, vars(got).values())) == list(map(type, vars(want).values()))
            assert type(got) is ChannelParams and got.rates(dim) == rates
            with pytest.raises(AttributeError):
                got.t = 1.0  # still frozen

    def test_checked_inputs_are_not_checked_again(self, monkeypatch):
        # ChannelParams checked the rates and q once: a new time, the RK4 step
        # matrix and the single-time routes read them unchecked
        par = ChannelParams(a2=1.3, a3=0.4)
        rho = random_density_matrix(3, np.random.default_rng(24))

        def forbidden(*args, **kwargs):
            raise AssertionError("checked again")

        for name in ("_check_rates", "_check_mixing", "_check_arms"):
            monkeypatch.setattr(channels, name, forbidden)
        channels._rk4_ladder.cache_clear()  # a cached ladder would skip the step build
        at = par.with_time(0.8)
        assert at.t == 0.8
        lindblad_evolve(rho, at, 800)
        se_kraus_qutrit(at)
        se_affine_map(at)


def test_diffusive_short_time_order():
    # ||K1(dt) - sqrt(dt) L1|| should shrink like dt^(3/2): order >= 1.4
    a2, a3 = 1.0, 0.7
    l1 = lindblad_jump_ops((a2, a3))[0]
    dts = 1e-2 / 2.0 ** np.arange(7)  # 1e-2 ... 1.5625e-4
    errs = []
    for dt in dts:
        k1 = se_kraus_qutrit(ChannelParams(a2=a2, a3=a3, t=dt))[1]
        errs.append(np.max(np.abs(k1 - np.sqrt(dt) * l1)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() >= 1.4


def test_choi_positivity_sampled_times():
    for i in range(20):
        t = 0.05 + 0.3 * i
        ch = se_kraus_qutrit(ChannelParams(a2=1.1, a3=0.6, t=t))
        choi = lift(max_entangled(3), superoperator(ch), 1.0)  # the channel on A only
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
        assert stack.shape == (dim, len(times), dim, dim)
        for i, t in enumerate(times):
            single = build(par.with_time(t))
            assert single.shape == (dim, dim, dim)
            # the grid's rows are bitwise the single-time arrays
            assert stack[:, i].tobytes() == single.tobytes()
        assert completeness_defect(stack) <= 1e-12

    def test_rejects_other_dimensions(self):
        # d = 1 has no arm and is rejected; d = 4 (three arms) is answered
        with pytest.raises(ValueError, match="arm rates must be"):
            se_kraus((), [0.5])
        stack = se_kraus((1.3, 0.4, 2.1), [0.5])
        assert stack.shape == (4, 1, 4, 4)
        assert completeness_defect(stack) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("times", [[-1.0], [0.5, -1e-300], [np.nan], [1.0, np.nan, 2.0]])
    def test_rejects_negative_and_nan_times(self, dim, times):
        # a negative time gives h > 1, not a channel; ChannelParams rejects it too
        with pytest.raises(ValueError, match="times must be >= 0"):
            se_kraus(ChannelParams().rates(dim), times)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_infinite_time_is_fully_decayed(self, dim):
        stack = se_kraus(ChannelParams().rates(dim), [0.0, np.inf])
        k0, *jumps = stack
        np.testing.assert_array_equal(k0[1], np.diag([1.0] + [0.0] * (dim - 1)))
        for m, k in enumerate(jumps, 1):
            np.testing.assert_array_equal(k[1], np.outer(np.eye(dim)[0], np.eye(dim)[m]))

    @pytest.mark.parametrize("times", [[np.inf], [0.0, 1.0, np.inf]])
    def test_undamped_arm_stays_undamped_at_infinite_time(self, times):
        # h = exp(-a t/2) is exp(nan) for a = 0 at t = inf; the limit is h = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = se_kraus((0.0, 1.0), times)
        k0 = stack[0][-1]
        np.testing.assert_array_equal(k0, np.diag([1.0, 1.0, 0.0]))
        np.testing.assert_array_equal(stack[1][-1], np.zeros((3, 3)))
        assert completeness_defect(stack) == 0.0


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
        assert isinstance(ch, np.ndarray) and ch.shape == (3, 3, 3)
        np.testing.assert_array_equal(ch[0], np.diag([1.0, 0.0, 0.0]))

    def test_matches_the_qutrit_builder(self):
        par = ChannelParams(a2=1.3, a3=0.4, t=0.8)
        assert se_kraus((1.3, 0.4), 0.8).tobytes() == se_kraus_qutrit(par).tobytes()


def kron_bipartite(rho, kraus, q):
    """Reference: lift each Kraus operator to A (x) B with an explicit kron."""
    ident = np.eye(kraus.shape[-1])

    def one_sided(side):
        lifted = [np.kron(k, ident) if side == "A" else np.kron(ident, k) for k in kraus]
        return sum(l @ rho @ dagger(l) for l in lifted)

    return q * one_sided("A") + (1 - q) * one_sided("B")


def einsum_bipartite(rho, kraus, q):
    """Reference: contract each side with the (d, d, d, d) tensor of rho by einsum."""
    dim = kraus.shape[-1]
    ops = np.moveaxis(kraus, 0, -3)
    tensor = rho.reshape(dim, dim, dim, dim)
    specs = {"A": "...kax,xbyc,...kzy->...abzc", "B": "...kbx,axcy,...kzy->...abcz"}

    def one_sided(side):
        out = np.einsum(specs[side], ops, tensor, ops.conj(), optimize=True)
        return out.reshape(out.shape[:-4] + rho.shape)

    return q * one_sided("A") + (1 - q) * one_sided("B")


def dense_superoperator(ops):
    """Reference: every product of S = sum_k K_k (x) conj(K_k), zeros included.

    The k terms are added in operator order; S is (..., a, z, x, y).
    """
    dim = ops.shape[-1]
    ops = ops.reshape(len(ops), -1, dim, dim)
    # sup[t, a, z, x, y] = sum_k K_k[t, a, x] conj(K_k[t, z, y])
    sup = ops[0][:, :, None, :, None] * ops[0].conj()[:, None, :, None, :]
    for op in ops[1:]:
        sup = sup + op[:, :, None, :, None] * op.conj()[:, None, :, None, :]
    return sup


def uncached_superoperator(ops):
    """Reference: the sparse build with its scatter layout made anew in Python."""
    dim = ops.shape[-1]
    n = dim * dim
    lead = ops.shape[1:-2]
    ops = ops.reshape(len(ops), -1, n)
    sup = np.zeros((ops.shape[1], n * n), dtype=ops.dtype)
    for op, nonzero in zip(ops, ops.any(axis=1).tolist()):
        cols = [ax for ax, keep in enumerate(nonzero) if keep]
        target = [(ax // dim * dim + zy // dim) * n + ax % dim * dim + zy % dim
                  for ax in cols for zy in cols]
        entries = op[:, cols]
        products = entries[:, :, None] * entries[:, None, :].conj()
        sup[:, target] += products.reshape(len(op), len(cols) ** 2)
    return sup.reshape(lead + (n, n))


def dense_bipartite(rho, ops, q):
    """Reference: ``dense_superoperator`` applied by the matrix product and
    output permutation of ``lift``.
    """
    dim = ops.shape[-1]
    n = dim * dim
    lead = ops.shape[1:-2]
    sup = dense_superoperator(ops)
    tensor = rho.reshape(dim, dim, dim, dim)
    moved = {"A": tensor.transpose(0, 2, 1, 3), "B": tensor.transpose(1, 3, 0, 2)}

    def one_sided(side):
        out = (sup.reshape(-1, n) @ moved[side].reshape(n, n)).reshape(sup.shape)
        if side == "A":
            return out.swapaxes(-3, -2)
        return np.moveaxis(out, -2, -4).swapaxes(-2, -1)

    out = one_sided("A") * q + one_sided("B") * (1.0 - q)
    return out.reshape(lead + rho.shape)


def strided_mix_bipartite(rho, ops, q):
    """Reference: ``superoperator`` + ``lift`` with the q-mix as two strided products.

    The superoperator and the two matrix products are those of
    ``superoperator`` and ``lift``; each side's permuted product is weighed by
    one ``np.multiply`` on a strided view, written straight into the output
    layout.
    """
    dim = ops.shape[-1]
    n = dim * dim
    lead = ops.shape[1:-2]
    ops = ops.reshape(len(ops), -1, n)
    sup, term = np.empty((2, ops.shape[1]) + (dim,) * 4, dtype=ops.dtype)
    sup.fill(0.0)
    for op, nonzero in zip(ops, ops.any(axis=1).tolist()):
        cols = [ax for ax, keep in enumerate(nonzero) if keep]
        target = [(ax // dim * dim + zy // dim) * n + ax % dim * dim + zy % dim
                  for ax in cols for zy in cols]
        entries = op[:, cols]
        products = entries[:, :, None] * entries[:, None, :].conj()
        sup.reshape(len(sup), -1)[:, target] += products.reshape(len(op), -1)
    tensor = rho.reshape(dim, dim, dim, dim)
    m_a, m_b = tensor.transpose(0, 2, 1, 3), tensor.transpose(1, 3, 0, 2)
    np.matmul(sup.reshape(-1, n), m_a.reshape(n, n), out=term.reshape(-1, n))
    out = np.multiply(term.swapaxes(-3, -2), q, out=np.empty_like(sup))
    np.matmul(sup.reshape(-1, n), m_b.reshape(n, n), out=term.reshape(-1, n))
    out += np.multiply(np.moveaxis(term, -2, -4).swapaxes(-2, -1), 1.0 - q, out=sup)
    return out.reshape(lead + rho.shape)


# the mixing weights of the lifts: q = 1 acts on A only, q = 0 on B only
LIFTS = [pytest.param(1.0, id="A"), pytest.param(0.0, id="B"), pytest.param(0.35, id="symmetric")]


class TestBipartite:
    @pytest.mark.parametrize("q", LIFTS)
    @pytest.mark.parametrize("dim, build", [
        pytest.param(2, lambda par: se_kraus(par.rates(2), par.t), id="2-se_kraus"),
        (3, se_kraus_qutrit),
    ])
    def test_matches_kron_lifting(self, q, dim, build):
        rng = np.random.default_rng(17 + dim)
        rho = random_density_matrix(dim * dim, rng)
        ch = build(ChannelParams(a1=1.2, a2=0.8, a3=2.1, t=0.65))
        out = lift(rho, superoperator(ch), q)
        np.testing.assert_allclose(out, kron_bipartite(rho, ch, q), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("stack", [None, 1, 7, 64])
    @pytest.mark.parametrize("q", LIFTS)
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_einsum_contraction(self, dim, q, stack, monkeypatch):
        rng = np.random.default_rng(60 + dim)
        rates = random_rates(rng, dim, undamped_first=False)
        times = rng.uniform(0.0, 6.0, stack or 1)
        ch = se_kraus(rates, times if stack else times[0])
        rho = random_density_matrix(dim * dim, rng)
        want = einsum_bipartite(rho, ch, q)

        def forbidden(*args, **kwargs):
            raise AssertionError("superoperator and lift must not call np.einsum")

        monkeypatch.setattr(np, "einsum", forbidden)
        got = lift(rho, superoperator(ch), q)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("q", LIFTS)
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_dense_superoperator(self, dim, q):
        # S is built from the nonzero products only: S has the bits, and each lifted
        # state the values, of every product summed
        rng = np.random.default_rng(70 + dim)
        times = np.r_[0.0, rng.uniform(0.0, 8.0, 40), np.inf]  # K_m = 0 at t = 0 only
        built = [
            se_kraus(random_rates(rng, dim, undamped_first=True), 0.9),
            se_kraus(random_rates(rng, dim, undamped_first=False), times),
        ]
        for shape in ((dim, dim), (13, dim, dim)):  # dense random 3-operator channels
            ops = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
            built.append(ops)
        for ch in built:
            sup = superoperator(ch)
            want = dense_superoperator(ch).reshape(ch.shape[1:-2] + (dim * dim,) * 2)
            assert_same_bytes(sup, want)
            for rho in (werner(dim, 0.7), random_density_matrix(dim * dim, rng)):
                got = lift(rho, sup, q)
                np.testing.assert_array_equal(got, dense_bipartite(rho, ch, q))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_cached_scatter_layout_has_the_uncached_bits(self, dim):
        # patterns that differ only by an all-zero operator: K_m = 0 at t = 0
        # alone, K_0's arm entries 0 at t = inf alone, and grids that mix them;
        # then the RK4 jump operators, an undamped arm's all zero
        rng = np.random.default_rng(130 + dim)
        rates = random_rates(rng, dim, undamped_first=False)
        cases = [se_kraus(rates, t) for t in (0.0, np.inf, [0.0], [np.inf], [0.0, np.inf],
                                               [0.0, 0.0, 1.3], [np.inf, 2.0], 0.7)]
        cases += [op.real for op in cases]
        cases += [lindblad_jump_ops(random_rates(rng, dim, undamped_first=first))
                  for first in (False, True)]
        for ops in cases:
            want = uncached_superoperator(ops)
            assert_same_bytes(superoperator(ops), want)
            assert_same_bytes(superoperator(ops), want)  # from the cached layout
        pattern = cases[4].reshape(dim, -1, dim * dim).any(axis=1).tobytes()  # t = 0 and inf
        for _, cols, target in channels._scatter_layout(dim, pattern):
            assert not cols.flags.writeable and not target.flags.writeable

    @pytest.mark.parametrize("stack", [None, 1, 7, 300])
    @pytest.mark.parametrize("q", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_gathered_mix_has_the_strided_mix_bytes(self, dim, q, stack):
        rng = np.random.default_rng(80 + dim)
        rates = random_rates(rng, dim, undamped_first=False)
        times = rng.uniform(0.0, 6.0, stack or 1)
        ch = se_kraus(rates, times if stack else times[0])
        for rho in (werner(dim, 0.83), random_density_matrix(dim * dim, rng)):
            assert_same_bytes(lift(rho, superoperator(ch), q), strided_mix_bipartite(rho, ch, q))

    @pytest.mark.parametrize("q", [0.0, 1.0, 0.37])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_real_inputs_give_the_real_part_bytes(self, dim, q):
        # emission operators and real states: the complex call's imaginary part
        # is exactly 0, and a real call runs in float64 with its real part's bits
        rng = np.random.default_rng(90 + dim)
        for i, t in enumerate((0.0, np.inf, 0.8, np.r_[0.0, rng.uniform(0.0, 12.0, 40), np.inf])):
            ch = se_kraus(random_rates(rng, dim, undamped_first=i % 2 == 1), t)
            dense = random_density_matrix(dim * dim, rng).real
            for rho in (werner(dim, 0.83), werner(dim, 0.0), dense):
                full = lift(rho, superoperator(ch), q)
                assert full.dtype == complex and not full.imag.any()
                assert_same_bytes(lift(rho.real, superoperator(ch.real), q), full.real)

    def test_stack_matches_per_time_calls(self):
        rng = np.random.default_rng(18)
        rho = random_density_matrix(9, rng)
        par = ChannelParams(a2=1.4, a3=0.5)
        times = np.linspace(0.0, 4.0, 7)
        for q in (1.0, 0.0, 0.7):
            out = lift(rho, superoperator(se_kraus(par.rates(3), times)), q)
            assert out.shape == (7, 9, 9)
            for i, t in enumerate(times):
                single = lift(rho, superoperator(se_kraus_qutrit(par.with_time(t))), q)
                np.testing.assert_allclose(out[i], single, rtol=0, atol=1e-15)

    def test_t_zero_identity(self):
        rho = werner(3, 0.7)
        ch = se_kraus_qutrit(ChannelParams(t=0.0))
        np.testing.assert_allclose(lift(rho, superoperator(ch), 0.5), rho, atol=1e-14)

    def test_one_sided_scales_diagonal_correlations(self):
        # equal rates: C_jj(t) = D_jj C_jj(0) for a one-sided channel
        a = 0.9
        par = ChannelParams(a2=a, a3=a, t=0.75)
        d_diag = np.diag(se_affine_map(par).damping)
        c0 = np.diag(correlation_matrix(max_entangled(3)))
        for q in (1.0, 0.0):
            evolved = lift(max_entangled(3), superoperator(se_kraus_qutrit(par)), q)
            c_t = correlation_matrix(evolved)
            np.testing.assert_allclose(np.diag(c_t), d_diag * c0, atol=1e-12)

    def test_symmetric_mixture_definition(self):
        rho = werner(3, 0.8)
        ch = se_kraus_qutrit(ChannelParams(a2=1.0, a3=0.4, t=0.6))
        q = 0.3
        sup = superoperator(ch)
        mixed = lift(rho, sup, q)
        direct = q * lift(rho, sup, 1.0) + (1 - q) * lift(rho, sup, 0.0)
        np.testing.assert_allclose(mixed, direct, atol=1e-14)

    def test_output_is_a_state(self):
        rho = werner(2, 0.9)
        ch = se_kraus((1.3,), 0.8)
        out = lift(rho, superoperator(ch), 0.25)
        assert_is_state(out)

    def test_rejects_bad_shape_and_weight(self):
        ch = se_kraus_qutrit(ChannelParams(t=0.5))
        with pytest.raises(ValueError):
            lift(werner(2, 0.5), superoperator(ch), 0.5)
        with pytest.raises(ValueError):
            lift(werner(3, 0.5), superoperator(ch), q=1.1)


class TestTwoSided:
    """The channel on both qudits is two lifts, A only then B only: no option needed."""

    @pytest.mark.parametrize("t", [0.0, 0.8, 2.5, np.inf])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_the_product_channel(self, dim, t):
        # sum_ij (K_i (x) K_j) rho (K_i (x) K_j)^dag, each product lifted by kron
        rng = np.random.default_rng(30 + dim)
        ch = se_kraus(random_rates(rng, dim, undamped_first=False), t)
        rho = random_density_matrix(dim * dim, rng)
        sup = superoperator(ch)
        lifted = [np.kron(ki, kj) for ki in ch for kj in ch]
        want = sum(op @ rho @ dagger(op) for op in lifted)
        np.testing.assert_allclose(lift(lift(rho, sup, 1.0), sup, 0.0), want, rtol=0, atol=1e-15)

    def test_qubit_sudden_death_at_the_closed_form_time(self):
        # both qubits decaying at unit rate: a Werner pair of weight p > 1/3
        # turns PPT at a1 t = ln((1 + p) / (2 (1 - p))), ln 4.5 at p = 0.8
        death = np.log(4.5)
        negs = []
        for t in ((1 - 1e-6) * death, (1 + 1e-6) * death):
            sup = superoperator(se_kraus((1.0,), t))
            negs.append(negativity(lift(lift(werner(2, 0.8), sup, 1.0), sup, 0.0)))
        assert negs[0] > 0.0
        assert negs[1] == 0.0


def test_affine_map_apply_type():
    m = AffineBlochMap(damping=np.eye(8), shift=np.zeros(8))
    n = np.arange(8.0)
    np.testing.assert_array_equal(m.apply(n), n)


ARM_RATES = {2: (0.8,), 3: (1.9, 0.35), 4: (1.3, 0.4, 2.1), 5: (1.3, 0.4, 2.1, 0.05)}


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_affine_map_apply_on_a_stack(dim):
    # a stack maps each member with the bits of apply on it alone, and those are
    # the bits of damping @ n + shift
    rng = np.random.default_rng(70 + dim)
    n = density_to_bloch(np.stack([random_density_matrix(dim, rng) for _ in range(30)]))
    for t in (0.3, 1.0, 2.5):
        m = channels._affine_map(ARM_RATES[dim], t)
        got = m.apply(n.reshape(5, 6, -1))
        assert got.shape == (5, 6, dim * dim - 1)
        want = np.stack([m.apply(x) for x in n])
        assert got.reshape(want.shape).tobytes() == want.tobytes()
        assert want.tobytes() == np.stack([m.damping @ x + m.shift for x in n]).tobytes()


class TestEveryArmCount:
    """The rate-tuple builders for one to four arms (d = 2 to 5)."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_kraus_operator_entries(self, dim):
        rates, t = ARM_RATES[dim], 0.9
        ch = se_kraus(rates, t)
        k0, *jumps = ch
        h = np.exp(-np.array(rates) * t / 2)
        np.testing.assert_array_equal(k0, np.diag([1.0, *h]))
        for m, (k, hm) in enumerate(zip(jumps, h), 1):
            expected = np.zeros((dim, dim), dtype=complex)
            expected[0, m] = np.sqrt(1 - hm * hm)
            np.testing.assert_array_equal(k, expected)
        assert ch.shape == (dim,) * 3 and completeness_defect(ch) <= 1e-12

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
            np.testing.assert_array_equal(got, want)

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

    @pytest.mark.parametrize("undamped", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_affine_map_at_infinite_time(self, dim, undamped):
        # h comes from _arm_factors: every damped arm fully decayed, an
        # undamped one kept, as in the Kraus limit
        rates = (0.0, *ARM_RATES[dim][1:]) if undamped else ARM_RATES[dim]
        m = channels._affine_map(rates, math.inf)
        assert np.isfinite(m.damping).all() and np.isfinite(m.shift).all()
        rng = np.random.default_rng(60 + dim)
        for _ in range(5):
            rho = random_density_matrix(dim, rng)
            got = bloch_to_density(m.apply(density_to_bloch(rho)))
            want = apply_kraus(rho, se_kraus(rates, math.inf))
            assert np.max(np.abs(got - want)) <= 1e-12

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


def emission_operators(rates, t):
    """Reference: K_0 = diag(1, h_1, ...) and K_m = sqrt(1 - h_m^2) |0><m|, one time."""
    dim = len(rates) + 1
    h = [np.exp(-a * t / 2.0) if a else 1.0 for a in rates]
    ops = [np.diag([1.0, *h]).astype(complex)]
    for m, hm in enumerate(h, 1):
        k = np.zeros((dim, dim), dtype=complex)
        k[0, m] = np.sqrt(1.0 - hm * hm)
        ops.append(k)
    return ops


class TestKrausChannelDim:
    """A Kraus channel is its operator array; d is read off its last axis.

    No dimension is held apart from the operators, so none can disagree with them.
    """

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_emission_channel(self, dim):
        rates = ARM_RATES[dim]
        one = se_kraus(rates, 0.9)
        assert type(one) is np.ndarray and one.shape == (dim, dim, dim)
        times = [0.0, 0.9, 4.0, np.inf]
        grid = se_kraus(rates, times)
        assert type(grid) is np.ndarray and grid.shape == (dim, len(times), dim, dim)
        # row k is K_k; on a grid, grid[k, i] is K_k at times[i], bit for bit
        for k, want in enumerate(emission_operators(rates, 0.9)):
            assert one[k].tobytes() == want.tobytes()
        for i, t in enumerate(times):
            assert grid[:, i].tobytes() == se_kraus(rates, t).tobytes()
        if dim == 3:
            qutrit = se_kraus_qutrit(ChannelParams(a2=rates[0], a3=rates[1], t=0.9))
            assert type(qutrit) is np.ndarray and qutrit.tobytes() == one.tobytes()

    @pytest.mark.parametrize("shape", [(6, 6), (4, 6, 6)])
    def test_dense_random_channel(self, shape):
        rng = np.random.default_rng(41)
        ops = rng.standard_normal((3, *shape)) + 1j * rng.standard_normal((3, *shape))
        lead = shape[:-2]
        assert apply_kraus(np.eye(6) / 6, ops).shape == lead + (6, 6)
        assert lift(np.eye(36) / 36, superoperator(ops), 0.5).shape == lead + (36, 36)
        # a state of another dimension: one ValueError naming both shapes
        with pytest.raises(ValueError) as err:
            apply_kraus(np.eye(3) / 3, ops)
        assert str(err.value) == f"state shape (3, 3) does not match operators {ops.shape}"
        with pytest.raises(ValueError, match="dimension 6"):
            lift(np.eye(9) / 9, superoperator(ops), 0.5)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_empty_time_grid(self, dim, real):
        # T = 0 times, as se_kraus and apply_kraus accept: empty stacks all the way
        ops = se_kraus((1.0,) * (dim - 1), np.array([]))
        w = werner(dim, 0.5)
        if real:
            ops, w = ops.real, w.real
        sup = superoperator(ops)
        assert sup.shape == (0, dim * dim, dim * dim)
        rho = lift(w, sup, 0.5)
        assert rho.shape == (0, dim * dim, dim * dim)
        assert negativity(rho).shape == (0,)

    def test_rejects_a_dim_keyword(self):
        # a dim given apart from the operators could disagree with them
        ops = np.zeros((3, 6, 6), dtype=complex)
        with pytest.raises(TypeError):
            apply_kraus(np.eye(6) / 6, ops, dim=2)
        with pytest.raises(TypeError):
            lift(np.eye(36) / 36, superoperator(ops), 0.5, dim=2)
        with pytest.raises(TypeError):
            superoperator(ops, dim=2)
