"""Separability indicators, crossings, negativity oracle, Haar moments.

Hand-derived anchors used below:
  qubit crossing (p=1):  -2 ln(sqrt(2)-1)      = 1.7627471740390861
  qutrit crossing (p=1): -2 ln((sqrt(3)-1)/2)  = 2.0101050789535874
  equal-ratio preservation boundary: a* = ln((sqrt(3)-1)/2)/ln(sqrt(2)-1)
                                        = 1.1403266 (True below, False above)
  F_qutrit(t=1, A=1) = (1 + 2 e^{-1/2})^2 / 9 = 0.54418226705958...
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qutrit_se import analysis, channels
from qutrit_se.analysis import (
    crossing_time,
    fidelity_closed,
    fidelity_from_state,
    haar_bloch_vectors,
    haar_moment_check,
    indicator_closed,
    indicator_crossing,
    indicator_crossings,
    negativity,
    ppt_threshold,
    preservation_inequality,
    qubit_crossing_closed,
    s_from_state,
    separability_report,
)
from qutrit_se.channels import ChannelParams, bipartite_channel, se_kraus, se_kraus_qutrit
from qutrit_se.linalg import (
    dagger,
    hermitian_eigenvalues,
    kron,
    partial_transpose,
    random_density_matrix,
)
from qutrit_se.states import max_entangled, werner
from qutrit_se.su import generator_basis

T_QUBIT_P1 = -2.0 * np.log(np.sqrt(2.0) - 1.0)
T_QUTRIT_P1 = -2.0 * np.log((np.sqrt(3.0) - 1.0) / 2.0)


class TestClosedForms:
    def test_start_at_p(self):
        for p in (0.0, 0.3, 1.0):
            assert abs(indicator_closed(p, (1.4,), 0.0) - p) < 1e-12
            assert abs(indicator_closed(p, (0.8, 2.0), 0.0) - p) < 1e-12

    def test_decay_to_zero(self):
        assert indicator_closed(1.0, (1.0,), 200.0) < 1e-12
        assert indicator_closed(1.0, (1.0, 1.0), 200.0) < 1e-12

    def test_monotone_nonincreasing_on_fine_grid(self):
        qubit, qutrit = (1.0,), (1.7, 0.3)
        for f in (lambda t: indicator_closed(0.9, qubit, t),
                  lambda t: indicator_closed(0.9, qutrit, t),
                  lambda t: fidelity_closed(qubit, t),
                  lambda t: fidelity_closed(qutrit, t)):
            vals = np.array([f(t) for t in np.linspace(0.0, 8.0, 1000)])
            assert np.all(np.diff(vals) <= 1e-15)

    def test_rate_exchange_symmetry(self):
        for t in (0.3, 1.1, 4.0):
            a, b = (2.0, 0.5), (0.5, 2.0)
            assert abs(indicator_closed(0.8, a, t) - indicator_closed(0.8, b, t)) <= 1e-12
            assert abs(fidelity_closed(a, t) - fidelity_closed(b, t)) <= 1e-12

    @pytest.mark.parametrize("rates, t", [
        ((), 1.0), ((1.0, -0.5), 1.0), ((np.nan,), 1.0), ((np.inf, 1.0), 1.0),
        ((1.0,), -1e-300), ((1.0, 1.0), np.nan), ((1.0,), [0.0, np.nan, 2.0]),
    ])
    def test_rejects_bad_rates_and_times(self, rates, t):
        with pytest.raises(ValueError, match="arm rates must be|times must be >= 0"):
            indicator_closed(0.9, rates, t)
        with pytest.raises(ValueError, match="arm rates must be|times must be >= 0"):
            fidelity_closed(rates, t)

    def test_infinite_and_huge_times_are_fully_decayed(self):
        # a*t overflows to inf for t = 1e308: h = exp(-inf) = 0, with no warning
        times = np.array([1e308, np.inf])
        np.testing.assert_array_equal(indicator_closed(0.9, (5.0, 2.0), times), [0.0, 0.0])
        np.testing.assert_array_equal(fidelity_closed((5.0, 2.0), times), [1 / 9, 1 / 9])
        assert indicator_closed(0.9, (5.0,), np.inf) == 0.0

    def test_known_crossing_values(self):
        assert abs(indicator_closed(1.0, (1.0,), T_QUBIT_P1) - 1 / 3) < 1e-14
        assert abs(indicator_closed(1.0, (1.0, 1.0), T_QUTRIT_P1) - 0.25) < 1e-14


def reference_closed_forms(p, a1, a2, a3, t):
    """The per-species closed forms, each written out on its own."""
    h1 = np.exp(-a1 * t / 2.0)
    e2, e3 = np.exp(-a2 * t), np.exp(-a3 * t)
    h2, h3 = np.exp(-a2 * t / 2.0), np.exp(-a3 * t / 2.0)
    h23 = np.exp(-(a2 + a3) * t / 2.0)
    return (
        (p / 3.0) * (2.0 * h1 + h1 * h1),
        (p / 8.0) * (e2 + e3 + 2.0 * h2 + 2.0 * h3 + 2.0 * h23),
        (1.0 + h1) ** 2 / 4.0,
        (1.0 + h2 + h3) ** 2 / 9.0,
    )


class TestSharedCore:
    RATES = (0.05, 0.2, 0.7, 1.0, 2.3, 5.0, 40.0)
    TIMES = np.concatenate([[0.0], np.geomspace(1e-6, 200.0, 97)])

    def core(self, p, par, t):
        return (indicator_closed(p, par.rates(2), t), indicator_closed(p, par.rates(3), t),
                fidelity_closed(par.rates(2), t), fidelity_closed(par.rates(3), t))

    def test_matches_per_species_reference(self):
        rng = np.random.default_rng(41)
        worst = 0.0
        for a1 in self.RATES:
            for a2 in self.RATES:
                for a3 in self.RATES:
                    p = float(rng.uniform())
                    par = ChannelParams(a1=a1, a2=a2, a3=a3)
                    want = reference_closed_forms(p, a1, a2, a3, self.TIMES)
                    got = self.core(p, par, self.TIMES)
                    for g, w in zip(got, want):
                        worst = max(worst, float(np.max(np.abs(g - w))))
        assert worst <= 1e-15

    def test_scalar_time_and_public_names(self):
        for a1, a2, a3 in ((0.2, 5.0, 0.7), (1.0, 1.0, 1.0), (40.0, 0.05, 2.3)):
            for t in (0.0, 0.013, 0.9, 3.7, 61.0):
                par = ChannelParams(a1=a1, a2=a2, a3=a3, t=t)
                want = reference_closed_forms(0.8, a1, a2, a3, t)
                got = self.core(0.8, par, t)
                assert np.ndim(got[0]) == 0
                for g, w, c in zip(got, want, self.core(0.8, par, np.array([t]))):
                    assert abs(g - w) <= 1e-15
                    assert g == c[0]  # a scalar time gives the bits of a one-point grid

    @pytest.mark.parametrize("t", [np.inf, np.array([0.0, 2.0, np.inf])])
    def test_undamped_arm_factor_is_one_at_infinite_time(self, t):
        # exp(-a t/2) is exp(nan) for a = 0 at t = inf; the limit is h = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h2, h3 = channels._arm_factors((0.0, 0.7), t)
        np.testing.assert_array_equal(h2, np.ones_like(t))
        assert np.ravel(h3)[-1] == 0.0

    def test_fidelity_is_the_per_species_expression(self):
        # F keeps its per-species summation order, so it matches bit for bit
        par = ChannelParams(a1=1.3, a2=0.6, a3=2.2)
        _, _, f2, f3 = reference_closed_forms(1.0, 1.3, 0.6, 2.2, self.TIMES)
        _, _, g2, g3 = self.core(1.0, par, self.TIMES)
        np.testing.assert_array_equal(g2, f2)
        np.testing.assert_array_equal(g3, f3)


class TestStateRoute:
    def test_werner_at_t_zero(self):
        for p in (0.0, 0.4, 1.0):
            assert abs(s_from_state(werner(3, p), 3) - p) < 1e-12
            assert abs(s_from_state(werner(2, p), 2) - p) < 1e-12

    def test_matches_closed_form_after_evolution(self):
        p = 0.8
        par = ChannelParams(a1=1.1, a2=1.0, a3=0.7, t=0.5)
        for d in (2, 3):
            rho = bipartite_channel(werner(d, p), se_kraus(par.rates(d), par.t), "symmetric")
            assert abs(s_from_state(rho, d) - indicator_closed(p, par.rates(d), par.t)) <= 1e-10

    def test_q_does_not_enter(self):
        p, par = 0.9, ChannelParams(a2=1.3, a3=0.5, t=0.8)
        vals = [
            s_from_state(
                bipartite_channel(werner(3, p), se_kraus_qutrit(par), "symmetric", q), 3
            )
            for q in (0.0, 0.5, 1.0)
        ]
        assert max(vals) - min(vals) <= 1e-12

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            s_from_state(np.eye(9) / 9, 2)
        with pytest.raises(ValueError):
            s_from_state(np.eye(4) / 4, 4)


class TestFidelity:
    def test_at_t_zero(self):
        assert abs(fidelity_closed((1.0,), 0.0) - 1.0) < 1e-14
        assert abs(fidelity_closed((1.0, 1.0), 0.0) - 1.0) < 1e-14

    def test_limits(self):
        assert abs(fidelity_closed((1.0,), 80.0) - 0.25) < 1e-14
        assert abs(fidelity_closed((1.0, 1.0), 80.0) - 1.0 / 9.0) < 1e-14

    def test_frozen_value_t1(self):
        assert abs(fidelity_closed((1.0, 1.0), 1.0) - 0.5441822670595895) < 1e-12

    def test_state_route_reference_points(self):
        assert abs(fidelity_from_state(max_entangled(3), 3) - 1.0) < 1e-14
        assert abs(fidelity_from_state(np.eye(9) / 9, 3) - 1.0 / 9.0) < 1e-14

    def test_kraus_route_matches_closed(self):
        par = ChannelParams(a1=0.9, a2=1.2, a3=0.6, t=0.8)
        for d in (2, 3):
            rho = bipartite_channel(werner(d, 1.0), se_kraus(par.rates(d), par.t), "symmetric")
            assert abs(fidelity_from_state(rho, d) - fidelity_closed(par.rates(d), par.t)) <= 1e-10

    def test_q_independence(self):
        par = ChannelParams(a2=1.0, a3=0.4, t=0.9)
        w = werner(3, 0.65)
        ch = se_kraus_qutrit(par)
        f03 = fidelity_from_state(bipartite_channel(w, ch, "symmetric", 0.3), 3)
        f07 = fidelity_from_state(bipartite_channel(w, ch, "symmetric", 0.7), 3)
        assert abs(f03 - f07) <= 1e-12


class TestCrossings:
    def test_bisection_matches_anchors(self):
        t_qb = crossing_time(lambda t: indicator_closed(1.0, (1.0,), t), 1.0 / 3.0)
        t_qt = crossing_time(lambda t: indicator_closed(1.0, (1.0, 1.0), t), 0.25)
        assert abs(t_qb - T_QUBIT_P1) < 1e-8
        assert abs(t_qt - T_QUTRIT_P1) < 1e-8

    def test_closed_form_matches_bisection_over_p(self):
        for p in (0.4, 0.6, 0.8, 1.0):
            t_bis = crossing_time(lambda t: indicator_closed(p, (1.0,), t), 1.0 / 3.0)
            assert abs(t_bis - qubit_crossing_closed(p)) < 1e-8

    def test_rate_scaling(self):
        a1 = 2.5
        t_bis = crossing_time(lambda t: indicator_closed(1.0, (a1,), t), 1.0 / 3.0)
        assert abs(t_bis - T_QUBIT_P1 / a1) < 1e-8

    def test_below_threshold_returns_none(self):
        assert crossing_time(lambda t: indicator_closed(0.2, (1.0, 1.0), t), 0.25) is None

    def test_unbracketed_raises(self):
        with pytest.raises(ValueError):
            crossing_time(lambda t: indicator_closed(1.0, (1.0,), t), 1.0 / 3.0, t_hi=0.5)

    def test_residual_within_tolerance(self):
        f = lambda t: indicator_closed(1.0, (1.0, 1.0), t)
        t_star = crossing_time(f, 0.25)
        assert abs(f(t_star) - 0.25) <= 1e-10

    def test_closed_form_domain(self):
        with pytest.raises(ValueError):
            qubit_crossing_closed(0.2)

    def test_never_crossing_is_infinite(self):
        assert crossing_time(lambda t: 1.0, 0.5) == math.inf
        # an explicit bracket that does not bracket still raises
        with pytest.raises(ValueError):
            crossing_time(lambda t: 1.0, 0.5, t_hi=2.0**70)

    def test_undamped_arm_never_crosses(self):
        # with one arm frozen s_qutrit tends to 3p/8 > 1/4 for p > 2/3
        par = ChannelParams(a2=1e-300)
        assert indicator_crossing(1.0, par, 3) == math.inf
        assert indicator_crossing(0.6, par, 3) < math.inf
        t_qb, t_qt, longer = indicator_crossings(1.0, par)
        assert abs(t_qb - T_QUBIT_P1) < 1e-8 and t_qt == math.inf and longer

    def test_species_crossing_in_a1_units(self):
        par = ChannelParams(a1=2.5, a2=1.5, a3=0.4)
        for d in (2, 3):
            tau = indicator_crossing(0.9, par, d)
            assert abs(indicator_closed(0.9, par.rates(d), tau / par.a1) - 1 / (d + 1)) <= 1e-10
        assert indicator_crossing(0.2, par, 3) is None

    def test_time_unit_too_small_is_rejected(self):
        # t = (a1*t)/a1 overflows within the search range: no silent answer
        for a1 in (5e-324, 1e-300, 6.4e-291):
            par = ChannelParams(a1=a1)
            for d in (2, 3):
                with pytest.raises(ValueError, match="a1 must be above"):
                    indicator_crossing(0.9, par, d)
            with pytest.raises(ValueError, match="a1 must be above"):
                separability_report(0.9, par, steps=4)
        # just above the bound the crossing in a1*t units is still the closed form
        tau = indicator_crossing(0.9, ChannelParams(a1=6.5e-291), 2)
        assert abs(tau - qubit_crossing_closed(0.9)) <= 1e-7

    def test_zero_a1_is_a_value_error(self):
        # a1 = 0 is a valid rate but measures no time: ValueError, not ZeroDivisionError
        par = ChannelParams(a1=0.0)
        for d in (2, 3):
            with pytest.raises(ValueError, match="a1 must be above"):
                indicator_crossing(1.0, par, d)
        with pytest.raises(ValueError, match="a1 must be above"):
            indicator_crossings(1.0, par)


    @pytest.mark.parametrize("a", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8, 1.0])
    def test_equal_rate_qutrit_closed_form(self, p, a):
        # a2 = a3 = a: s_3 = p (h^2 + h)/2, so t = -(2/a) ln((sqrt(1 + 2/p) - 1)/2)
        closed = -2.0 / a * math.log((math.sqrt(1.0 + 2.0 / p) - 1.0) / 2.0)
        assert abs(indicator_crossing(p, ChannelParams(a2=a, a3=a), 3) - closed) <= 1e-8 * closed
        if p == 1.0 and a == 1.0:
            assert format(closed, ".9g") == "2.01010508"

    @pytest.mark.parametrize("rates", [(1.0, 1.0), (1.3, 0.4), (0.2, 5.0)])
    def test_rate_scale_divides_the_qutrit_crossing(self, rates):
        # scaling a2 and a3 by c (a1 fixed) divides the crossing by c; below
        # c ~ 1e-60 this used to stop at 2^-200 instead
        base = indicator_crossing(0.9, ChannelParams(a2=rates[0], a3=rates[1]), 3)
        for c in np.geomspace(1e-15, 1e300, 64):
            par = ChannelParams(a2=c * rates[0], a3=c * rates[1])
            assert abs(c * indicator_crossing(0.9, par, 3) - base) <= 1e-8 * base, c

    def test_unresolvable_crossing_raises(self):
        # a jump larger than f_tol can never be met: no midpoint is returned
        with pytest.raises(ValueError, match="not resolved"):
            crossing_time(lambda t: 1.0 if t <= 0.3 else 0.0, 0.5)
        # crossing below the smallest subnormal a1*t
        with pytest.raises(ValueError, match="not resolved"):
            indicator_crossing(1.0, ChannelParams(a1=1e-200, a2=1e308, a3=1e308), 3)


class TestFourLevels:
    """d = 4 (three arms) through the public rate-tuple functions."""

    RATES = (1.3, 0.4, 2.1)

    @pytest.mark.parametrize("q", [0.0, 0.35, 1.0])
    def test_closed_forms_match_the_state_route(self, q):
        worst = 0.0
        for p in (0.3, 0.7, 1.0):
            for t in (0.0, 0.2, 0.9, 2.5, 8.0):
                rho = bipartite_channel(werner(4, p), se_kraus(self.RATES, t), "symmetric", q)
                s = indicator_closed(p, self.RATES, t)
                worst = max(worst, abs(s_from_state(rho, 4) - s))
                if p == 1.0:  # F_d is the overlap of the evolved |Psi><Psi|
                    f = fidelity_closed(self.RATES, t)
                    worst = max(worst, abs(fidelity_from_state(rho, 4) - f))
        assert worst <= 1e-10

    def test_ppt_threshold_is_one_fifth(self):
        assert abs(ppt_threshold(4) - 0.2) <= 1e-4

    @pytest.mark.parametrize("seed", [0, 42])
    def test_haar_moments(self, seed):
        m = haar_moment_check(4, 20_000, seed)
        assert np.max(np.abs(m - np.eye(15) / 15)) <= 0.02


class TestPreservation:
    def test_equal_rates_verdicts(self):
        assert preservation_inequality(1.0, 1.0, 1.0)
        assert preservation_inequality(1.0, 1.14, 1.14)  # just inside boundary
        assert not preservation_inequality(1.0, 1.15, 1.15)  # just outside
        assert not preservation_inequality(1.0, 10.0, 10.0)

    def test_agrees_with_crossing_comparison(self):
        t_qb = T_QUBIT_P1
        for a21 in (0.2, 1.0, 2.6, 5.0):
            for a31 in (0.2, 1.0, 2.6, 5.0):
                par = ChannelParams(a2=a21, a3=a31)
                t_qt = crossing_time(lambda t: indicator_closed(1.0, par.rates(3), t), 0.25)
                assert preservation_inequality(1.0, a21, a31) == (t_qt >= t_qb)

    def test_domain(self):
        # alpha >= 1 for p <= 1/3: the qubit pair is separable from the start
        for p in (0.0, 0.2, 1.0 / 3.0):
            with pytest.raises(ValueError):
                preservation_inequality(p, 1.0, 1.0)


class TestNegativity:
    def test_max_entangled_values(self):
        assert abs(negativity(max_entangled(2), 2, 2) - 0.5) < 1e-12
        assert abs(negativity(max_entangled(3), 3, 3) - 1.0) < 1e-12

    def test_product_state_zero(self):
        rng = np.random.default_rng(29)
        rho = kron(random_density_matrix(3, rng), random_density_matrix(3, rng))
        assert negativity(rho, 3, 3) < 1e-10

    def test_werner_threshold_behavior(self):
        for d in (2, 3):
            thr = 1.0 / (d + 1)
            for p in (0.0, thr / 2, thr):
                assert negativity(werner(d, p), d, d) <= 1e-10
            for p in (thr + 0.01, 0.6, 1.0):
                assert negativity(werner(d, p), d, d) > 1e-4

    def test_stack_matches_per_state(self):
        rng = np.random.default_rng(30)
        rhos = np.stack([werner(3, 0.9), max_entangled(3), random_density_matrix(9, rng)])
        negs = negativity(rhos, 3, 3)
        assert negs.shape == (3,)
        for k in range(3):
            single = negativity(rhos[k], 3, 3)
            assert type(single) is float
            assert abs(negs[k] - single) <= 1e-15

    def test_ppt_threshold_bisection(self):
        assert abs(ppt_threshold(2) - 1.0 / 3.0) <= 1e-4
        assert abs(ppt_threshold(3) - 0.25) <= 1e-4

    def test_separable_state_is_positive_zero(self):
        for d, p in ((2, 0.2), (3, 0.1)):
            neg = negativity(werner(d, p), d, d)
            assert neg == 0.0 and math.copysign(1.0, neg) == 1.0
        negs = negativity(np.stack([werner(2, 0.2), werner(2, 0.3)]), 2, 2)
        assert np.all(negs == 0.0) and not np.any(np.signbit(negs))


def dense_haar_bloch_vectors(d, samples, seed):
    """Reference: every entry of every generator in one dense contraction."""
    basis = generator_basis(d)
    v = analysis.haar_random_states(d, samples, np.random.default_rng(seed))
    n = np.einsum("sa,iab,sb->si", v.conj(), basis.generators, v).real
    return n if basis.bloch_scale == 1.0 else basis.bloch_scale * n


class TestHaar:
    def test_seed_determinism(self):
        m1 = haar_moment_check(3, 2000, seed=123)
        m2 = haar_moment_check(3, 2000, seed=123)
        np.testing.assert_array_equal(m1, m2)
        assert np.max(np.abs(m1 - haar_moment_check(3, 2000, seed=124))) > 0

    def test_moments_small_sample(self):
        m3 = haar_moment_check(3, 20_000, seed=42)
        assert np.max(np.abs(m3 - np.eye(8) / 8.0)) <= 0.02
        m2 = haar_moment_check(2, 20_000, seed=42)
        assert np.max(np.abs(m2 - np.eye(3) / 3.0)) <= 0.02

    def test_bloch_vectors_are_pure(self):
        n = haar_bloch_vectors(3, 50, seed=5)
        norms = np.einsum("si,si->s", n, n)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_symmetric_matrix(self):
        m = haar_moment_check(2, 1000, seed=7)
        np.testing.assert_allclose(m, m.T, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("samples", [1, 7, 200, 20_000])
    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_matches_dense_reference(self, d, samples, seed):
        ref = dense_haar_bloch_vectors(d, samples, seed)
        n = haar_bloch_vectors(d, samples, seed)
        assert n.shape == ref.shape == (samples, d * d - 1)
        assert np.max(np.abs(n - ref)) <= 1e-15
        assert n.flags.c_contiguous == ref.flags.c_contiguous
        assert n.flags.f_contiguous == ref.flags.f_contiguous
        m = haar_moment_check(d, samples, seed)
        assert np.max(np.abs(m - ref.T @ ref / samples)) <= 1e-15

    def test_no_dense_einsum(self, monkeypatch):
        ref = [dense_haar_bloch_vectors(d, 50, 3) for d in (2, 3)]

        def forbidden(*args, **kwargs):
            raise AssertionError("haar_bloch_vectors must not call np.einsum")

        monkeypatch.setattr(np, "einsum", forbidden)
        for d, expected in zip((2, 3), ref):
            assert np.max(np.abs(haar_bloch_vectors(d, 50, 3) - expected)) <= 1e-15


class TestReport:
    def test_default_point(self):
        rep = separability_report(1.0, ChannelParams(), t_max=5.0, steps=50)
        assert rep.rows.shape == (51, 7)
        np.testing.assert_allclose(rep.rows[0], [0, 1, 1, 1, 1, 0.5, 1.0], atol=1e-12)
        assert abs(rep.t_cross_qubit - T_QUBIT_P1) < 1e-8
        assert abs(rep.t_cross_qutrit - T_QUTRIT_P1) < 1e-8
        assert rep.qutrit_preserves_longer
        # s columns nonincreasing, negativity columns nonnegative
        assert np.all(np.diff(rep.rows[:, 1]) <= 1e-15)
        assert np.all(np.diff(rep.rows[:, 2]) <= 1e-15)
        assert np.all(rep.rows[:, 5] >= 0) and np.all(rep.rows[:, 6] >= 0)

    def test_fast_rates_flip_the_verdict(self):
        rep = separability_report(
            1.0, ChannelParams(a2=10.0, a3=10.0), t_max=3.0, steps=10
        )
        assert not rep.qutrit_preserves_longer
        assert rep.t_cross_qutrit < rep.t_cross_qubit

    def test_below_both_thresholds(self):
        rep = separability_report(0.2, ChannelParams(), t_max=1.0, steps=5)
        assert rep.t_cross_qubit is None and rep.t_cross_qutrit is None
        assert not rep.qutrit_preserves_longer

    def test_validation(self):
        with pytest.raises(ValueError):
            separability_report(1.2, ChannelParams())
        with pytest.raises(ValueError):
            separability_report(0.5, ChannelParams(), steps=1)
        with pytest.raises(ValueError):
            separability_report(0.5, ChannelParams(), t_max=0.0)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf])
    def test_non_finite_t_max_is_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            separability_report(0.5, ChannelParams(), t_max=t_max, steps=4)

    def test_indicator_crossings(self):
        t_qb, t_qt, longer = indicator_crossings(1.0, ChannelParams())
        assert abs(t_qb - T_QUBIT_P1) < 1e-8 and abs(t_qt - T_QUTRIT_P1) < 1e-8
        assert longer
        assert indicator_crossings(0.2, ChannelParams()) == (None, None, False)

    def test_never_crossing_report(self):
        rep = separability_report(1.0, ChannelParams(a2=1e-300), t_max=2.0, steps=4)
        assert rep.t_cross_qutrit == math.inf and rep.qutrit_preserves_longer
        assert rep.rows[-1, 2] > 0.25

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_matches_per_point_reference(self, q):
        # two full chunks and a short one of three points
        steps = 2 * analysis.GRID_CHUNK + 2
        p, par = 0.85, ChannelParams(a1=1.3, a2=0.6, a3=2.2, q=q)
        rep = separability_report(p, par, t_max=4.0, steps=steps)
        assert rep.rows.shape == (steps + 1, 7)
        for row in rep.rows:
            at = par.with_time(row[0] / par.a1)
            expected = [row[0]]
            expected += [indicator_closed(p, at.rates(d), at.t) for d in (2, 3)]
            expected += [fidelity_closed(at.rates(d), at.t) for d in (2, 3)]
            for d in (2, 3):
                ident = np.eye(d)
                rho = np.zeros((d * d, d * d), dtype=complex)
                for k in se_kraus(at.rates(d), at.t).operators:
                    lift_a, lift_b = kron(k, ident), kron(ident, k)
                    rho += q * lift_a @ werner(d, p) @ dagger(lift_a)
                    rho += (1 - q) * lift_b @ werner(d, p) @ dagger(lift_b)
                eigs = hermitian_eigenvalues(partial_transpose(rho, d, d))
                # a state without negative eigenvalues has negativity +0.0
                expected.append((-eigs[eigs < 0]).sum())
            assert np.max(np.abs(row - expected)) <= 1e-14
            assert [format(x, ".9g") for x in row] == [format(x, ".9g") for x in expected]

    def test_no_lapack_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("negativity must not use a LAPACK eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        rep = separability_report(0.9, ChannelParams(q=0.2), steps=70)
        assert rep.rows.shape == (71, 7) and rep.rows[0, 6] > 0.5

    def test_reads_kraus_coefficients_at_call_time(self, monkeypatch):
        good = channels._kraus_operators
        seen = []

        def recorded(rates, t):
            if len(rates) == 2:
                seen.append(np.shape(t))
            return good(rates, t)

        monkeypatch.setattr(channels, "_kraus_operators", recorded)
        separability_report(1.0, ChannelParams(), steps=analysis.GRID_CHUNK + 6)
        assert seen == [(analysis.GRID_CHUNK,), (7,)]

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_rows_do_not_depend_on_the_chunk_size(self, q, monkeypatch):
        # two full chunks of the default size and a short one of three points
        default = analysis.GRID_CHUNK
        p, par = 0.9, ChannelParams(a1=0.7, a2=1.9, a3=0.45, q=q)
        rows = {}
        for chunk in (1, 7, default):
            monkeypatch.setattr(analysis, "GRID_CHUNK", chunk)
            rows[chunk] = separability_report(p, par, t_max=6.0, steps=2 * default + 2).rows
        np.testing.assert_array_equal(rows[1], rows[default])
        np.testing.assert_array_equal(rows[7], rows[default])

    def test_peak_memory_of_a_long_grid(self):
        # the chunked grid keeps the (T, 9, 9) temporaries bounded: a first
        # call measured 2,005,505 bytes at GRID_CHUNK = 256 (numpy 2.4.6); the
        # bound is that plus 25%
        par = ChannelParams(a1=1.3, a2=0.4, a3=2.7, q=0.37)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            separability_report(0.83, par, steps=2000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2_507_000
