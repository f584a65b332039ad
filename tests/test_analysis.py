"""Separability indicators, crossings, negativity oracle, Haar moments.

Hand-derived anchors used below:
  qubit crossing (p=1):  -2 ln(sqrt(2)-1)      = 1.7627471740390861
  qutrit crossing (p=1): -2 ln((sqrt(3)-1)/2)  = 2.0101050789535874
  equal-ratio preservation boundary: a* = ln((sqrt(3)-1)/2)/ln(sqrt(2)-1)
                                        = 1.1403266 (True below, False above)
  F_qutrit(t=1, A=1) = (1 + 2 e^{-1/2})^2 / 9 = 0.54418226705958...
"""

import decimal
import math
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qutrit_se import analysis, channels, cli, linalg
from qutrit_se.analysis import (
    crossing_time,
    fidelity_closed,
    fidelity_from_state,
    haar_bloch_vectors,
    haar_moment_check,
    indicator_closed,
    indicator_crossing,
    negativity,
    ppt_threshold,
    preservation_inequality,
    qubit_crossing_closed,
    s_from_state,
    separability_report,
)
from qutrit_se.channels import ChannelParams, lift, se_kraus, se_kraus_qutrit, superoperator
from qutrit_se.linalg import (
    dagger,
    hermitian_eigenvalues,
    partial_transpose,
    random_density_matrix,
)
from qutrit_se.states import max_entangled, werner
from qutrit_se.su import generator_basis

T_QUBIT_P1 = -2.0 * np.log(np.sqrt(2.0) - 1.0)
T_QUTRIT_P1 = -2.0 * np.log((np.sqrt(3.0) - 1.0) / 2.0)


def threshold_crossings(p, par):
    """threshold's two searches and its verdict, read through the one rule."""
    t_qb = indicator_crossing(p, par.rates(2), par.a1)
    t_qt = indicator_crossing(p, par.rates(3), par.a1)
    return t_qb, t_qt, analysis.qutrit_crosses_no_earlier(t_qb, t_qt)


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

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_arm_sum_is_the_papers_nested_sum(self, d):
        # s_d = p H (H + 2)/(d^2-1), H = sum_k h_k, expands to the paper's
        # sum_k h_k (h_k + 2 + 2 sum_{j<k} h_j): equal to a few ulps, bitwise for d = 2
        rng = np.random.default_rng(100 + d)
        for _ in range(40):
            rates = tuple(np.exp(rng.uniform(np.log(0.05), np.log(40.0), d - 1)))
            h = channels._arm_factors(rates, self.TIMES)
            total, below = 0.0, 0.0
            for hk in h:
                total = total + hk * (hk + 2.0 + 2.0 * below)
                below = below + hk
            want = 1.0 / (d * d - 1) * total
            got = indicator_closed(1.0, rates, self.TIMES)
            if d == 2:
                np.testing.assert_array_equal(got, want)
            assert np.max(np.abs(got - want) / np.spacing(want)) <= 8

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_indicator_keeps_the_one_expression_bits(self, d):
        # s_d as one expression, before its weight was split off: the same bytes
        rng = np.random.default_rng(200 + d)
        times = np.concatenate([self.TIMES, [np.inf]])
        for i in range(20):
            p = float(rng.uniform())
            rates = np.exp(rng.uniform(np.log(0.05), np.log(40.0), d - 1))
            rates[0] *= i % 2  # every other draw has an undamped arm
            for t in (times, *times[::9], np.inf):
                arm_sum = sum(channels._arm_factors(rates, np.asarray(t)))
                k = d - 1
                want = p / (k * (k + 2)) * (arm_sum * (arm_sum + 2.0))
                got = indicator_closed(p, rates, t)
                assert np.shape(got) == np.shape(t)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

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
            assert abs(s_from_state(werner(3, p)) - p) < 1e-12
            assert abs(s_from_state(werner(2, p)) - p) < 1e-12

    def test_matches_closed_form_after_evolution(self):
        p = 0.8
        par = ChannelParams(a1=1.1, a2=1.0, a3=0.7, t=0.5)
        for d in (2, 3):
            rho = lift(werner(d, p), superoperator(se_kraus(par.rates(d), par.t)), 0.5)
            assert abs(s_from_state(rho) - indicator_closed(p, par.rates(d), par.t)) <= 1e-10

    def test_q_does_not_enter(self):
        p, par = 0.9, ChannelParams(a2=1.3, a3=0.5, t=0.8)
        vals = [
            s_from_state(lift(werner(3, p), superoperator(se_kraus_qutrit(par)), q))
            for q in (0.0, 0.5, 1.0)
        ]
        assert max(vals) - min(vals) <= 1e-12


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
        assert abs(fidelity_from_state(max_entangled(3)) - 1.0) < 1e-14
        assert abs(fidelity_from_state(np.eye(9) / 9) - 1.0 / 9.0) < 1e-14

    def test_kraus_route_matches_closed(self):
        par = ChannelParams(a1=0.9, a2=1.2, a3=0.6, t=0.8)
        for d in (2, 3):
            rho = lift(werner(d, 1.0), superoperator(se_kraus(par.rates(d), par.t)), 0.5)
            assert abs(fidelity_from_state(rho) - fidelity_closed(par.rates(d), par.t)) <= 1e-10

    def test_q_independence(self):
        par = ChannelParams(a2=1.0, a3=0.4, t=0.9)
        w = werner(3, 0.65)
        ch = se_kraus_qutrit(par)
        f03 = fidelity_from_state(lift(w, superoperator(ch), 0.3))
        f07 = fidelity_from_state(lift(w, superoperator(ch), 0.7))
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
        # s_d(0) = p = 1/(d+1) certifies nothing either: no crossing at t = 0+
        for d in (2, 3, 4):
            assert indicator_crossing(1.0 / (d + 1), (1.0,) * (d - 1)) is None

    def test_residual_within_tolerance(self):
        f = lambda t: indicator_closed(1.0, (1.0, 1.0), t)
        t_star = crossing_time(f, 0.25)
        assert abs(f(t_star) - 0.25) <= 1e-10

    def test_closed_form_domain(self):
        # both qubit closed forms need a pair that starts entangled; a p outside
        # [0, 1] is no Werner weight, and that is checked first
        domain, weight = r"1/3 < p <= 1", r"Werner weight p=.* outside \[0, 1\]"
        for p, message in [(0.0, domain), (0.2, domain), (1.0 / 3.0, domain),
                           (1.5, weight), (-0.1, weight), (math.nan, weight)]:
            with pytest.raises(ValueError, match=message):
                qubit_crossing_closed(p)
            with pytest.raises(ValueError, match=message):
                preservation_inequality(p, (1.0, 1.0))

    def test_never_crossing_is_infinite(self):
        assert crossing_time(lambda t: 1.0, 0.5) == math.inf

    def test_undamped_arm_never_crosses(self):
        # with one arm frozen s_qutrit tends to 3p/8 > 1/4 for p > 2/3
        par = ChannelParams(a2=1e-300)
        assert indicator_crossing(1.0, par.rates(3)) == math.inf
        assert indicator_crossing(0.6, par.rates(3)) < math.inf
        t_qb, t_qt, longer = threshold_crossings(1.0, par)
        assert abs(t_qb - T_QUBIT_P1) < 1e-8 and t_qt == math.inf and longer

    def test_species_crossing_in_a1_units(self):
        par = ChannelParams(a1=2.5, a2=1.5, a3=0.4)
        for d in (2, 3):
            tau = indicator_crossing(0.9, par.rates(d), par.a1)
            assert abs(indicator_closed(0.9, par.rates(d), tau / par.a1) - 1 / (d + 1)) <= 1e-10
        assert indicator_crossing(0.2, par.rates(3), par.a1) is None

    def test_tiny_time_unit_is_measured(self):
        # t = (a1*t)/a1 would overflow within the search range; the arms are
        # evaluated at a power-of-two rescale of (rates, a1) instead
        qutrit = indicator_crossing(0.9, (1.0, 1.0))
        verdict = preservation_inequality(0.9, (1.0, 1.0))
        for a1 in (5e-324, 1e-300, 6.4e-291):
            assert abs(indicator_crossing(0.9, (a1,), a1) - qubit_crossing_closed(0.9)) <= 1e-9
            assert preservation_inequality(0.9, (a1, a1), a1) == verdict
            if a1 == 5e-324:  # a1*t = 2.01 * 5e-324 is below what bisection resolves
                with pytest.raises(ValueError, match="not resolved"):
                    indicator_crossing(0.9, (1.0, 1.0), a1)
            else:
                tau = indicator_crossing(0.9, (1.0, 1.0), a1)
                assert abs(tau / a1 - qutrit) <= 1e-9 * qutrit
            # the row at a1*t = 1 is the qubit closed form; the unit-rate qutrit has decayed
            rows = separability_report(0.9, ChannelParams(a1=a1), t_max=5.0, steps=5)
            assert rows[1, 0] == 1.0 and rows[1, 2] == 0.0
            assert abs(rows[1, 1] - indicator_closed(0.9, (1.0,), 1.0)) <= 1e-12

    def test_grid_just_above_the_time_unit_bound(self):
        # t = (a1*t)/a1 is still finite at a1 = 6.5e-291, so the row at
        # a1*t = 1 is the closed form at t = 1/a1 (0.474282228)
        rows = separability_report(0.9, ChannelParams(a1=6.5e-291), t_max=5.0, steps=5)
        assert rows[1, 0] == 1.0
        assert abs(rows[1, 1] - indicator_closed(0.9, (1.0,), 1.0)) <= 1e-12

    def test_zero_a1_is_a_value_error(self):
        # a1 = 0 is a valid rate but measures no time: ValueError, not ZeroDivisionError
        par = ChannelParams(a1=0.0)
        for d in (2, 3):
            with pytest.raises(ValueError, match="a1 must be above"):
                indicator_crossing(1.0, par.rates(d), par.a1)

    @pytest.mark.parametrize("run, text", [
        pytest.param(lambda: indicator_crossing(0.9, (1.0, 1.0), a1=np.float64(-1.0)),
                     "a1 must be above 0, got -1.0", id="indicator_crossing"),
        pytest.param(lambda: separability_report(0.9, ChannelParams(a1=np.float64(0)), 5.0, 5),
                     "a1 must be above 0, got 0.0", id="separability_report"),
    ])
    def test_numpy_scalar_a1_prints_a_plain_float(self, run, text):
        # the same text under numpy 1 and 2, never np.float64(-1.0)
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == text


    @pytest.mark.parametrize("a", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8, 1.0])
    def test_equal_rate_qutrit_closed_form(self, p, a):
        # a2 = a3 = a: s_3 = p (h^2 + h)/2, so t = -(2/a) ln((sqrt(1 + 2/p) - 1)/2)
        closed = -2.0 / a * math.log((math.sqrt(1.0 + 2.0 / p) - 1.0) / 2.0)
        assert abs(indicator_crossing(p, (a, a)) - closed) <= 1e-8 * closed
        if p == 1.0 and a == 1.0:
            assert format(closed, ".9g") == "2.01010508"

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [0.5, 0.8, 1.0])
    def test_equal_rate_closed_form_for_any_d(self, p, d):
        # d - 1 arms at rate a: H = (d-1) h solves H (H + 2) = (d-1)/p, so
        # a t = -2 ln((sqrt(1 + (d-1)/p) - 1)/(d-1)); a1 sets the unit of a1 t
        closed = -2.0 * math.log((math.sqrt(1.0 + (d - 1) / p) - 1.0) / (d - 1))
        for a, a1 in ((1.0, 1.0), (2.5, 0.4)):
            got = indicator_crossing(p, (a,) * (d - 1), a1)
            assert abs(got - a1 * closed / a) <= 1e-8 * (a1 * closed / a)
        if (d, p) == (4, 1.0):
            assert format(closed, ".9g") == "2.19722458"

    def test_numpy_scalar_rates_overflow_silently(self):
        # a*t overflows to inf as with Python floats, with no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert indicator_crossing(0.9, (np.float64(1e308), 0.0)) == math.inf
            rates, a1 = (np.float64(1e308), np.float64(1e-300)), np.float64(0.5)
            assert indicator_crossing(0.9, rates, a1) == math.inf

    @pytest.mark.parametrize("rates, a1", [((1.0,), 1.0), ((1.3, 0.4), 2.5), ((0.2, 0.0, 5.0), 0.7)])
    def test_numpy_scalar_rates_give_the_float_bits(self, rates, a1):
        for p in (1.0, 0.6, 0.3):
            want = indicator_crossing(p, rates, a1)
            got = indicator_crossing(p, tuple(map(np.float64, rates)), np.float64(a1))
            assert bits([got]) == bits([want])

    @pytest.mark.parametrize("rates", [(1.0, 1.0), (1.3, 0.4), (0.2, 5.0)])
    def test_rate_scale_divides_the_qutrit_crossing(self, rates):
        # scaling a2 and a3 by c (a1 fixed) divides the crossing by c; below
        # c ~ 1e-60 this used to stop at 2^-200 instead
        base = indicator_crossing(0.9, rates)
        for c in np.geomspace(1e-15, 1e300, 64):
            scaled = (c * rates[0], c * rates[1])
            assert abs(c * indicator_crossing(0.9, scaled) - base) <= 1e-8 * base, c

    def test_step_is_found_to_a_relative_bracket(self):
        # the bracket, not a residual, stops the search: a jump is found too
        t_star = crossing_time(lambda t: 1.0 if t <= 0.3 else 0.0, 0.5)
        assert abs(t_star - 0.3) <= 1e-12 * 0.3

    def test_crossings_are_correctly_rounded(self):
        # every crossing prints the 9-digit rounding of a 40-digit reference
        rng = np.random.default_rng(19)
        wrong = []
        for _ in range(200):
            p = float(rng.uniform(0.26, 1.0))
            a1, a2, a3 = (float(a) for a in np.exp(rng.uniform(np.log(0.2), np.log(5.0), 3)))
            par = ChannelParams(a1=a1, a2=a2, a3=a3)
            for d in (2, 3):
                got = indicator_crossing(p, par.rates(d), a1)
                want = decimal_crossing(p, [a / a1 for a in par.rates(d)])
                assert (got is None) == (want is None)
                if got is not None and decimal.Decimal(format(got, ".9g")) != want:
                    wrong.append((p, par, d, got, want))
        assert not wrong

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 8: s_d - 1/(d+1) loses digits to cancellation near p = 1/(d+1)",
    )
    @pytest.mark.parametrize("d", [2, 3])
    def test_near_threshold_crossings_are_correctly_rounded(self, d):
        # at p = 1/(d+1) + 1e-10 the crossing prints 4.49999892e-10 (qubit) and
        # 5.33333037e-10 (qutrit); the 40-digit reference reads 4.49999954e-10
        # and 5.33333377e-10
        p = 1.0 / (d + 1) + 1e-10
        got = indicator_crossing(p, (1.0,) * (d - 1))
        assert decimal.Decimal(format(got, ".9g")) == decimal_crossing(p, [1.0] * (d - 1))

    def test_unresolvable_crossing_raises(self):
        # crossing below the smallest subnormal a1*t
        with pytest.raises(ValueError, match="not resolved"):
            indicator_crossing(1.0, (1e308, 1e308), 1e-200)


def lane_indicator(p, a1, rates):
    """Reference s_d at a1*t = tau that indicator_crossing's f must match bit for bit.

    t = tau/a1, h = exp(-a t/2) per arm, and s_d by ``analysis._indicator_of_sum``.

    Floats give one search's f; arrays (p and a1 of shape (L,), rates of
    shape (d - 1, L)) give a lane f with lane i at its own tau[i].
    """

    def s(tau):
        with np.errstate(over="ignore"):  # a*t = inf is meant: h = exp(-inf) = 0
            h = [np.exp(-a * (tau / a1) / 2.0) for a in rates]
            return analysis._indicator_of_sum(p, len(h))(sum(h))

    return s


def bits(crossings):
    return [None if x is None else x.hex() for x in crossings]


@st.composite
def crossing_lanes(draw):
    # (d, lanes): a lane is (p, a1, arm rates, step), step meaning the jump
    # of test_step_is_found_to_a_relative_bracket in place of s_d
    d = draw(st.sampled_from([2, 3, 4]))
    # log-uniform over 1e-20..1e4: crossings from below 1e-3 to past the 2^60 bound
    spread = st.builds(
        lambda m, e: m * 10.0**e, st.floats(min_value=1.0, max_value=10.0), st.integers(-20, 3)
    )
    rate = st.one_of(st.just(0.0), st.just(1e-300), spread)
    lane = st.tuples(
        st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(1.0 / (d + 1))),
        st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.just(1e-200)),
        st.tuples(*[rate] * (d - 1)),
        st.integers(0, 5).map(lambda k: k == 0),
    )
    return d, draw(st.lists(lane, min_size=1, max_size=8))


@st.composite
def scalar_searches(draw):
    # (d, p, arm rates, a1) for one indicator_crossing on float rates
    d = draw(st.sampled_from([2, 3, 4, 5]))
    log_uniform = lambda lo, hi: st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)
    rate = st.one_of(st.sampled_from([0.0, 1e-300, 1e308]), log_uniform(-20, 4))
    # just above 1/(d+1) the search decides s - 1/(d+1) of a few ulps, so
    # there an ulp of s in the route, not in the reference, moves the crossing
    near = log_uniform(-16, -8).map(lambda e: 1.0 / (d + 1) + e)
    p = draw(st.one_of(st.floats(min_value=0.0, max_value=1.0), st.just(1.0 / (d + 1)), near))
    a1 = draw(st.one_of(st.just(6.5e-291), log_uniform(-3, 3)))
    return d, p, draw(st.tuples(*[rate] * (d - 1))), a1


class TestScalarRoute:
    @settings(max_examples=300, deadline=None)
    @given(scalar_searches())
    def test_float_rates_give_the_reference_bits(self, case):
        # each case three ways: Python floats (the float path), np.float64
        # operands and an a1 small enough for _time_unit's rescale (numpy
        # scalars), against crossing_time on lane_indicator, and on
        # indicator_closed, whose h comes from channels._arm_factors; a search
        # that cannot resolve its crossing raises the same error
        d, p, rates, a1 = case
        threshold = 1.0 / (d + 1)

        def outcome(search):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return bits([search()])
            except ValueError as error:
                return str(error)

        def reference(rates):
            return outcome(lambda: crossing_time(lane_indicator(p, a1, rates), threshold))

        def closed(tau):
            return indicator_closed(p, rates, tau / a1)

        want = reference(rates)
        assert outcome(lambda: crossing_time(closed, threshold)) == want
        assert outcome(lambda: indicator_crossing(p, rates, a1)) == want
        as_numpy = tuple(map(np.float64, rates)), np.float64(a1)
        assert outcome(lambda: indicator_crossing(p, *as_numpy)) == want
        # a1 and the rates times 2^-k, the least power that puts t = 2^60/a1 past the
        # largest float: the rescale multiplies them back by a power of two, exactly,
        # and a rate that fell below the normal range keeps the bits scaled back here
        k = 1
        while math.isfinite(2.0**60 / math.ldexp(a1, -k)):
            k += 1
        low = tuple(math.ldexp(a, -k) for a in rates)
        back = tuple(math.ldexp(a, k) for a in low)
        rescaled = outcome(lambda: indicator_crossing(p, low, math.ldexp(a1, -k)))
        want = want if back == rates else reference(back)
        if isinstance(want, str):
            # below the smallest float the rescaled t = tau/a1 keeps bits that the
            # reference's rounds away, so the search may stop at another bracket
            assert rescaled.split(": bracket")[0] == want.split(": bracket")[0]
        else:
            assert rescaled == want


def plain_crossing(f, threshold):
    """crossing_time's single search evaluating every midpoint: the window's reference."""
    if not f(0.0) > threshold:
        return None
    lo, hi = 0.0, 1.0
    while f(hi) > threshold:
        hi *= 2.0
        if hi > 2.0**60:
            return math.inf
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(analysis._UNRESOLVED.format(lo, hi))
        if f(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def search_outcome(search):
    # a search's bits, or its ValueError's text; a warning fails the test
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return bits([search()])
    except ValueError as error:
        return str(error)


def logged(f, times):
    def g(t):
        times.append(t)
        return f(t)

    return g


class TestCertifiedWindow:
    """The single search, which evaluates f only inside its window, against plain_crossing."""

    @settings(max_examples=300, deadline=None)
    @given(scalar_searches())
    def test_indicator_searches_give_the_plain_bits(self, case):
        # both searches run on the f that indicator_crossing builds, inside its
        # errstate, on Python float and on np.float64 operands
        d, p, rates, a1 = case
        certified = analysis.crossing_time
        for rates, a1 in ((rates, a1), (tuple(map(np.float64, rates)), np.float64(a1))):
            plain = []

            def both(f, threshold):
                plain.append(search_outcome(lambda: plain_crossing(f, threshold)))
                return certified(f, threshold)

            with mock.patch.object(analysis, "crossing_time", both):
                got = search_outcome(lambda: analysis.indicator_crossing(p, rates, a1))
            assert got == plain[0]

    def test_steps_constants_and_starts_below(self):
        tiny = 5e-324
        cases = [
            (lambda t: 1.0 if t <= 0.3 else 0.0, 0.5),
            (lambda t: 1.0 if t <= 7 * tiny else 0.0, 0.5),  # below the smallest float
            (lambda t: 1.0, 0.5),  # never crosses: inf
            (lambda t: 0.5, 0.5),  # f(0) not above: None
            (lambda t: 0.2 * math.exp(-t), 0.5),
        ]
        for f, threshold in cases:
            want = search_outcome(lambda: plain_crossing(f, threshold))
            assert search_outcome(lambda: crossing_time(f, threshold)) == want
        assert search_outcome(lambda: crossing_time(*cases[1])).endswith("[3.5e-323, 4e-323]")
        assert crossing_time(*cases[2]) == math.inf and crossing_time(*cases[3]) is None

    def test_a_side_that_cannot_certify_evaluates_every_midpoint(self):
        # the qutrit at the float just above p = 1/4 starts an ulp above the
        # threshold, so no time below the crossing clears the margin; a step of
        # 1e-15 about the threshold, and a slope of 1e-14 with a wobble of 1e-15
        # (far inside the margin, but not monotone), clear it on neither side.
        # The search asks f for every time on such a side that the plain one asks for
        qutrit = lane_indicator(float(np.nextafter(0.25, 1.0)), 1.0, (1.0, 1.0))
        for f, side in [
            (qutrit, lambda t: qutrit(t) > 0.25),
            (lambda t: 0.25 + (1e-15 if t <= 0.3 else -1e-15), lambda t: True),
            (lambda t: 0.25 + 1e-14 * (0.3 - t) + 1e-15 * math.sin(1e7 * t), lambda t: True),
        ]:
            certified, plain = [], []
            got = crossing_time(logged(f, certified), 0.25)
            want = plain_crossing(logged(f, plain), 0.25)
            assert bits([got]) == bits([want])
            assert {t for t in plain if side(t)} <= set(certified)

    def test_default_threshold_evaluates_f_at_most_20_times_per_search(self, monkeypatch, capsys):
        certified, calls = analysis.crossing_time, []

        def counted(f, threshold):
            calls.append([])
            return certified(logged(f, calls[-1]), threshold)

        monkeypatch.setattr(analysis, "crossing_time", counted)
        assert cli.main(["threshold"]) == 0
        assert len(calls) == 2 and all(len(times) <= 20 for times in calls), calls

    def test_np_exp_stays_within_the_margin_budget(self):
        # _SEARCH_MARGIN's bound takes np.exp within 4 ulps of e^x on the search's
        # exponents x in (-745, 0]; math.exp is within 1 ulp, so 3 ulps between them,
        # for np.exp of Python floats (the float path) and of an array (the lanes)
        rng = np.random.default_rng(44)
        x = np.concatenate([-rng.uniform(0.0, 745.0, 20_000), -np.geomspace(1e-300, 745.0, 5_000)])
        exact = [math.exp(v) for v in x.tolist()]
        budget = 3.0 * np.array([math.ulp(v) for v in exact])
        scalar = np.array([float(np.exp(v)) for v in x.tolist()])
        assert np.all(np.abs(scalar - exact) <= budget)
        assert np.all(np.abs(np.exp(x) - exact) <= budget)

    def test_indicator_error_stays_within_the_derived_bound(self):
        # _SEARCH_MARGIN derives |s - F| <= (n + 22) 2^-53 for n = d - 1 arms, F
        # the exact s with the rounded weight; measured against 40-digit decimals
        rng = np.random.default_rng(45)
        worst = 0.0
        for _ in range(1_000):
            d = int(rng.integers(2, 6))
            p = float(rng.uniform(0.0, 1.0))
            rates = tuple(float(10.0 ** rng.uniform(-3, 3)) for _ in range(d - 1))
            a1, tau = float(10.0 ** rng.uniform(-3, 3)), float(10.0 ** rng.uniform(-4, 3))
            s = lane_indicator(p, a1, rates)(tau)
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                D = decimal.Decimal
                arm_sum = sum((((-D(a) * D(tau)) / (2 * D(a1))).exp() for a in rates), D(0))
                exact = D(p / ((d - 1) * (d + 1))) * arm_sum * (arm_sum + 2)
                error = float(abs(D(float(s)) - exact) / D(2.0**-53))
            assert error <= d - 1 + 22, (d, p, rates, a1, tau)
            worst = max(worst, error)
        assert worst > 0.0


class TestCrossingLanes:
    """crossing_time on an array-valued f: one lock-step search per lane."""

    @settings(max_examples=150, deadline=None)
    @given(crossing_lanes())
    def test_lanes_are_the_single_searches_bitwise(self, case):
        d, lanes = case
        p, a1, rates, step = zip(*lanes)
        s = lane_indicator(np.array(p), np.array(a1), np.array(rates).T)

        def jump(t):
            return 1.0 if t <= 0.3 else 0.0

        got = crossing_time(
            lambda t: np.where(np.array(step), np.where(t <= 0.3, 1.0, 0.0), s(t)), 1.0 / (d + 1)
        )
        want = [
            crossing_time(jump if j else lane_indicator(*lane[:3]), 1.0 / (d + 1))
            for *lane, j in lanes
        ]
        assert bits(got) == bits(want)

    def test_lanes_around_the_doubling_bound(self):
        # qubit crossings a1*t = 1.7627.../a from 2^57 to 2^63: each lane stops
        # doubling, or gives up past 2^60, on its own
        rates = 1.7627471740390861 / np.geomspace(2.0**57, 2.0**63, 97)
        s = lane_indicator(np.ones(97), np.ones(97), rates[None, :])
        got = crossing_time(s, 1.0 / 3.0)
        want = [crossing_time(lane_indicator(1.0, 1.0, (a,)), 1.0 / 3.0) for a in rates]
        assert bits(got) == bits(want)
        assert math.inf in got and got[0] < 2.0**60

    def test_a_lane_below_the_smallest_float_raises_the_single_error(self):
        # a1 = 1e-200, a2 = a3 = 1e308: s_3 falls past 1/4 below a1*t = 5e-324
        with pytest.raises(ValueError, match="not resolved in floating point") as single:
            indicator_crossing(0.9, (1e308, 1e308), 1e-200)
        rates = np.array([[1.0, 1e308, 0.5], [2.0, 1e308, 0.0]])
        s = lane_indicator(np.full(3, 0.9), np.array([1.0, 1e-200, 1.0]), rates)
        with pytest.raises(ValueError) as lanes:
            crossing_time(s, 0.25)
        assert str(lanes.value) == str(single.value)

    def test_of_lanes_stuck_at_once_the_first_raises(self):
        # every bracket is dyadic, so jumps just past 7 and 3 times the
        # smallest subnormal get stuck in the same halving, at different brackets
        tiny = 5e-324
        with pytest.raises(ValueError) as single:
            crossing_time(lambda t: 1.0 if t <= 7 * tiny else 0.0, 0.5)
        with pytest.raises(ValueError) as lanes:
            crossing_time(lambda t: np.where(t <= np.array([7, 3]) * tiny, 1.0, 0.0), 0.5)
        assert str(lanes.value) == str(single.value)
        assert "[3.5e-323, 4e-323]" in str(single.value)

    def test_the_path_follows_the_shape_of_f(self):
        # a one-lane array is a lane search, a scalar a single one
        f = lane_indicator(1.0, 1.0, (1.0, 1.0))
        lanes = crossing_time(lambda t: np.reshape(f(t), (1,)), 0.25)
        single = crossing_time(f, 0.25)
        assert isinstance(lanes, list) and bits(lanes) == bits([single])
        assert crossing_time(lambda t: np.zeros((0,)), 0.25) == []


class TestCrossingGrid:
    """indicator_crossing on arrays of rates: the compare grid's crossings in one search."""

    @pytest.mark.parametrize("p", [1.0, 0.7, 0.3, 0.25, 0.0])
    def test_lanes_are_the_single_crossings_bitwise(self, p):
        grid = np.linspace(0.2, 5.0, 10)
        a2 = np.concatenate([np.repeat(grid, 10), [0.0, 0.0, 1e-300, 1e308, 3.0, 0.0]])
        a3 = np.concatenate([np.tile(grid, 10), [0.0, 1.0, 2.0, 1e308, 0.0, 1e-300]])
        got = indicator_crossing(p, (a2, a3))
        want = [indicator_crossing(p, pair) for pair in zip(a2.tolist(), a3.tolist())]
        assert bits(got) == bits(want)

    def test_grid_shape_and_arm_count(self):
        # any lane shape, read in C order; d - 1 = len(rates) arms
        grid = np.linspace(0.2, 5.0, 4)
        mesh = np.meshgrid(grid, grid, indexing="ij")
        flat = indicator_crossing(0.8, tuple(m.ravel() for m in mesh))
        assert bits(indicator_crossing(0.8, tuple(mesh))) == bits(flat)
        for rates in ((grid,), (grid, grid[::-1], np.zeros(4))):
            d = len(rates) + 1
            want = [
                crossing_time(lambda t: indicator_closed(0.8, lane, t), 1.0 / (d + 1))
                for lane in zip(*rates)
            ]
            assert bits(indicator_crossing(0.8, rates)) == bits(want)

    def test_lanes_in_a1_units(self):
        # a lane search at a1 != 1 has the bits of the single searches there
        rates = (np.array([0.0, 1e-300, 0.7, 2.5, 1e308]), np.array([1.3, 0.0, 0.7, 4.0, 2.0]))
        for a1 in (0.3, 1.0, 6.5e-291):
            want = [indicator_crossing(0.9, lane, a1) for lane in zip(*map(list, rates))]
            assert bits(indicator_crossing(0.9, rates, a1)) == bits(want)

    def test_inputs_are_checked(self):
        # the weight, then the time unit, then the rates
        ok = np.ones(3)
        for p in (1.5, math.nan):
            with pytest.raises(ValueError, match="Werner weight"):
                indicator_crossing(p, (ok, np.array([1.0, -1.0, 1.0])), 0.0)
        for a1 in (0.0, math.nan):
            with pytest.raises(ValueError, match="a1 must be above 0, got"):
                indicator_crossing(1.0, (ok, np.array([1.0, -1.0, 1.0])), a1)
        # a tiny a1 rescales the rates, so they are checked, and named, as given
        for bad in (-1.0, math.nan, math.inf):
            for a1 in (1.0, 1e-300):
                with pytest.raises(ValueError, match=f"arm rates must be .*, got {bad}$"):
                    indicator_crossing(1.0, (ok, np.array([1.0, bad, 1.0])), a1)
                with pytest.raises(ValueError, match=f"arm rates must be .*, got {bad}$"):
                    indicator_crossing(1.0, (1.0, bad), a1)
        with pytest.raises(ValueError, match=r"arm rates must be .*, got \(\)"):
            indicator_crossing(1.0, ())


# log-uniform on [1/4, 4]: every rate * 2^-k with k <= 1020 is a normal float,
# so scaling by 2^-k is exact
UNIT_RATE = st.floats(min_value=-2.0, max_value=2.0).map(lambda e: 2.0**e)


class TestPowerOfTwoUnit:
    """s_d depends on the products a_k t only: rates and a1 times 2^-k keep every bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]).flatmap(
            lambda d: st.lists(st.tuples(*[UNIT_RATE] * (d - 1)), min_size=1, max_size=4)
        ),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(0, 1020),
    )
    @example([(0.3, 2.5)], 0.9, 1020)
    def test_crossings(self, lanes, p, k):
        unit = math.ldexp(1.0, -k)
        scaled = [tuple(math.ldexp(a, -k) for a in lane) for lane in lanes]
        for lane, small in zip(lanes, scaled):
            want = indicator_crossing(p, lane)
            assert bits([indicator_crossing(p, small, unit)]) == bits([want])
        columns = lambda rows: tuple(np.array(c) for c in zip(*rows))
        got = indicator_crossing(p, columns(scaled), unit)
        assert bits(got) == bits(indicator_crossing(p, columns(lanes)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(UNIT_RATE, UNIT_RATE, UNIT_RATE),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(0, 1020),
    )
    @example((1.0, 0.3, 2.5), 0.9, 0.5, 1020)
    def test_report(self, rates, p, q, k):
        want = separability_report(p, ChannelParams(*rates, q=q), t_max=5.0, steps=4)
        small = ChannelParams(*(math.ldexp(a, -k) for a in rates), q=q)
        assert separability_report(p, small, t_max=5.0, steps=4).tobytes() == want.tobytes()


def decimal_crossing(p: float, ratios: list) -> decimal.Decimal | None:
    """a1*t at which the paper's nested-sum s_d reaches 1/(d+1), to 9 digits.

    Bisects at 40 digits on the exact float inputs, with the rate ratios
    a_k/a1, down to a bracket of 1e-30 relative; None when s_d(0) = p is not
    above the threshold.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        D = decimal.Decimal
        p, ratios = D(p), [D(r) for r in ratios]
        threshold = 1 / D(len(ratios) + 2)

        def above(tau):
            total, below = D(0), D(0)
            for r in ratios:
                hk = (-r * tau / 2).exp()
                total += hk * (hk + 2 + 2 * below)
                below += hk
            return p * total / (len(ratios) * (len(ratios) + 2)) > threshold

        if not above(D(0)):
            return None
        lo, hi = D(0), D(1)
        while above(hi):
            hi *= 2
        while hi - lo > D("1e-30") * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if above(mid) else (lo, mid)
        ctx.prec = 9
        return +hi


class TestWernerWeight:
    """p outside [0, 1], NaN included, is rejected by every p-taking function."""

    @pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
    def test_rejected(self, p):
        with pytest.raises(ValueError, match="Werner weight"):
            werner(2, p)
        with pytest.raises(ValueError, match="Werner weight"):
            indicator_closed(p, (1.0,), 0.0)
        for rates in ((1.0,), (1.0, 1.0)):
            with pytest.raises(ValueError, match="Werner weight"):
                indicator_crossing(p, rates)
        with pytest.raises(ValueError, match="Werner weight"):
            separability_report(p, ChannelParams(), t_max=5.0, steps=4)

    def test_rejected_before_the_grid_is_built(self):
        # each column of a 10^7-point grid takes 80 MB; a bad p must not pay for it
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="Werner weight"):
                separability_report(2.0, ChannelParams(), t_max=5.0, steps=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestFourLevels:
    """d = 4 (three arms) through the public rate-tuple functions."""

    RATES = (1.3, 0.4, 2.1)

    @pytest.mark.parametrize("q", [0.0, 0.35, 1.0])
    def test_closed_forms_match_the_state_route(self, q):
        worst = 0.0
        for p in (0.3, 0.7, 1.0):
            for t in (0.0, 0.2, 0.9, 2.5, 8.0):
                rho = lift(werner(4, p), superoperator(se_kraus(self.RATES, t)), q)
                s = indicator_closed(p, self.RATES, t)
                worst = max(worst, abs(s_from_state(rho) - s))
                if p == 1.0:  # F_d is the overlap of the evolved |Psi><Psi|
                    f = fidelity_closed(self.RATES, t)
                    worst = max(worst, abs(fidelity_from_state(rho) - f))
        assert worst <= 1e-10

    def test_crossing_lanes_are_the_single_searches(self):
        # zero, 1e-300 and 1e308 lanes among ordinary ones, each bitwise its single search
        rates = np.array(
            [[0.0, 1e-300, 1.3, 0.0, 1e308, 0.4], [0.0, 0.4, 1e-300, 2.1, 1e308, 0.0],
             [0.0, 2.1, 0.4, 1e-300, 1.3, 5.0]]
        )
        for p in (1.0, 0.6, 0.3, 0.2):
            want = [indicator_crossing(p, lane) for lane in rates.T.tolist()]
            assert bits(indicator_crossing(p, tuple(rates))) == bits(want)
        assert indicator_crossing(1.0, tuple(rates))[0] == math.inf

    def test_ppt_threshold_is_one_fifth(self):
        assert abs(ppt_threshold(4) - 0.2) <= 1e-4

    @pytest.mark.parametrize("seed", [0, 42])
    def test_haar_moments(self, seed):
        m = haar_moment_check(4, 20_000, seed)
        assert np.max(np.abs(m - np.eye(15) / 15)) <= 0.02


class TestPreservation:
    def test_equal_rates_verdicts(self):
        assert preservation_inequality(1.0, (1.0, 1.0))
        assert preservation_inequality(1.0, (1.14, 1.14))  # just inside boundary
        assert not preservation_inequality(1.0, (1.15, 1.15))  # just outside
        assert not preservation_inequality(1.0, (10.0, 10.0))

    def test_agrees_with_crossing_comparison(self):
        t_qb = T_QUBIT_P1
        for a21 in (0.2, 1.0, 2.6, 5.0):
            for a31 in (0.2, 1.0, 2.6, 5.0):
                par = ChannelParams(a2=a21, a3=a31)
                t_qt = crossing_time(lambda t: indicator_closed(1.0, par.rates(3), t), 0.25)
                assert preservation_inequality(1.0, (a21, a31)) == (t_qt >= t_qb)

    def test_domain(self):
        # alpha >= 1 for p <= 1/3: the qubit pair is separable from the start
        for p in (0.0, 0.2, 1.0 / 3.0):
            with pytest.raises(ValueError):
                preservation_inequality(p, (1.0, 1.0))

    @pytest.mark.parametrize("rates, a1", [
        ((math.nan, 1.0), 1.0), ((-5.0, 1.0), 1.0), ((1.0, math.inf), 1.0), ((), 1.0),
        ((1.0, 1.0), 0.0), ((1.0,), -1.0), ((1.0, 1.0, 1.0), math.nan),
    ])
    def test_inputs_take_the_crossing_checks(self, rates, a1):
        # one rule per input: the verdict and the crossing search reject a bad
        # rate tuple or time unit with one message
        messages = set()
        for verdict in (preservation_inequality, indicator_crossing):
            with pytest.raises(ValueError, match="arm rates must be|a1 must be above") as err:
                verdict(1.0, rates, a1)
            messages.add(str(err.value))
        assert len(messages) == 1, messages

    @pytest.mark.parametrize("num", [float, np.float64])
    def test_an_overflowing_ratio_is_a_decayed_arm(self, num):
        # a2/a1 past the float range: alpha^inf = 0, with no overflow warning
        # for a numpy time unit either; an undamped arm stays at alpha^0 = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not preservation_inequality(1.0, (num(1e308), num(1.0)), num(1e-290))
            assert preservation_inequality(1.0, (num(1e308), 0.0, 0.0), num(1e-290))

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4, 5]),
        p=st.floats(min_value=1.0 / 3.0, max_value=1.0, exclude_min=True),
        a1=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e),
        ratios=st.lists(st.one_of(st.just(0.0), st.floats(min_value=-8.0, max_value=8.0)
                                  .map(math.exp)), min_size=4, max_size=4),
    )
    # threshold --a1 1e-290 --a2 1e308: an a2/a1 past the float range
    @example(d=3, p=1.0, a1=1e-290, ratios=[math.inf, 1.0, 1.0, 1.0])
    def test_verdict_is_the_crossing_comparison_for_any_d(self, d, p, a1, ratios):
        # the closed form against the two bisected crossings, wherever these
        # are resolvable: not p within 1e-6 of 1/3 (the 9 digits' stated
        # limit), not an s_d whose t -> inf limit p z(z + 2)/(d^2 - 1), with
        # z undamped arms, is 1/(d + 1) to 1e-12 relative, and not a tie that
        # the bisection's 1e-12 bracket cannot order
        z = ratios[: d - 1].count(0.0)
        assume(p - 1.0 / 3.0 > 1e-6 and abs(p * z * (z + 2) / (d - 1) - 1.0) > 1e-12)
        verdict, t_qb, t_qt = self.verdict_and_crossings(d, p, a1, ratios)
        assume(t_qt == math.inf or abs(t_qt - t_qb) > 1e-9 * t_qt)
        assert verdict == analysis.qutrit_crosses_no_earlier(t_qb, t_qt)

    @pytest.mark.parametrize("d, p, ratios", [
        # s_5 tends to exactly 1/6 = 1/(d + 1) (p z(z + 2)/24 with z = 2): the
        # exact crossing is never, but the rounded s_5 reaches 1/6 at 0.48572045
        pytest.param(5, 0.5, [0.0, 0.0, math.exp(5.0), math.exp(5.0)], id="limit-at-threshold"),
        # the crossings 9.02e-17 and 1.158e-16 are in the exact ratio e^0.25,
        # but alpha = sqrt(1 + 1/p) - 1 rounds the verdict to false
        pytest.param(2, 0.33333333333333337, [math.exp(-0.25)], id="p-next-above-one-third"),
    ])
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
    def test_verdict_at_an_unresolvable_crossing(self, d, p, ratios):
        verdict, t_qb, t_qt = self.verdict_and_crossings(d, p, 1.0, ratios)
        assert verdict == analysis.qutrit_crosses_no_earlier(t_qb, t_qt)

    @staticmethod
    def verdict_and_crossings(d, p, a1, ratios):
        # the closed-form verdict, and the qubit's and the d-level crossings
        rates = tuple(min(r * a1, 1e308) for r in ratios[: d - 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = preservation_inequality(p, rates, a1)
        return verdict, indicator_crossing(p, (a1,), a1), indicator_crossing(p, rates, a1)

    def test_qutrit_verdicts_keep_the_two_ratio_formula(self):
        # d = 3 against the two-ratio form alpha^a21 + alpha^a31, written out:
        # seeded draws in threshold's form (rates and a1, a21 = a2/a1) and
        # compare's grid cells at a1 = 1
        def two_ratio(p, a21, a31):
            alpha = np.sqrt(1.0 + 1.0 / p) - 1.0
            u = alpha**a21 + alpha**a31
            return bool(0.5 * u * (u + 2.0) >= 1.0 / p)

        rng = np.random.default_rng(35)
        n = 100_000
        ps = rng.uniform(np.nextafter(1.0 / 3.0, 1.0), 1.0, n).tolist()
        a1s = np.exp(rng.uniform(-3.0, 3.0, n))
        a2s, a3s = a1s * np.exp(rng.uniform(-8.0, 8.0, (2, n)))
        mismatches, trues = 0, 0
        for p, a1, a2, a3 in zip(ps, a1s.tolist(), a2s.tolist(), a3s.tolist()):
            verdict = preservation_inequality(p, (a2, a3), a1)
            mismatches += verdict != two_ratio(p, a2 / a1, a3 / a1)
            trues += verdict
        grid = np.linspace(0.2, 5.0, 10)
        for p in (1.0, 0.7, 0.5, 0.4, 0.34):
            for cell in zip(np.repeat(grid, 10), np.tile(grid, 10)):
                mismatches += preservation_inequality(p, cell) != two_ratio(p, *cell)
        assert mismatches == 0
        assert 0.1 * n < trues < 0.9 * n  # both verdicts are drawn


class TestNegativity:
    def test_max_entangled_values(self):
        assert abs(negativity(max_entangled(2)) - 0.5) < 1e-12
        assert abs(negativity(max_entangled(3)) - 1.0) < 1e-12

    def test_product_state_zero(self):
        rng = np.random.default_rng(29)
        rho = np.kron(random_density_matrix(3, rng), random_density_matrix(3, rng))
        assert negativity(rho) < 1e-10

    def test_werner_threshold_behavior(self):
        for d in (2, 3):
            thr = 1.0 / (d + 1)
            for p in (0.0, thr / 2, thr):
                assert negativity(werner(d, p)) <= 1e-10
            for p in (thr + 0.01, 0.6, 1.0):
                assert negativity(werner(d, p)) > 1e-4

    def test_stack_matches_per_state(self):
        rng = np.random.default_rng(30)
        rhos = np.stack([werner(3, 0.9), max_entangled(3), random_density_matrix(9, rng)])
        negs = negativity(rhos)
        assert negs.shape == (3,)
        for k in range(3):
            single = negativity(rhos[k])
            assert type(single) is float
            assert abs(negs[k] - single) <= 1e-15

    def test_ppt_threshold_bisection(self):
        assert abs(ppt_threshold(2) - 1.0 / 3.0) <= 1e-4
        assert abs(ppt_threshold(3) - 0.25) <= 1e-4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ppt_threshold_is_the_one_point_bisection(self, d):
        # reference: one negativity call per midpoint, 20 halvings of [0, 1]
        def entangled(p):
            return negativity(werner(d, p)) > 1e-9

        lo, hi = 0.0, 1.0
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if entangled(mid):
                hi = mid
            else:
                lo = mid
        got = ppt_threshold(d)
        assert got.hex() == (0.5 * (lo + hi)).hex()

    def test_separable_state_is_positive_zero(self):
        for d, p in ((2, 0.2), (3, 0.1)):
            neg = negativity(werner(d, p))
            assert neg == 0.0 and math.copysign(1.0, neg) == 1.0
        negs = negativity(np.stack([werner(2, 0.2), werner(2, 0.3)]))
        assert np.all(negs == 0.0) and not np.any(np.signbit(negs))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_in_place_read_has_the_bits_of_the_partial_transpose_route(self, d):
        # negativity reads rho^T_B's entries straight from rho; the public route
        # copies the partial transpose first, then diagonalises it
        rng = np.random.default_rng(110 + d)
        dense = np.stack([random_density_matrix(d * d, rng) for _ in range(12)])
        diagonal = np.diag(rng.dirichlet(np.ones(d * d))).astype(complex)
        times = np.r_[0.0, rng.uniform(0.0, 8.0, 30), np.inf]
        rates = tuple(np.exp(rng.uniform(-1.5, 1.5, d - 1)))
        lifted = [lift(werner(d, p).real, superoperator(se_kraus(rates, times).real), q)
                  for p, q in ((0.9, 0.37), (0.6, 0.0), (1.0, 1.0))]
        # a member diagonal from the start sits out every sweep: the gather/scatter path
        for stack in (dense, np.stack([dense[0], diagonal, dense[1]]), *lifted):
            eigs = hermitian_eigenvalues(partial_transpose(stack))
            in_place = linalg._eigenvalues(stack.reshape(len(stack), -1), linalg._pt_order(d))
            assert in_place.tobytes() == eigs.tobytes()
            # negativity's own sum: summing the negatives alone is another order
            # of numpy's pairwise sum over the d^2 terms, which shows at d = 4
            want = np.where(eigs < 0.0, -eigs, 0.0).sum(axis=-1)
            assert negativity(stack).tobytes() == want.tobytes()
            for member, value in zip(stack, want):
                assert negativity(member) == value and type(negativity(member)) is float

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        rates=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=3, max_size=3),
        t=st.one_of(st.floats(min_value=0.0, max_value=20.0), st.just(math.inf)),
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    # a coherence below JACOBI_TOL on a nearly degenerate pair of populations
    @example(d=2, rates=[0.0, 0.0, 0.0], t=math.inf, p=1e-12, q=0.0)
    @example(d=4, rates=[1.0, 2.0, 3.0], t=0.0, p=1e-12, q=0.5)
    def test_evolved_werner_matches_the_pair_blocks(self, d, rates, t, p, q):
        # ROADMAP item 1a: the partial transpose of an evolved Werner state is
        # d populations and the 2x2 blocks {|ij>, |ji>}, so its negativity is
        # the sum of the blocks' max(0, -lambda_minus), and its smallest
        # eigenvalue the smallest population or lambda_minus, with no eigensolver
        rho = lift(werner(d, p), superoperator(se_kraus(rates[: d - 1], t)), q)
        want = 0.0
        lam_min = min(rho[i * d + i, i * d + i].real for i in range(d))
        for i in range(d):
            for j in range(i + 1, d):
                a, b = rho[i * d + j, i * d + j].real, rho[j * d + i, j * d + i].real
                c = rho[i * d + i, j * d + j]
                lam = (a + b) / 2 - math.sqrt(((a - b) / 2) ** 2 + abs(c) ** 2)
                want += max(0.0, -lam)
                lam_min = min(lam_min, lam)
        assert abs(negativity(rho) - want) <= 1e-14
        eigs = hermitian_eigenvalues(partial_transpose(rho))
        assert abs(eigs.min() - lam_min) <= 1e-14


def dense_haar_bloch_vectors(d, samples, seed):
    """Reference: every entry of every generator in one dense contraction."""
    basis = generator_basis(d)
    v = analysis.haar_random_states(d, samples, np.random.default_rng(seed))
    n = np.einsum("sa,iab,sb->si", v.conj(), basis.generators, v).real
    return n if basis.bloch_scale == 1.0 else basis.bloch_scale * n


def conj_times(x, y, g):
    """(Re, Im) of conj(x + iy) g, rounded as numpy's complex product.

    A unit entry (+-1, +-i) only copies or negates x and y.
    """
    if g in (1, -1):
        return (x, -y) if g == 1 else (-x, y)
    if g in (1j, -1j):
        return (y, x) if g == 1j else (-y, -x)
    return x * g.real + y * g.imag, x * g.imag - y * g.real


def whole_array_haar_bloch_vectors(d, samples, seed):
    """Reference: the unblocked pipeline, every step on all samples at once.

    Each nonzero generator entry g_ab adds pr x_b - pi y_b with (pr, pi) =
    conj(v_a) g_ab, summed in row-major (a, b) order, whatever the
    generator's type.
    """
    basis = generator_basis(d)
    v = analysis.haar_random_states(d, samples, np.random.default_rng(seed))
    x, y = np.ascontiguousarray(v.real.T), np.ascontiguousarray(v.imag.T)
    rows = np.empty((basis.n_generators, samples))
    for row, gen in zip(rows, basis.generators):
        terms = []
        for a, b in zip(*np.nonzero(gen)):
            pr, pi = conj_times(x[a], y[a], gen[a, b])
            terms.append(pr * x[b] - pi * y[b])
        row[...] = sum(terms[1:], terms[0])
    if basis.bloch_scale == 1.0:
        n = np.empty((samples, basis.n_generators), dtype=complex).real
        n[...] = rows.T
        return n
    return np.multiply(basis.bloch_scale, rows.T, order="C")


def whole_array_moment_check(d, samples, seed):
    n = whole_array_haar_bloch_vectors(d, samples, seed)
    return n.T @ n / samples


class FailingDraws:
    """A Generator whose ``fail_at``-th standard_normal call (None: none) raises MemoryError.

    Records the thread of every call and the count of threads alive at it.
    haar_bloch_vectors draws the real parts first, then each block's imaginary
    parts in turn on the calling thread: call 2 is the first block's, call 3
    the second's. _haar_pair_moments draws every normal on its worker, in
    stream order: the qubit's real parts (call 1), its imaginary parts one
    block at a time (a call per block), the rest of the qutrit's real parts,
    then the qutrit's imaginary parts block by block. At 20,000 qutrit samples
    the qubit's 10,000 are two blocks, so calls 2-3 are the qubit's imaginary
    parts, call 4 the qutrit's remaining real parts and calls 5-7 its three
    imaginary blocks.
    """

    def __init__(self, seed, fail_at):
        # default_rng(seed)'s generator, built without the patched default_rng
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.fail_at, self.threads, self.alive = fail_at, [], []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        self.alive.append(threading.active_count())
        if len(self.threads) == self.fail_at:
            raise MemoryError("normals could not be drawn")
        return self.rng.standard_normal(*args, **kwargs)


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

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_is_an_error(self, samples):
        # the mean over no samples would be an all-NaN matrix and a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="samples must be >= 1"):
                haar_moment_check(3, samples, 1)

    @pytest.mark.parametrize("d", [2, 3, 5])
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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8, 9])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 5)])
    @pytest.mark.parametrize("seed", [0, 9, 2024])
    def test_blocks_match_the_whole_array_bitwise(self, d, blocks, extra, seed):
        # sample counts at the block edges: 1, B - 1, B, B + 1 and 2B + 5; the
        # real parts are drawn into the output's tail, which the blocks overwrite,
        # each block's imaginary parts as it is reached, and at d = 8 and 9
        # the norm is numpy's own row reduce: eight running sums, and a remainder at 9
        samples = blocks * analysis._HAAR_BLOCK + extra
        ref = whole_array_haar_bloch_vectors(d, samples, seed)
        n = haar_bloch_vectors(d, samples, seed)
        assert n.shape == ref.shape and n.tobytes() == ref.tobytes()
        assert n.flags.c_contiguous == ref.flags.c_contiguous
        assert n.flags.f_contiguous == ref.flags.f_contiguous
        m = haar_moment_check(d, samples, seed)
        assert m.tobytes() == whole_array_moment_check(d, samples, seed).tobytes()

    @pytest.mark.parametrize("d", [*range(2, 18), 64, 128, 129, 130, 255, 256, 257, 300, 1031])
    def test_level_sum_has_the_bits_of_the_norm(self, d):
        # level-major in turn below 8; from 8 up numpy's own row reduce, across a
        # second pairwise level and tails that are not whole eights
        rng = np.random.default_rng(d)
        v = rng.standard_normal((300, d)) + 1j * rng.standard_normal((300, d))
        w = np.ascontiguousarray(v.T)
        r = np.sqrt(analysis._level_sum((w.conj() * w).real))
        assert r.tobytes() == np.linalg.norm(v, axis=1).tobytes()

    @staticmethod
    def failing_draws(monkeypatch, fail_at):
        rngs = []

        def default_rng(seed):
            rngs.append(FailingDraws(seed, fail_at))
            return rngs[-1]

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        return rngs

    def test_every_block_draws_on_the_calling_thread(self, monkeypatch):
        samples = 2 * analysis._HAAR_BLOCK + 5
        ref = whole_array_haar_bloch_vectors(3, samples, 4)
        rngs = self.failing_draws(monkeypatch, None)
        threads = threading.active_count()
        assert haar_bloch_vectors(3, samples, 4).tobytes() == ref.tobytes()
        assert rngs[0].alive == [threads] * 4 and threading.active_count() == threads
        assert rngs[0].threads == [threading.current_thread()] * 4

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_samples_is_an_empty_draw_and_starts_no_thread(self, monkeypatch, d):
        rngs = self.failing_draws(monkeypatch, None)
        threads = threading.active_count()
        n = haar_bloch_vectors(d, 0, 4)
        assert n.shape == (0, d * d - 1) and n.dtype == float
        # the real parts' empty draw, and no block
        assert rngs[0].alive == [threads] and threading.active_count() == threads
        assert rngs[0].threads == [threading.current_thread()]

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
    def test_a_failed_draw_raises_here(self, monkeypatch, fail_at):
        # call 1 draws the real parts, calls 2-4 the three blocks' imaginary parts
        rngs = self.failing_draws(monkeypatch, fail_at)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="normals could not be drawn"):
            haar_bloch_vectors(3, 2 * analysis._HAAR_BLOCK + 5, 4)
        assert rngs[0].alive == [threads] * fail_at and threading.active_count() == threads
        assert rngs[0].threads == [threading.current_thread()] * fail_at

    def test_a_failed_draw_on_the_worker_is_one_error_line(self, capsys, monkeypatch):
        # the worker's draw of the qubit's first block of imaginary parts fails
        self.failing_draws(monkeypatch, 2)
        assert cli.main(["haar", "--samples", "20000", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: normals could not be drawn\n"
        assert captured.out == ""

    def test_reports_match_the_whole_array(self, capsys, monkeypatch):
        # haar's pair route against two whole-array moment checks, validate's
        # draws from one stream against the whole-array vectors
        def whole_array_pair(samples, seed):
            pair = ((2, samples // 2), (3, samples))
            return tuple(whole_array_moment_check(d, s, seed) for d, s in pair)

        def whole_array_heads(seed, draws):
            return [whole_array_haar_bloch_vectors(d, s, seed) for d, s in draws]

        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(analysis, "_haar_pair_moments", whole_array_pair)
                monkeypatch.setattr(analysis, "_haar_heads", whole_array_heads)
            assert cli.main(["haar", "--samples", "20000", "--seed", "42"]) == 0
            assert cli.main(["validate", "--seed", "42"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "samples", [100, 101, 8192, 8193, 16384, 16385, 16386, 2 * 8192 + 5, 20_000, 200_000]
    )
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_pair_moments_match_two_checks_bitwise(self, samples, seed):
        # the qubit's normals are the head of the qutrit's real parts, and its
        # rows, at the head of the qutrit's output, have the strides of a complex .real;
        # 16384 to 16386 give the qubit exactly one block, then one block plus one
        # sample, in imaginary parts drawn block by block
        m2, m3 = analysis._haar_pair_moments(samples, seed)
        assert m2.tobytes() == haar_moment_check(2, samples // 2, seed).tobytes()
        assert m3.tobytes() == haar_moment_check(3, samples, seed).tobytes()

    @pytest.mark.parametrize(
        "samples", [200, 201, 8192, 8193, 16384, 20_000, 24_576, 24_577, 30_000, 50_001]
    )
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_heads_of_one_stream_match_three_draws_bitwise(self, samples, seed):
        # validate's draws: the qubit's 4S normals are the qutrit's 3S real parts and
        # the head of its imaginary parts, the 200 pure states the first 1,200 normals
        pure, qubit, qutrit = analysis._haar_heads(seed, ((3, 200), (2, samples), (3, samples)))
        assert pure.tobytes() == haar_bloch_vectors(3, 200, seed).tobytes()
        for d, n in ((2, qubit), (3, qutrit)):
            assert (n.T @ n / samples).tobytes() == haar_moment_check(d, samples, seed).tobytes()

    def test_heads_draw_once_on_the_calling_thread(self, monkeypatch):
        rngs = self.failing_draws(monkeypatch, None)
        threads = threading.active_count()
        analysis._haar_heads(3, ((3, 200), (2, 20_000), (3, 20_000)))
        assert rngs[0].threads == [threading.current_thread()] and len(rngs) == 1
        assert threading.active_count() == threads

    def test_pair_reads_the_stream_in_order(self, monkeypatch):
        # 20,000 qutrit samples are three blocks, and every draw is the worker's:
        # the qubit's 10,000 real-part pairs, its imaginary parts in two blocks,
        # the other 40,000 real parts, then the qutrit's three imaginary blocks
        ref = [haar_moment_check(2, 10_000, 4), haar_moment_check(3, 20_000, 4)]
        rngs = self.failing_draws(monkeypatch, None)
        threads = threading.active_count()
        pair = analysis._haar_pair_moments(20_000, 4)
        assert [m.tobytes() for m in pair] == [m.tobytes() for m in ref]
        assert threading.active_count() == threads
        main, worker = threading.current_thread(), rngs[0].threads[1]
        assert rngs[0].threads == [worker] * 7 and worker is not main

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4, 5, 6, 7])
    def test_a_failed_pair_draw_raises_here(self, monkeypatch, fail_at):
        # every call runs on the worker: the qubit's real parts (1), a qubit
        # imaginary block (2, 3), the qutrit's remaining real parts (4) and a
        # qutrit imaginary block (5-7); the error reaches this thread
        self.failing_draws(monkeypatch, fail_at)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="normals could not be drawn"):
            analysis._haar_pair_moments(20_000, 4)
        assert threading.active_count() == threads

    @staticmethod
    def traced_peak(run):
        # the bases are cached, and concurrent.futures and numpy's Generator import
        # once per process: their one-off costs are not the pipeline's
        import concurrent.futures  # noqa: F401

        generator_basis(2), generator_basis(3)
        np.random.default_rng(0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_memory_of_the_default_sample_count(self):
        # the real parts are drawn into the output's tail and the samples run in
        # blocks, each block's imaginary parts drawn as it is reached: one block
        # peaks at 56,004,684 bytes and _HAAR_BLOCK = 8192 at 14,705,844 (numpy
        # 2.4.6; 14,706,948 on a process's first call, the imports made before
        # tracing); the bound is 9% above it, which a 16384 block (16,606,388) fails
        assert self.traced_peak(lambda: haar_moment_check(3, 200_000, 42)) < 16_000_000

    def test_peak_memory_of_the_pair(self):
        # the qubit lives in the qutrit's output, so the pair peaks near the qutrit
        # alone, plus its imaginary blocks drawn ahead: 15,070,412 bytes (numpy
        # 2.4.6; 15,104,724 on a process's first call, the imports made before
        # tracing); a qubit buffer of its own adds 4.8 MB
        assert self.traced_peak(lambda: analysis._haar_pair_moments(200_000, 42)) < 16_000_000

    def test_no_dense_einsum(self, monkeypatch):
        ref = [dense_haar_bloch_vectors(d, 50, 3) for d in (2, 3)]

        def forbidden(*args, **kwargs):
            raise AssertionError("haar_bloch_vectors must not call np.einsum")

        monkeypatch.setattr(np, "einsum", forbidden)
        for d, expected in zip((2, 3), ref):
            assert np.max(np.abs(haar_bloch_vectors(d, 50, 3) - expected)) <= 1e-15


class TestReport:
    def test_default_point(self):
        rows = separability_report(1.0, ChannelParams(), t_max=5.0, steps=50)
        assert rows.shape == (51, 7)
        np.testing.assert_allclose(rows[0], [0, 1, 1, 1, 1, 0.5, 1.0], atol=1e-12)
        t_qb, t_qt, longer = threshold_crossings(1.0, ChannelParams())
        assert abs(t_qb - T_QUBIT_P1) < 1e-8
        assert abs(t_qt - T_QUTRIT_P1) < 1e-8
        assert longer
        # s columns nonincreasing, negativity columns nonnegative
        assert np.all(np.diff(rows[:, 1]) <= 1e-15)
        assert np.all(np.diff(rows[:, 2]) <= 1e-15)
        assert np.all(rows[:, 5] >= 0) and np.all(rows[:, 6] >= 0)

    def test_fast_rates_flip_the_verdict(self):
        t_qb, t_qt, longer = threshold_crossings(1.0, ChannelParams(a2=10.0, a3=10.0))
        assert not longer
        assert t_qt < t_qb
        # on the grid the qutrit indicator is the first to fall below its threshold
        rows = separability_report(1.0, ChannelParams(a2=10.0, a3=10.0), t_max=3.0, steps=10)
        assert rows[1, 2] < 0.25 < 1.0 / 3.0 < rows[1, 1]

    def test_below_both_thresholds(self):
        assert threshold_crossings(0.2, ChannelParams()) == (None, None, False)
        # a Werner pair below 1/(d+1) is separable, and local noise keeps it so
        rows = separability_report(0.2, ChannelParams(), t_max=1.0, steps=5)
        assert np.all(rows[:, 5:] == 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            separability_report(1.2, ChannelParams(), t_max=5.0, steps=500)
        with pytest.raises(ValueError):
            separability_report(0.5, ChannelParams(), t_max=5.0, steps=1)
        with pytest.raises(ValueError):
            separability_report(0.5, ChannelParams(), t_max=0.0, steps=500)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf])
    def test_non_finite_t_max_is_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            separability_report(0.5, ChannelParams(), t_max=t_max, steps=4)

    def test_indicator_crossings(self):
        t_qb, t_qt, longer = threshold_crossings(1.0, ChannelParams())
        assert abs(t_qb - T_QUBIT_P1) < 1e-8 and abs(t_qt - T_QUTRIT_P1) < 1e-8
        assert longer
        assert threshold_crossings(0.2, ChannelParams()) == (None, None, False)

    @pytest.mark.parametrize("cross_qb, cross_qt, expected", [
        (1.0, 2.0, True), (2.0, 1.0, False), (1.5, 1.5, True),
        (None, 0.5, True), (0.5, None, False), (None, None, False),
        (1.0, math.inf, True), (math.inf, 1.0, False), (math.inf, math.inf, True),
    ])
    def test_one_rule_orders_the_crossings(self, cross_qb, cross_qt, expected):
        # None: the indicator certifies nothing from t = 0, the earliest crossing
        assert analysis.qutrit_crosses_no_earlier(cross_qb, cross_qt) is expected

    def test_never_crossing_report(self):
        par = ChannelParams(a2=1e-300)
        rows = separability_report(1.0, par, t_max=2.0, steps=4)
        _, t_qt, longer = threshold_crossings(1.0, par)
        assert t_qt == math.inf and longer
        assert rows[-1, 2] > 0.25

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_matches_per_point_reference(self, q):
        # two full chunks and a short one of three points
        steps = 2 * analysis.GRID_CHUNK + 2
        p, par = 0.85, ChannelParams(a1=1.3, a2=0.6, a3=2.2, q=q)
        rows = separability_report(p, par, t_max=4.0, steps=steps)
        assert rows.shape == (steps + 1, 7)
        for row in rows:
            at = par.with_time(row[0] / par.a1)
            expected = [row[0]]
            expected += [indicator_closed(p, at.rates(d), at.t) for d in (2, 3)]
            expected += [fidelity_closed(at.rates(d), at.t) for d in (2, 3)]
            for d in (2, 3):
                ident = np.eye(d)
                rho = np.zeros((d * d, d * d), dtype=complex)
                for k in se_kraus(at.rates(d), at.t):
                    lift_a, lift_b = np.kron(k, ident), np.kron(ident, k)
                    rho += q * lift_a @ werner(d, p) @ dagger(lift_a)
                    rho += (1 - q) * lift_b @ werner(d, p) @ dagger(lift_b)
                eigs = hermitian_eigenvalues(partial_transpose(rho))
                # a state without negative eigenvalues has negativity +0.0
                expected.append((-eigs[eigs < 0]).sum())
            assert np.max(np.abs(row - expected)) <= 1e-14
            assert [format(x, ".9g") for x in row] == [format(x, ".9g") for x in expected]

    @pytest.mark.parametrize("q", [0.0, 1.0, 0.37])
    def test_rows_have_the_bytes_of_the_complex_route(self, q):
        # the report runs the negativities in float64; the same chunks through
        # the complex werner, se_kraus, superoperator, lift and negativity agree
        rng = np.random.default_rng(int(q * 100) + 7)
        steps, chunk = 2 * analysis.GRID_CHUNK + 2, analysis.GRID_CHUNK
        a1, a2, a3 = np.exp(rng.uniform(-1.6, 1.6, 3))
        par, p = ChannelParams(a1=a1, a2=a2, a3=a3, q=q), rng.uniform(1 / 3, 1.0)
        rows = separability_report(p, par, t_max=6.0, steps=steps)
        times = np.linspace(0.0, 6.0, steps + 1) / a1
        for i, d in enumerate((2, 3)):
            w, kraus = werner(d, p), [se_kraus(par.rates(d), times[lo : lo + chunk])
                                      for lo in range(0, steps + 1, chunk)]
            assert w.dtype == kraus[0].dtype == complex
            want = np.concatenate([negativity(lift(w, superoperator(k), q)) for k in kraus])
            assert rows[:, 5 + i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("steps", [2, 511, 512, 513, 600, 2591, 2592, 2600])
    def test_rows_are_the_public_route_chunk_by_chunk(self, steps):
        # the report builds each chunk in its one workspace; the public builders
        # allocate theirs: a short chunk after a full one, and the qubit's second
        # chunk, must read nothing left over from the chunk before
        rng = np.random.default_rng(steps)
        a1, a2, a3 = np.exp(rng.uniform(-1.6, 1.6, 3))
        p = rng.uniform(1 / 3, 1.0)
        times = np.linspace(0.0, 5.0, steps + 1) / a1
        for q in (0.0, 0.37, 1.0):
            par = ChannelParams(a1=a1, a2=a2, a3=a3, q=q)
            rows = separability_report(p, par, t_max=5.0, steps=steps)
            for i, d in enumerate((2, 3)):
                w, points = werner(d, p).real, analysis.GRID_CHUNK * 81 // d**4
                kraus = [se_kraus(par.rates(d), times[lo : lo + points]).real
                         for lo in range(0, steps + 1, points)]
                want = [negativity(lift(w, superoperator(k), q)) for k in kraus]
                assert rows[:, 5 + i].tobytes() == np.concatenate(want).tobytes()

    def test_one_workspace_serves_every_chunk(self, monkeypatch):
        # every chunk of both species writes its superoperators into one array
        good, seen = channels._superoperator, []

        def recorded(ops, out):
            seen.append(out)
            return good(ops, out)

        monkeypatch.setattr(channels, "_superoperator", recorded)
        steps = 2600  # six qutrit chunks, then the qubit's 2592 points and 9
        separability_report(0.9, ChannelParams(q=0.4), t_max=5.0, steps=steps)
        assert [out.shape for out in seen] == [(2592, 16), (9, 16)] + [(512, 81)] * 5 + [(41, 81)]
        assert all(out.base is seen[0].base is not None for out in seen)
        assert seen[0].base.nbytes == 3 * analysis.GRID_CHUNK * 81 * 8

    def test_no_lapack_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("negativity must not use a LAPACK eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        rows = separability_report(0.9, ChannelParams(q=0.2), t_max=5.0, steps=70)
        assert rows.shape == (71, 7) and rows[0, 6] > 0.5

    def test_reads_kraus_coefficients_at_call_time(self, monkeypatch):
        # each species' chunk holds GRID_CHUNK * 3^4 superoperator entries: the
        # qubit's GRID_CHUNK * 81/16 points take the whole grid in one call
        good = channels._kraus_operators
        seen = {1: [], 2: []}

        def recorded(rates, t):
            seen[len(rates)].append(np.shape(t))
            return good(rates, t)

        monkeypatch.setattr(channels, "_kraus_operators", recorded)
        separability_report(1.0, ChannelParams(), t_max=5.0, steps=analysis.GRID_CHUNK + 6)
        assert seen[1] == [(analysis.GRID_CHUNK + 7,)]
        assert seen[2] == [(analysis.GRID_CHUNK,), (7,)]

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_rows_do_not_depend_on_the_chunk_size(self, q, monkeypatch):
        # two full chunks of the default size and a short one of three points
        default = analysis.GRID_CHUNK
        p, par = 0.9, ChannelParams(a1=0.7, a2=1.9, a3=0.45, q=q)
        rows = {}
        for chunk in (1, 7, default):
            monkeypatch.setattr(analysis, "GRID_CHUNK", chunk)
            rows[chunk] = separability_report(p, par, t_max=6.0, steps=2 * default + 2)
        np.testing.assert_array_equal(rows[1], rows[default])
        np.testing.assert_array_equal(rows[7], rows[default])

    def test_peak_memory_of_a_long_grid(self):
        # the chunked grid keeps its workspace bounded: a first call in a fresh
        # process measured 1,898,701 bytes at GRID_CHUNK = 512 in float64, the
        # qubit's 2001 points in one chunk of as many entries, every chunk in
        # one three-row workspace (numpy 2.4.6); the bound, 25% above the
        # 2,005,505 bytes first measured at GRID_CHUNK = 256 in complex128, stays
        par = ChannelParams(a1=1.3, a2=0.4, a3=2.7, q=0.37)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            separability_report(0.83, par, t_max=5.0, steps=2000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2_507_000
