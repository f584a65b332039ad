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
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_se import analysis, channels, cli
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
    kron,
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
            rho = lift(werner(d, p), superoperator(se_kraus(par.rates(d), par.t)), 0.5)
            assert abs(s_from_state(rho, d) - indicator_closed(p, par.rates(d), par.t)) <= 1e-10

    def test_q_does_not_enter(self):
        p, par = 0.9, ChannelParams(a2=1.3, a3=0.5, t=0.8)
        vals = [
            s_from_state(
                lift(werner(3, p), superoperator(se_kraus_qutrit(par)), q), 3
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
            rho = lift(werner(d, 1.0), superoperator(se_kraus(par.rates(d), par.t)), 0.5)
            assert abs(fidelity_from_state(rho, d) - fidelity_closed(par.rates(d), par.t)) <= 1e-10

    def test_q_independence(self):
        par = ChannelParams(a2=1.0, a3=0.4, t=0.9)
        w = werner(3, 0.65)
        ch = se_kraus_qutrit(par)
        f03 = fidelity_from_state(lift(w, superoperator(ch), 0.3), 3)
        f07 = fidelity_from_state(lift(w, superoperator(ch), 0.7), 3)
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
        # both qubit closed forms need a pair that starts entangled
        for p in (0.2, 1.0 / 3.0, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"1/3 < p <= 1"):
                qubit_crossing_closed(p)
            with pytest.raises(ValueError, match=r"1/3 < p <= 1"):
                preservation_inequality(p, 1.0, 1.0)

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

    def test_time_unit_too_small_is_rejected(self):
        # t = (a1*t)/a1 overflows within the search range: no silent answer
        for a1 in (5e-324, 1e-300, 6.4e-291):
            par = ChannelParams(a1=a1)
            for d in (2, 3):
                with pytest.raises(ValueError, match="a1 must be above"):
                    indicator_crossing(0.9, par.rates(d), a1)
            with pytest.raises(ValueError, match="a1 must be above"):
                separability_report(0.9, par, t_max=5.0, steps=4)
        # just above the bound the crossing in a1*t units is still the closed form
        tau = indicator_crossing(0.9, (6.5e-291,), 6.5e-291)
        assert abs(tau - qubit_crossing_closed(0.9)) <= 1e-7

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
    """s_d at a1*t = tau in the operations of the scalar route: t = tau/a1, h = exp(-a t/2).

    Floats give one search's f; arrays (p and a1 of shape (L,), rates of
    shape (d - 1, L)) give a lane f with lane i at its own tau[i].
    """

    def s(tau):
        with np.errstate(over="ignore"):  # a*t = inf is meant: h = exp(-inf) = 0
            return analysis._indicator(p, [np.exp(-a * (tau / a1) / 2.0) for a in rates])

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
        for a1 in (0.0, 5e-324, math.nan):
            with pytest.raises(ValueError, match="a1 must be above"):
                indicator_crossing(1.0, (ok, np.array([1.0, -1.0, 1.0])), a1)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="arm rates must be"):
                indicator_crossing(1.0, (ok, np.array([1.0, bad, 1.0])))
            with pytest.raises(ValueError, match="arm rates must be"):
                indicator_crossing(1.0, (1.0, bad))
        with pytest.raises(ValueError, match=r"arm rates must be .*, got \(\)"):
            indicator_crossing(1.0, ())


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
                worst = max(worst, abs(s_from_state(rho, 4) - s))
                if p == 1.0:  # F_d is the overlap of the evolved |Psi><Psi|
                    f = fidelity_closed(self.RATES, t)
                    worst = max(worst, abs(fidelity_from_state(rho, 4) - f))
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
        assert abs(negativity(max_entangled(2), 2) - 0.5) < 1e-12
        assert abs(negativity(max_entangled(3), 3) - 1.0) < 1e-12

    def test_product_state_zero(self):
        rng = np.random.default_rng(29)
        rho = kron(random_density_matrix(3, rng), random_density_matrix(3, rng))
        assert negativity(rho, 3) < 1e-10

    def test_werner_threshold_behavior(self):
        for d in (2, 3):
            thr = 1.0 / (d + 1)
            for p in (0.0, thr / 2, thr):
                assert negativity(werner(d, p), d) <= 1e-10
            for p in (thr + 0.01, 0.6, 1.0):
                assert negativity(werner(d, p), d) > 1e-4

    def test_stack_matches_per_state(self):
        rng = np.random.default_rng(30)
        rhos = np.stack([werner(3, 0.9), max_entangled(3), random_density_matrix(9, rng)])
        negs = negativity(rhos, 3)
        assert negs.shape == (3,)
        for k in range(3):
            single = negativity(rhos[k], 3)
            assert type(single) is float
            assert abs(negs[k] - single) <= 1e-15

    def test_ppt_threshold_bisection(self):
        assert abs(ppt_threshold(2) - 1.0 / 3.0) <= 1e-4
        assert abs(ppt_threshold(3) - 0.25) <= 1e-4

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ppt_threshold_is_the_one_point_bisection(self, d):
        # reference: one negativity call per midpoint, 20 halvings of [0, 1]
        def entangled(p):
            return negativity(werner(d, p), d) > 1e-9

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
            neg = negativity(werner(d, p), d)
            assert neg == 0.0 and math.copysign(1.0, neg) == 1.0
        negs = negativity(np.stack([werner(2, 0.2), werner(2, 0.3)]), 2)
        assert np.all(negs == 0.0) and not np.any(np.signbit(negs))

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
        assert abs(negativity(rho, d) - want) <= 1e-14
        eigs = hermitian_eigenvalues(partial_transpose(rho, d, d))
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

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 5)])
    @pytest.mark.parametrize("seed", [0, 9, 2024])
    def test_blocks_match_the_whole_array_bitwise(self, d, blocks, extra, seed):
        # sample counts at the block edges: 1, B - 1, B, B + 1 and 2B + 5; the
        # real parts are drawn into the output's tail, which the blocks overwrite,
        # and at d = 8 numpy's add.reduce in the norm sums pairwise
        samples = blocks * analysis._HAAR_BLOCK + extra
        ref = whole_array_haar_bloch_vectors(d, samples, seed)
        n = haar_bloch_vectors(d, samples, seed)
        assert n.shape == ref.shape and n.tobytes() == ref.tobytes()
        assert n.flags.c_contiguous == ref.flags.c_contiguous
        assert n.flags.f_contiguous == ref.flags.f_contiguous
        m = haar_moment_check(d, samples, seed)
        assert m.tobytes() == whole_array_moment_check(d, samples, seed).tobytes()

    def test_reports_match_the_whole_array(self, capsys, monkeypatch):
        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(analysis, "haar_bloch_vectors", whole_array_haar_bloch_vectors)
            assert cli.main(["haar", "--samples", "20000", "--seed", "42"]) == 0
            assert cli.main(["validate", "--seed", "42"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    def test_peak_memory_of_the_default_sample_count(self):
        # the real parts are drawn into the output's tail and the samples run in
        # blocks: one block peaks at 49,604,064 bytes and _HAAR_BLOCK = 8192 at
        # 14,638,728 (numpy 2.4.6; 24,042,008 with whole draws of both parts);
        # the bound is 9% above it, which a 16384 block (16,473,736) fails
        generator_basis(3)  # cached; its one-off build is not the pipeline's
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            haar_moment_check(3, 200_000, 42)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000

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
                    lift_a, lift_b = kron(k, ident), kron(ident, k)
                    rho += q * lift_a @ werner(d, p) @ dagger(lift_a)
                    rho += (1 - q) * lift_b @ werner(d, p) @ dagger(lift_b)
                eigs = hermitian_eigenvalues(partial_transpose(rho, d, d))
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
            want = np.concatenate([negativity(lift(w, superoperator(k), q), d) for k in kraus])
            assert rows[:, 5 + i].tobytes() == want.tobytes()

    def test_no_lapack_eigensolver(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("negativity must not use a LAPACK eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        rows = separability_report(0.9, ChannelParams(q=0.2), t_max=5.0, steps=70)
        assert rows.shape == (71, 7) and rows[0, 6] > 0.5

    def test_reads_kraus_coefficients_at_call_time(self, monkeypatch):
        good = channels._kraus_operators
        seen = []

        def recorded(rates, t):
            if len(rates) == 2:
                seen.append(np.shape(t))
            return good(rates, t)

        monkeypatch.setattr(channels, "_kraus_operators", recorded)
        separability_report(1.0, ChannelParams(), t_max=5.0, steps=analysis.GRID_CHUNK + 6)
        assert seen == [(analysis.GRID_CHUNK,), (7,)]

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
        # the chunked grid keeps the (T, 9, 9) temporaries bounded: a first
        # call measured 1,740,048 bytes at GRID_CHUNK = 512 in float64 (numpy
        # 2.4.6); the bound, 25% above the 2,005,505 bytes first measured at
        # GRID_CHUNK = 256 in complex128, stays
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
