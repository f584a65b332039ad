"""Acceptance gate: every shipped guarantee, measured at its stated tolerance.

Each test evaluates one guarantee end to end, prints a single
``[PASS]``/``[FAIL]`` line with the measured defect and the tolerance it
must meet, and then asserts.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the measurement lines on success).
"""

import math

import numpy as np

from qutrit_se import (
    ChannelParams,
    apply_kraus,
    bloch_to_density,
    crossing_time,
    density_to_bloch,
    fidelity_closed,
    fidelity_from_state,
    haar_bloch_vectors,
    haar_moment_check,
    indicator_closed,
    lift,
    lindblad_evolve,
    lindblad_jump_ops,
    max_entangled,
    ppt_threshold,
    preservation_inequality,
    qubit_crossing_closed,
    random_density_matrix,
    s_from_state,
    se_affine_map,
    se_kraus,
    se_kraus_qutrit,
    star_product,
    superoperator,
    werner,
)
from qutrit_se.channels import completeness_defect

T_QUBIT_P1 = 1.7627471740390861  # -2 ln(sqrt(2) - 1)
T_QUTRIT_P1 = 2.0101050789535874  # -2 ln((sqrt(3) - 1)/2)


def report(num: int, name: str, measured: float, tol: float) -> None:
    verdict = "PASS" if measured <= tol else "FAIL"
    print(f"[{verdict}] criterion {num:02d} {name}: measured {measured:.3e} (tol {tol:.0e})")
    assert measured <= tol, f"criterion {num:02d} {name}: {measured:.3e} > {tol:.0e}"


def test_criterion_01_kraus_completeness():
    worst = 0.0
    for t in (0.0, 0.1, 1.0, 10.0):
        for a2, a3 in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
            ch = se_kraus_qutrit(ChannelParams(a2=a2, a3=a3, t=t))
            worst = max(worst, completeness_defect(ch))
        for a1 in (1.0, 2.0, 0.5, 3.0):
            worst = max(worst, completeness_defect(se_kraus((a1,), t)))
    report(1, "kraus completeness", worst, 1e-12)


def test_criterion_02_three_route_agreement():
    rng = np.random.default_rng(202)
    params0 = ChannelParams(a2=1.0, a3=0.7)
    worst_affine = 0.0
    worst_ode = 0.0
    for _ in range(50):
        rho0 = random_density_matrix(3, rng)
        t = float(rng.uniform(0.0, 5.0))
        params = params0.with_time(t)
        out_kraus = apply_kraus(rho0, se_kraus_qutrit(params))
        amap = se_affine_map(params)
        out_affine = bloch_to_density(amap.apply(density_to_bloch(rho0)))
        worst_affine = max(worst_affine, float(np.max(np.abs(out_kraus - out_affine))))
        steps = max(2, math.ceil(t / 1e-3))
        out_ode = lindblad_evolve(rho0, params, steps=steps)
        worst_ode = max(worst_ode, float(np.max(np.abs(out_kraus - out_ode))))
    report(2, "kraus vs affine route", worst_affine, 1e-10)
    report(2, "kraus vs rk4 route", worst_ode, 1e-6)


def test_criterion_03_ppt_thresholds():
    defect = max(abs(ppt_threshold(2) - 1.0 / 3.0), abs(ppt_threshold(3) - 0.25))
    report(3, "ppt thresholds 1/3 and 1/4", defect, 1e-4)


def test_criterion_04_closed_vs_state_separability():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.0, 1.0))
        params = ChannelParams(
            a1=float(rng.uniform(0.2, 3.0)),
            a2=float(rng.uniform(0.2, 3.0)),
            a3=float(rng.uniform(0.2, 3.0)),
            t=float(rng.uniform(0.0, 4.0)),
            q=float(rng.uniform(0.0, 1.0)),
        )
        for d in (3, 2):
            rates = params.rates(d)
            rho = lift(werner(d, p), superoperator(se_kraus(rates, params.t)), params.q)
            worst = max(worst, abs(s_from_state(rho) - indicator_closed(p, rates, params.t)))
    report(4, "closed vs state-route s(t)", worst, 1e-10)


def test_criterion_05_crossing_times():
    # a1 = a2 = a3 = 1
    t_qubit = crossing_time(lambda t: indicator_closed(1.0, (1.0,), t), 1.0 / 3.0)
    t_qutrit = crossing_time(lambda t: indicator_closed(1.0, (1.0, 1.0), t), 0.25)
    report(5, "qubit crossing -2ln(sqrt(2)-1)", abs(t_qubit - T_QUBIT_P1), 1e-5)
    report(5, "qutrit crossing -2ln((sqrt(3)-1)/2)", abs(t_qutrit - T_QUTRIT_P1), 1e-4)
    assert t_qutrit > t_qubit  # equal rates: the qutrit pair stays entangled longer


def test_criterion_06_preservation_inequality_grid():
    grid = np.linspace(0.2, 5.0, 10)
    t_qubit = qubit_crossing_closed(1.0)
    agree = 0
    for a21 in grid:
        for a31 in grid:
            direct = indicator_closed(1.0, (a21, a31), t_qubit) >= 0.25
            if preservation_inequality(1.0, (a21, a31)) == direct:
                agree += 1
    print(f"[{'PASS' if agree == 100 else 'FAIL'}] criterion 06 "
          f"preservation inequality grid: agreement {agree}/100 (need 100)")
    assert agree == 100


def test_criterion_07_fidelity_limits():
    f2 = fidelity_closed((1.0,), 50.0)
    f3 = fidelity_closed((1.0, 1.0), 50.0)
    defect_limits = max(abs(f2 - 0.25), abs(f3 - 1.0 / 9.0), abs((f2 - f3) - 5.0 / 36.0))
    report(7, "fidelity limits 1/4, 1/9, gap 5/36", defect_limits, 1e-10)

    worst_state = 0.0
    worst_q = 0.0
    for t in (0.3, 1.0, 2.5):
        params = ChannelParams(a2=1.3, a3=0.8, t=t)
        for d in (2, 3):
            sup = superoperator(se_kraus(params.rates(d), t))
            rho = lift(max_entangled(d), sup, q=0.5)
            worst_state = max(
                worst_state,
                abs(fidelity_from_state(rho) - fidelity_closed(params.rates(d), t)),
            )
            for q in (0.0, 0.7, 1.0):
                rho_q = lift(max_entangled(d), sup, q=q)
                worst_q = max(worst_q, abs(fidelity_from_state(rho_q) - fidelity_from_state(rho)))
    report(7, "kraus-route fidelity vs closed", worst_state, 1e-10)
    report(7, "fidelity q-independence", worst_q, 1e-12)


def test_criterion_08_haar_moments():
    m3 = haar_moment_check(3, samples=200_000, seed=42)
    m2 = haar_moment_check(2, samples=100_000, seed=42)
    dev3 = float(np.max(np.abs(m3 - np.eye(8) / 8.0)))
    dev2 = float(np.max(np.abs(m2 - np.eye(3) / 3.0)))
    report(8, "qutrit moment M = I/8", dev3, 0.005)
    report(8, "qubit moment M = I/3", dev2, 0.01)
    # classical-to-quantum correlation ratios: (1/8)/(1/2) and (1/3)/1
    ratio3 = float(np.mean(np.diag(m3))) / 0.5
    ratio2 = float(np.mean(np.diag(m2))) / 1.0
    report(8, "qutrit ratio 1/4", abs(ratio3 - 0.25), 0.005)
    report(8, "qubit ratio 1/3", abs(ratio2 - 1.0 / 3.0), 0.01)


def test_criterion_09_pure_state_bloch_conditions():
    vectors = haar_bloch_vectors(3, samples=1000, seed=99)
    norm_defect = float(np.max(np.abs(np.sum(vectors**2, axis=1) - 1.0)))
    star_defect = max(
        float(np.max(np.abs(star_product(n, n) - n))) for n in vectors
    )
    report(9, "pure-state norm condition", norm_defect, 1e-10)
    report(9, "pure-state star idempotence", star_defect, 1e-10)
    # the maximally mixed state (n = 0) must fail the pure-state test:
    # its norm condition is off by exactly 1
    zero = np.zeros(8)
    mixed_norm_defect = abs(float(np.sum(zero**2)) - 1.0)
    print(f"[{'PASS' if mixed_norm_defect > 1e-10 else 'FAIL'}] criterion 09 "
          f"maximally mixed rejected: norm defect {mixed_norm_defect:.1f} (must exceed 1e-10)")
    assert mixed_norm_defect > 1e-10
    assert not (
        abs(np.sum(zero**2) - 1.0) <= 1e-10
        and np.max(np.abs(star_product(zero, zero) - zero)) <= 1e-10
    )


def test_criterion_10_diffusive_limit_order():
    a2, a3 = 1.0, 0.7
    l1 = lindblad_jump_ops((a2, a3))[0]
    dts = np.array([1e-2 / 2**k for k in range(7)])  # 1e-2 down to ~1.6e-4
    errs = []
    for dt in dts:
        k1 = se_kraus_qutrit(ChannelParams(a2=a2, a3=a3, t=float(dt)))[1]
        errs.append(float(np.max(np.abs(k1 - np.sqrt(dt) * l1))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    worst_order = float(np.min(orders))
    verdict = "PASS" if worst_order >= 1.4 else "FAIL"
    print(f"[{verdict}] criterion 10 diffusive convergence order: "
          f"measured {worst_order:.3f} (need >= 1.4)")
    assert worst_order >= 1.4
