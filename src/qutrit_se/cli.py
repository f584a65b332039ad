"""Command-line front end.

Commands
--------
curves      CSV indicator curves (s, fidelity, negativity) over a1*t
threshold   indicator crossings and the preservation verdict for one parameter set
compare     qubit-vs-qutrit verdict grid over the rate ratios (A2/A1, A3/A1)
haar        second-moment report for Haar-random pure states
validate    self-check suite with measured defects; exit 1 on any failure

All times are reported in the dimensionless combination a1*t. CSV numbers
carry at most 9 significant digits with '.' as the decimal separator and LF
line endings; reports are key=value lines. Exit codes: 0 success, 1 failed
validation, 2 bad usage or an input that cannot be answered (an unwritable
--output path, a report too large for memory, a crossing below the smallest
float); output is written only once the report is complete. Each input is
checked by the library function that the command calls; this module adds
only two rules of its own, --samples >= 100 and --seed >= 0.
"""

from __future__ import annotations

import argparse
import io
import sys

import numpy as np

from . import analysis, channels, states, su
from .channels import ChannelParams
from .linalg import random_density_matrix

__all__ = ["main"]

_GENERATOR_NAME = "PCG64"
_SPECIES = ((2, "qubit"), (3, "qutrit"))


def _fmt(x: float, digits: int = 9) -> str:
    return format(float(x), f".{digits}g")


def _checked_seed(seed: int) -> int:
    # numpy rejects a negative seed too, but without naming the option
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


def run_curves(args: argparse.Namespace, out) -> int:
    params = ChannelParams(a1=args.a1, a2=args.a2, a3=args.a3, q=args.q)
    rows = analysis.separability_report(args.p, params, t_max=args.t_max, steps=args.steps)
    out.write("t,s_qubit,s_qutrit,F_qubit,F_qutrit,neg_qubit,neg_qutrit\n")
    # "%.9g" formats a float exactly as _fmt does, -0 and inf included; one
    # % call per block of rows, not per row, and a block, not the whole
    # table, so the formatted text adds no more than a block to peak memory
    row = ",".join(["%.9g"] * rows.shape[1]) + "\n"
    for lo in range(0, len(rows), analysis.GRID_CHUNK):
        block = rows[lo : lo + analysis.GRID_CHUNK]
        out.write((row * len(block)) % tuple(block.ravel().tolist()))
    return 0


def run_threshold(args: argparse.Namespace, out) -> int:
    params = ChannelParams(a1=args.a1, a2=args.a2, a3=args.a3)
    t_qb = analysis.indicator_crossing(args.p, params.rates(2), params.a1)
    t_qt = analysis.indicator_crossing(args.p, params.rates(3), params.a1)
    # crossings that are not times print as words ("inf" would parse as one)
    words = {None: "separable_at_t0", np.inf: "beyond_2^60"}

    out.write(f"p={_fmt(args.p)}\n")
    a21, a31 = params.a2 / params.a1, params.a3 / params.a1
    out.write(f"a21={_fmt(a21)}\n")
    out.write(f"a31={_fmt(a31)}\n")
    out.write(f"t_cross_qubit={words.get(t_qb) or _fmt(t_qb)}\n")
    out.write(f"t_cross_qutrit={words.get(t_qt) or _fmt(t_qt)}\n")
    if args.p > 1.0 / 3.0:
        closed = analysis.qubit_crossing_closed(args.p)
        verdict = analysis.preservation_inequality(args.p, a21, a31)
        out.write(f"t_qubit_closed={_fmt(closed)}\n")
        out.write(f"preservation_inequality={str(verdict).lower()}\n")
    else:
        # both are defined only while the qubit pair starts entangled
        out.write("t_qubit_closed=separable_at_t0\n")
        out.write("preservation_inequality=undefined\n")
    longer = analysis.qutrit_crosses_no_earlier(t_qb, t_qt)
    out.write(f"qutrit_preserves_longer={str(longer).lower()}\n")
    return 0


def run_compare(args: argparse.Namespace, out) -> int:
    grid = np.linspace(0.2, 5.0, 10)
    a21s, a31s = np.repeat(grid, len(grid)), np.tile(grid, len(grid))  # rows a21, then a31
    # the weight, then the closed forms' domain 1/3 < p <= 1, before any search
    states._check_weight(args.p)
    verdicts = [analysis.preservation_inequality(args.p, *a) for a in zip(a21s, a31s)]
    t_qb = analysis.indicator_crossing(args.p, (1.0,))
    t_qts = analysis.indicator_crossing(args.p, (a21s, a31s))
    out.write("a21,a31,t_qubit,t_qutrit,inequality,agree\n")
    for a21, a31, verdict, t_qt in zip(a21s, a31s, verdicts, t_qts):
        agree = verdict == analysis.qutrit_crosses_no_earlier(t_qb, t_qt)
        out.write(
            f"{_fmt(a21)},{_fmt(a31)},{_fmt(t_qb)},{_fmt(t_qt)},"
            f"{str(verdict).lower()},{str(agree).lower()}\n"
        )
    return 0


def run_haar(args: argparse.Namespace, out) -> int:
    if args.samples < 100:
        raise ValueError("samples must be >= 100")
    seed = _checked_seed(args.seed)
    out.write(f"generator={_GENERATOR_NAME}\n")
    out.write(f"seed={seed}\n")
    for (d, name), samples in zip(_SPECIES, (args.samples // 2, args.samples)):
        target, quantum = 1.0 / (d * d - 1), 1.0 / (d - 1)
        m = analysis.haar_moment_check(d, samples, seed)
        diag_dev = np.max(np.abs(np.diag(m) - target))
        off_dev = np.max(np.abs(m - np.diag(np.diag(m))))
        ratio = np.mean(np.diag(m)) / quantum
        out.write(f"{name}_samples={samples}\n")
        out.write(f"{name}_mean_diag={_fmt(np.mean(np.diag(m)), 17)}\n")
        out.write(f"{name}_max_diag_dev={_fmt(diag_dev, 17)}\n")
        out.write(f"{name}_max_offdiag_dev={_fmt(off_dev, 17)}\n")
        out.write(f"{name}_classical_quantum_ratio={_fmt(ratio, 17)}\n")
    return 0


def _validate_checks(seed: int):
    """Yield (name, measured_defect, tolerance) for every self-check."""
    rng = np.random.default_rng(seed)
    rate_pairs = ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0))
    times = (0.0, 0.1, 1.0, 10.0)

    for d, name in _SPECIES:
        defect = 0.0
        for a2, a3 in rate_pairs:
            for t in times:
                kraus = channels.se_kraus((a2, a3)[: d - 1], t)
                defect = max(defect, channels.completeness_defect(kraus))
        yield f"kraus_completeness_{name}", defect, 1e-12

    par = ChannelParams(a2=1.0, a3=0.7)
    defect = 0.0
    for _ in range(5):
        rho = random_density_matrix(3, rng)
        n0 = su.density_to_bloch(rho)
        for t in (0.3, 1.0, 2.5):
            at = par.with_time(t)
            via_kraus = channels.apply_kraus(rho, channels.se_kraus_qutrit(at))
            via_affine = su.bloch_to_density(channels.se_affine_map(at).apply(n0))
            defect = max(defect, float(np.max(np.abs(via_kraus - via_affine))))
    yield "kraus_vs_affine", defect, 1e-10

    defect = 0.0
    for _ in range(2):
        rho = random_density_matrix(3, rng)
        at = par.with_time(0.7)
        via_kraus = channels.apply_kraus(rho, channels.se_kraus_qutrit(at))
        via_ode = channels.lindblad_evolve(rho, at, steps=700)
        defect = max(defect, float(np.max(np.abs(via_kraus - via_ode))))
    yield "kraus_vs_lindblad", defect, 1e-6

    defect = 0.0
    for d in (2, 3):
        for _ in range(20):
            rho = random_density_matrix(d, rng)
            back = su.bloch_to_density(su.density_to_bloch(rho))
            defect = max(defect, float(np.max(np.abs(back - rho))))
    yield "bloch_round_trip", defect, 1e-12

    defects = [0.0]  # of the pure-state conditions |n| = 1 and n * n = n
    for n in analysis.haar_bloch_vectors(3, 200, seed):
        defects.append(abs(n @ n - 1.0))
        defects.append(float(np.max(np.abs(su.star_product(n, n) - n))))
    # np.max, not max: a NaN defect fails the check
    yield "pure_state_conditions", float(np.max(defects)), 1e-10

    for d, name in _SPECIES:
        yield f"ppt_threshold_{name}", abs(analysis.ppt_threshold(d) - 1.0 / (d + 1)), 1e-4
    for d, name in _SPECIES:
        m = analysis.haar_moment_check(d, 20_000, seed)
        defect = float(np.max(np.abs(m - np.eye(d * d - 1) / (d * d - 1))))
        yield f"haar_moments_{name}", defect, 0.02

    par = ChannelParams(a2=1.3, a3=0.4)
    m_a = channels.se_affine_map(par.with_time(0.6))
    m_b = channels.se_affine_map(par.with_time(1.1))
    m_ab = channels.se_affine_map(par.with_time(1.7))
    defect = max(
        float(np.max(np.abs(m_b.damping @ m_a.damping - m_ab.damping))),
        float(np.max(np.abs(m_b.damping @ m_a.shift + m_b.shift - m_ab.shift))),
    )
    yield "affine_semigroup", defect, 1e-12

    at = ChannelParams(t=1.0)
    sup = channels.superoperator(channels.se_kraus_qutrit(at))
    rho3 = channels.lift(states.werner(3, 1.0), sup, 0.5)
    closed = analysis.fidelity_closed(at.rates(3), at.t)
    defect = abs(analysis.fidelity_from_state(rho3, 3) - closed)
    yield "fidelity_closed_vs_state", defect, 1e-10

    t_closed = analysis.qubit_crossing_closed(1.0)
    t_bisect = analysis.indicator_crossing(1.0, (1.0,))
    yield "qubit_crossing_closed_vs_bisection", abs(t_closed - t_bisect), 1e-11


def run_validate(args: argparse.Namespace, out) -> int:
    failed = 0
    total = 0
    for name, defect, tol in _validate_checks(_checked_seed(args.seed)):
        ok = defect <= tol
        failed += 0 if ok else 1
        total += 1
        out.write(
            f"check={name} defect={format(defect, '.3e')} "
            f"tol={format(tol, '.0e')} pass={str(ok).lower()}\n"
        )
    out.write(f"result={'pass' if failed == 0 else 'fail'} checks={total} failed={failed}\n")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-se",
        description="Spontaneous-emission channel curves, thresholds and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rates(sp):
        sp.add_argument("--a1", type=float, default=1.0, help="qubit decay rate")
        sp.add_argument("--a2", type=float, default=1.0, help="first qutrit decay rate")
        sp.add_argument("--a3", type=float, default=1.0, help="second qutrit decay rate")

    def add_output(sp):
        sp.add_argument("--output", default=None, help="write to file instead of stdout")

    sp = sub.add_parser("curves", help="indicator-curve CSV over a1*t")
    add_rates(sp)
    sp.add_argument("--p", type=float, default=1.0, help="Werner weight")
    sp.add_argument("--q", type=float, default=0.5, help="two-sided mixing weight")
    sp.add_argument("--t-max", type=float, default=5.0, help="max a1*t")
    sp.add_argument("--steps", type=int, default=500, help="grid intervals")
    add_output(sp)

    sp = sub.add_parser("threshold", help="crossing times and preservation verdict")
    add_rates(sp)
    sp.add_argument("--p", type=float, default=1.0, help="Werner weight")
    add_output(sp)

    sp = sub.add_parser("compare", help="verdict grid over (a2/a1, a3/a1)")
    sp.add_argument("--p", type=float, default=1.0, help="Werner weight")
    add_output(sp)

    sp = sub.add_parser("haar", help="Haar second-moment report")
    sp.add_argument("--samples", type=int, default=200_000, help="qutrit sample count")
    sp.add_argument("--seed", type=int, default=42, help="RNG seed")
    add_output(sp)

    sp = sub.add_parser("validate", help="run the self-check suite")
    sp.add_argument("--seed", type=int, default=42, help="RNG seed")
    add_output(sp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "curves": run_curves,
        "threshold": run_threshold,
        "compare": run_compare,
        "haar": run_haar,
        "validate": run_validate,
    }[args.command]
    report = io.StringIO()
    try:
        code = handler(args, report)
        if args.output is None:
            sys.stdout.write(report.getvalue())
        else:
            with open(args.output, "w", newline="") as fh:
                fh.write(report.getvalue())
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
