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
float); output is written only once the report is complete.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, channels, states, su
from .channels import ChannelParams
from .linalg import random_density_matrix

__all__ = ["RunConfig", "main"]

_GENERATOR_NAME = "PCG64"
_SPECIES = ((2, "qubit"), (3, "qutrit"))


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of every CLI knob (defaults match the figures)."""

    command: str
    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.0
    p: float = 1.0
    q: float = 0.5
    t_max: float = 5.0
    steps: int = 500
    samples: int = 200_000
    seed: int = 42
    output: Optional[str] = None

    def __post_init__(self) -> None:
        params = self.params  # validates the rates (finite, >= 0) and q
        if not min(params.a1, params.a2, params.a3) > 0:
            raise ValueError("decay rates a1, a2, a3 must be positive")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.command == "compare" and self.p <= 1.0 / 3.0:
            raise ValueError("compare requires p > 1/3 (qubit entangled at t=0)")
        if not 0 < self.t_max < np.inf:
            raise ValueError("t-max must be positive and finite")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if self.samples < 100:
            raise ValueError("samples must be >= 100")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def params(self) -> ChannelParams:
        return ChannelParams(a1=self.a1, a2=self.a2, a3=self.a3, q=self.q)


def _fmt(x: float, digits: int = 9) -> str:
    return format(float(x), f".{digits}g")


def run_curves(cfg: RunConfig, out) -> int:
    report = analysis.separability_report(
        cfg.p, cfg.params, t_max=cfg.t_max, steps=cfg.steps
    )
    out.write("t,s_qubit,s_qutrit,F_qubit,F_qutrit,neg_qubit,neg_qutrit\n")
    # "%.9g" formats a float exactly as _fmt does, -0 and inf included
    row = ",".join(["%.9g"] * report.rows.shape[1]) + "\n"
    out.write("".join(row % tuple(values) for values in report.rows.tolist()))
    return 0


def run_threshold(cfg: RunConfig, out) -> int:
    params = cfg.params
    t_qb, t_qt, longer = analysis.indicator_crossings(cfg.p, params)
    # crossings that are not times print as words ("inf" would parse as one)
    words = {None: "separable_at_t0", np.inf: "beyond_2^60"}

    out.write(f"p={_fmt(cfg.p)}\n")
    out.write(f"a21={_fmt(params.a21)}\n")
    out.write(f"a31={_fmt(params.a31)}\n")
    out.write(f"t_cross_qubit={words.get(t_qb) or _fmt(t_qb)}\n")
    out.write(f"t_cross_qutrit={words.get(t_qt) or _fmt(t_qt)}\n")
    if cfg.p > 1.0 / 3.0:
        closed = analysis.qubit_crossing_closed(cfg.p, cfg.a1) * cfg.a1
        verdict = analysis.preservation_inequality(cfg.p, params.a21, params.a31)
        out.write(f"t_qubit_closed={_fmt(closed)}\n")
        out.write(f"preservation_inequality={str(verdict).lower()}\n")
    else:
        # both are defined only while the qubit pair starts entangled
        out.write("t_qubit_closed=separable_at_t0\n")
        out.write("preservation_inequality=undefined\n")
    out.write(f"qutrit_preserves_longer={str(longer).lower()}\n")
    return 0


def run_compare(cfg: RunConfig, out) -> int:
    grid = np.linspace(0.2, 5.0, 10)
    out.write("a21,a31,t_qubit,t_qutrit,inequality,agree\n")
    t_qb = analysis.indicator_crossing(cfg.p, ChannelParams(), 2)
    for a21 in grid:
        for a31 in grid:
            t_qt = analysis.indicator_crossing(cfg.p, ChannelParams(a2=a21, a3=a31), 3)
            verdict = analysis.preservation_inequality(cfg.p, a21, a31)
            agree = verdict == (t_qt >= t_qb)
            out.write(
                f"{_fmt(a21)},{_fmt(a31)},{_fmt(t_qb)},{_fmt(t_qt)},"
                f"{str(verdict).lower()},{str(agree).lower()}\n"
            )
    return 0


def run_haar(cfg: RunConfig, out) -> int:
    out.write(f"generator={_GENERATOR_NAME}\n")
    out.write(f"seed={cfg.seed}\n")
    for (d, name), samples in zip(_SPECIES, (cfg.samples // 2, cfg.samples)):
        target, quantum = 1.0 / (d * d - 1), 1.0 / (d - 1)
        m = analysis.haar_moment_check(d, samples, cfg.seed)
        diag_dev = np.max(np.abs(np.diag(m) - target))
        off_dev = np.max(np.abs(m - np.diag(np.diag(m))))
        ratio = np.mean(np.diag(m)) / quantum
        out.write(f"{name}_samples={samples}\n")
        out.write(f"{name}_mean_diag={_fmt(np.mean(np.diag(m)), 17)}\n")
        out.write(f"{name}_max_diag_dev={_fmt(diag_dev, 17)}\n")
        out.write(f"{name}_max_offdiag_dev={_fmt(off_dev, 17)}\n")
        out.write(f"{name}_classical_quantum_ratio={_fmt(ratio, 17)}\n")
    return 0


def _validate_checks(cfg: RunConfig):
    """Yield (name, measured_defect, tolerance) for every self-check."""
    rng = np.random.default_rng(cfg.seed)
    rate_pairs = ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0))
    times = (0.0, 0.1, 1.0, 10.0)

    for d, name in _SPECIES:
        defect = 0.0
        for a2, a3 in rate_pairs:
            for t in times:
                defect = max(defect, channels.se_kraus((a2, a3)[: d - 1], t).completeness_defect())
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

    blochs = analysis.haar_bloch_vectors(3, 200, cfg.seed)
    defect = 0.0
    for n in blochs:
        defect = max(defect, abs(n @ n - 1.0))
        defect = max(defect, float(np.max(np.abs(su.star_product(n, n) - n))))
    yield "pure_state_conditions", defect, 1e-10

    for d, name in _SPECIES:
        yield f"ppt_threshold_{name}", abs(analysis.ppt_threshold(d) - 1.0 / (d + 1)), 1e-4
    for d, name in _SPECIES:
        m = analysis.haar_moment_check(d, 20_000, cfg.seed)
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
    rho3 = channels.bipartite_channel(
        states.werner(3, 1.0), channels.se_kraus_qutrit(at), "symmetric", 0.5
    )
    closed = analysis.fidelity_closed(at.rates(3), at.t)
    defect = abs(analysis.fidelity_from_state(rho3, 3) - closed)
    yield "fidelity_closed_vs_state", defect, 1e-10

    t_closed = analysis.qubit_crossing_closed(1.0)
    t_bisect = analysis.indicator_crossing(1.0, ChannelParams(), 2)
    yield "qubit_crossing_closed_vs_bisection", abs(t_closed - t_bisect), 1e-8


def run_validate(cfg: RunConfig, out) -> int:
    failed = 0
    total = 0
    for name, defect, tol in _validate_checks(cfg):
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
    fields = ("a1", "a2", "a3", "p", "q", "t_max", "steps", "samples", "seed", "output")
    kwargs = {k: getattr(args, k) for k in fields if hasattr(args, k)}
    handler = {
        "curves": run_curves,
        "threshold": run_threshold,
        "compare": run_compare,
        "haar": run_haar,
        "validate": run_validate,
    }[args.command]
    report = io.StringIO()
    try:
        cfg = RunConfig(command=args.command, **kwargs)
        code = handler(cfg, report)
        if cfg.output is None:
            sys.stdout.write(report.getvalue())
        else:
            with open(cfg.output, "w", newline="") as fh:
                fh.write(report.getvalue())
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
