"""Seeded task lists for the three workloads, and the checks on their outputs.

Every input is drawn here from the workload seed: Werner weights, rates,
grid sizes, Haar and validate seeds, and the qutrit states of ``crosscheck``
(a Ginibre draw of this file's own, not the package's helper). The program
only ever receives these generated inputs.

Task sizes come from fixed ladders and fixed mixes, so every seed gives the
same amount of work and only the physical inputs change. Each task carries a
``kind``: the stratum it belongs to (a ladder rung or a command), which the
throughput metric uses.

Output checks read CSV columns and ``key=value`` keys by name and ignore
extra ones, so added columns or keys do not break them. Values the CLI
prints are checked against this file's own closed forms.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from qutrit_se import channels, cli, su

QUBIT_THRESHOLD = 1.0 / 3.0
QUTRIT_THRESHOLD = 0.25
RATE_RANGE = (0.2, 5.0)
RK4_H = 1e-3
CHECKPOINTS = 4

# Ladders and mixes. The per-second sizes make one run take about --seconds
# on a 2-core x86-64 host (Python 3.11, numpy 2.4); a faster program finishes
# the same list sooner.
CURVES_STEPS = (50, 316, 2000)
CURVES_TASKS_PER_S = 1.8
CROSSCHECK_STEPS = tuple(round(250 * 8 ** (i / 8)) for i in range(9))  # 250..2000
CROSSCHECK_CASES_PER_S = 12.5
REPORTS_MIX = (("threshold", 60), ("compare", 4), ("haar", 2), ("validate", 2))
EDGE_STEPS = 50
REPORTS_BLOCKS_PER_S = 0.85

OK = "ok"


@dataclass(frozen=True)
class Task:
    """One unit of work: ``run`` calls the program (timed), ``check`` judges it.

    ``check`` returns ``OK``, ``"defect: ..."`` for a known ROADMAP item-4
    defect on an edge input, or ``"fail: ..."`` for a wrong or missing answer.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]
    edge: bool = False


# -- input draws ------------------------------------------------------------


def _rate(rng: np.random.Generator) -> float:
    lo, hi = RATE_RANGE
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _p_entangled(rng: np.random.Generator) -> float:
    """Werner weight in (1/3, 1]."""
    return float(1.0 - rng.uniform(0.0, 1.0) * (1.0 - QUBIT_THRESHOLD))


def ginibre_state(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Full-rank density matrix G G^dag / Tr, G with iid complex normal entries."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# -- closed forms used by the checks -----------------------------------------


def qubit_crossing(p: float) -> float:
    """a1*t at which the two-qubit indicator reaches 1/3."""
    return -2.0 * math.log(math.sqrt(1.0 + 1.0 / p) - 1.0)


def s_qutrit(p: float, a1: float, a2: float, a3: float, tau: float) -> float:
    """Two-qutrit indicator at dimensionless time tau = a1*t."""
    t = tau / a1
    return (p / 8.0) * (
        math.exp(-a2 * t)
        + math.exp(-a3 * t)
        + 2.0 * math.exp(-a2 * t / 2.0)
        + 2.0 * math.exp(-a3 * t / 2.0)
        + 2.0 * math.exp(-(a2 + a3) * t / 2.0)
    )


# -- CLI invocation ----------------------------------------------------------


@dataclass(frozen=True)
class CliResult:
    code: Optional[int]
    stdout: str
    stderr: str
    exc: Optional[BaseException]


def invoke(argv: list[str]) -> CliResult:
    """Run ``cli.main(argv)`` in-process with stdout and stderr in memory."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    code: Optional[int]
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code if isinstance(stop.code, int) else 1
        except Exception as raised:  # an uncaught error is a traceback to a user
            exc, code = raised, None
    return CliResult(code, out.getvalue(), err.getvalue(), exc)


def _num(text: Optional[str]) -> Optional[float]:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _keys(stdout: str) -> dict[str, str]:
    """``key=value`` pairs, one or more per line, separated by spaces."""
    pairs = {}
    for token in stdout.split():
        if "=" in token:
            key, value = token.split("=", 1)
            pairs[key] = value
    return pairs


def check_curves(stdout: str, p: float, steps: int) -> str:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != steps + 1:
        return f"fail: {len(rows)} rows, expected {steps + 1}"
    for s_col, neg_col, threshold in (
        ("s_qubit", "neg_qubit", QUBIT_THRESHOLD),
        ("s_qutrit", "neg_qutrit", QUTRIT_THRESHOLD),
    ):
        s = [float(r[s_col]) for r in rows]
        neg = [float(r[neg_col]) for r in rows]
        if abs(s[0] - p) > 1e-8:
            return f"fail: {s_col}(0)={s[0]!r}, expected p={p!r}"
        if any(b > a for a, b in zip(s, s[1:])):
            return f"fail: {s_col} increases"
        if min(neg) < 0.0:
            return f"fail: {neg_col} negative"
        for si, ni in zip(s, neg):
            if si > threshold and not ni > 0.0:
                return f"fail: {s_col}={si!r} > {threshold:.4g} but {neg_col}={ni!r}"
    return OK


def check_threshold(stdout: str, p: float, a1: float, a2: float, a3: float) -> str:
    keys = _keys(stdout)
    ineq = keys.get("preservation_inequality")
    longer = keys.get("qutrit_preserves_longer")
    if ineq in ("true", "false") and longer in ("true", "false") and ineq != longer:
        return f"defect: preservation_inequality={ineq} contradicts qutrit_preserves_longer={longer}"
    if longer not in ("true", "false"):
        return f"fail: qutrit_preserves_longer={longer!r}"
    if p > QUBIT_THRESHOLD:
        t_qb = _num(keys.get("t_cross_qubit"))
        want = qubit_crossing(p)
        if t_qb is None or abs(t_qb - want) > 1e-7 * max(1.0, want):
            return f"fail: t_cross_qubit={keys.get('t_cross_qubit')!r}, closed form {want!r}"
    t_qt = _num(keys.get("t_cross_qutrit"))
    if t_qt is not None and abs(s_qutrit(p, a1, a2, a3, t_qt) - QUTRIT_THRESHOLD) > 1e-8:
        return f"fail: s_qutrit(t_cross_qutrit={t_qt!r}) is not 1/4"
    if t_qt is None and p > QUTRIT_THRESHOLD and min(a2, a3) >= RATE_RANGE[0]:
        return f"fail: t_cross_qutrit={keys.get('t_cross_qutrit')!r}"
    return OK


def check_compare(stdout: str) -> str:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if not rows:
        return "fail: empty grid"
    bad = sum(1 for r in rows if r.get("agree") != "true")
    return OK if bad == 0 else f"fail: {bad} of {len(rows)} rows disagree"


def check_haar(stdout: str) -> str:
    keys = _keys(stdout)
    for species in ("qubit", "qutrit"):
        for what in ("max_diag_dev", "max_offdiag_dev"):
            value = _num(keys.get(f"{species}_{what}"))
            if value is None or not value <= 0.02:
                return f"fail: {species}_{what}={keys.get(f'{species}_{what}')!r}"
    return OK


def check_validate(stdout: str) -> str:
    result = _keys(stdout).get("result")
    return OK if result == "pass" else f"fail: result={result!r}"


def judge(res: CliResult, check: Callable[[str], str], edge: bool) -> str:
    """Outcome of one CLI task.

    On a regular input anything but exit 0 and a passing check fails. On an
    edge input a clean one-line exit 2 is an answer; a traceback, an exit
    code outside {0, 2} or a self-contradicting verdict is a known defect.
    """
    if res.exc is not None:
        cause = f"traceback {type(res.exc).__name__}: {res.exc}"
        return f"defect: {cause}" if edge else f"fail: {cause}"
    if edge and res.code == 2:
        lines = res.stderr.strip().splitlines()
        return OK if len(lines) == 1 else f"fail: exit 2 with {len(lines)} stderr lines"
    if res.code != 0:
        return f"defect: exit {res.code}" if edge else f"fail: exit {res.code}"
    verdict = check(res.stdout)
    if verdict.startswith("defect") and not edge:
        return "fail" + verdict[len("defect"):]
    return verdict


def cli_task(kind: str, argv: list[str], check: Callable[[str], str], edge=False) -> Task:
    return Task(
        kind=kind,
        run=lambda: invoke(argv),
        check=lambda res: judge(res, check, edge),
        edge=edge,
    )


def _args(**values) -> list[str]:
    out = []
    for key, value in values.items():
        out += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    return out


# -- workloads ---------------------------------------------------------------


def curves_task(rng: np.random.Generator, steps: int, q: Optional[float] = None, kind=None):
    p = _p_entangled(rng)
    a1, a2, a3 = _rate(rng), _rate(rng), _rate(rng)
    edge = q is not None
    q = float(rng.uniform(0.0, 1.0)) if q is None else q
    argv = ["curves"] + _args(p=p, q=q, a1=a1, a2=a2, a3=a3, steps=steps)
    return cli_task(kind or f"steps={steps}", argv, lambda out: check_curves(out, p, steps), edge)


def threshold_task(rng: np.random.Generator) -> Task:
    p = _p_entangled(rng)
    a1, a2, a3 = _rate(rng), _rate(rng), _rate(rng)
    argv = ["threshold"] + _args(p=p, a1=a1, a2=a2, a3=a3)
    return cli_task("threshold", argv, lambda out: check_threshold(out, p, a1, a2, a3))


def edge_tasks(rng: np.random.Generator) -> list[Task]:
    """Domain-edge inputs the CLI accepts today (ROADMAP item 4)."""
    return [
        cli_task(
            "edge:threshold --p 0.2",
            ["threshold", "--p", "0.2"],
            lambda out: check_threshold(out, 0.2, 1.0, 1.0, 1.0),
            edge=True,
        ),
        cli_task(
            "edge:threshold --a2 1e-300",
            ["threshold", "--a2", "1e-300"],
            lambda out: check_threshold(out, 1.0, 1.0, 1e-300, 1.0),
            edge=True,
        ),
        cli_task("edge:haar --seed -1", ["haar", "--seed", "-1"], check_haar, edge=True),
        curves_task(rng, EDGE_STEPS, q=0.0, kind="edge:curves --q 0"),
        curves_task(rng, EDGE_STEPS, q=1.0, kind="edge:curves --q 1"),
    ]


def reports_task(kind: str, rng: np.random.Generator) -> Task:
    if kind == "threshold":
        return threshold_task(rng)
    if kind == "compare":
        return cli_task("compare", ["compare"] + _args(p=_p_entangled(rng)), check_compare)
    seed = int(rng.integers(0, 2**31))
    check = check_haar if kind == "haar" else check_validate
    return cli_task(kind, [kind] + _args(seed=seed), check)


def reports_block(rng: np.random.Generator) -> list[Task]:
    tasks = [reports_task(kind, rng) for kind, count in REPORTS_MIX for _ in range(count)]
    return tasks + edge_tasks(rng)


def crosscheck_task(rng: np.random.Generator, n_end: int) -> Task:
    """Kraus, affine-Bloch and RK4 routes through CHECKPOINTS times, h = 1e-3."""
    rho0 = ginibre_state(rng)
    a2, a3 = _rate(rng), _rate(rng)
    inner = rng.choice(np.arange(1, n_end), size=CHECKPOINTS - 1, replace=False)
    marks = [int(n) for n in sorted(inner)] + [n_end]

    def run():
        par = channels.ChannelParams(a2=a2, a3=a3)
        rho_ode, prev, out = rho0, 0, []
        for n in marks:
            at = par.with_time(n * RK4_H)
            kraus = channels.apply_kraus(rho0, channels.se_kraus_qutrit(at))
            bloch = channels.se_affine_map(at).apply(su.density_to_bloch(rho0))
            affine = su.bloch_to_density(bloch)
            rho_ode = channels.lindblad_evolve(
                rho_ode, par.with_time((n - prev) * RK4_H), steps=n - prev
            )
            prev = n
            out.append((kraus, affine, rho_ode))
        return out

    def check(out) -> str:
        for kraus, affine, ode in out:
            d_affine = float(np.max(np.abs(kraus - affine)))
            d_ode = float(np.max(np.abs(kraus - ode)))
            if d_affine > 1e-10:
                return f"fail: kraus vs affine {d_affine:.3e}"
            if d_ode > 1e-6:
                return f"fail: kraus vs rk4 {d_ode:.3e}"
        return OK

    return Task(kind=f"rk4_steps={n_end}", run=run, check=check)


def _copies(seconds: float, per_s: float, per_copy: int) -> int:
    return max(1, round(seconds * per_s / per_copy))


def make_tasks(workload: str, rng: np.random.Generator, seconds: float) -> list[Task]:
    """The seeded task list of one run, sized for ``seconds``, in seeded order."""
    if workload == "curves":
        n = _copies(seconds, CURVES_TASKS_PER_S, len(CURVES_STEPS))
        tasks = [curves_task(rng, s) for _ in range(n) for s in CURVES_STEPS]
    elif workload == "crosscheck":
        n = _copies(seconds, CROSSCHECK_CASES_PER_S, len(CROSSCHECK_STEPS))
        tasks = [crosscheck_task(rng, s) for _ in range(n) for s in CROSSCHECK_STEPS]
    elif workload == "reports":
        n = max(1, round(seconds * REPORTS_BLOCKS_PER_S))
        tasks = [t for _ in range(n) for t in reports_block(rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


def warmup_tasks(workload: str, rng: np.random.Generator) -> list[Task]:
    """One small task of every kind the workload runs, to fill lazy state."""
    if workload == "curves":
        return [curves_task(rng, CURVES_STEPS[0])]
    if workload == "crosscheck":
        return [crosscheck_task(rng, CROSSCHECK_STEPS[0])]
    return [reports_task(kind, rng) for kind, _ in REPORTS_MIX] + edge_tasks(rng)
