"""Benchmark for qutrit_se: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for the exact draws):

* ``curves``     -- ``curves`` CLI runs, steps 50, 316 or 2000.
                    Bound by ``bipartite_channel``/``kron`` and Jacobi negativity.
* ``crosscheck`` -- three-route agreement cases (Kraus, affine Bloch map, RK4 at
                    h = 1e-3) on Ginibre qutrit states. Bound by RK4.
* ``reports``    -- a mix of ``threshold``, ``compare``, ``haar``, ``validate`` and
                    domain-edge inputs. Bound by scalar closed forms, bisection
                    and per-call overhead; ``haar``/``validate`` set the tail.

Everything runs in this process through ``qutrit_se.cli.main(argv)`` (stdout
captured in memory) or the public functions of ``channels`` and ``su``, with
BLAS/OpenMP threads capped at the CPUs this process may use.

A run's task list is fixed by --workload, --seed and --seconds (its length
grows with --seconds, so a run takes about that long on the reference host).
Only the calls into the program are timed; input generation and output
checks are not. Task durations are scaled to the reference host speed by
the calibration loop in hostspeed.py, timed between tasks; the unscaled
figures are kept in the record under ``notes.unscaled``. ``setup_s`` and the
per-layer seconds are as measured.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``      median over fresh interpreters, spread over the run, of
                   importing qutrit_se and building ``generator_basis(2)``
                   and ``generator_basis(3)``.
* ``tasks_per_s``, ``task_ms.p50``, ``task_ms.tail``  tasks per second, the
                   median task time, and the highest percentile with at least
                   ten samples beyond it. A task is one CLI invocation or one
                   cross-check case; each task's time is taken as the median
                   of its stratum (ladder rung or command), see task_costs().
* ``peak_rss_mb``  peak resident memory of this process.

``--trace 1`` runs the same task list untraced and then traced (see
tracing.py) and reports the per-layer metrics: calls, inclusive seconds and
counters of named functions, each layer's self time, and the tracing overhead.

Task outcomes: ``failed`` counts wrong or missing answers. Edge inputs that
hit a known ROADMAP item-4 defect (traceback, exit code outside {0, 2}, or a
self-contradicting verdict) are counted apart as ``known_defect_frac``.

The last stdout line is one JSON object with keys correct, attempted, failed
and metrics. A fuller record, with the run environment, is written to
``perfbench/out/``, and the traced run's spans to ``perfbench/out/spans-*.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_RUNS = 11
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qutrit_se\n"
    "qutrit_se.generator_basis(2)\n"
    "qutrit_se.generator_basis(3)\n"
    "print(repr(time.perf_counter() - t0))\n"
)
WORKLOADS = ("curves", "crosscheck", "reports")

CALLS = (
    "linalg.kron",
    "channels.bipartite_channel",
    "linalg.hermitian_eigenvalues",
    "channels.lindblad_evolve",
    "analysis.crossing_time",
    "analysis.separability_report",
    "states.werner",
    "cli.main",
)
INCLUSIVE = (
    "linalg.kron",
    "channels.bipartite_channel",
    "linalg.hermitian_eigenvalues",
    "linalg.partial_transpose",
    "analysis.negativity",
    "channels.lindblad_evolve",
    "channels.apply_kraus",
    "channels.se_affine_map",
    "analysis.crossing_time",
    "analysis.separability_report",
    "analysis.haar_bloch_vectors",
    "analysis.ppt_threshold",
    "su.star_product",
    "states.werner",
)


def thread_caps() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the usable CPU count; call before numpy loads."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    caps = {var: str(nproc) for var in THREAD_VARS}
    os.environ.update(caps)
    return caps


def environment(caps: dict[str, str]) -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep.get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": int(next(iter(caps.values()))),
        "thread_caps": caps,
    }


def setup_probe(root: Path) -> float:
    """Import-and-build time in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class PassResult:
    times: list[float]  # scaled to the reference host speed
    spans: list[tuple[float, float]]  # (start, end) as measured
    outcomes: list[str]
    wall_s: float

    @property
    def raw(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.spans]


def run_pass(tasks, speed, between=None, every=0) -> PassResult:
    """Run every task in order, timing only the call into the program.

    The reference loop is timed before the first task, between tasks at
    least every ``hostspeed.EVERY_S`` and after the last, and each task's
    duration is scaled by the loop time around it. ``between()`` runs after
    every ``every``-th task, outside the task timings.
    """
    clock = time.perf_counter
    spans, outcomes = [], []
    t_start = clock()
    speed.sample()
    for i, task in enumerate(tasks):
        if speed.due():
            speed.sample()
        t0 = clock()
        raw = task.run()
        spans.append((t0, clock()))
        outcomes.append(task.check(raw))
        if every and i % every == every - 1:
            between()
    speed.sample()
    return PassResult(
        times=[(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans],
        spans=spans,
        outcomes=outcomes,
        wall_s=clock() - t_start,
    )


def task_costs(tasks, times) -> list[float]:
    """Each task's time replaced by the median time of its stratum.

    Tasks of one stratum do the same work and are spread over the run in
    seeded order, so the median leaves out what was the host's, not the
    program's, and the percentiles below land on stratum costs.
    """
    by_kind = defaultdict(list)
    for task, t in zip(tasks, times):
        by_kind[task.kind].append(t)
    costs = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    return [costs[task.kind] for task in tasks]


def tail(times) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the 11th-largest sample."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def tally(tasks, outcomes) -> dict:
    failed = [(t.kind, o) for t, o in zip(tasks, outcomes) if o.startswith("fail")]
    defects = Counter(
        f"{t.kind} -> {o[len('defect: '):]}"
        for t, o in zip(tasks, outcomes)
        if o.startswith("defect")
    )
    return {
        "attempted": len(tasks),
        "failed": len(failed),
        "failures": failed[:5],
        "edge_tasks": sum(1 for t in tasks if t.edge),
        "known_defects": sum(defects.values()),
        "defect_causes": dict(defects),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tasks, run: PassResult, speed, setup: list[float]):
    costs = task_costs(tasks, run.times)
    value, pct, beyond = tail(costs)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "tasks_per_s": metric(len(costs) / sum(costs), "1/s"),
        "task_ms.p50": metric(1e3 * statistics.median(costs), "ms"),
        "task_ms.tail": metric(1e3 * value, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw_costs = task_costs(tasks, run.raw)
    notes = {
        "task_ms.tail": f"p{pct:.2f} of {len(costs)} tasks, {beyond} beyond",
        "unscaled": {
            "tasks_per_s": len(raw_costs) / sum(raw_costs),
            "task_ms.p50": 1e3 * statistics.median(raw_costs),
            "task_ms.tail": 1e3 * tail(raw_costs)[0],
        },
        "setup_s.samples": setup,
        "timeline": {
            "kinds": [task.kind for task in tasks],
            "spans": run.spans,
            "loop_at": speed.at,
            "loop_s": speed.loop_s,
        },
    }
    return metrics, notes


def per_layer(summary: dict, untraced_tps: float, traced_tps: float, task_s: float, tal: dict):
    rows = summary["per_name"]
    counters = summary["counters"]

    def field(name: str, key: str):
        return rows.get(name, {}).get(key, 0)

    def group(name: str, key: str):
        return summary["groups"][name][key]

    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = metric(field(name, "calls"), "count")
    for name in INCLUSIVE:
        m[f"{name}.s"] = metric(field(name, "s"), "s")
    m["channels.kraus_build.s"] = metric(group("channels.kraus_build", "s"), "s")
    m["su.bloch_maps.s"] = metric(group("su.bloch_maps", "s"), "s")
    m["analysis.closed_forms.calls"] = metric(group("analysis.closed_forms", "calls"), "count")
    m["analysis.closed_forms.s"] = metric(group("analysis.closed_forms", "s"), "s")
    steps = counters.get("rk4_steps", 0)
    lindblad_calls = field("channels.lindblad_evolve", "calls")
    m["channels.lindblad_evolve.rk4_steps"] = metric(steps, "count")
    m["channels.rk4_step_us"] = metric(
        1e6 * field("channels.lindblad_evolve", "s") / steps if steps else 0.0, "us"
    )
    m["channels.lindblad_evolve.repeat_frac"] = metric(
        counters.get("rk4_repeat_calls", 0) / lindblad_calls if lindblad_calls else 0.0, "frac"
    )
    m["analysis.crossing_time.f_evals"] = metric(counters.get("crossing_f_evals", 0), "count")
    m["analysis.haar_bloch_vectors.samples"] = metric(counters.get("haar_samples", 0), "count")
    m["su.generator_basis.s"] = metric(summary["basis_build_s"], "s")
    for layer, seconds in summary["module_self_s"].items():
        m[f"{layer}.self_s"] = metric(seconds, "s")
    m["cli.known_defect_frac"] = metric(tal["known_defects"] / tal["attempted"], "frac")
    m["trace.overhead_frac"] = metric(1.0 - traced_tps / untraced_tps, "frac")
    m["trace.task_s"] = metric(task_s, "s")
    m["trace.accounted_frac"] = metric(sum(summary["module_self_s"].values()) / task_s, "frac")
    m["trace.spans"] = metric(summary["spans"], "count")
    return m


def run_all(args) -> int:
    """Each workload in its own process, one after another; exit 1 on any failure."""
    status = 0
    for workload in WORKLOADS:
        argv = ["--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "qutrit_se" / "__init__.py").is_file():
        print("error: run from the repository root; src/qutrit_se not found", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    caps = thread_caps()
    sys.path.insert(0, str(root / "src"))

    import numpy as np

    import hostspeed
    import tracing
    import workloads
    from qutrit_se import su

    env = environment(caps)
    task_seq, warm_seq = np.random.SeedSequence(args.seed).spawn(2)
    tasks = workloads.make_tasks(args.workload, np.random.default_rng(task_seq), args.seconds)
    warm = workloads.warmup_tasks(args.workload, np.random.default_rng(warm_seq))
    run_pass(warm, hostspeed.HostSpeed())

    speed = hostspeed.HostSpeed()
    if args.trace == 0:
        # set-up probes are spread over the pass, like the tasks of a stratum
        setup: list[float] = []
        every = max(1, len(tasks) // SETUP_RUNS)
        run = run_pass(tasks, speed, lambda: setup.append(setup_probe(root)), every)
        metrics, notes = end_to_end(tasks, run, speed, setup)
        all_outcomes = run.outcomes
    else:
        run = run_pass(tasks, speed)
        su.generator_basis.cache_clear()  # the traced pass times the first build
        tracer = tracing.Tracer("qutrit_se")
        tracer.install()
        try:
            traced = run_pass(tasks, speed)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        metrics = per_layer(
            summary,
            untraced_tps=len(tasks) / sum(task_costs(tasks, run.times)),
            traced_tps=len(tasks) / sum(task_costs(tasks, traced.times)),
            task_s=sum(traced.raw),
            tal=tally(tasks, traced.outcomes),
        )
        notes = {"traced_wall_s": traced.wall_s, "module_self_s": summary["module_self_s"]}
        tasks = tasks + tasks
        all_outcomes = run.outcomes + traced.outcomes
    notes["untraced_wall_s"] = run.wall_s
    tal = tally(tasks, all_outcomes)

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.save(out_dir / f"spans-{args.workload}.npz")
    record = {"args": vars(args), "env": env, "tally": tal, "notes": notes, "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    if "task_ms.tail" in notes:
        print(f"{'':38s} task_ms.tail is {notes['task_ms.tail']}")
    print(
        f"{'failed_frac':38s} {tal['failed'] / tal['attempted']:.6g} frac "
        f"(failed {tal['failed']} of attempted {tal['attempted']})"
    )
    print(
        f"{'known_defect_frac':38s} {tal['known_defects'] / tal['attempted']:.6g} frac "
        f"({tal['known_defects']} of {tal['attempted']} tasks; "
        f"{tal['edge_tasks']} edge inputs)"
    )
    for cause, count in tal["defect_causes"].items():
        print(f"    {count:5d} x {cause}")
    for kind, why in tal["failures"]:
        print(f"failure: {kind}: {why}", file=sys.stderr)
    result = {
        "correct": tal["failed"] == 0,
        "attempted": tal["attempted"],
        "failed": tal["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
