"""Span tracer that wraps the package's public functions from outside.

Every callable named in a layer module's ``__all__`` and defined in that
module is replaced, in *every* module namespace that holds it, by a wrapper
that records one span per call: (name, start, end, parent). Replacing only
the defining module would miss most calls, because the package imports by
name (``analysis`` holds its own reference to ``bipartite_channel`` and
``hermitian_eigenvalues``, ``channels`` to ``kron``, and so on).

Spans are kept in flat ``array`` buffers while the traced pass runs and are
aggregated, and written out, after it ends. A few functions also feed
counters from their arguments: the RK4 steps given to ``lindblad_evolve``
and whether its (a2, a3, h) repeats an earlier call, the ``f`` evaluations
made by ``crossing_time``, the sample count given to ``haar_bloch_vectors``,
and which ``generator_basis`` calls were cache misses.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "analysis", "channels", "linalg", "su", "states")

# Groups of spans reported as one per-layer metric (inclusive time).
GROUPS = {
    "channels.kraus_build": ("channels.se_kraus_qubit", "channels.se_kraus_qutrit"),
    "su.bloch_maps": ("su.density_to_bloch", "su.bloch_to_density"),
    "analysis.closed_forms": (
        "analysis.s_qubit_closed",
        "analysis.s_qutrit_closed",
        "analysis.fidelity_closed",
        "analysis.qubit_crossing_closed",
        "analysis.preservation_inequality",
    ),
}


class Tracer:
    """Install span-recording wrappers into a package's layer modules."""

    def __init__(self, package: str) -> None:
        self.package = importlib.import_module(package)
        self.modules = {
            layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        }
        self.span_names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.basis_miss_spans: list[int] = []
        self._seen_rk4_keys: set = set()
        self._seen_basis_dims: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- hooks on arguments -------------------------------------------------

    def _pre_lindblad(self, idx, args, kwargs):
        params = kwargs["params"] if "params" in kwargs else args[1]
        steps = kwargs["steps"] if "steps" in kwargs else args[2]
        self.counters["rk4_steps"] += steps
        key = (params.a2, params.a3, params.t / steps)
        if key in self._seen_rk4_keys:
            self.counters["rk4_repeat_calls"] += 1
        self._seen_rk4_keys.add(key)
        return args, kwargs

    def _pre_crossing(self, idx, args, kwargs):
        f = kwargs["f"] if "f" in kwargs else args[0]
        counters = self.counters

        def counted(t):
            counters["crossing_f_evals"] += 1
            return f(t)

        if "f" in kwargs:
            return args, dict(kwargs, f=counted)
        return (counted,) + tuple(args[1:]), kwargs

    def _pre_haar(self, idx, args, kwargs):
        samples = kwargs["samples"] if "samples" in kwargs else args[1]
        self.counters["haar_samples"] += samples
        return args, kwargs

    def _pre_basis(self, idx, args, kwargs):
        # lru_cache: the first call per dim after cache_clear() is the build
        dim = kwargs["dim"] if "dim" in kwargs else args[0]
        if dim not in self._seen_basis_dims:
            self._seen_basis_dims.add(dim)
            self.basis_miss_spans.append(idx)
        return args, kwargs

    # -- installation -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str, pre):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            if pre is not None:
                args, kwargs = pre(idx, args, kwargs)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function in every layer namespace that holds it."""
        hooks = {
            "channels.lindblad_evolve": self._pre_lindblad,
            "analysis.crossing_time": self._pre_crossing,
            "analysis.haar_bloch_vectors": self._pre_haar,
            "su.generator_basis": self._pre_basis,
        }
        wrappers = {}
        for layer, module in self.modules.items():
            for attr in module.__all__:
                obj = getattr(module, attr)
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(obj, name, hooks.get(name))
        for ns in (self.package, *self.modules.values()):
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "span_names": np.array(self.span_names),
            "name": np.frombuffer(self.names, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, per-module self seconds."""
        a = self.arrays()
        k = len(self.span_names)
        dur = a["end"] - a["start"]
        parent = a["parent"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        excl = np.bincount(a["name"], weights=own, minlength=k)
        per_name = {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.span_names)
        }
        module_self = {layer: 0.0 for layer in LAYERS}
        for name, row in per_name.items():
            module_self[name.split(".", 1)[0]] += row["self_s"]
        basis_build = float(dur[self.basis_miss_spans].sum()) if self.basis_miss_spans else 0.0
        groups = {
            group: {
                key: sum(per_name.get(m, {}).get(key, 0) for m in members)
                for key in ("calls", "s")
            }
            for group, members in GROUPS.items()
        }
        return {
            "per_name": per_name,
            "groups": groups,
            "module_self_s": module_self,
            "root_s": float(dur[~nested].sum()),
            "spans": int(len(dur)),
            "basis_build_s": basis_build,
            "counters": dict(self.counters),
        }
