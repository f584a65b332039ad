"""Host-speed calibration: a fixed reference loop timed between tasks.

The benchmark host is shared. Its speed drifts by up to a third over seconds
to minutes (other tenants on sibling hardware threads), which shows up in
every duration the benchmark takes and in none of the steal counters. The
same drift shows up in a fixed loop of this file's own code: small numpy
products and interpreter-bound arithmetic, the mix the package itself runs.
Timing that loop between tasks and scaling each measured duration by
``REF_S / loop time at that moment`` turns durations into durations at the
reference speed, which repeat run to run where raw ones do not.

The loop is benchmark code and never calls the package, so a change to the
package moves the scaled durations exactly as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# Median loop time on the reference host (2-core x86-64 VM, Python 3.11,
# numpy 2.4) when undisturbed; scaled durations read as seconds there.
REF_S = 2.0e-3
EVERY_S = 0.25

_A = np.linspace(-1.0, 1.0, 9).reshape(3, 3)
_B = np.linspace(0.5, 1.5, 81).reshape(9, 9)


def _loop() -> float:
    acc = 0.0
    for _ in range(72):
        m = np.kron(_A, _A) @ _B
        acc += float(np.abs(m).max())
        for k in range(40):
            acc += k * 1e-3
    return acc


class HostSpeed:
    """Timeline of reference-loop timings taken between tasks."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.loop_s: list[float] = []

    def sample(self) -> None:
        """Time the loop three times and keep the median."""
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _loop()
            runs.append(time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.loop_s.append(sorted(runs)[1])

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY_S

    def scale(self, t0: float, t1: float) -> float:
        """REF_S over the loop time interpolated at the middle of [t0, t1]."""
        return REF_S / float(np.interp(0.5 * (t0 + t1), self.at, self.loop_s))
