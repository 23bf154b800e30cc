"""Scaling of the benchmark's timings to a fixed host speed.

A shared host (a CI runner, a cloud VM) can swing by up to half in its
speed for Python code over seconds to minutes.  So that runs
stay comparable, a fixed pure-Python reference task, which runs no
provlab code, is timed about every 0.1 s while a workload runs.  Each
timing is then multiplied by ``REF_MS`` over the reference task's time
around it: the result is the time the operation would take on a host
where the reference task takes ``REF_MS``.  Raw timings are reported
beside the scaled ones.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# the reference task's time on an idle 2-vCPU x86-64 VM with Python 3.11;
# it only sets the unit of the scaled timings
REF_MS = 3.0
INTERVAL_S = 0.1


def reference_task() -> None:
    """Interpreter-bound work: build a 3000-entry dict, then JSON round-trip it."""
    table = {}
    for i in range(3000):
        table[str(i)] = (i * 7) % 13
    json.loads(json.dumps(table))


class HostSpeed:
    def __init__(self):
        self.samples_ms: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the reference task once; returns the sample's index."""
        t0 = perf_counter()
        reference_task()
        self._last = perf_counter()
        self.samples_ms.append(1000 * (self._last - t0))
        return len(self.samples_ms) - 1

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def scale(self, first: int, last: int) -> float:
        """REF_MS over the median reference time of samples first..last."""
        window = self.samples_ms[max(first, 0):last + 1]
        return REF_MS / statistics.median(window)
