"""Host speed, sampled by fixed reference work between the operations.

The shared host this benchmark runs on changes speed by up to 1.8x for
seconds to minutes at a time (other tenants load the same cores and
caches), and CPU time moves with wall time, so no statistic over one run
removes it: whole runs land in the slow state.  Every timed operation is
therefore bracketed by a reference whose work never changes, and reported
as its time at the host speed where the reference takes its nominal time:

    reported = measured * nominal / reference

Two references: an in-process kernel (interpreted Python and small numpy
products, the mix of catlab's inner loops) for work inside the workload
process, and a fresh interpreter that imports numpy for work that starts
a process (a cold CLI invocation, a set-up).  Neither touches catlab, so
a change to catlab moves the reported times exactly as it moves the
measured ones.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# Nominal reference times, in seconds: the scale of the reported times.
# They are near the references' typical times on a 2-vCPU x86 cloud host,
# so reported and measured times are alike there.
KERNEL_NOMINAL_S = 0.008
START_NOMINAL_S = 0.150


def kernel() -> int:
    """Fixed in-process reference work."""
    counts: dict = {}
    acc = 0
    for i in range(20000):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + 1
        acc += i * i % 13
    a = np.eye(4, dtype=complex) * 0.5
    x = a
    for _ in range(800):
        x = x @ a + a
    return acc


def start_reference() -> None:
    """Fixed process-start reference: a fresh interpreter that imports numpy,
    with this process's environment (BLAS threads pinned) but without the
    repository on its path."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)


class Speed:
    """Reference samples over a run, and the scale factor at any time.

    Call `due()` before each operation (it samples when `every` seconds
    have passed since the last sample) and `sample()` once after the last
    one.  The factor for an operation recorded at time t is the nominal
    time over the median of the three samples before t and the three after."""

    def __init__(self, reference, nominal: float, every: float):
        self.reference = reference
        self.nominal = nominal
        self.every = every
        self.times: list[float] = []
        self.refs: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.refs.append(t1 - t0)
        self._last = t1

    def due(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def factor(self, t: float) -> float:
        i = bisect.bisect(self.times, t)
        return self.nominal / statistics.median(self.refs[max(0, i - 3):i + 3])

    def summary(self) -> dict:
        return {"samples": len(self.refs), "nominal_s": self.nominal,
                "median_s": statistics.median(self.refs), "min_s": min(self.refs),
                "max_s": max(self.refs)}
