"""Fixed speed gauges, read between ops, that the end-to-end times are scaled by.

The host this benchmark was built on changes speed by about 30% for
stretches of 5-40 s, in CPU time as well as wall time, which no run of
practical length averages out.  So the benchmark reads a gauge between ops:
fixed work that never calls weakmeter, so that a change to the program moves
the op times and not the gauge.  A reading is the gauge's time over its time
at a reference speed, so it reads 1.0 there and 2.0 at half that speed.
Each op's time is divided by the median of the readings nearest to it, which
gives the op's time at the reference speed.  There are three gauges:

- COMPUTE, for the ops that run in the worker: plain Python and numpy of the
  same kind as weakmeter's (small complex Hermitian matrices,
  eigendecompositions, matrix products, exponentials, Python-level loops);
- START: a fresh interpreter that imports numpy;
- MIXED, the geometric mean of the two, for set-up and for cli ops, which
  are interpreter start and imports as well as Python work.  Between two
  sets of runs 20 minutes apart, START readings got 25% slower and COMPUTE
  readings 30% faster, while the unscaled cli op times held within 2%;
  scaled by either gauge alone, cli and set-up times drifted by up to 18%.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time

import numpy as np

# The time of a reading at the reference speed, where a reading reads 1.0;
# about the middle of the times seen on a 2-core VM (Python 3.11, numpy 2.4,
# OpenBLAS on one thread).  Only the scale of the results hangs on them.
COMPUTE_REFERENCE_S = 0.002
START_REFERENCE_S = 0.12
# A reading of the COMPUTE gauge is the fastest of this many runs of its
# kernel: a run that the scheduler interrupts reads slow, and the minimum
# drops it.
RUNS_PER_READING = 3
# Readings nearest to an op whose median sets its scale.
NEAREST = 5
# Least time between two readings during a run.
EVERY_S = 0.2


def _hermitian_matrices(count: int, d: int) -> list[np.ndarray]:
    rng = np.random.default_rng(20130101)
    mats = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count))
    return [(m + m.conj().T) / 2.0 for m in mats]


_MATS = _hermitian_matrices(6, 4)
_GS = np.linspace(0.1, 3.0, 16)


def kernel() -> float:
    """The COMPUTE gauge's fixed work, about 2 ms on the reference machine."""
    total = 0.0
    for g in _GS:
        for m in _MATS:
            w, v = np.linalg.eigh(m)
            overlap = v.conj().T @ m @ v
            total += float(np.abs(overlap).sum()) + float(np.exp(-(g * w) ** 2).sum())
        for i in range(60):
            total += (i * 1.0001) % 7.0
    return total


def compute() -> float:
    """COMPUTE: the fastest of RUNS_PER_READING runs of the kernel."""
    best = float("inf")
    for _ in range(RUNS_PER_READING):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best / COMPUTE_REFERENCE_S


def start() -> float:
    """START: a fresh interpreter that imports numpy, in this process's
    environment (run.py pins BLAS to one thread there)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return (time.perf_counter() - t0) / START_REFERENCE_S


def mixed() -> float:
    """MIXED: the geometric mean of a START and a COMPUTE reading."""
    return math.sqrt(start() * compute())


def scales(at: list[float], readings: list[tuple[float, float]]) -> list[float]:
    """For each time in `at`, 1 over the median of the NEAREST readings,
    which are (time, reading) pairs sorted by time."""
    times = [t for t, _ in readings]
    out = []
    for t in at:
        i = bisect.bisect_left(times, t)
        lo, hi = i, i  # grow [lo, hi) outwards by whichever side is nearer
        while hi - lo < min(NEAREST, len(readings)):
            if lo > 0 and (hi == len(times) or t - times[lo - 1] <= times[hi] - t):
                lo -= 1
            else:
                hi += 1
        out.append(1.0 / statistics.median(s for _, s in readings[lo:hi]))
    return out
