"""Host-speed calibration of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth to a third over minutes, so wall times of the same code taken minutes
apart differ by more than any bound worth gating on. A fixed kernel that
calls nothing in the library is timed before the first pass of a run and
after every pass; the drift moves it with the workload. Each pass's
timings are multiplied by ``reference_s`` (``workloads.json``) over the mean
slice time of the kernel before and after that pass, which gives seconds at
the reference speed. The kernel never runs while the library's code does.
"""
from __future__ import annotations

import time

import numpy as np

PY_ITERS = 22_000
NP_ITERS = 1_100
MIN_S = 0.1  # kernel seconds at each calibration, at least
SHARE = 0.1  # ... and at least this share of the interval it calibrates
_W = np.random.default_rng(0).standard_normal((64, 64)) * 0.1


def _python_part(n: int) -> int:
    """Tuple, dict and list churn, like the decoder's hypothesis bookkeeping."""
    table: dict = {}
    recent: list = []
    for i in range(n):
        hyp = (i, (i * 7) % 11, (i, i + 1))
        table[i % 997] = hyp
        recent.append(hyp[1])
        if len(recent) > 512:
            del recent[:256]
    return len(table) + len(recent)


def _numpy_part(n: int) -> float:
    """Small matrix-vector products and tanh, like one GRU step."""
    x = np.ones(64)
    for _ in range(n):
        x = np.tanh(_W @ x)
    return float(x.sum())


def kernel_s(min_s: float = MIN_S) -> float:
    """Mean wall seconds of one kernel slice, over as many slices as take
    ``min_s``. Longer calibrations average out more of the host's
    sub-second swings."""
    slices = 0
    started = time.perf_counter()
    while True:
        _python_part(PY_ITERS)
        _numpy_part(NP_ITERS)
        slices += 1
        elapsed = time.perf_counter() - started
        if elapsed >= min_s:
            return elapsed / slices


class Clock:
    """Speed factors for consecutive intervals of a run.

    ``factor(busy_s)`` times the kernel and returns the reference time over
    the mean of this slice time and the previous one, so each interval
    between two calls, ``busy_s`` long, is scaled by the speed of the host
    around it.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        kernel_s()  # warm-up: first numpy calls, allocator
        self.last = kernel_s()

    def factor(self, busy_s: float) -> float:
        now = kernel_s(max(MIN_S, SHARE * busy_s))
        mean, self.last = (self.last + now) / 2, now
        return self.reference_s / mean
