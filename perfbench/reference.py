"""A fixed reference workload that measures how fast the host runs at the moment.

On a shared host the same work can run up to twice as fast in spells, and the
share of fast spells drifts over minutes, so wall times of whole runs spread
far more than the program's own work does. `Probe` times one unit of
reference work on a timer signal while a CLI step runs, and run.py scales
each pass's time by the unit times sampled during it (see
``reference_seconds`` there), which cancels most of the host's speed at the
moment.

The unit imitates viewplan's own mix and never calls viewplan, so no change to
the program can move it: small numpy vector products as in ray-triangle
tests, big-integer bit sets and frozenset unions as in coverage scoring, and
plain float arithmetic.
"""
from __future__ import annotations

import random
import signal
from time import perf_counter

import numpy as np

_rng = random.Random(20161019)
_VECS = np.array([[_rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(24)])
_BITS = [_rng.getrandbits(3000) for _ in range(12)]
_SETS = [frozenset(_rng.sample(range(4000), 120)) for _ in range(12)]


def reference_work() -> float:
    """One unit of fixed work; the return value only keeps it from being skipped."""
    acc = 0.0
    v = _VECS
    for i in range(0, len(v) - 2, 3):
        e1 = v[i + 1] - v[i]
        e2 = v[i + 2] - v[i]
        acc += float(e1 @ np.cross(v[i], e2))
    covered = 0
    for b in _BITS:
        covered |= b
        acc += (covered & ~b).bit_count()
    union = frozenset()
    for s in _SETS:
        union = union | s
        acc += len(union)
    x = 0.5
    for _ in range(500):
        x = x * 0.999 + 0.001 / (1.0 + x)
    return acc + x


class Probe:
    """Times one reference unit on every SIGALRM while it is running.

    The handler runs in the main thread between bytecodes, so the samples fall
    inside the step being timed. `spent` is the handler's own time, which the
    caller takes off the step's wall time.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        reference_work()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += perf_counter() - start

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
