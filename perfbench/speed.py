"""The worker's clock: CPU time, read against a reference loop.

A shared host changes the speed of its cores from one tenth of a second to
the next, by up to 1.8x, and the share of slow time drifts over minutes.
No clock leaves that out.  So while a worker runs, ``Clock`` times a fixed
reference loop about every ``READ_EVERY_S`` CPU seconds, and the worker
scales the times it measured in a seed by ``REF_NOMINAL_S`` over the mean
of the readings taken during that seed.  Times are then reported at the
core speed under which one reference pass takes ``REF_NOMINAL_S``, about
that of an uncontended core of a 2-vCPU x86-64 VM.

The loop mixes interpreter work (a dict, float conversions) with small
numpy ops on a 48-vector and a 64x64 grid, as ``cade`` does.  Time spent
reading is left out of every time the clock returns.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["Clock", "reference_s", "REF_NOMINAL_S", "READ_EVERY_S"]

# CPU seconds of one reference pass on an uncontended core (see above)
REF_NOMINAL_S = 1e-3
# passes per reading; a reading is their median
REF_PASSES = 3
# CPU seconds of measured work between two readings
READ_EVERY_S = 0.1


def _inputs():
    rng = np.random.default_rng(0)
    return (rng.normal(0, 0.2, (48, 48)), rng.normal(0, 1, 48),
            rng.random((64, 64)))


def _reference_pass(w, x, grid) -> float:
    h, acc = x, 0.0
    for i in range(100):
        h = np.tanh(w @ h + x)
        acc += float(h[i % 48])
        row = {j: h[j] * j for j in range(0, 40, 4)}
        acc += sum(row.values())
    mask = (grid > 0.5) & (grid.T < 0.25)
    return acc + float(mask.sum())


def reference_s(clock=time.process_time) -> float:
    """CPU seconds of one reference pass: the median of ``REF_PASSES``."""
    args = _inputs()
    times = []
    for _ in range(REF_PASSES):
        t = clock()
        _reference_pass(*args)
        times.append(clock() - t)
    return sorted(times)[REF_PASSES // 2]


class Clock:
    """Process CPU seconds, less the time spent on reference readings.

    Call it for the time.  ``read()`` takes a reading now; ``tick()``
    takes one if ``READ_EVERY_S`` has passed since the last, and fits the
    observer signature of ``spans.Tracer``.
    """

    def __init__(self, raw=time.process_time, every: float = READ_EVERY_S):
        self.raw = raw
        self.every = every
        self.paused = 0.0
        self.readings: list[float] = []
        self._next = 0.0

    def __call__(self) -> float:
        return self.raw() - self.paused

    def read(self) -> None:
        t = self.raw()
        self.readings.append(reference_s(self.raw))
        self.paused += self.raw() - t
        self._next = self() + self.every

    def tick(self, *_) -> None:
        if self() >= self._next:
            self.read()

    def scale(self, first: int) -> float:
        """``REF_NOMINAL_S`` over the mean of the readings from index
        ``first`` on."""
        window = self.readings[first:]
        return REF_NOMINAL_S * len(window) / sum(window)
