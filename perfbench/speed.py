"""Timing corrected for the machine's current speed.

On the reference machine (2 vCPUs shared with other tenants), the speed of
a vCPU switches between two levels for periods of about 0.5 to 5 s: a
fixed pure-Python loop takes about 1.2 ms in one and 2.2 ms in the
other, and mfkit commands slow down with it.  Their CPU time moves
with their wall time, so it cannot separate the two.

Every timed operation is therefore bracketed by a short probe of a fixed
pure-Python loop that does not touch mfkit.  A sample's scaled time is

    wall * (REFERENCE_S / probe) ** SENSITIVITY

with ``probe`` the mean of the probe times around it: an estimate of the
wall time at the reference speed.  The workloads slow down less than the
probe does: when the probe slows by 1.88x, the rho sweep slows by 1.55x
(1.55 = 1.88 ** 0.70), and the same exponent minimised the seed-to-seed
spread of all three workloads in trial runs.  An mfkit change moves the
wall time but not the probe, so it moves the scaled time by the same
factor.  Raw wall times and probes are kept in the record.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# Probe time at full speed on the reference machine (README).
REFERENCE_S = 0.00125
SENSITIVITY = 0.7
PROBE_REPS = 3


def _loop() -> int:
    # Fraction arithmetic and tuple-keyed dicts: the same interpreter
    # work that dominates mfkit's exact arithmetic.
    acc, seen = Fraction(0), {}
    for k in range(1, 400):
        acc += Fraction(k, k + 1)
        seen[(k, k % 7)] = acc
    return len(seen)


def probe() -> float:
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Sample:
    wall: float
    before: float       # probe times just before and just after
    after: float

    @property
    def scaled(self) -> float:
        return self.wall * (REFERENCE_S * 2 / (self.before + self.after)) ** SENSITIVITY

    def record(self) -> list[float]:
        return [self.wall, self.before, self.after]


def timed(fn):
    """(fn(), Sample) with probes run just before and just after fn."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    return result, Sample(wall, before, probe())
