"""Fixed tasks, using no cfkit code, that track this machine's speed.

The host's speed drifts because other tenants share its cores: the same
campaign call took a median of 194 ms in one run and 333 ms five minutes
later, and 15-second windows of one run differed by 2x.  The drift hits
memory-bound numpy code and interpreter-bound code differently, so each
workload names the parts it resembles (``reference_parts`` in workloads.py).
The benchmark runs every part after every cfkit call and scales each call's
time by the nominal over the measured time of its workload's parts around
it, and each set-up time by the same ratio over all parts, so times read as
they would at the machine's nominal speed.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

_TABLE = np.random.default_rng(0).random((16807, 8)) * 7.0


def _scan():
    """One nearest-codeword-style pass over a 16807 x 8 table (1 MB)."""
    x = _TABLE[7] + 0.25
    steps = np.ceil((x[None, :] - _TABLE) / 7.0 - 0.5)
    diffs = _TABLE + 7.0 * steps - x[None, :]
    float(np.min(np.einsum("ij,ij->i", diffs, diffs)))


def _small_numpy():
    """Many numpy calls on 4-element arrays: call overhead, not arithmetic."""
    acc = 0.0
    for i in range(60):
        v = np.full(4, float(i))
        acc += float(v @ v) + float(np.linalg.norm(v))


def _python():
    """Fraction sums and a Z_7 row reduction on lists."""
    total = Fraction(0)
    for i in range(1, 240):
        total += Fraction(i, i + 2)
    for _ in range(2):
        rows = [[(i * j + 1) % 7 for j in range(7)] for i in range(6)]
        for c in range(6):
            inv = pow(rows[c][c] or 1, -1, 7)
            rows[c] = [(v * inv) % 7 for v in rows[c]]
            for r in range(6):
                if r != c:
                    f = rows[r][c]
                    rows[r] = [(a - f * b) % 7 for a, b in zip(rows[r], rows[c])]


# Part -> (task, its time in a quiet period on a 2-core Intel Xeon VM with
# Python 3.11 and numpy 2.4; busy periods on the same VM read up to 2x more).
PARTS = {
    "scan": (_scan, 0.0022),
    "small_numpy": (_small_numpy, 0.00024),
    "python": (_python, 0.00072),
}


class Reference:
    """Times of every part, one per cfkit call, in call order."""

    def __init__(self):
        self.times = {name: [] for name in PARTS}

    def run(self):
        for name, (task, _) in PARTS.items():
            start = time.perf_counter()
            task()
            self.times[name].append(time.perf_counter() - start)

    def _series(self, parts) -> tuple:
        nominal = sum(PARTS[name][1] for name in parts)
        return nominal, [sum(t) for t in zip(*(self.times[name] for name in parts))]

    def speed(self, parts=tuple(PARTS)) -> float:
        """Nominal over the run's median time of the parts; below 1 on a slow
        machine."""
        nominal, series = self._series(parts)
        return nominal / statistics.median(series)

    def local_speeds(self, parts=tuple(PARTS), half_width: int = 2) -> list:
        """Speed around each call: nominal over the median time of the parts
        within half_width calls of it, which damps the parts' own jitter."""
        nominal, series = self._series(parts)
        return [nominal / statistics.median(series[max(0, i - half_width):i + half_width + 1])
                for i in range(len(series))]
