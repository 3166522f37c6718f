"""Benchmark the dominant-solution search per user count.

Every `cfkit search` and `cfkit mac` call picks the shortest independent
integer coefficient vectors once (`intsearch.dominant_solution`).  The
search enumerates the integer points of one ellipsoid, so its cost follows
the number of points it enumerates.  For 2, 3 and 4 users this prints the
median microseconds per call and the mean points enumerated per call, on
two channel sets:

- "pool": the 30 channels of the analysis-sweep workload
  (perfbench/workloads.py), each in the equivalent forms of seeds 0..3;
- "random": `--channels` random channels per user count, half with
  N(0, s^2) gains and real powers and half with small integer gains and
  powers, whose ties in ||F a||^2 exercise the tie-breaking.

A channel's time is the least of `--repeats` calls; the median is over
channels.  Searches that end in an error count too.

Usage: python3 benchmarks/bench_search.py [--channels N] [--repeats N]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from cfkit import intsearch
from cfkit.core import ChannelInstance, effective_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import channel_pool, equivalent_channel  # noqa: E402

USER_COUNTS = (2, 3, 4)


def pool_factors() -> list:
    out = []
    for seed in range(4):
        for i, (H, P) in enumerate(channel_pool()):
            H, P = equivalent_channel(H, P, np.random.default_rng([seed, 0, i]))
            out.append(effective_matrix(ChannelInstance(H=H, P=P)))
    return out


def random_factors(users: int, count: int) -> list:
    rng = np.random.default_rng(users)
    out = []
    for i in range(count):
        nr = int(rng.integers(1, users + 1))
        if i % 2:
            ch = ChannelInstance(H=rng.integers(-3, 4, size=(nr, users)),
                                 P=rng.integers(1, 20, size=users))
        else:
            ch = ChannelInstance(H=rng.normal(size=(nr, users)) * rng.uniform(0.3, 5),
                                 P=rng.uniform(0.3, 30, size=users))
        out.append(effective_matrix(ch))
    return out


def search(F):
    try:
        intsearch.dominant_solution(F)
    except RuntimeError:
        pass


def points_per_call(factors: list) -> float:
    """Mean number of points _ellipsoid_points returns per search."""
    counts = []
    enumerate_points = intsearch._ellipsoid_points

    def counted(*args):
        points = enumerate_points(*args)
        counts.append(len(points))
        return points

    with mock.patch.object(intsearch, "_ellipsoid_points", counted):
        for F in factors:
            search(F)
    return sum(counts) / len(factors)


def median_us(factors: list, repeats: int) -> float:
    best = []
    for F in factors:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            search(F)
            times.append(time.perf_counter() - start)
        best.append(min(times))
    return statistics.median(best) * 1e6


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--channels", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    pool = pool_factors()
    print(f"{'set':>7} {'users':>6} {'channels':>9} {'us/call':>9} {'points/call':>12}")
    for users in USER_COUNTS:
        for name, factors in (("pool", [F for F in pool if F.shape[1] == users]),
                              ("random", random_factors(users, args.channels))):
            print(f"{name:>7} {users:>6} {len(factors):>9} "
                  f"{median_us(factors, args.repeats):9.1f} {points_per_call(factors):12.1f}")


if __name__ == "__main__":
    main()
