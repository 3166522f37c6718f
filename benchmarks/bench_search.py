"""Benchmark the dominant-solution search, the chained variances, the
mapping layer of the mac tables and the mac_assignments.json writer per
user count.

Every `cfkit search` and `cfkit mac` call picks the shortest independent
integer coefficient vectors once (`intsearch.dominant_solution`).  The
search enumerates the integer points of one ellipsoid, so its cost follows
the number of points it enumerates.  `cfkit mac` then scores its successive
candidates (every user permutation matrix, plus the dominant solution when
it is unimodular) by their chained variances, in one
`core.chained_variances` call on their stack, and writes its table through
a cached template whose leaves the C JSON encoder writes in one call.

For each user count this prints the median microseconds per search call,
the mean points enumerated per search, the mean successive candidates per
channel, the median microseconds per `chained_variances` call on that
stack and, on the pool, three more: per `regions.lu_mappings_all` call on
the channel's dominant solution ("lu us"); per pair of mac tables,
`parallel_mac_assignments` then `successive_mac_assignments`, with the
dominant solution cached but not its mappings, so each pair runs one
elimination walk ("tables us"; `benchmarks/bench_mac.py` times the
successive table alone); and per `mac_assignments.json` text: the template
writer on the payload's columns against `json.dumps(..., sort_keys=True,
indent=2)` on the file's object, which gives the same bytes through the
pure-Python encoder ("write us"). It
runs on two channel sets:

- "pool": the 30 channels of the analysis-sweep workload
  (perfbench/workloads.py), each in the equivalent forms of seeds 0..3;
- "random": `--channels` random channels per user count, half with
  N(0, s^2) gains and real powers and half with small integer gains and
  powers, whose ties in ||F a||^2 exercise the tie-breaking.

At 5 and 6 users, above the search's user cap (`MAX_EXACT_USERS`), only
the random set's permutation stacks (120 and 720 candidates) are timed:
their variances need only the effective matrix.

A channel's time is the least of `--repeats` calls; the median is over
channels.  Searches that end in an error count too, and such a channel's
stack holds only the permutation matrices, and it is left out of the
"lu us" and "tables us" medians.

Usage: python3 benchmarks/bench_search.py [--channels N] [--repeats N]
"""

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from cfkit import cli, intsearch, mac_opt, regions
from cfkit.core import ChannelInstance, chained_variances, effective_matrix

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import channel_pool, equivalent_channel  # noqa: E402

USER_COUNTS = (2, 3, 4, 5, 6)


def pool_channels() -> list:
    out = []
    for seed in range(4):
        for i, (H, P) in enumerate(channel_pool()):
            H, P = equivalent_channel(H, P, np.random.default_rng([seed, 0, i]))
            out.append(ChannelInstance(H=H, P=P))
    return out


def random_channels(users: int, count: int) -> list:
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
        out.append(ch)
    return out


def search(F):
    try:
        return intsearch.dominant_solution(F)
    except RuntimeError:
        return None


def candidate_stack(ch) -> np.ndarray:
    """successive_mac_assignments' candidates: the permutation matrices, and
    the dominant solution when the search succeeds and it is unimodular."""
    L = ch.num_users
    out = [np.eye(L, dtype=int)[list(p)] for p in itertools.permutations(range(L))]
    if L <= intsearch.MAX_EXACT_USERS:
        dom = search(effective_matrix(ch))
        if dom is not None and intsearch.is_unimodular(dom.A_star):
            out.append(dom.A_star)
    return np.stack(out)


def points_per_call(channels: list) -> float:
    """Mean number of points _ellipsoid_points returns per search."""
    counts = []
    enumerate_points = intsearch._ellipsoid_points

    def counted(*args):
        points = enumerate_points(*args)
        counts.append(len(points))
        return points

    with mock.patch.object(intsearch, "_ellipsoid_points", counted):
        for ch in channels:
            search(effective_matrix(ch))
    return sum(counts) / len(channels)


def file_doc(payload: dict) -> dict:
    """The mac_assignments.json object of cli._mac_payload's columns."""
    fields = ("strategy", "A", "pi", "rates", "sum_rate", "gap")
    return {"assignments": [dict(zip(fields, row))
                            for row in zip(*(payload[key] for key in fields))],
            "sum_capacity": payload["sum_capacity"]}


def write_us(channels: list, repeats: int) -> str:
    """Median microseconds of the template writer on the channels'
    mac_assignments.json columns and of json.dumps on the same object,
    after checking their bytes agree."""
    payloads = [cli._mac_payload(ch) for ch in channels]
    docs = [file_doc(payload) for payload in payloads]
    for payload, doc in zip(payloads, docs):
        assert cli._mac_json(payload) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    template = median_us([lambda p=p: cli._mac_json(p) for p in payloads], repeats)
    dumps = median_us([lambda d=d: json.dumps(d, sort_keys=True, indent=2)
                       for d in docs], repeats)
    return f"{template:.0f}/{dumps:.0f}"


def mapping_us(channels: list, repeats: int) -> str:
    """Median microseconds of lu_mappings_all on the dominant solution and
    of both mac tables with the mappings recomputed, over the channels whose
    search succeeds."""
    channels = [ch for ch in channels if search(effective_matrix(ch)) is not None]

    def tables(ch):
        ch.__dict__.pop("_dominant_mappings", None)  # cached_property slot
        mac_opt.parallel_mac_assignments(ch)
        mac_opt.successive_mac_assignments(ch)

    lu = median_us([lambda A=ch._dominant_solution.A_star: regions.lu_mappings_all(A)
                    for ch in channels], repeats)
    both = median_us([lambda ch=ch: tables(ch) for ch in channels], repeats)
    return f"{lu:9.1f} {both:10.1f}"


def median_us(calls: list, repeats: int) -> float:
    """Median over calls of the least of `repeats` timings of each."""
    best = []
    for call in calls:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        best.append(min(times))
    return statistics.median(best) * 1e6


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--channels", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    pool = pool_channels()
    print(f"{'set':>7} {'users':>6} {'channels':>9} {'us/call':>9} {'points/call':>12} "
          f"{'candidates':>11} {'chained us':>11} {'lu us':>9} {'tables us':>10} "
          f"{'write us':>11}")
    for users in USER_COUNTS:
        sets = [("random", random_channels(users, args.channels))]
        if users <= intsearch.MAX_EXACT_USERS:
            sets.insert(0, ("pool", [ch for ch in pool if ch.num_users == users]))
        for name, channels in sets:
            stacks = [candidate_stack(ch) for ch in channels]
            chained = median_us([lambda ch=ch, S=S: chained_variances(ch, S)
                                 for ch, S in zip(channels, stacks)], args.repeats)
            if users <= intsearch.MAX_EXACT_USERS:
                us = median_us([lambda F=effective_matrix(ch): search(F) for ch in channels],
                               args.repeats)
                searched = f"{us:9.1f} {points_per_call(channels):12.1f}"
            else:
                searched = f"{'-':>9} {'-':>12}"
            if name == "pool":
                mapped = mapping_us(channels, args.repeats)
                written = write_us(channels, args.repeats)
            else:
                mapped, written = f"{'-':>9} {'-':>10}", "-"
            print(f"{name:>7} {users:>6} {len(channels):>9} {searched} "
                  f"{np.mean([len(S) for S in stacks]):11.1f} {chained:11.1f} "
                  f"{mapped} {written:>11}")


if __name__ == "__main__":
    main()
