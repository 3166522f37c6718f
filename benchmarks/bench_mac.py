"""Benchmark `cfkit mac`'s successive table and the array scorer behind it.

`mac_opt.successive_mac_assignments` scores every user permutation matrix
(L! candidates) and the dominant solution's pivot orders in one
`mac_opt._score` call on their stack.  This prints two tables:

- "table": per user count, the median microseconds of one
  `successive_mac_assignments` call over the 40 2-4-user pool channels of
  the analysis-sweep workload (perfbench/workloads.py, equivalent forms of
  seeds 0..3), with the mean candidate rows scored per call.  Each timed
  call runs on a new `ChannelInstance` that carries what the channel has
  cached once its parallel table is built (effective matrix, dominant
  solution, its mappings and the sum capacity): the state in which a
  `cfkit mac` call reaches its successive table;
- "scorer": `_score` alone on the stack of the L! user permutation
  matrices, L = 2 to 6 (2 to 720 candidates), on `--draws` random channels
  (real chained variances, so accepted rows reach the sum capacity), with
  the fraction of rows accepted; next to it the other per-call step of a
  permutation-only table, one `core.chained_variances` call on the stack,
  and the one-off cost of building the stack's arrays
  (`_permutation_candidates`, cached per user count).  5 and 6 users lie
  above the search's cap (`MAX_EXACT_USERS`), so no mac table runs there
  yet; these columns size its successive candidates.

A time is the least of `--repeats` calls; the median is over channels (or
over `--draws` random draws for the scorer).

Usage: python3 benchmarks/bench_mac.py [--repeats N] [--draws N]
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from cfkit import mac_opt
from cfkit.core import ChannelInstance, chained_variances

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import channel_pool, equivalent_channel  # noqa: E402


def pool_channels(users: int) -> list:
    out = []
    for seed in range(4):
        for i, (H, P) in enumerate(channel_pool()):
            if H.shape[1] == users:
                H, P = equivalent_channel(H, P, np.random.default_rng([seed, 0, i]))
                out.append(ChannelInstance(H=H, P=P))
    return out


def least_us(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return min(times) * 1e6


def table_us(channels: list, repeats: int) -> tuple[float, float]:
    """Median microseconds of successive_mac_assignments over the channels
    whose search succeeds, and the mean candidate rows per call."""
    times, rows = [], []
    for ch in channels:
        try:
            mac_opt.parallel_mac_assignments(ch)
        except RuntimeError:  # search exhausted
            continue
        shared = {name: value for name, value in vars(ch).items() if name not in ("H", "P")}

        def call(ch=ch, shared=shared):
            fresh = ChannelInstance(H=ch.H, P=ch.P)
            fresh.__dict__.update(shared)
            start = time.perf_counter()
            mac_opt.successive_mac_assignments(fresh)
            return time.perf_counter() - start

        times.append(min(call() for _ in range(repeats)) * 1e6)
        L = ch.num_users
        dominant = mac_opt.intsearch.is_unimodular(shared["_dominant_solution"].A_star)
        rows.append(math.factorial(L) + dominant * len(shared["_dominant_mappings"]))
    return statistics.median(times), float(np.mean(rows))


def scorer_row(users: int, draws: int, repeats: int) -> str:
    """Median microseconds over random channels of _score on the user
    permutation stack, with the fraction of rows it accepts, and of the
    other per-call step of a permutation-only table, one chained_variances
    call on the stack; then the one-off cost of building the stack's arrays
    (cached per user count after the first call)."""
    rng = np.random.default_rng(users)
    stack, support, steps, _mappings = mac_opt._permutation_candidates(users)
    scored, chained, accepted = [], [], []
    for _ in range(draws):
        ch = ChannelInstance(H=rng.normal(size=(int(rng.integers(1, users + 1)), users)) * 2,
                             P=rng.uniform(0.5, 9.0, size=users))
        variances = chained_variances(ch, stack)
        scored.append(least_us(lambda: mac_opt._score(ch.P, variances, support, steps),
                               repeats))
        chained.append(least_us(lambda: chained_variances(ch, stack), repeats))
        accepted.append(mac_opt._score(ch.P, variances, support, steps).ok.mean())
    build = least_us(lambda: mac_opt._permutation_candidates.__wrapped__(users), repeats)
    return (f"{'scorer':>7} {users:>6} {len(stack):>11} {statistics.median(scored):10.1f} "
            f"{np.mean(accepted):9.2f} {statistics.median(chained):11.1f} {build:10.1f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--draws", type=int, default=20)
    args = ap.parse_args()
    print(f"{'set':>7} {'users':>6} {'channels':>9} {'rows/call':>10} {'table us':>9}")
    for users in (2, 3, 4):
        channels = pool_channels(users)
        us, rows = table_us(channels, args.repeats)
        print(f"{'table':>7} {users:>6} {len(channels):>9} {rows:10.1f} {us:9.1f}")
    print(f"{'set':>7} {'users':>6} {'candidates':>11} {'scorer us':>10} "
          f"{'accepted':>9} {'chained us':>11} {'arrays us':>10}")
    for users in (2, 3, 4, 5, 6):
        print(scorer_row(users, args.draws, args.repeats))


if __name__ == "__main__":
    main()
