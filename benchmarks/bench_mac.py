"""Benchmark `cfkit mac`'s successive table, the array scorer behind it and
the output path from the tables to the file.

`mac_opt.successive_mac_assignments` scores every user permutation matrix
(L! candidates) and the dominant solution's pivot orders in one
`mac_opt._score` call on their stack.  This prints three tables:

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
  yet; these columns size its successive candidates;
- "output": the path from the tables to the file.  On the pool (2-4
  users), per channel in the state above, one `cli._mac_payload` call
  (both tables, every printed value rounded in one `core.rounded` call)
  plus one `cli._mac_json` call on its columns, with the mean rows
  written.  On the 5- and 6-user permutation stacks of the "scorer"
  draws (120 and 720 candidates), the steps after `_score` that a table
  of that size would take: the dedup keys (`_first_rows`, rates rounded
  to 10 digits), the printed values (`core.rounded` to 6 digits of the
  kept rows' rates, sums and gaps) and the file (`cli._mac_json` of
  those rows as the columns of a successive table).

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

from cfkit import cli, mac_opt
from cfkit.core import ChannelInstance, chained_variances, rounded, sum_capacity

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


def cached_states(channels: list) -> list:
    """(channel, what it caches once its parallel table is built) for the
    channels whose search succeeds."""
    out = []
    for ch in channels:
        try:
            mac_opt.parallel_mac_assignments(ch)
        except RuntimeError:  # search exhausted
            continue
        out.append((ch, {name: value for name, value in vars(ch).items()
                         if name not in ("H", "P")}))
    return out


def fresh_us(ch, shared: dict, fn, repeats: int) -> float:
    """Least microseconds of fn on a new ChannelInstance of ch carrying
    the shared state."""
    def call():
        fresh = ChannelInstance(H=ch.H, P=ch.P)
        fresh.__dict__.update(shared)
        start = time.perf_counter()
        fn(fresh)
        return time.perf_counter() - start

    return min(call() for _ in range(repeats)) * 1e6


def table_us(channels: list, repeats: int) -> tuple[float, float]:
    """Median microseconds of successive_mac_assignments over the channels
    whose search succeeds, and the mean candidate rows per call."""
    times, rows = [], []
    for ch, shared in cached_states(channels):
        times.append(fresh_us(ch, shared, mac_opt.successive_mac_assignments, repeats))
        L = ch.num_users
        dominant = mac_opt.intsearch.is_unimodular(shared["_dominant_solution"].A_star)
        rows.append(math.factorial(L) + dominant * len(shared["_dominant_mappings"]))
    return statistics.median(times), float(np.mean(rows))


def output_us(channels: list, repeats: int) -> tuple[float, float]:
    """Median microseconds of _mac_payload plus _mac_json over the channels
    whose search succeeds, and the mean rows written per call."""
    times, rows = [], []
    for ch, shared in cached_states(channels):
        times.append(fresh_us(ch, shared, lambda c: cli._mac_json(cli._mac_payload(c)),
                              repeats))
        rows.append(len(cli._mac_payload(ch)["strategy"]))
    return statistics.median(times), float(np.mean(rows))


def output_row(users: int, draws: int, repeats: int) -> str:
    """Median microseconds over random channels of the output steps a
    successive table of the user permutation stack would take after
    _score: its dedup keys, its printed values and its file, with the mean
    rows kept."""
    rng = np.random.default_rng(users)
    stack, support, steps, _mappings = mac_opt._permutation_candidates(users)
    keyed, printed, written, kept = [], [], [], []
    for _ in range(draws):
        ch = ChannelInstance(H=rng.normal(size=(int(rng.integers(1, users + 1)), users)) * 2,
                             P=rng.uniform(0.5, 9.0, size=users))
        scores = mac_opt._score(ch.P, chained_variances(ch, stack), support, steps)
        accepted = scores.ok.nonzero()[0]
        rates = scores.rates[accepted]
        keep = accepted[mac_opt._first_rows(rates, 10)]
        cap = sum_capacity(ch)
        sums = scores.sums[keep]
        values = np.concatenate([scores.rates[keep].ravel(), sums, cap - sums, [cap]])
        K = len(keep)
        shown = rounded(values, 6)
        totals = shown[K * users:].tolist()
        payload = {"strategy": ["successive"] * K, "A": stack[keep].tolist(),
                   "pi": steps[keep].tolist(),
                   "rates": shown[:K * users].reshape(K, users).tolist(),
                   "sum_rate": totals[:K], "gap": totals[K:-1], "sum_capacity": totals[-1]}
        keyed.append(least_us(lambda: mac_opt._first_rows(rates, 10), repeats))
        printed.append(least_us(lambda: rounded(values, 6), repeats))
        written.append(least_us(lambda: cli._mac_json(payload), repeats))
        kept.append(K)
    return (f"{'stack':>7} {users:>6} {len(stack):>11} {np.mean(kept):9.1f} "
            f"{statistics.median(keyed):8.1f} {statistics.median(printed):8.1f} "
            f"{statistics.median(written):8.1f}")


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
    print(f"{'set':>7} {'users':>6} {'channels':>9} {'rows/call':>10} {'output us':>10}")
    for users in (2, 3, 4):
        us, rows = output_us(pool_channels(users), args.repeats)
        print(f"{'output':>7} {users:>6} {len(pool_channels(users)):>9} {rows:10.1f} {us:10.1f}")
    print(f"{'set':>7} {'users':>6} {'candidates':>11} {'kept':>9} {'keys us':>8} "
          f"{'round us':>8} {'file us':>8}")
    for users in (5, 6):
        print(output_row(users, args.draws, args.repeats))


if __name__ == "__main__":
    main()
