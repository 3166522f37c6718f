"""Benchmark one run_campaign call per campaign shape and noise-level count.

A campaign draws and encodes each block of trials once and decodes it at all
of its noise levels in one pass, so an added level should cost much less than
a campaign of its own.  For the two campaign shapes of the benchmark
workloads (perfbench/workloads.py: the README successive campaign and the
parallel campaign on the 7^5 = 16807-row table) this times one
`simulator.run_campaign` call at 1, 2 and 4 noise levels, in milliseconds
per call, and prints the marginal cost of each added level,
(t(C) - t(1)) / (C - 1).  The first two levels are the workload's own; the
other two lie between them.

Each repeat times the three level counts back to back on a new master seed,
so that a drift in the host's speed moves them alike; a count's time is the
median over the repeats.

Usage: python3 benchmarks/bench_campaign.py [--repeats N]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from cfkit import simulator
from cfkit.core import ChannelInstance
from cfkit.lattice import build_ensemble

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SIM_PARA, SIM_SUCC  # noqa: E402

# (name, workload config, its four noise levels)
SHAPES = [("sim-succ-small", SIM_SUCC, [0.5, 0.05, 0.2, 0.1]),
          ("sim-para-large", SIM_PARA, [0.3, 0.1, 0.2, 0.15])]
LEVEL_COUNTS = (1, 2, 4)


def campaign(doc: dict, ens, levels: list, master_seed: int) -> simulator.TrialConfig:
    """The workload's campaign at the given levels, as one config."""
    mapping = doc.get("mapping")
    return simulator.TrialConfig(
        ensemble=ens, ch=ChannelInstance(H=doc["H"], P=doc["P"]), A=np.array(doc["A"]),
        mode=doc["mode"], mapping=None if mapping is None else frozenset(map(tuple, mapping)),
        noise_std=levels, master_seed=master_seed)


def time_counts(doc: dict, levels: list, repeats: int) -> list:
    """Median ms of one run_campaign call per level count.  The ensemble
    and its code tables are built before the timed calls."""
    ens = build_ensemble(**doc["ensemble"])
    simulator.run_campaign(campaign(doc, ens, levels, repeats), doc["trials"])
    times = [[] for _ in LEVEL_COUNTS]
    for seed in range(repeats):
        for out, count in zip(times, LEVEL_COUNTS):
            config = campaign(doc, ens, levels[:count], seed)
            start = time.perf_counter()
            simulator.run_campaign(config, doc["trials"])
            out.append(time.perf_counter() - start)
    return [statistics.median(t) * 1e3 for t in times]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=100)
    args = ap.parse_args()
    print(f"{'campaign':>15} {'trials':>7} {'levels':>7} {'ms/call':>9} {'ms/level':>9} "
          f"{'added':>9}   (added: ms per level past the first)")
    for name, doc, levels in SHAPES:
        ms = time_counts(doc, levels, args.repeats)
        for count, t in zip(LEVEL_COUNTS, ms):
            added = f"{(t - ms[0]) / (count - 1):9.3f}" if count > 1 else f"{'-':>9}"
            print(f"{name:>15} {doc['trials']:>7} {count:>7} {t:9.3f} {t / count:9.3f} {added}")


if __name__ == "__main__":
    main()
