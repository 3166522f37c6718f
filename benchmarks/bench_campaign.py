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

It then splits one block of each workload campaign, at the workload's own
two levels, into the stages run_campaign runs: one real
`simulator._block_pass` with `_draw_block`, `_encode_block` and
`_decode_block` wrapped.  It prints each stage's median ms per call, and
how many `lattice.nearest_points` (quantizer) and `lattice.linear_labels`
(labeling) calls the stage makes per block, counted in one untimed pass;
the counts do not depend on the seed or the host.

Last, it splits one `cfkit simulate` call on each workload config (a new
master seed per repeat, the file in a temporary directory) into the pieces
that `cli.cmd_simulate` runs once per call, and prints each piece's median
ms: the config read and ensemble (`cli._load_json` and
`cli._campaign_from`), `TrialConfig`, the first equalizer build (the
config's `level_equalizers`), the block stages (`run_campaign` with the
equalizers built), the report and CSV text
(`cli._report_files`) and the two file writes, each output unlinked before
the timed write, as perfbench/run.py does before every call.  It prints
the median of the whole `cli.main` call beside them.

Usage: python3 benchmarks/bench_campaign.py [--repeats N]
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from cfkit import cli, lattice, simulator
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


STAGES = ("_draw_block", "_encode_block", "_decode_block")


def stage_deltas(config: simulator.TrialConfig, trials: int, read) -> dict:
    """The first block of the config's campaign, one _block_pass with each
    stage wrapped: per stage, how much read() grows across its call."""
    out = {}

    def wrapped(stage, fn):
        def call(*args):
            before = read()
            result = fn(*args)
            out[stage] = read() - before
            return result
        return call

    with contextlib.ExitStack() as stack:
        for stage in STAGES:
            stack.enter_context(mock.patch.object(
                simulator, stage, wrapped(stage, getattr(simulator, stage))))
        simulator._block_pass(config, 0, min(trials, simulator.BLOCK_TRIALS))
    return out


def stage_calls(config: simulator.TrialConfig, trials: int) -> dict:
    """Per stage: its quantizer and labeling calls in one block."""
    counts = np.zeros(2, dtype=int)
    originals = (lattice.nearest_points, lattice.linear_labels)

    def counted(i):
        def call(*args):
            counts[i] += 1
            return originals[i](*args)
        return call

    lattice.nearest_points, lattice.linear_labels = counted(0), counted(1)
    try:
        return stage_deltas(config, trials, counts.copy)
    finally:
        lattice.nearest_points, lattice.linear_labels = originals


def time_stages(doc: dict, repeats: int) -> dict:
    """Per stage: median ms per call over the repeats, on one master seed
    each, and its quantizer and labeling calls per block."""
    ens = build_ensemble(**doc["ensemble"])
    calls = stage_calls(campaign(doc, ens, doc["noise_std"], repeats), doc["trials"])
    times = {stage: [] for stage in STAGES}
    for seed in range(repeats):
        config = campaign(doc, ens, doc["noise_std"], seed)
        for stage, t in stage_deltas(config, doc["trials"], time.perf_counter).items():
            times[stage].append(t)
    return {stage: (statistics.median(times[stage]) * 1e3, *calls[stage]) for stage in STAGES}


CALL_PIECES = ("config read and ensemble", "TrialConfig", "first equalizer build",
               "block stages", "report and CSV text", "two file writes")


def timed(times: list, fn, *args):
    """fn(*args), its seconds appended to times."""
    start = time.perf_counter()
    result = fn(*args)
    times.append(time.perf_counter() - start)
    return result


def call_pieces(path: Path, out: Path) -> list:
    """Seconds of each of CALL_PIECES in one simulate call on the config
    at path, writing into out."""
    times = []
    fields, trials = timed(times, lambda: cli._campaign_from(cli._load_json(str(path))))
    config = timed(times, lambda: simulator.TrialConfig(**fields))
    timed(times, lambda: config.level_equalizers)
    results = timed(times, simulator.run_campaign, config, trials)
    files = timed(times, cli._report_files, config, trials, results)
    for name in files:
        (out / name).unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        timed(times, lambda: [cli._write(out / name, text) for name, text in files.items()])
    return times


def time_call(doc: dict, repeats: int) -> tuple[list, float]:
    """Median ms of each of CALL_PIECES and of the whole cli.main call,
    over the repeats, on a new master seed each."""
    pieces, calls = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "campaign.json"
        for seed in range(repeats + 1):  # the first call warms up
            path.write_text(json.dumps(dict(doc, master_seed=seed)))
            split = call_pieces(path, tmp)
            for name in ("report.json", "report.csv"):
                (tmp / name).unlink()
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                assert cli.main(["simulate", "--config", str(path), "--out", str(tmp)]) == 0
                whole = time.perf_counter() - start
            if seed:
                pieces.append(split)
                calls.append(whole)
    return ([statistics.median(t) * 1e3 for t in zip(*pieces)],
            statistics.median(calls) * 1e3)


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
    print()
    print(f"{'campaign':>15} {'stage':>14} {'ms/call':>9} {'quantizer':>10} {'labels':>7}"
          f"   (one block at the workload's two levels; calls per block)")
    for name, doc, _ in SHAPES:
        for stage, (ms, quantizer, labels) in time_stages(doc, args.repeats).items():
            print(f"{name:>15} {stage:>14} {ms:9.3f} {quantizer:>10} {labels:>7}")
    print()
    print(f"{'campaign':>15} {'piece of a simulate call':>26} {'ms/call':>9}"
          f"   (the workload config, a new master seed per call)")
    for name, doc, _ in SHAPES:
        pieces, whole = time_call(doc, args.repeats)
        for piece, ms in zip(CALL_PIECES, pieces):
            print(f"{name:>15} {piece:>26} {ms:9.3f}")
        print(f"{name:>15} {'sum of the pieces':>26} {sum(pieces):9.3f}")
        print(f"{name:>15} {'cli.main call':>26} {whole:9.3f}")


if __name__ == "__main__":
    main()
