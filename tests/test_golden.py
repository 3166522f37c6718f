"""Byte identity of the command-line outputs: every golden round of the
benchmark's workloads at its golden seed, replayed through cfkit.cli.main,
must give the output digests recorded in perfbench/golden.json.

The workloads, the digest and the comparison are the benchmark's own
(perfbench/workloads.py and perfbench/run.py), imported read-only.
"""

import json
import sys
from pathlib import Path

import pytest

from cfkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import Runner  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_golden_rounds_byte_identical(name, tmp_path):
    runner = Runner(cli, WORKLOADS[name](), GOLDEN_SEED, tmp_path, GOLDEN[name])
    out = tmp_path / "out"
    out.mkdir()
    keys = set()
    for index in range(runner.workload.golden_rounds):
        for query in runner.workload.round(tmp_path, GOLDEN_SEED, index):
            assert query.golden
            runner.call(query, out)
            keys.add(query.key)
    assert runner.failures == []
    assert keys == set(GOLDEN[name])
    assert runner.attempted == {"sim-succ-small": 64, "sim-para-large": 64,
                                "analysis-sweep": 60}[name]
