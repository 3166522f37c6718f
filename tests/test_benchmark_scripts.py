"""Each script under benchmarks/ runs to its end at its smallest arguments,
in a subprocess of its own with the tree's src on PYTHONPATH.  This checks
that the scripts still call the library as it is, not what they measure.

The timing scripts must exit 0.  ab_bytes.py compares the working tree with
its last commit: it must print its summary line and exit 0 (no difference)
or 1 (differences, each printed), which is its finding, not a fault of the
script; an uncommitted change that alters bytes on purpose gives 1."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _in_git_checkout() -> bool:
    return shutil.which("git") is not None and subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
        capture_output=True, check=False).returncode == 0


def _run(argv: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
                          check=False)


@pytest.mark.parametrize("argv", [
    ["bench_campaign.py", "--repeats", "2"],
    ["bench_mac.py", "--repeats", "1", "--draws", "1"],
    ["bench_quantizer.py", "--samples", "20"],
    ["bench_search.py", "--channels", "1", "--repeats", "1"],
], ids=lambda argv: argv[0].removesuffix(".py"))
def test_timing_script_runs(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.skipif(not _in_git_checkout(), reason="ab_bytes.py unpacks a commit of a git checkout")
def test_ab_bytes_runs():
    proc = _run(["ab_bytes.py", "HEAD", "1"])
    assert proc.returncode in (0, 1) and "12 jobs against HEAD" in proc.stdout, \
        proc.stdout[-2000:] + proc.stderr[-2000:]
