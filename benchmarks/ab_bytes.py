"""Byte differential of `cfkit simulate`, `verify`, `search`, `mac` and
`region`: a local commit against the working tree.

The commit REV is unpacked by `git archive` into a temporary directory
(`__pycache__` removed); nothing is downloaded.  Each tree's
`cfkit.cli.main` then runs in a subprocess of its own, with that tree's
`src` on PYTHONPATH, over the same jobs:

- COUNT seeded random `simulate` configs: both modes, 1-3 users, p in
  {2, 3, 5, 7}, n 2-8, users with k_C,l > 0 and zero-width users
  (k_C,l = k_F,l), 1-3 rows of A and antennas, a scalar noise_std or 1-3
  levels, and trial counts on both sides of the 128-trial block edge.  A
  successive config maps each row to the users it combines, at times with
  one pair of a later row left out, so that some configs need a Z_p
  cancellation and some exit 2.  About one config in ten (one successive
  config in five) adds a pair that names no row or no user of A, which
  keeps the refusal of such a pair in the differential.  About one
  parallel config in three carries a mapping too, A's nonzero support,
  with a pair outside A in one of those in four: parallel decoding uses
  no mapping but must refuse such a pair.  These mappings come from a
  generator of their own, so that the other configs keep their draws;
- `verify --suite all` at seeds 0-3;
- COUNT seeded random channels, each run through `search`, `mac` and
  `region --mode para|succ|asc|mac|sic`: 1-4 users, 1-3 antennas, and
  normal, small-integer or six-decade (10^-3 .. 10^3) gains and powers.
  Each channel carries an integer A of 1-L rows for the three A modes,
  and no mapping (every pair), its nonzero support, or that support less
  one pair of a later row, so that some are not admissible.  About one
  channel in ten (one with a mapping in seven) adds a pair outside A, which
  `region --mode para|succ|asc` must refuse.  Some `search` runs take an
  integer `--bound`.  `region --mode compound` is left out:
  its files print floats in full, whose last bits depend on the host's
  BLAS kernel.

Every job runs from the same relative paths in both trees, so the two runs
can be compared byte for byte: each file it writes, stdout, stderr and the
exit code.  A traceback counts as an outcome; its file paths are shown
relative to the tree.  The script prints each difference and exits 1 if
there is any, 0 otherwise.

Usage: python3 benchmarks/ab_bytes.py REV [COUNT]   (COUNT defaults to 200)
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MAX_CODEWORDS = 20000
TRIALS = (1, 2, 50, 127, 128, 129, 200, 255, 256, 257, 300)
REGION_MODES = ("para", "succ", "asc", "mac", "sic")

# Runs in each tree's subprocess: argv lists from one JSON file in, one
# [exit code, stdout, stderr] per job out.
RUNNER = r"""
import contextlib, io, json, sys, traceback
from cfkit.cli import main
jobs = json.load(open(sys.argv[1]))
out = []
for argv in jobs:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "traceback"
            traceback.print_exc()
    out.append([code, stdout.getvalue(), stderr.getvalue().replace(sys.argv[3], "<tree>")])
json.dump(out, open(sys.argv[2], "w"))
"""


def _levels(rng, kf: int) -> list:
    """1-3 users' [k_C,l, k_F,l], the first at k_F, with zero-width users
    and users above k_C,l = 0 about as often as not."""
    users = []
    for _ in range(int(rng.integers(1, 4))):
        top = kf if not users else int(rng.integers(0, kf + 1))
        low = top if rng.random() < 0.2 else int(rng.integers(0, top + 1))
        users.append([low, top])
    rng.shuffle(users)
    return users


def _outside_pair(rng, M: int, L: int) -> list:
    """A mapping pair [m, l] that names no row or no user of an M x L A:
    a row or a user of 0, or one past the last."""
    m, l = int(rng.integers(1, M + 1)), int(rng.integers(1, L + 1))
    return [[0, l], [m, 0], [M + 1, l], [m, L + 1]][int(rng.integers(0, 4))]


def campaign(rng, maps) -> dict:
    """One random simulate config; `maps` draws the mapping of a parallel
    config."""
    p = int(rng.choice([2, 3, 5, 7]))
    n = int(rng.integers(2, 9))
    cap = MAX_CODEWORDS if rng.random() < 0.1 else 3000
    kf = int(rng.integers(1, min(n, 6, int(np.log(cap) / np.log(p))) + 1))
    levels = _levels(rng, kf)
    L, M, antennas = len(levels), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    A = rng.integers(-2, 3, size=(M, L))
    mode = str(rng.choice(["parallel", "successive"]))
    doc = {
        "ensemble": {"n": n, "p": p, "gamma": float(p) if rng.random() < 0.5
                     else round(float(rng.uniform(1.0, 10.0)), 3),
                     "levels": levels, "seed": int(rng.integers(0, 1000))},
        "H": np.round(rng.normal(size=(antennas, L)) * 1.5, 3).tolist(),
        "P": np.round(rng.uniform(0.5, 4.0, size=L), 3).tolist(),
        "A": A.tolist(), "mode": mode,
        "trials": int(rng.choice(TRIALS)) if rng.random() < 0.6 else int(rng.integers(1, 301)),
        "master_seed": int(rng.integers(0, 2 ** 32)),
    }
    noise = np.round(rng.uniform(0.01, 1.0, size=int(rng.integers(1, 4))), 3).tolist()
    doc["noise_std"] = noise[0] if rng.random() < 0.25 else noise
    if mode == "successive":
        for m in np.flatnonzero(~A.any(axis=1)):
            A[m, rng.integers(0, L)] = 1
        doc["A"] = A.tolist()
        pairs = [[m + 1, l + 1] for m in range(M) for l in range(L) if A[m, l]]
        later = [i for i, (m, _) in enumerate(pairs) if m > 1]
        if later and rng.random() < 0.5:
            pairs.pop(int(rng.choice(later)))
        if rng.random() < 0.2:
            pairs.append(_outside_pair(rng, M, L))
        doc["mapping"] = pairs
    elif maps.random() < 1 / 3:
        pairs = [[m + 1, l + 1] for m in range(M) for l in range(L) if A[m, l]]
        if maps.random() < 0.25:
            pairs.append(_outside_pair(maps, M, L))
        doc["mapping"] = pairs
    return doc


def channel(rng) -> dict:
    """One random channel input for search, mac and region."""
    L, antennas = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    family = int(rng.integers(0, 3))
    if family == 0:  # normal gains
        H = rng.normal(size=(antennas, L)) * rng.uniform(0.3, 3.0)
        P = rng.uniform(0.3, 10.0, size=L)
    elif family == 1:  # small integers: exact ties in the searches
        H = rng.integers(-3, 4, size=(antennas, L))
        P = rng.integers(1, 10, size=L)
    else:  # six decades
        H = rng.normal(size=(antennas, L)) * 10.0 ** rng.uniform(-3, 3, size=(antennas, L))
        P = 10.0 ** rng.uniform(-3, 3, size=L)
    A = rng.integers(-2, 3, size=(int(rng.integers(1, L + 1)), L))
    doc = {"H": H.tolist(), "P": P.tolist(), "A": A.tolist()}
    kind = int(rng.integers(0, 3))
    if kind:
        pairs = [[m + 1, l + 1] for m in range(A.shape[0]) for l in range(L) if A[m, l]]
        later = [i for i, (m, _) in enumerate(pairs) if m > 1]
        if kind == 2 and later:
            pairs.pop(int(rng.choice(later)))
        if rng.random() < 0.15:
            pairs.append(_outside_pair(rng, *A.shape))
        doc["mapping"] = pairs
    return doc


def jobs(count: int) -> tuple[dict, list]:
    """Input file name -> text, and the argv of every job."""
    rng, maps = np.random.default_rng(20260), np.random.default_rng(20262)
    files, argvs = {}, []
    for i in range(count):
        name = f"configs/{i:04d}.json"
        files[name] = json.dumps(campaign(rng, maps))
        argvs.append(["simulate", "--config", name, "--out", f"out/{i:04d}"])
    argvs += [["verify", "--suite", "all", "--seed", str(seed)] for seed in range(4)]
    rng = np.random.default_rng(20261)
    for i in range(count):
        name = f"channels/{i:04d}.json"
        files[name] = json.dumps(channel(rng))
        bound = ["--bound", str(int(rng.integers(1, 6)))] if rng.random() < 0.2 else []
        argvs.append(["search", "--input", name, *bound, "--out", f"search/{i:04d}"])
        argvs.append(["mac", "--input", name, "--out", f"mac/{i:04d}"])
        argvs += [["region", "--input", name, "--mode", mode, "--out", f"region-{mode}/{i:04d}"]
                  for mode in REGION_MODES]
    return files, argvs


def unpack(rev: str, dest: Path) -> Path:
    """`git archive` of the local commit rev, unpacked into dest."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    for cache in dest.rglob("__pycache__"):
        shutil.rmtree(cache)
    return dest


def start(tree: Path, work: Path, files: dict, argvs: list) -> subprocess.Popen:
    """Write the configs under work and start the tree's run of every job."""
    for name, text in files.items():
        (work / name).parent.mkdir(parents=True, exist_ok=True)
        (work / name).write_text(text)
    (work / "jobs.json").write_text(json.dumps(argvs))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("CFKIT_OUTDIR", None)
    return subprocess.Popen([sys.executable, "-c", RUNNER, "jobs.json", "results.json",
                             str(tree)], cwd=work, env=env)


def outputs(work: Path, argv: list) -> dict:
    """File name -> bytes of what a job wrote into its --out directory."""
    if "--out" not in argv or not (work / argv[-1]).is_dir():
        return {}
    return {f.name: f.read_bytes() for f in sorted((work / argv[-1]).iterdir())}


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    count = int(argv[1]) if len(argv) == 2 else 200
    files, argvs = jobs(count)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = unpack(argv[0], tmp / "base")
        works = [tmp / "work-base", tmp / "work-tree"]
        runs = [start(tree, work, files, argvs) for tree, work in zip((base, ROOT), works)]
        if any([run.wait() for run in runs]):
            print("a run failed to finish", file=sys.stderr)
            return 2
        results = [json.loads((work / "results.json").read_text()) for work in works]
        differences, codes = 0, {}
        for i, (job, left, right) in enumerate(zip(argvs, *results)):
            what = f"job {i} ({' '.join(job[:-2] if '--out' in job else job)})"
            command = " ".join(job[:1] + job[job.index("--mode"):][:2] if "--mode" in job
                               else job[:1])
            tally = codes.setdefault(command, {})
            tally[str(left[0])] = tally.get(str(left[0]), 0) + 1
            for label, a, b in zip(("exit code", "stdout", "stderr"), left, right):
                if a != b:
                    differences += 1
                    print(f"{what}: {label} differs: {a!r} against {b!r}"[:400])
            files_a, files_b = (outputs(work, job) for work in works)
            for name in sorted(set(files_a) | set(files_b)):
                if files_a.get(name) != files_b.get(name):
                    differences += 1
                    print(f"{what}: {name} differs")
    print(f"{len(argvs)} jobs against {argv[0]}, its exit codes per command: "
          f"{ {c: dict(sorted(t.items())) for c, t in sorted(codes.items())} }; "
          f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
