"""cfkit benchmark: drives ``cfkit.cli.main`` in process on one workload and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload sim-succ-small --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --compare before.txt after.txt
    python3 perfbench/run.py --write-golden

Run it from the repository root; it imports cfkit from ``src/`` and keeps its
scratch files in ``.perfbench_tmp/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from reference import Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 7


def load_cfkit():
    """Import cfkit from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cfkit.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import cfkit from {src}: {exc}")
    if Path(cfkit.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: cfkit was imported from {cfkit.__file__}, not {src}")
    return cfkit


def machine_facts(cfkit) -> dict:
    import numpy as np

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np),
            "backend": cfkit._kernels.backend_name()}


def _blas_threads(np) -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                return int(fn())
    return None


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()[:20]


class Runner:
    """Runs queries through cfkit.cli.main and applies the correctness gate."""

    def __init__(self, cli, workload, seed: int, tmp: Path, golden: dict | None,
                 reference: Reference | None = None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.golden = golden
        self.attempted = 0
        self.failures = []
        self.reference = reference  # timed after every call when given

    def call(self, query, out: Path):
        """One operation: (seconds inside cli.main, digest or None on failure)."""
        self.attempted += 1
        for name in query.outputs:
            (out / name).unlink(missing_ok=True)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(query.argv + ["--out", str(out)])
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if self.reference is not None:
            self.reference.run()
        if rc != 0:
            return self._fail(query, f"exit {rc}: {sink.getvalue().strip()[-200:]}", elapsed)
        try:
            files = {name: (out / name).read_bytes() for name in query.outputs}
        except OSError as exc:
            return self._fail(query, f"missing output: {exc}", elapsed)
        dig = digest(files)
        if self.golden is not None and query.golden:
            want = self.golden[query.key]
            error = None if want == dig else f"digest {dig} != golden {want}"
        else:
            error = query.check(files)
        if error:
            return self._fail(query, error, elapsed)
        return elapsed, dig

    def _fail(self, query, why, elapsed):
        self.failures.append(f"{query.key}: {why}")
        return elapsed, None


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under .perfbench_tmp/ with out/ and out_traced/,
    removed on exit together with .perfbench_tmp/ once that is empty."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=base))
    try:
        (tmp / "out").mkdir()
        (tmp / "out_traced").mkdir()
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # not empty: another run is using it
            pass


def setup_once(workload_name: str, seed: int, probe_dir: Path) -> float:
    """Wall time of a fresh process that starts Python, imports cfkit and
    builds the workload's first inputs (see probe() in workloads.py)."""
    probe_dir.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-probe", str(probe_dir)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()[-400:]}")
    return elapsed


def setup_probe(workload, seed: int, probe_dir: Path) -> int:
    cfkit = load_cfkit()
    for argv in workload.probe(probe_dir, seed):
        with redirect_stdout(io.StringIO()):
            rc = cfkit.cli.main(argv + ["--out", str(probe_dir)])
        if rc != 0:
            print(f"error: set-up probe exited {rc}", file=sys.stderr)
            return 1
    return 0


def percentile(values, q: int) -> float:
    """q-th percentile (1 <= q <= 99) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_plain(runner: Runner, seconds: float) -> dict:
    """Untraced rounds until the time is up; end-to-end metrics.

    The machine's speed drifts by up to 2x within seconds (other tenants), so
    each call's time is scaled to the machine's nominal speed, measured by
    the reference parts timed around it (see reference.py), and every figure is a
    median: throughput from the median round, latency percentiles over each
    distinct query's median time, and set-up over SETUP_REPEATS probes spread
    over the run, each scaled by all reference parts timed around it.
    """
    wl = runner.workload
    out = runner.tmp / "out"
    calls = []  # (round, query key, seconds inside cli.main)
    setups = []  # (calls made before the probe, seconds)
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS and \
                time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append((len(calls), setup_once(wl.name, runner.seed,
                                                  runner.tmp / f"setup_{len(setups)}")))
        for query in wl.round(runner.tmp, runner.seed, rounds):
            calls.append((rounds, query.key, runner.call(query, out)[0]))
        rounds += 1
    while len(setups) < SETUP_REPEATS:
        setups.append((len(calls), setup_once(wl.name, runner.seed,
                                              runner.tmp / f"setup_{len(setups)}")))
    ref = runner.reference
    around = ref.local_speeds()
    raw, _ = _summary(wl, calls, [1.0] * len(calls), statistics.median(t for _, t in setups))
    metrics, above = _summary(wl, calls, ref.local_speeds(wl.reference_parts),
                              statistics.median(t * around[max(0, i - 1)] for i, t in setups))
    print(f"{wl.name}: {rounds} rounds of {wl.units_per_round} {wl.unit}, "
          f"{len(calls)} calls on {len({key for _, key, _ in calls})} distinct queries, "
          f"{above} calls on queries above p90")
    print(f"machine speed {ref.speed(wl.reference_parts):.4f} of nominal "
          f"({ref.speed():.4f} over all reference parts); unscaled: " + ", ".join(
        f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
    return metrics


def _summary(wl, calls, speeds, setup_s) -> tuple[dict, int]:
    """End-to-end figures from per-call times scaled by the given speeds,
    and the number of calls on queries above the 90th percentile."""
    by_key = {}
    round_busy = {}
    for (rnd, key, elapsed), speed in zip(calls, speeds, strict=True):
        by_key.setdefault(key, []).append(elapsed * speed)
        round_busy[rnd] = round_busy.get(rnd, 0.0) + elapsed * speed
    latencies = [statistics.median(v) for v in by_key.values()]
    p90 = percentile(latencies, 90)
    above = sum(len(v) for v in by_key.values() if statistics.median(v) > p90)
    return {
        "throughput_per_s": (wl.units_per_round / statistics.median(round_busy.values()), "1/s"),
        "call_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "call_ms_p90": (1e3 * p90, "ms"),
        "setup_s": (setup_s, "s"),
    }, above


def run_traced(runner: Runner, seconds: float) -> dict:
    """Each call runs untraced, then traced on the same inputs; the two
    must write identical files.  Layer figures are per round."""
    from spans import TABLE_SIZES, Tracer

    wl = runner.workload
    tracer = Tracer()
    plain_s = traced_s = traced_wall = 0.0
    queries = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for query in wl.round(runner.tmp, runner.seed, rounds):
            elapsed, want = runner.call(query, runner.tmp / "out")
            plain_s += elapsed
            with tracer:
                begin = time.perf_counter()
                elapsed, got = runner.call(query, runner.tmp / "out_traced")
                traced_wall += time.perf_counter() - begin
            traced_s += elapsed
            queries += 1
            if want is not None and got is not None and got != want:
                runner.failures.append(f"{query.key}: traced digest {got} != untraced {want}")
        rounds += 1
    print(f"{wl.name}: {rounds} traced rounds, {queries} traced calls, "
          f"{len(tracer.stats)} spans wrapped at {tracer.bindings} bindings")

    metrics = {}
    for name, st in sorted(tracer.stats.items()):
        metrics[f"{name}.calls"] = (st.calls / rounds, "count")
        metrics[f"{name}.self_s"] = (st.self_s / rounds, "s")
    kernel = tracer.stats["kernels.nearest_codeword_point"]
    rows = sum(tracer.rows_by_size.values())
    metrics["kernels.nearest_codeword_point.rows_scanned"] = (rows / rounds, "count")
    metrics["kernels.nearest_codeword_point.bytes_computed"] = (
        sum(tracer.bytes_by_size.values()) / rounds, "B")
    metrics["kernels.nearest_codeword_point.ns_per_row"] = (
        1e9 * kernel.self_s / rows if rows else 0.0, "ns")
    for size in TABLE_SIZES:
        base = f"kernels.nearest_codeword_point.t{size}"
        metrics[f"{base}.calls"] = (tracer.calls_by_size.get(size, 0) / rounds, "count")
        metrics[f"{base}.rows_scanned"] = (tracer.rows_by_size.get(size, 0) / rounds, "count")
        metrics[f"{base}.bytes_computed"] = (
            tracer.bytes_by_size.get(size, 0) / rounds, "B")
    for name in ("core.effective_matrix", "intsearch.dominant_solution"):
        metrics[f"{name}.calls_per_query"] = (tracer.stats[name].calls / queries, "count")
    mac = tracer.stats["mac_opt.successive_mac_assignment"]
    metrics["mac_opt.successive_mac_assignment.accepted_frac"] = (
        tracer.mac_accepted / mac.calls if mac.calls else 0.0, "ratio")
    metrics["unattributed_s"] = ((traced_wall - tracer.spans_self_s()) / rounds, "s")
    metrics["trace_overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    return metrics


def run(args) -> int:
    from workloads import GOLDEN_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        return setup_probe(workload, args.seed, Path(args.setup_probe))
    cfkit = load_cfkit()
    golden = None
    if args.seed == GOLDEN_SEED:
        golden = json.loads(GOLDEN.read_text())[args.workload]
    with scratch_dir(args.workload) as tmp:
        facts = machine_facts(cfkit)
        print("machine: " + json.dumps(facts, sort_keys=True))
        runner = Runner(cfkit.cli, workload, args.seed, tmp, golden,
                        None if args.trace else Reference())
        if args.trace:
            metrics = run_traced(runner, args.seconds)
        else:
            metrics = run_plain(runner, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print(f"FAILED {line}")
    print(f"op_fail_frac {failed / runner.attempted:.6f} ({failed}/{runner.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in sorted(metrics.items())}}))
    return 0


def write_golden() -> int:
    """Record this commit's output digests for GOLDEN_SEED."""
    from workloads import GOLDEN_SEED, WORKLOADS

    cfkit = load_cfkit()
    golden = {}
    with scratch_dir("golden") as tmp:
        for name, make in WORKLOADS.items():
            runner = Runner(cfkit.cli, make(), GOLDEN_SEED, tmp, None)
            entries = {}
            for index in range(runner.workload.golden_rounds):
                for query in runner.workload.round(tmp, GOLDEN_SEED, index):
                    entries[query.key] = runner.call(query, tmp / "out")[1]
            if runner.failures:
                raise SystemExit(f"error: {name}: {runner.failures[:5]}")
            golden[name] = entries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Side-by-side metrics of two saved outputs of this script."""
    results = []
    for path in (path_a, path_b):
        lines = Path(path).read_text().strip().split("\n")
        facts = next((json.loads(ln[len("machine: "):]) for ln in lines
                      if ln.startswith("machine: ")), None)
        if facts is None:
            raise SystemExit(f"error: {path} has no machine line")
        results.append((facts, json.loads(lines[-1])))
    (fa, ra), (fb, rb) = results
    if fa["backend"] != fb["backend"]:
        print(f"error: refusing to compare quantizer backends {fa['backend']!r} "
              f"and {fb['backend']!r}", file=sys.stderr)
        return 2
    for key in sorted(set(fa) | set(fb)):
        if fa.get(key) != fb.get(key):
            print(f"note: {key} differs: {fa.get(key)!r} vs {fb.get(key)!r}")
    print(f"{'metric':<52} {'A':>14} {'B':>14} {'B/A':>8}")
    for name in sorted(set(ra["metrics"]) & set(rb["metrics"])):
        a = ra["metrics"][name]["value"]
        b = rb["metrics"][name]["value"]
        ratio = f"{b / a:8.3f}" if a else "       -"
        print(f"{name:<52} {a:>14.6g} {b:>14.6g} {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.write_golden:
        return write_golden()
    if not args.workload:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
