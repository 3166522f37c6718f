"""Benchmark the nearest-codeword kernel: compiled extension, numpy fallback,
and the batched numpy search over a block of queries.

The quantizer is the hot inner loop of the Monte-Carlo decoding chains (each
trial quantizes several times against tables of up to p^k_F codewords), so
this is the comparison that matters.  Also cross-checks that every column
returns identical points: the batched search must match the per-query numpy
search bit for bit.  The batched column slices its queries as
`lattice.nearest_points` does, at most MAX_CODEWORDS // (K n) per kernel call
for a K-row table of length-n rows.

Usage: python3 benchmarks/bench_quantizer.py [--samples N]
"""

import argparse
import itertools
import time

import numpy as np

from cfkit._kernels import _pyquant
from cfkit.lattice import MAX_CODEWORDS

try:
    from cfkit._kernels import _quant

    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False


def make_table(p, k, n, gamma, rng):
    V = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
    G = rng.integers(0, p, size=(k, n))
    return (gamma / p) * ((V @ G) % p).astype(np.float64)


def run(fn, shifts, queries, gamma):
    start = time.perf_counter()
    out = [fn(shifts, q, gamma) for q in queries]
    return time.perf_counter() - start, np.array(out)


def run_batched(shifts, queries, gamma):
    step = max(1, MAX_CODEWORDS // shifts.size)
    start = time.perf_counter()
    out = [_pyquant.nearest_codeword_points(shifts, queries[i:i + step], gamma)
           for i in range(0, len(queries), step)]
    return time.perf_counter() - start, np.concatenate(out)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    gamma = 4.0
    print(f"{'table':>14} {'queries':>8} {'numpy':>12} {'numpy batched':>14} "
          f"{'compiled':>12} {'batched/numpy':>14}")
    for p, k, n in [(3, 2, 4), (5, 3, 6), (7, 4, 8), (11, 4, 10)]:
        shifts = make_table(p, k, n, gamma, rng)
        queries = rng.normal(size=(args.samples, n)) * gamma
        t_py, out_py = run(_pyquant.nearest_codeword_point, shifts, queries, gamma)
        t_b, out_b = run_batched(shifts, queries, gamma)
        assert out_b.tobytes() == out_py.tobytes(), "batched and per-query points differ"
        if HAVE_COMPILED:
            t_c, out_c = run(_quant.nearest_codeword_point, shifts, queries, gamma)
            assert np.array_equal(out_py, out_c), "backends disagree"
            t_c_str = f"{t_c * 1e3:9.1f} ms"
        else:
            t_c_str = "   not built"
        print(f"{p}^{k} = {p ** k:>6} {args.samples:>8} {t_py * 1e3:9.1f} ms "
              f"{t_b * 1e3:11.1f} ms {t_c_str} {t_py / t_b:13.1f}x")
    if not HAVE_COMPILED:
        print("compiled kernel unavailable; run `pip install -e . "
              "--no-build-isolation` to build it")


if __name__ == "__main__":
    main()
