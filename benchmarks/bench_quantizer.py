"""Benchmark the nearest-codeword kernel, called two ways per table size.

The quantizer is the hot inner loop of the Monte-Carlo decoding chains (each
trial quantizes several times against tables of up to p^k_F codewords), so
this is the comparison that matters.  "one row" calls the kernel once per
query, as the per-point helpers (`lattice.nearest_point`) do; "blocks" hands
all queries to `lattice.nearest_points`, which slices them as the block trial
engine does.  Also cross-checks that both return identical points, bit for
bit.

Usage: python3 benchmarks/bench_quantizer.py [--samples N]
"""

import argparse
import time

import numpy as np

from cfkit import lattice
from cfkit._kernels import nearest_codeword_point


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    gamma = 4.0
    print(f"{'table':>14} {'queries':>8} {'one row':>12} {'blocks':>12} {'speed-up':>9}")
    for p, k, n in [(3, 2, 4), (5, 3, 6), (7, 4, 8), (11, 4, 10)]:
        ens = lattice.build_ensemble(n, p, gamma, [(0, k)], seed=0)
        shifts = ens.codeword_shifts(k)
        queries = rng.normal(size=(args.samples, n)) * gamma

        start = time.perf_counter()
        out_row = np.array([nearest_codeword_point(shifts, q, gamma) for q in queries])
        t_row = time.perf_counter() - start
        start = time.perf_counter()
        out_block = lattice.nearest_points(ens, "F", queries)
        t_block = time.perf_counter() - start

        assert out_block.tobytes() == out_row.tobytes(), "one-row and block points differ"
        print(f"{p}^{k} = {p ** k:>6} {args.samples:>8} {t_row * 1e3:9.1f} ms "
              f"{t_block * 1e3:9.1f} ms {t_row / t_block:8.1f}x")


if __name__ == "__main__":
    main()
