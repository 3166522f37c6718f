"""Benchmark the nearest-codeword kernel, called two ways per table size.

The quantizer is the hot inner loop of the Monte-Carlo decoding chains (each
trial quantizes several times against tables of up to p^k_F codewords), so
this is the comparison that matters.  "one row" calls the kernel once per
query on the ensemble's prepared table, as the per-point helpers
(`lattice.nearest_point`) do; "blocks" hands all queries to
`lattice.nearest_points`, which slices them as the block trial engine does.
"us/query" gives both per query (one row / blocks).  Also cross-checks that
both return identical points, bit for bit.

Usage: python3 benchmarks/bench_quantizer.py [--samples N]
"""

import argparse
import time

import numpy as np

from cfkit import lattice
from cfkit._kernels import nearest_codeword_point


# (n, p, gamma, levels, seed) of each ensemble; its finest table has p^k_F
# rows of length n.  The last is the parallel benchmark campaign's ensemble,
# whose finest table has 7^5 = 16807 rows.
ENSEMBLES = [(4, 3, 4.0, [(0, 2)], 0), (6, 5, 4.0, [(0, 3)], 0), (8, 7, 4.0, [(0, 4)], 0),
             (10, 11, 4.0, [(0, 4)], 0), (8, 7, 7.0, [(0, 4), (1, 5)], 21)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    print(f"{'table':>14} {'n':>3} {'queries':>8} {'one row':>12} {'blocks':>12} "
          f"{'us/query':>17} {'speed-up':>9}")
    for n, p, gamma, levels, seed in ENSEMBLES:
        ens = lattice.build_ensemble(n, p, gamma, levels, seed=seed)
        k = ens.k_F
        table = ens.code_table(k)
        queries = rng.normal(size=(args.samples, n)) * gamma

        start = time.perf_counter()
        out_row = np.array([nearest_codeword_point(table, q, gamma) for q in queries])
        t_row = time.perf_counter() - start
        start = time.perf_counter()
        out_block = lattice.nearest_points(ens, "F", queries)
        t_block = time.perf_counter() - start

        assert out_block.tobytes() == out_row.tobytes(), "one-row and block points differ"
        per_query = f"{t_row / args.samples * 1e6:7.1f} / {t_block / args.samples * 1e6:7.1f}"
        print(f"{p}^{k} = {p ** k:>6} {n:>3} {args.samples:>8} {t_row * 1e3:9.1f} ms "
              f"{t_block * 1e3:9.1f} ms {per_query:>17} {t_row / t_block:8.1f}x")


if __name__ == "__main__":
    main()
