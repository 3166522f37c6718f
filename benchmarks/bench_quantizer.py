"""Benchmark the nearest-codeword kernel per table size, query kind and path.

The quantizer is the hot inner loop of the Monte-Carlo decoding chains (each
trial quantizes several times against tables of up to p^k_F codewords), so
this is the comparison that matters.  For each ensemble's finest table it
times, in microseconds per query:

- "one row": one kernel call per query on the prepared table, as the
  per-point helpers (`lattice.nearest_point`) make;
- "pairs" and "tree": all queries through `lattice.nearest_points`, which
  slices them as the block trial engine does, with stage 2 forced onto the
  pair lookups and onto the implicit-tree search (`_kernels.TRIE_MIN_ROWS`
  set to the table's row count plus one, or to 0, for the run).

"nodes" is the tree nodes the search keeps per query over all its passes,
and "path" the one the kernel takes on that table.  Two query kinds:
"decode" queries are random lattice points plus N(0, (0.2 gamma/p)^2) noise
per coordinate, like the equalized channel outputs a decoder quantizes;
"uniform" queries are uniform over [0, gamma)^n, like the dithers an encoder
reduces.  All paths must return the same points, bit for bit.

Usage: python3 benchmarks/bench_quantizer.py [--samples N]
"""

import argparse
import time

import numpy as np

from cfkit import _kernels, lattice
from cfkit._kernels import nearest_codeword_point


# (n, p, gamma, levels, seed) of each ensemble; its finest table has p^k_F
# rows of length n.  The last is the parallel benchmark campaign's ensemble,
# whose finest table has 7^5 = 16807 rows.
ENSEMBLES = [(4, 3, 4.0, [(0, 2)], 0), (6, 7, 7.0, [(0, 2)], 0), (6, 5, 4.0, [(0, 3)], 0),
             (6, 7, 7.0, [(0, 3)], 0), (8, 3, 3.0, [(0, 6)], 0), (8, 11, 11.0, [(0, 3)], 0),
             (6, 13, 13.0, [(0, 3)], 0), (8, 7, 4.0, [(0, 4)], 0), (10, 11, 4.0, [(0, 4)], 0),
             (8, 7, 7.0, [(0, 4), (1, 5)], 21)]


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def blocks(ens, queries, tree_min_rows):
    saved = _kernels.TRIE_MIN_ROWS
    _kernels.TRIE_MIN_ROWS = tree_min_rows
    try:
        return timed(lambda: lattice.nearest_points(ens, "F", queries))
    finally:
        _kernels.TRIE_MIN_ROWS = saved


def tree_nodes(table, queries, gamma, step=64):
    tol = _kernels.TIE_REL * max(1.0, gamma * gamma)
    nodes = 0
    for i in range(0, len(queries), step):
        _, diffs = _kernels._round(table.values, queries[i:i + step], gamma, tol)
        nodes += _kernels._tree_shortlist(table, diffs * diffs, gamma, tol)[2]
    return nodes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=2000)
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    print(f"{'table':>14} {'n':>3} {'queries':>8} {'one row':>9} {'pairs':>9} {'tree':>9} "
          f"{'nodes':>8} {'path':>6}   (us/query)")
    for n, p, gamma, levels, seed in ENSEMBLES:
        ens = lattice.build_ensemble(n, p, gamma, levels, seed=seed)
        k = ens.k_F
        table = ens.code_table(k)
        rows = table.shape[0]
        # the pair lookups' index, built outside the timed calls; the tree
        # search reads none of it
        _ = table.pairs
        points = table.shifts[rng.integers(0, rows, args.samples)]
        points = points + gamma * rng.integers(-2, 3, size=points.shape)
        kinds = {"decode": points + rng.normal(size=points.shape) * 0.2 * gamma / p,
                 "uniform": rng.random((args.samples, n)) * gamma}
        for kind, queries in kinds.items():
            out_row, t_row = timed(lambda: np.array(
                [nearest_codeword_point(table, q, gamma) for q in queries]))
            out_pairs, t_pairs = blocks(ens, queries, rows + 1)
            out_tree, t_tree = blocks(ens, queries, 0)
            assert out_pairs.tobytes() == out_row.tobytes(), "one-row and pair points differ"
            assert out_tree.tobytes() == out_row.tobytes(), "pair and tree points differ"
            nodes = tree_nodes(table, queries, gamma) / args.samples
            path = "tree" if rows >= _kernels.TRIE_MIN_ROWS else "pairs"
            us = [t / args.samples * 1e6 for t in (t_row, t_pairs, t_tree)]
            print(f"{p}^{k} = {rows:>6} {n:>3} {kind:>8} {us[0]:9.1f} {us[1]:9.1f} {us[2]:9.1f} "
                  f"{nodes:8.1f} {path:>6}")


if __name__ == "__main__":
    main()
