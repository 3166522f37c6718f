"""The nearest-codeword search, the hot kernel of the decoding chains.

Given the shifted codeword table S (one row per codeword, already scaled by
gamma/p), the lattice is the union of the cosets S[k] + gamma * Z^n.  The
nearest point to x is found per coset by componentwise rounding, then across
cosets by squared distance.  Ties break to the lexicographically smallest
coordinate vector: within a coset, a coordinate takes the smaller of its two
nearest grid values when their squared offsets agree within tol; across
cosets, candidates within tol of the best distance are compared
lexicographically (tol = TIE_REL max(1, gamma^2)).

Every entry of a Construction-A table is one of p values (gamma/p) r, and
the rounding of a coordinate depends only on the query coordinate and that
value (Conway and Sloane's coordinatewise quantizer).  The kernel therefore
runs in three stages over a CodeTable, the table with its entries replaced
by indices into its m distinct values:

1. per coordinate and value, the rounded coordinate and its squared offset,
   an n x m x B grid for B queries (a one-row table stops here);
2. per query, a shortlist of rows whose summed offsets lie within a
   relative 1e-9 plus 2 tol of the smallest such sum.  A sum of n
   nonnegative terms moves by about n eps relative when summed in another
   order, so every row that the exact scan counts as best or tied is on it.
   The sums come one of two ways, chosen by the table's row count:
   - below TRIE_MIN_ROWS rows, pair lookups: per pair of coordinates, the
     m^2 sums of two offsets, looked up through one K-row index per pair,
     n/2 gathers per query instead of a K x n scan;
   - from TRIE_MIN_ROWS rows on, an exact branch-and-bound over the table's
     trie (Agrell, Eriksson, Vardy and Zeger, "Closest point search in
     lattices", IEEE Trans. IT 2002), level by level over the whole block.
     A node's cost is the sum of its coordinates' offsets; its bound adds
     each remaining coordinate's smallest offset.  Where nodes branch,
     children whose bound exceeds the query's threshold are dropped; below
     the last branching level each node has one leaf, which is costed.  The
     threshold starts at the root's bound plus (gamma/m)^2; a query whose
     leaves do not show that it covered the shortlist margin is searched
     again with a larger one;
3. a query with one shortlisted row takes that row's coordinates from
   stage 1; one with several reruns the scan's arithmetic (row-wise einsum
   distance, tol, lexicographic pass) on them.

The output is bitwise that of the full scan, which computes every candidate
in a B x K x n buffer and which the tests keep as their oracle.  There is
one kernel, nearest_codeword_points, over a block of queries;
nearest_codeword_point is its one-row view.
"""

from typing import NamedTuple

import numpy as np

TIE_REL = 1e-12

# Tables of at least this many rows take stage 2's trie search, smaller ones
# the pair lookups.  In blocks on a 2-core Xeon (benchmarks/bench_quantizer.py)
# the trie is 4 to 11 times faster on decode-like queries from 2197 rows up,
# and on queries uniform over the cube from about 3 times slower (14641 rows,
# n = 10) to about 2.7 times faster (16807 rows).  Below that the pair
# lookups cost at most about 14 us per query, and the trie loses up to about
# 5 times on uniform queries (1331 rows).
TRIE_MIN_ROWS = 2000

# Relative slack of the trie's threshold over the shortlist margin: far
# above the n eps by which the bound of a node and the cost of a row below it
# can round apart.
_SLACK = 1e-12

# Kept for result files that record which quantizer produced them.
BACKEND = "python"


def backend_name() -> str:
    return BACKEND


class Trie(NamedTuple):
    """The distinct rows of a CodeTable as a trie over its columns in
    `CodeTable.order`.

    Depth t holds one node per distinct t-prefix of the reordered rows, in
    lexicographic order.  In `levels[t] = (cells, first)`, `cells[i]` is the
    stage-1 cell of node i at depth t + 1 in column order[t], and the
    children of node i at depth t are the nodes first[i] .. first[i+1] - 1
    at depth t + 1; `first` is None where every node has one child, which
    then has the node's own index.  `leaves[i]` is a table row of leaf i
    (duplicate rows share a leaf).  Every array is read-only.
    """

    levels: tuple
    leaves: np.ndarray


class CodeTable:
    """A K x n shift table prepared for the kernel.

    Entry (k, j) is value `values[c]`; `cells[k, j]` = j m + c is its cell in
    stage 1's n x m grid of rounded coordinates.  Stage 2 reads `pairs` on
    tables of fewer than TRIE_MIN_ROWS rows and `trie` on larger ones.
    `pairs[g]` is each row's cell in the G x m x m grid of summed squared
    offsets of coordinates 2g and 2g + 1 (an odd last coordinate pairs with
    a zero-cost pad), in the smallest unsigned type that holds it.  `trie`
    branches over the columns in `order` (the identity by default); with an
    information set first, its levels past the code's dimension have one
    child per node.  `pairs`, `trie` and the float table `shifts` are built
    on first access.  Every array is read-only.
    """

    __slots__ = ("shape", "values", "cells", "order", "_pairs", "_trie", "_shifts")

    def __init__(self, codes, values, order=None):
        values = np.ascontiguousarray(values, dtype=np.float64)
        codes = np.asarray(codes)
        K, n = codes.shape
        m = values.shape[0]
        cells = codes.astype(np.min_scalar_type(n * m - 1))
        cells += (m * np.arange(n)).astype(cells.dtype)
        self.shape = (K, n)
        self.values = values
        self.cells = cells
        self.order = np.arange(n) if order is None else np.array(order, dtype=np.intp)
        self._pairs = self._trie = self._shifts = None
        for a in (self.values, self.cells, self.order):
            a.setflags(write=False)

    @classmethod
    def from_shifts(cls, shifts) -> "CodeTable":
        """Prepare any float table; values are told apart by their bits."""
        shifts = np.ascontiguousarray(shifts, dtype=np.float64)
        bits, codes = np.unique(shifts.view(np.int64), return_inverse=True)
        return cls(codes.reshape(shifts.shape), bits.view(np.float64))

    def _codes(self) -> np.ndarray:
        m = self.values.shape[0]
        return self.cells - (m * np.arange(self.shape[1])).astype(self.cells.dtype)

    @property
    def pairs(self) -> np.ndarray:
        if self._pairs is None:
            K, n = self.shape
            m = self.values.shape[0]
            groups = (n + 1) // 2
            index = np.min_scalar_type(groups * m * m - 1)
            padded = np.zeros((2 * groups, K), dtype=index)
            padded[:n] = self._codes().T
            pairs = padded[0::2] * m
            pairs += padded[1::2]
            pairs += (m * m * np.arange(groups, dtype=index))[:, None]
            pairs.setflags(write=False)
            self._pairs = pairs
        return self._pairs

    @property
    def trie(self) -> Trie:
        """Built in O(K n): one stable sort of the reordered rows, then per
        level the rows that start a node and each node's first child."""
        if self._trie is None:
            K, n = self.shape
            order = self.order
            cols = self.cells.T[order]
            rows = np.lexsort(cols[::-1])
            cols = np.take(cols, rows, axis=1)
            # fresh[t, i]: sorted row i starts a node at depth t + 1
            fresh = np.empty((n, K), dtype=bool)
            fresh[:, 0] = True
            np.not_equal(cols[:, 1:], cols[:, :-1], out=fresh[:, 1:])
            starts = np.zeros(1, dtype=np.intp)
            levels = []
            for t in range(n):
                first = None
                if starts.size < K:
                    if t:
                        fresh[t] |= fresh[t - 1]
                    below = np.flatnonzero(fresh[t])
                    if below.size > starts.size:
                        first = np.append(np.searchsorted(below, starts), below.size)
                        first.setflags(write=False)
                    starts = below
                cells = cols[t] if starts.size == K else cols[t, starts]
                cells.setflags(write=False)
                levels.append((cells, first))
            leaves = rows[starts]
            leaves.setflags(write=False)
            self._trie = Trie(tuple(levels), leaves)
        return self._trie

    @property
    def shifts(self) -> np.ndarray:
        """The K x n float table, entry (k, j) = values[cells[k, j] - j m]."""
        if self._shifts is None:
            self._shifts = self.values[self._codes()]
            self._shifts.setflags(write=False)
        return self._shifts


def _round(values: np.ndarray, X: np.ndarray, gamma: float, tol: float):
    """Stage 1, n x m x B: s + gamma * ceil((x - s) / gamma - 0.5) per
    coordinate and value, in the scan's float operations, and its offset
    from the query coordinate."""
    x = X.T[:, None, :]
    values = values[:, None]
    steps = np.subtract(x, values)
    steps /= gamma
    steps -= 0.5
    np.ceil(steps, out=steps)
    cands = steps * gamma
    cands += values
    diffs = cands - x
    # ceil can land one step above a midpoint; step down where the lower
    # neighbour is as near within tol, (d - gamma)^2 <= d^2 + tol for the
    # offset d, so the smaller coordinate wins
    midpoint = gamma / 2 - tol / (2 * gamma)
    if diffs.max() >= midpoint:
        steps -= diffs >= midpoint
        cands = steps * gamma
        cands += values
        diffs = cands - x
    return cands, diffs


def _pair_shortlist(table: CodeTable, sq: np.ndarray, tol: float):
    """Stage 2 by pair lookups: each query's first shortlisted row, and a
    (query, rows) pair for each query with several, rows as a K-row mask."""
    n, m, B = sq.shape
    pairs = table.pairs
    if n % 2:
        sq = np.concatenate([sq, np.zeros((1, m, B))])
    # the lookups gather rows of B floats, the reductions run along rows of K
    pair_sq = (sq[0::2, :, None] + sq[1::2, None, :]).reshape(len(pairs) * m * m, B)
    approx = np.take(pair_sq, pairs[0], axis=0)
    for index in pairs[1:]:
        approx += np.take(pair_sq, index, axis=0)
    approx = np.ascontiguousarray(approx.T)
    bound = np.minimum.reduce(approx, axis=1)
    bound *= 1 + 1e-9
    bound += 2 * tol
    shortlist = approx <= bound[:, None]
    several = ()
    if np.count_nonzero(shortlist) > B:
        several = [(b, shortlist[b]) for b in np.flatnonzero(shortlist.sum(axis=1) > 1)]
    return shortlist.argmax(axis=1), several


def _descend(trie: Trie, sq: np.ndarray, floors: np.ndarray, limit: np.ndarray,
             queries: np.ndarray):
    """One branch-and-bound pass over the trie for the sorted `queries`.

    `sq` is stage 1's n m x B grid of squared offsets.  Where a node has
    several children, a child of query b is kept while its cost plus
    floors[t + 1, b], the least cost of the coordinates below it, is at
    most the threshold limit[b].  Below the last such level each node has
    one leaf, whose cost the pass computes whatever the threshold.  Returns
    the leaves reached as (query, leaf, cost) arrays grouped by query, and
    the number of nodes kept on the way.
    """
    B = sq.shape[1]
    sq = sq.ravel()
    q = queries
    node = np.zeros(q.size, dtype=np.intp)
    cost = np.zeros(q.size)
    kept = 0
    for t, (cells, first) in enumerate(trie.levels):
        if first is not None:
            lo = first[node]
            count = first[node + 1] - lo
            parent = np.repeat(np.arange(node.size), count)
            node = np.repeat(lo - np.cumsum(count) + count, count)
            node += np.arange(parent.size)
            q, cost = q[parent], cost[parent]
        index = np.multiply(cells[node], B, dtype=np.intp)
        index += q
        cost = cost + sq[index]
        if first is not None and t + 1 < len(trie.levels):
            keep = cost + floors[t + 1, q] <= limit[q]
            q, node, cost = q[keep], node[keep], cost[keep]
        kept += q.size
    return q, node, cost, kept


def _trie_shortlist(table: CodeTable, sq: np.ndarray, gamma: float, tol: float):
    """Stage 2 by the trie search: as _pair_shortlist, with rows as an index
    array, plus the number of trie nodes the search kept over all its
    passes."""
    n, m, B = sq.shape
    trie = table.trie
    # floors[t]: the least cost of the coordinates order[t:]
    floors = np.zeros((n + 1, B))
    floors[:n] = np.cumsum(sq.min(axis=1)[table.order[::-1]], axis=0)[::-1]
    sq = sq.reshape(n * m, B)
    margin = np.full(B, (gamma / m) ** 2)
    limit = floors[0] + margin
    upper = np.full(B, np.inf)
    # a query with a non-finite coordinate has NaN offsets, shortlists
    # nothing and takes row 0, as in the scan
    pending = np.flatnonzero(limit == limit)
    found_q, found_leaf, kept = [], [], 0
    while pending.size:
        q, leaf, cost, count = _descend(trie, sq, floors, limit, pending)
        kept += count
        best = np.full(B, np.inf)
        np.minimum.at(best, q, cost)
        bound = best * (1 + 1e-9)
        bound += 2 * tol
        # every row within `bound` was reached when `need`, the bound with
        # slack, is inside the threshold; the best leaf reached is then the
        # best row
        need = bound * (1 + _SLACK)
        covered = need <= limit
        keep = covered[q] & (cost <= bound[q])
        found_q.append(q[keep])
        found_leaf.append(leaf[keep])
        pending = pending[~covered[pending]]
        # a threshold of `need` covers a leaf it reached; short of that,
        # the margin grows
        np.minimum(upper, need, out=upper)
        margin[pending] *= 4
        limit[pending] = np.minimum(upper[pending], floors[0, pending] + margin[pending])
    q, rows = np.concatenate(found_q), trie.leaves[np.concatenate(found_leaf)]
    if len(found_q) > 1:
        by_query = np.argsort(q, kind="stable")
        q, rows = q[by_query], rows[by_query]
    counts = np.bincount(q, minlength=B)
    starts = np.cumsum(counts) - counts
    first = np.zeros(B, dtype=np.intp)
    first[counts > 0] = rows[starts[counts > 0]]
    several = [(b, rows[starts[b]:starts[b] + counts[b]]) for b in np.flatnonzero(counts > 1)]
    return first, several, kept


def nearest_codeword_points(shifts, X: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to each row of the B x n query block X.

    `shifts` is a CodeTable or a K x n float table (prepared on each call).
    Each row's point depends only on that row, so a block gives the same
    bits as one call per row.  The pair lookups' largest temporaries are
    K x B; the trie search's are its surviving nodes, at most K per query
    and level.  lattice.nearest_points bounds their size.
    """
    table = shifts if isinstance(shifts, CodeTable) else CodeTable.from_shifts(shifts)
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, n = X.shape
    tol = TIE_REL * max(1.0, gamma * gamma)
    cands, diffs = _round(table.values, X, gamma, tol)
    if table.shape[0] == 1:
        # one coset, so stage 1 holds the point
        return np.ascontiguousarray(cands.reshape(-1, B)[table.cells[0]].T)

    sq = diffs * diffs
    if table.shape[0] < TRIE_MIN_ROWS:
        first, several = _pair_shortlist(table, sq, tol)
    else:
        first, several, _ = _trie_shortlist(table, sq, gamma, tol)

    # stage 3: a lone shortlisted row is the answer; several are re-checked
    # with the scan's arithmetic
    out = np.take(cands, np.multiply(table.cells[first], B, dtype=np.intp)
                  + np.arange(B)[:, None])
    if several:
        cands, diffs = cands.reshape(-1, B), diffs.reshape(-1, B)
    for b, rows in several:
        cells = table.cells[rows]
        offsets = diffs[cells, b]
        d2 = np.einsum("ij,ij->i", offsets, offsets)
        points = cands[cells[d2 <= d2.min() + tol], b]
        out[b] = points[np.lexsort(points.T[::-1])[0]]
    return out


def nearest_codeword_point(shifts, x: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to the length-n query x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return nearest_codeword_points(shifts, x[None], gamma)[0]
