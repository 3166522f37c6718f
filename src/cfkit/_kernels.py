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
runs in three stages over a CodeTable, the code of a generator G over Z_p,
which names entry (k, j) by its cell j m + c: its column j and its index c
among the m distinct values:

1. per coordinate and value, the rounded coordinate and its squared offset,
   an n x m x B grid for B queries.  A one-row table rounds each query
   coordinate against its row's entry instead, B x n, and stops there;
2. per query, a shortlist of codewords whose summed offsets lie within a
   relative 1e-9 plus 2 tol of the smallest such sum.  A sum of n
   nonnegative terms moves by about n eps relative when summed in another
   order, so every row that the exact scan counts as best or tied is on it.
   The sums come one of two ways:
   - on tables of fewer than TRIE_MIN_ROWS rows, direct gathers: each
     row's sum adds the n offsets that its cells name in the grid, n
     gathers of K x B per block instead of a B x K x n scan;
   - from TRIE_MIN_ROWS rows on, an exact branch-and-bound (Agrell,
     Eriksson, Vardy and Zeger, "Closest point search in lattices", IEEE
     Trans. IT 2002) over an implicit tree, level by level over the whole
     block.  The tree's first k levels are the pivot columns of G's reduced
     row echelon form, an information set: every node there has p
     children, one per symbol.  Below them each node has one leaf, whose
     other columns are its pivot symbols times the RREF columns outside the
     pivots, mod p.  A node's cost is the sum of its
     coordinates' offsets; its bound adds each remaining coordinate's
     smallest offset.  Children whose bound exceeds the query's threshold
     are dropped; the leaves below the last branching level are costed.
     The threshold starts at the root's bound plus (gamma/m)^2 + 4 tol; a
     query whose leaves do not show that it covered the shortlist margin
     is searched again with a larger one.  Neither the K x n table nor a
     tree is built;
3. a query with one shortlisted codeword takes its coordinates from stage
   1; one with several reruns the scan's arithmetic (row-wise einsum
   distance, tol, lexicographic pass) on them.

The output is bitwise that of the full scan, which computes every candidate
in a B x K x n buffer and which the tests keep as their oracle.  There is
one kernel, nearest_codeword_points, over a block of queries;
nearest_codeword_point is its one-row view.
"""

import numpy as np

TIE_REL = 1e-12

# Code tables of at least this many rows take stage 2's tree search, smaller
# ones the direct gathers.  In blocks on a 2-core Xeon (two runs of
# benchmarks/bench_quantizer.py --samples 1000) the tree search is 6 to 20
# times faster on decode-like queries from 2197 rows up, and on queries
# uniform over the cube from about 1.5 times slower (14641 rows, n = 10) to
# about 4 times faster (16807 rows).  Below that the direct gathers cost at
# most about 14 us per query.  The tree search is faster on decode-like
# queries from 729 rows up (about 3.5 times at 1331 rows), but up to about
# 4 times slower on uniform ones (1331 rows).
TRIE_MIN_ROWS = 2000

# Relative slack of the tree search's threshold over the shortlist margin:
# far above the n eps by which the bound of a node and the cost of a leaf
# below it can round apart.
_SLACK = 1e-12

# Kept for result files that record which quantizer produced them.
BACKEND = "python"


def backend_name() -> str:
    return BACKEND


class CodeTable:
    """The codewords of a k x n `generator` of rank k over Z_p, scaled by
    gamma/p, prepared for the kernel.

    Its m values are (gamma/p) r for the symbols r (so m = p when k > 0,
    and the one value 0 when k = 0), and its K = p^k rows are in message
    order: row v is (v generator mod p) for the message vectors v in
    lexicographic order, the last symbol fastest.  Entry (k, j) is value
    `values[c]`; `cells[k, j]` = j m + c is its cell in stage 1's n x m
    grid of rounded coordinates, in the smallest unsigned type that holds
    it.  The table also keeps `order`, the pivot columns of the generator's
    reduced row echelon form R followed by the other columns, and `lift`,
    k x p x n: lift[t, s] is s R[t] mod p.  The codeword with symbols u in
    the pivot columns is u R mod p, the sum of lift[t, u[t]] over t, mod p.
    Stage 2's tree search reads only these.  `cells` and the float table
    `shifts` are built on first access.  Every array is read-only.
    """

    __slots__ = ("shape", "values", "generator", "order", "lift", "_cells", "_shifts")

    def __init__(self, generator, p: int, gamma: float, echelon):
        """The table of `generator` over Z_p at gamma, whose reduced row
        echelon form `echelon` gives as the (rref, pivots) of
        _zp.rref_mod_p.  The echelon must span the generator's rows and hold
        the identity in its k pivot columns."""
        G = np.array(generator, dtype=np.int64) % p
        k, n = G.shape
        m = p if k else 1
        self.values = (gamma / p) * np.arange(m, dtype=np.float64)
        rref, pivots = echelon
        if len(pivots) != k:
            raise ValueError("generator does not have full row rank mod p")
        pivots = list(pivots)
        R = np.array(rref, dtype=np.int64).reshape(k, n)
        if not (np.array_equal(R[:, pivots], np.eye(k, dtype=np.int64))
                and np.array_equal(G[:, pivots] @ R % p, G)):
            raise ValueError("echelon is not the generator's reduced row echelon form")
        self.shape = (p ** k, n)
        self.generator = G
        self.order = np.array(pivots + [j for j in range(n) if j not in pivots],
                              dtype=np.intp)
        # a sum of k entries of lift stays in its type
        lift = np.arange(p)[:, None] * R.reshape(k, 1, n) % p
        self.lift = lift.astype(np.min_scalar_type(k * (p - 1)))
        for a in (self.values, self.generator, self.order, self.lift):
            a.setflags(write=False)
        self._cells = self._shifts = None

    @property
    def cells(self) -> np.ndarray:
        if self._cells is None:
            # message symbols from first to last: each row of the generator
            # adds its p multiples to every codeword so far, so the last
            # symbol runs fastest; a sum of two symbols stays below 2p <= 26
            n = self.shape[1]
            p = self.values.shape[0]
            C = np.zeros((1, n), dtype=np.uint8)
            for g in self.generator:
                steps = ((np.arange(p)[:, None] * g) % p).astype(np.uint8)
                C = (C[:, None, :] + steps).reshape(-1, n)
                C -= (C >= p) * np.uint8(p)
            cells = C.astype(np.min_scalar_type(n * p - 1))
            cells += (p * np.arange(n)).astype(cells.dtype)
            cells.setflags(write=False)
            self._cells = cells
        return self._cells

    @property
    def shifts(self) -> np.ndarray:
        """The K x n float table, entry (k, j) = values[cells[k, j] - j m]."""
        if self._shifts is None:
            m = self.values.shape[0]
            self._shifts = self.values[self.cells - m * np.arange(self.shape[1])]
            self._shifts.setflags(write=False)
        return self._shifts


def _round(values: np.ndarray, x: np.ndarray, gamma: float, tol: float):
    """s + gamma * ceil((x - s) / gamma - 0.5) for the values s and query
    coordinates x, broadcast against each other, in the scan's float
    operations, and its offset from the query coordinate.  Each entry
    depends only on its s and x.  Stage 1 passes the m values as m x 1 and
    the B x n queries as n x 1 x B, for its n x m x B grid; a one-coset
    table passes its row, n, against the queries as they lie."""
    steps = np.subtract(x, values)
    steps /= gamma
    steps -= 0.5
    np.ceil(steps, out=steps)
    cands = steps * gamma
    cands += values
    diffs = cands - x
    # ceil can land one step above a midpoint; step down where the lower
    # neighbour is as near within tol, (d - gamma)^2 <= d^2 + tol for the
    # offset d, so the smaller coordinate wins.  The test skips the NaN
    # offsets of non-finite queries, which step nowhere, so that they do
    # not hide the other queries' steps
    midpoint = gamma / 2 - tol / (2 * gamma)
    if np.fmax.reduce(diffs, axis=None, initial=-np.inf) >= midpoint:
        steps -= diffs >= midpoint
        cands = steps * gamma
        cands += values
        diffs = cands - x
    return cands, diffs


def _gather_shortlist(table: CodeTable, sq: np.ndarray, tol: float):
    """Stage 2 by direct gathers: the cells of each query's first
    shortlisted row, and a (query, cells) pair for each query with several."""
    n, m, B = sq.shape
    cells = table.cells
    # the gathers read rows of B floats, the reductions run along rows of K
    sq = sq.reshape(n * m, B)
    approx = np.take(sq, cells[:, 0], axis=0)
    for j in range(1, n):
        approx += np.take(sq, cells[:, j], axis=0)
    approx = np.ascontiguousarray(approx.T)
    bound = np.minimum.reduce(approx, axis=1)
    bound *= 1 + 1e-9
    bound += 2 * tol
    shortlist = approx <= bound[:, None]
    several = ()
    # every query shortlists a row but those with a NaN bound (a non-finite
    # coordinate), which shortlist none
    if np.count_nonzero(shortlist) > np.count_nonzero(bound == bound):
        several = [(b, cells[shortlist[b]])
                   for b in np.flatnonzero(shortlist.sum(axis=1) > 1)]
    return cells[shortlist.argmax(axis=1)], several


def _walk(table: CodeTable, sq: np.ndarray, floors: np.ndarray, limit: np.ndarray,
          queries: np.ndarray):
    """One branch-and-bound pass over the implicit tree for the sorted
    `queries`.

    `sq` is stage 1's B x n x m grid of squared offsets.  At depth t < k a
    node of query b has p children, one per symbol s of column order[t]; a
    child is kept while its cost plus floors[t + 1, b], the least cost of
    the columns below it, is at most the threshold limit[b] (the last
    column of a table with k = n is costed whatever the threshold).  Each
    node carries the sum of lift[t, s] along its path, so that at depth k,
    mod p, it holds its leaf's codeword.  The leaf's cost adds the offsets
    of the forced columns in column order.  Returns the leaves reached as
    (query, codeword, cost) arrays grouped by query, and the number of
    nodes kept on the way, one per node and level.
    """
    k, n = table.lift.shape[0], table.shape[1]
    p = table.values.shape[0]
    order, lift = table.order, table.lift
    q = queries
    cost = np.zeros(q.size)
    codes = np.zeros((q.size, n), dtype=lift.dtype)
    kept = 0
    for t in range(k):
        cost = cost[:, None] + sq[q, order[t]]
        if t + 1 < n:
            keep = cost + floors[t + 1, q][:, None] <= limit[q][:, None]
        else:
            keep = np.ones(cost.shape, dtype=bool)
        parent, symbol = np.nonzero(keep)
        q, cost = q[parent], cost[keep]
        codes = codes[parent] + lift[t, symbol]
        kept += q.size
    codes %= p
    for j in order[k:]:
        cost = cost + sq[q, j, codes[:, j]]
    kept += (n - k) * q.size
    return q, codes, cost, kept


def _tree_shortlist(table: CodeTable, sq: np.ndarray, gamma: float, tol: float):
    """Stage 2 by the tree search: as _gather_shortlist, plus the number of
    tree nodes the search kept over all its passes."""
    n, m, B = sq.shape
    # floors[t]: the least cost of the columns order[t:]
    floors = np.zeros((n + 1, B))
    floors[:n] = np.cumsum(sq.min(axis=1)[table.order[::-1]], axis=0)[::-1]
    sq = np.ascontiguousarray(sq.transpose(2, 0, 1))
    # the shortlist's own 2 tol margin is in from the first pass: below
    # gamma = 1, tol is 1e-12 whatever gamma, and a margin of (gamma/m)^2
    # alone would take up to about 500 passes to grow past it (forever
    # once it underflows to 0)
    margin = np.full(B, (gamma / m) ** 2 + 4 * tol)
    limit = floors[0] + margin
    upper = np.full(B, np.inf)
    # a query with a non-finite coordinate has NaN offsets, shortlists
    # nothing and takes row 0, the zero codeword, as in the scan; a block of
    # such queries walks no pass
    pending = np.flatnonzero(limit == limit)
    found_q, found, kept = [pending[:0]], [], 0
    while pending.size:
        q, codes, cost, count = _walk(table, sq, floors, limit, pending)
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
        found.append(codes[keep])
        pending = pending[~covered[pending]]
        # a threshold of `need` covers a leaf it reached; short of that,
        # the margin grows
        np.minimum(upper, need, out=upper)
        margin[pending] *= 4
        limit[pending] = np.minimum(upper[pending], floors[0, pending] + margin[pending])
    # after the leaves, grouped by query, the zero codeword for the queries
    # that found none
    found.append(np.zeros((1, n), dtype=np.uint8))
    q = np.concatenate(found_q)
    by_query = np.argsort(q, kind="stable")
    cells = np.concatenate(found)[np.append(by_query, -1)] + m * np.arange(n)
    counts = np.bincount(q, minlength=B)
    starts = np.cumsum(counts) - counts
    several = [(b, cells[starts[b]:starts[b] + counts[b]]) for b in np.flatnonzero(counts > 1)]
    return cells[np.where(counts > 0, starts, -1)], several, kept


def nearest_codeword_points(table: CodeTable, X: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to each row of the B x n query block X.

    Each row's point depends only on that row, so a block gives the same
    bits as one call per row.  The direct gathers' largest temporaries are
    K x B; the tree search's are its surviving nodes, at most K per query
    and level.  lattice.nearest_points bounds their size.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, n = X.shape
    tol = TIE_REL * max(1.0, gamma * gamma)
    if table.shape[0] == 1:
        # one coset: each coordinate rounds against its entry of the row
        return _round(table.shifts[0], X, gamma, tol)[0]
    cands, diffs = _round(table.values[:, None], X.T[:, None, :], gamma, tol)
    sq = diffs * diffs
    if table.shape[0] < TRIE_MIN_ROWS:
        first, several = _gather_shortlist(table, sq, tol)
    else:
        first, several, _ = _tree_shortlist(table, sq, gamma, tol)

    # stage 3: a lone shortlisted codeword is the answer; several are
    # re-checked with the scan's arithmetic
    out = np.take(cands, np.multiply(first, B, dtype=np.intp) + np.arange(B)[:, None])
    if several:
        cands, diffs = cands.reshape(-1, B), diffs.reshape(-1, B)
    for b, cells in several:
        offsets = diffs[cells, b]
        d2 = np.einsum("ij,ij->i", offsets, offsets)
        points = cands[cells[d2 <= d2.min() + tol], b]
        out[b] = points[np.lexsort(points.T[::-1])[0]]
    return out


def nearest_codeword_point(table: CodeTable, x: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to the length-n query x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return nearest_codeword_points(table, x[None], gamma)[0]
