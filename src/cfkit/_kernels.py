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
2. per pair of coordinates, the m^2 sums of two offsets, looked up through
   one K-row index per pair: n/2 gathers per query instead of a K x n scan;
3. the rows within a relative 1e-9 plus 2 tol of the smallest looked-up sum
   form the shortlist.  A sum of n nonnegative terms moves by about n eps
   relative when summed in another order, so every row that the exact scan
   counts as best or tied is on it.  A query with one shortlisted row takes
   that row's coordinates from stage 1; one with several reruns the scan's
   arithmetic (row-wise einsum distance, tol, lexicographic pass) on them.

The output is bitwise that of the full scan, which computes every candidate
in a B x K x n buffer and which the tests keep as their oracle.  There is
one kernel, nearest_codeword_points, over a block of queries;
nearest_codeword_point is its one-row view.
"""

import numpy as np

TIE_REL = 1e-12

# Kept for result files that record which quantizer produced them.
BACKEND = "python"


def backend_name() -> str:
    return BACKEND


class CodeTable:
    """A K x n shift table prepared for the kernel.

    Entry (k, j) is value `values[c]`; `cells[k, j]` = j m + c is its cell in
    stage 1's n x m grid of rounded coordinates.  `pairs[g]` is each row's
    cell in stage 2's G x m x m grid of summed squared offsets of coordinates
    2g and 2g + 1 (an odd last coordinate pairs with a zero-cost pad).  Both
    index arrays use the smallest unsigned type that holds them.  The kernel
    reads only these and `shape`; the float table `shifts` is built from
    `values` and `cells` on first access.  Every array is read-only.
    """

    __slots__ = ("shape", "values", "cells", "pairs", "_shifts")

    def __init__(self, codes, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        codes = np.asarray(codes)
        K, n = codes.shape
        m = values.shape[0]
        groups = (n + 1) // 2
        index = np.min_scalar_type(groups * m * m - 1)
        padded = np.zeros((2 * groups, K), dtype=index)
        padded[:n] = codes.T
        pairs = padded[0::2] * m
        pairs += padded[1::2]
        pairs += (m * m * np.arange(groups, dtype=index))[:, None]
        cells = codes.astype(np.min_scalar_type(n * m - 1))
        cells += (m * np.arange(n)).astype(cells.dtype)
        self.shape = (K, n)
        self.values = values
        self.cells = cells
        self.pairs = pairs
        self._shifts = None
        for a in (self.values, self.cells, self.pairs):
            a.setflags(write=False)

    @classmethod
    def from_shifts(cls, shifts) -> "CodeTable":
        """Prepare any float table; values are told apart by their bits."""
        shifts = np.ascontiguousarray(shifts, dtype=np.float64)
        bits, codes = np.unique(shifts.view(np.int64), return_inverse=True)
        return cls(codes.reshape(shifts.shape), bits.view(np.float64))

    @property
    def shifts(self) -> np.ndarray:
        """The K x n float table, entry (k, j) = values[cells[k, j] - j m]."""
        if self._shifts is None:
            m = self.values.shape[0]
            codes = self.cells - m * np.arange(self.shape[1], dtype=np.intp)
            self._shifts = self.values[codes]
            self._shifts.setflags(write=False)
        return self._shifts


def nearest_codeword_points(shifts, X: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to each row of the B x n query block X.

    `shifts` is a CodeTable or a K x n float table (prepared on each call).
    Each row's point depends only on that row, so a block gives the same
    bits as one call per row.  The largest temporaries are K x B;
    lattice.nearest_points bounds their size.
    """
    table = shifts if isinstance(shifts, CodeTable) else CodeTable.from_shifts(shifts)
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, n = X.shape
    m = table.values.shape[0]
    tol = TIE_REL * max(1.0, gamma * gamma)

    # stage 1, n x m x B: s + gamma * ceil((x - s) / gamma - 0.5) per
    # coordinate and value, in the scan's float operations
    x = X.T[:, None, :]
    values = table.values[:, None]
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

    if table.shape[0] == 1:
        # one coset, so stage 1 holds the point
        return np.ascontiguousarray(cands.reshape(n * m, B)[table.cells[0]].T)

    # stage 2: approximate distances, one lookup per coordinate pair; the
    # lookups gather rows of B floats, the reductions run along rows of K
    sq = diffs * diffs
    if n % 2:
        sq = np.concatenate([sq, np.zeros((1, m, B))])
    pair_sq = (sq[0::2, :, None] + sq[1::2, None, :]).reshape(len(table.pairs) * m * m, B)
    approx = np.take(pair_sq, table.pairs[0], axis=0)
    for index in table.pairs[1:]:
        approx += np.take(pair_sq, index, axis=0)
    approx = np.ascontiguousarray(approx.T)

    # stage 3: a lone shortlisted row is the answer; several are re-checked
    # with the scan's arithmetic
    bound = np.minimum.reduce(approx, axis=1)
    bound *= 1 + 1e-9
    bound += 2 * tol
    shortlist = approx <= bound[:, None]
    first = shortlist.argmax(axis=1)
    out = np.take(cands, np.multiply(table.cells[first], B, dtype=np.intp)
                  + np.arange(B)[:, None])
    if np.count_nonzero(shortlist) > B:
        cands, diffs = cands.reshape(n * m, B), diffs.reshape(n * m, B)
        for b in np.flatnonzero(shortlist.sum(axis=1) > 1):
            cells = table.cells[shortlist[b]]
            rows = diffs[cells, b]
            d2 = np.einsum("ij,ij->i", rows, rows)
            points = cands[cells[d2 <= d2.min() + tol], b]
            out[b] = points[np.lexsort(points.T[::-1])[0]]
    return out


def nearest_codeword_point(shifts, x: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to the length-n query x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return nearest_codeword_points(shifts, x[None], gamma)[0]
