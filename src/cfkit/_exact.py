"""Exact integer matrix routines: one fraction-free elimination behind
determinants, exact solves, inverses and LU steps; ranks and spans, and the
column Hermite form.

Everything here works on lists of python ints (arbitrary precision) so the
answers are exact.  Matrices are small (L <= 8 or so), so the cubic
algorithms are plenty fast.

This module is also the library's one reader of integer input: int_rows
reads a caller's coefficient matrix (a list of rows or an array; a 1-D
input is one row) exactly, refusing a non-integral entry, and int_matrix is
its int64 numpy view, which the other modules take their A, ensemble
generator and symbol vectors through.  _as_int reads one index, such as a
mapping pair's entry, by the same rule, and int_permutation reads a
decoding or pivot order with it.

The elimination is integer preserving (Bareiss, Math. Comp. 1968): a step
takes row r to (f r - g row) / d, with f the pivot, g the entry of r under
it and d the previous pivot, and the division is exact.  _gauss_jordan runs
it to the end for int_det, solve and int_inverse_unimodular;
eliminate_below takes one swap-free step for the LU walks in regions; and
RowBasis takes it with d = 1 on rows added one at a time for int_rank,
rows_independent, kept_rows and the span tests.  The column Hermite form,
the one unimodular reduction, uses unimodular column operations instead.
"""

from __future__ import annotations

import numpy as np


def _as_int(value, what: str = "matrix entries") -> int:
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
        out = None
    if out is None or out != value:
        raise ValueError(f"{what} must be integers")
    return out


def int_permutation(values, first: int, count: int, what: str) -> tuple[int, ...]:
    """values read by _as_int, as a tuple; ValueError unless they are a
    permutation of first..first + count - 1."""
    out = tuple(_as_int(v, f"{what} entries") for v in values)
    if sorted(out) != list(range(first, first + count)):
        raise ValueError(f"{what} {list(out)} is not a permutation of "
                         f"{first}..{first + count - 1}")
    return out


def _matrix(arr: np.ndarray) -> np.ndarray:
    """arr with two axes: a 1-D arr is one row, and an empty one the matrix
    with no rows; any other number of axes raises ValueError."""
    if arr.ndim == 1:
        return arr[None] if arr.size else arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix (1 or 2 axes), got {arr.ndim} axes")
    return arr


def int_rows(mat) -> list[list[int]]:
    """The rows of a matrix (_matrix's shape rule) as lists of python ints;
    a non-integral entry raises ValueError."""
    arr = _matrix(np.asarray(mat))
    if np.issubdtype(arr.dtype, np.integer):
        return arr.tolist()
    if not isinstance(mat, np.ndarray):
        # numpy stores python ints past int64 as floats, which drop low
        # bits, or as objects; read the entries themselves instead
        arr = _matrix(np.asarray(mat, dtype=object))
    return [[_as_int(v) for v in row] for row in arr.tolist()]


def int_matrix(mat) -> np.ndarray:
    """int_rows' matrix as a 2-D int64 array.  An int64 array is returned as
    it is (a 1-D one as a one-row view), so integer input pays no copy; an
    entry past int64 raises ValueError."""
    arr = _matrix(np.asarray(mat))
    if arr.dtype == np.int64:
        return arr
    try:
        return np.array(int_rows(mat), dtype=np.int64).reshape(arr.shape)
    except OverflowError:
        raise ValueError("matrix entries must be integers in [-2^63, 2^63)") from None


def int_row(mat) -> np.ndarray:
    """int_matrix's matrix with its entries in one row (1 x N)."""
    return int_matrix(mat).reshape(1, -1)


def _step(f: int, r: list, g: int, row: list, d: int = 1) -> list:
    """(f r - g row) / d, the division exact when d is the previous pivot."""
    return [(f * x - g * y) // d for x, y in zip(r, row)]


def eliminate_below(rows: list, step: int, col: int, d: int) -> list:
    """One fraction-free LU step: clear column col below the pivot
    rows[step][col] != 0, d being the previous step's pivot (1 at first).

    Row m ends up d_{m-1}, the pivot of step m - 1, times its row of
    rational elimination.  Returns a new list that shares the rows at or
    above step with the input, which is never modified.
    """
    pivot_row = rows[step]
    f = pivot_row[col]
    return rows[:step + 1] + [_step(f, r, r[col], pivot_row, d)
                              for r in rows[step + 1:]]


def _gauss_jordan(rows: list, width: int) -> tuple[list, list[int], int]:
    """Fraction-free Gauss-Jordan on the first width columns of integer rows.

    Each pivot is the first nonzero entry, at or below the rows already
    pivoted, of the leftmost column that has one; it is swapped up in
    place, and the row it displaces moves down negated, so each step keeps
    the determinant.  Returns (rows, pivot columns, D): row i is D times
    row i of the reduced row echelon form, and on a square matrix with a
    pivot in every column D is its determinant.
    """
    pivots, d = [], 1
    for c in range(width):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], [-x for x in rows[r]]
        pivot_row = rows[r]
        f = pivot_row[c]
        rows = [row if i == r else _step(f, row, row[c], pivot_row, d)
                for i, row in enumerate(rows)]
        d = f
        pivots.append(c)
    return rows, pivots, d


def solve(M, t) -> tuple[list[int], int] | None:
    """Exact solution of M x = t for integer M (a list of rows) and t.

    The pivots are the leftmost columns and free variables are 0.  Returns
    (numerators, D), x = numerators / D with D != 0 (possibly negative), or
    None when the system is inconsistent.
    """
    n = len(M[0]) if M else 0
    rows, pivots, d = _gauss_jordan([[*row, v] for row, v in zip(M, t)], n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [0] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return x, d


def int_det(mat) -> int:
    """Exact determinant: _gauss_jordan's D when every column has a pivot,
    else 0 (its swaps negate the row moved down, which keeps the sign)."""
    rows = int_rows(mat)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    _, pivots, d = _gauss_jordan(rows, n)
    return d if len(pivots) == n else 0


def int_rank(mat) -> int:
    """Exact rank over the rationals: the rows a RowBasis keeps."""
    basis = RowBasis()
    return sum(basis.add(row) for row in int_rows(mat))


def rows_independent(rows_so_far: list, candidate) -> bool:
    """True when stacking candidate on the existing rows raises the rank."""
    stacked = [*rows_so_far, candidate]
    return int_rank(stacked) == len(stacked)


class RowBasis:
    """Exact span of the integer rows kept so far, grown one row at a time.

    Holds a fraction-free echelon basis in python ints: every kept row has a
    pivot column, and every later row is zero at it.  A candidate reduced
    against the kept rows in order is therefore zero at every pivot, and is
    independent exactly when something nonzero is left.  This answers
    rows_independent(kept, candidate) without a rank from scratch.
    """

    def __init__(self):
        self._rows: list[tuple[int, list[int]]] = []  # (pivot column, row)

    def add(self, candidate) -> bool:
        """Keep candidate and return True when it is independent of the kept
        rows; return False, keeping nothing, when it lies in their span."""
        r = [int(v) for v in candidate]
        for col, row in self._rows:
            g = r[col]
            if g:
                r = _step(row[col], r, g, row)
        col = next((j for j, v in enumerate(r) if v), None)
        if col is None:
            return False
        self._rows.append((col, r))
        return True


def kept_rows(rows) -> list[bool]:
    """Whether each row counts: a row counts when it is independent of the
    rows kept before it (one RowBasis pass)."""
    basis = RowBasis()
    return [basis.add(row) for row in rows]


def is_unimodular(mat) -> bool:
    """Square integer matrix with determinant +1 or -1."""
    rows = int_rows(mat)
    if not rows or len(rows) != len(rows[0]):
        return False
    return int_det(rows) in (1, -1)


def int_inverse_unimodular(mat) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (stays integer): the
    solution of mat X = I."""
    rows = int_rows(mat)
    n = len(rows)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    aug, pivots, d = _gauss_jordan(aug, n)
    if len(pivots) < n or d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return [[d * x for x in row[n:]] for row in aug]


def column_hnf_lower(mat) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite form of an M x L integer matrix of full row rank:
    returns (H, W) with mat @ W = H = [T 0], W unimodular and T (M x M)
    lower triangular with positive diagonal and reduced below-diagonal
    entries (0 <= T[i][j] < T[i][i]).

    T is unique, and det T is the gcd of the M x M minors of mat.  A
    rank-deficient input raises ValueError.
    """
    a = [row[:] for row in int_rows(mat)]
    n = len(a[0]) if a else 0
    w = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(dst, src, factor):
        for row in a + w:
            row[dst] += factor * row[src]

    def col_swap(i, j):
        for row in a + w:
            row[i], row[j] = row[j], row[i]

    for i in range(len(a)):
        # gcd-reduce row i over columns i..n-1 so only a[i][i] survives
        while True:
            nz = [j for j in range(i, n) if a[i][j] != 0]
            if not nz:
                raise ValueError("singular matrix has no column Hermite form")
            jmin = min(nz, key=lambda j: abs(a[i][j]))
            if jmin != i:
                col_swap(i, jmin)
            done = True
            for j in range(i + 1, n):
                if a[i][j] != 0:
                    col_op(j, i, -(a[i][j] // a[i][i]))
                    if a[i][j] != 0:
                        done = False
            if done:
                break
        if a[i][i] < 0:
            for row in a + w:
                row[i] = -row[i]
        for j in range(i):
            q = a[i][j] // a[i][i]
            if q:
                col_op(j, i, -q)
    return a, w
