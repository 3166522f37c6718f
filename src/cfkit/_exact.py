"""Exact integer matrix routines: determinants, rank, Smith form, column HNF.

Everything here works on lists of python ints (arbitrary precision) so the
answers are exact.  Inputs may be numpy integer arrays; they are converted.
Matrices are small (L <= 8 or so), so the cubic algorithms are plenty fast.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _as_int(value) -> int:
    try:
        out = int(value)
    except (ValueError, OverflowError):  # nan, inf
        out = None
    if out is None or out != value:
        raise ValueError("matrix entries must be integers")
    return out


def _to_rows(mat) -> list[list[int]]:
    arr = np.asarray(mat)
    if arr.ndim != 2:
        return []
    if np.issubdtype(arr.dtype, np.integer):
        return arr.tolist()
    if not isinstance(mat, np.ndarray):
        # numpy stores python ints past int64 as floats, which drop low
        # bits, or as objects; read the entries themselves instead
        arr = np.asarray(mat, dtype=object)
    return [[_as_int(v) for v in row] for row in arr.tolist()]


def int_det(mat) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    rows = _to_rows(mat)
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def int_rank(mat) -> int:
    """Exact rank over the rationals (fraction-free elimination)."""
    rows = _to_rows(mat)
    if not rows:
        return 0
    a = [row[:] for row in rows]
    m, n = len(a), len(a[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, m):
            if a[i][col] != 0:
                f = a[rank][col]
                g = a[i][col]
                a[i] = [f * a[i][j] - g * a[rank][j] for j in range(n)]
        rank += 1
        col += 1
    return rank


def rows_independent(rows_so_far: list, candidate) -> bool:
    """True when stacking candidate on the existing rows raises the rank."""
    stacked = [list(map(int, r)) for r in rows_so_far] + [list(map(int, candidate))]
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
                f = row[col]
                r = [f * x - g * y for x, y in zip(r, row)]
        col = next((j for j, v in enumerate(r) if v), None)
        if col is None:
            return False
        self._rows.append((col, r))
        return True


def is_unimodular(mat) -> bool:
    """Square integer matrix with determinant +1 or -1."""
    rows = _to_rows(mat)
    if not rows or len(rows) != len(rows[0]):
        return False
    return int_det(rows) in (1, -1)


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, src, dst, factor):
    n = len(a[0])
    for j in range(n):
        a[dst][j] += factor * a[src][j]
    for j in range(len(u[0])):
        u[dst][j] += factor * u[src][j]


def _add_col(a, v, src, dst, factor):
    for row in a:
        row[dst] += factor * row[src]
    for row in v:
        row[dst] += factor * row[src]


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (S, U, V) with S = U @ mat @ V, U and V unimodular, S in Smith form.

    S is diagonal with nonnegative invariant factors d_1 | d_2 | ... .
    """
    rows = _to_rows(mat)
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [row[:] for row in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def smallest_nonzero(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = smallest_nonzero(t)
        if pos is None:
            break
        _swap_rows(a, u, t, pos[0])
        _swap_cols(a, v, t, pos[1])
        reduced = False
        while not reduced:
            reduced = True
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    _add_row(a, u, t, i, -q)
                    if a[i][t] != 0:
                        _swap_rows(a, u, t, i)
                        reduced = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    _add_col(a, v, t, j, -q)
                    if a[t][j] != 0:
                        _swap_cols(a, v, t, j)
                        reduced = False
        # divisibility: d_t must divide every remaining entry
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, u, offender, t, 1)
            continue
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1
    return a, u, v


def invariant_factors(mat) -> list[int]:
    s, _, _ = smith_normal_form(mat)
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0)) if s[i][i] != 0]


def int_inverse_unimodular(mat) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (stays integer)."""
    rows = _to_rows(mat)
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = [[x for x in row[n:]] for row in aug]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def column_hnf_lower(mat) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite form: returns (T, W) with mat @ W = T, W unimodular,
    T lower triangular with positive diagonal and reduced below-diagonal entries.

    Requires a square nonsingular integer input.
    """
    rows = _to_rows(mat)
    n = len(rows)
    a = [row[:] for row in rows]
    w = [[int(i == j) for j in range(n)] for i in range(n)]

    def col_op(dst, src, factor):
        for r in range(n):
            a[r][dst] += factor * a[r][src]
            w[r][dst] += factor * w[r][src]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
            w[r][i], w[r][j] = w[r][j], w[r][i]

    for i in range(n):
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
            if done and all(a[i][j] == 0 for j in range(i + 1, n)):
                break
        if a[i][i] < 0:
            for r in range(n):
                a[r][i] = -a[r][i]
                w[r][i] = -w[r][i]
        for j in range(i):
            q = a[i][j] // a[i][i]
            if q:
                col_op(j, i, -q)
    return a, w
