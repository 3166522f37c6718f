"""The eliminations the exact core replaced, kept as oracles.

solve_rational is the Fraction Gauss-Jordan that zp_asc_matrix called
before _exact.solve, zp_asc_matrix_oracle is zp_asc_matrix built on it,
int_rank_oracle is int_rank's own fraction-free loop, int_det_oracle is
int_det's own Bareiss loop (before int_det read _gauss_jordan's D),
rref_mod_p_oracle is rref_mod_p's own column loop (before it inserted rows
one at a time), and para_variance_oracle and chained_variance_oracle are
the one-matrix variances of sigma_para_opt and sigma_succ_opt (before both
read core._chained_rows), all verbatim.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cfkit import _exact, _zp
from cfkit.simulator import _mapping_pairs


def solve_rational(M, t) -> list[Fraction] | None:
    """Solve M x = t exactly over the rationals (free variables -> 0)."""
    rows = [list(r) + [tv] for r, tv in zip(M, t)]
    m = len(rows)
    n = len(rows[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = rows[row_idx][n]
    return x


def int_rank_oracle(rows) -> int:
    """Exact rank over the rationals (fraction-free elimination)."""
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


def int_det_oracle(mat) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    rows = _exact.int_rows(mat)
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


def rref_mod_p_oracle(mat, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z_p; returns (rref, pivot_columns)."""
    a = [row[:] for row in _zp.reduce_mod(mat, p)]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def zp_asc_matrix_oracle(A, mapping, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower-unitriangular cancellation matrix over Z_p and its inverse.

    Built by exact rational elimination, then reduced mod p.  Raises when
    some row has no solution ("not admissible", checked for every row
    first), then when a denominator vanishes mod p ("p too small" for this
    mapping).
    """
    _zp.require_prime(p)
    A = np.atleast_2d(np.asarray(A, dtype=int))
    L, users = A.shape
    pairs = _mapping_pairs(mapping)
    rows = [[Fraction(int(v)) for v in row] for row in A.tolist()]
    sols = []
    for m in range(1, L + 1):
        cols = [l - 1 for l in range(1, users + 1) if (m, l) not in pairs]
        if not cols:
            continue
        if m == 1:
            if any(rows[0][c] != 0 for c in cols):
                raise ValueError("mapping is not admissible (row 1)")
            continue
        sol = solve_rational([[rows[i][c] for i in range(m - 1)] for c in cols],
                             [-rows[m - 1][c] for c in cols])
        if sol is None:
            raise ValueError(f"mapping is not admissible (row {m})")
        sols.append((m, sol))
    Lbar = np.eye(L, dtype=np.int64)
    for m, sol in sols:
        for i, frac in enumerate(sol):
            if frac.denominator % p == 0:
                raise ValueError(
                    f"p = {p} too small: cancellation coefficient {frac} has no mod-p image")
            Lbar[m - 1, i] = (frac.numerator * pow(frac.denominator, -1, p)) % p
    reduced = np.array(_zp.matmul_mod_p(Lbar.tolist(), A.tolist(), p), dtype=np.int64)
    for (m, l) in ((m, l) for m in range(1, L + 1) for l in range(1, users + 1)):
        if (m, l) not in pairs and reduced[m - 1, l - 1] % p != 0:
            raise AssertionError("mod-p cancellation failed to match the mapping")
    Lbar_inv = np.array(_zp.inv_mod_p(Lbar.tolist(), p), dtype=np.int64)
    return Lbar, Lbar_inv


def para_variance_oracle(F: np.ndarray, a: np.ndarray) -> float:
    """||F a||^2, the unchained variance of one row."""
    return float(np.sum((F @ a) ** 2))


def chained_variance_oracle(F: np.ndarray, a_m: np.ndarray, A_prev: np.ndarray) -> float:
    """||N F a_m||^2 for the projector N = I - Q Q^T onto the orthogonal
    complement of F A_prev^T, with Q R = F A_prev^T."""
    # QR projection: much better conditioned than forming
    # A_prev (F^T F) A_prev^T explicitly
    Q = np.linalg.qr(F @ A_prev.T)[0]
    Fa = F @ a_m
    r = Fa - Q @ (Q.T @ Fa)
    return float(r @ r)
