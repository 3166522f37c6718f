"""The eliminations the exact core replaced, kept as oracles.

solve_rational is the Fraction Gauss-Jordan that zp_asc_matrix called
before _exact.solve, zp_asc_matrix_oracle is zp_asc_matrix built on it,
int_rank_oracle is int_rank's own fraction-free loop, int_det_oracle is
int_det's own Bareiss loop (before int_det read _gauss_jordan's D),
rref_mod_p_oracle is rref_mod_p's own column loop (before it inserted rows
one at a time), para_variance_oracle and chained_variance_oracle are
the one-matrix variances of sigma_para_opt and sigma_succ_opt (before both
read core._chained_rows), and smith_normal_form with invariant_factors,
primitivity_oracle and primitivize_oracle are the Smith form and the
primitive-basis step on it (before primitivity and primitivize read the
column Hermite form; the square column_hnf_lower they call takes the same
steps as then), and admissible_witness_oracle with witness_holds_oracle
are the float witness that is_admissible built and the check that
regions._coerce_mapping ran on it (before a mapping became its pair set),
all verbatim but for zp_asc_matrix_oracle's inverse of Lbar, which is now
the exact integer inverse reduced mod p.  primitivity_minors_oracle is an independent check: the gcd
of the maximal minors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from cfkit import _exact, _zp, regions
from cfkit.intsearch import _stacked_block


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
    pairs = regions.mapping_pairs(mapping, L, users)
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
    rows = A.tolist()
    for (m, l) in ((m, l) for m in range(1, L + 1) for l in range(1, users + 1)):
        entry = sum(int(Lbar[m - 1, k]) * rows[k][l - 1] for k in range(L))
        if (m, l) not in pairs and entry % p != 0:
            raise AssertionError("mod-p cancellation failed to match the mapping")
    # the exact integer inverse of the unitriangular Lbar, reduced mod p
    inv = [[v % p for v in row] for row in _exact.int_inverse_unimodular(Lbar.tolist())]
    product = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*inv)]
               for row in Lbar.tolist()]
    assert product == np.eye(L, dtype=int).tolist(), "Lbar_inv is not Lbar's inverse mod p"
    return Lbar, np.array(inv, dtype=np.int64).reshape(L, L)


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
    rows = _exact.int_rows(mat)
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


def primitivity_oracle(A) -> bool:
    """All Smith invariant factors of the leading block equal one.

    Equivalently the block can be completed to a unimodular matrix.
    """
    A = np.atleast_2d(np.asarray(A, dtype=int))
    block = _stacked_block(A)
    if block.shape[0] == 0:
        return True
    return all(d == 1 for d in invariant_factors(block.tolist()))


def primitivize_oracle(A) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite [A_M; 0] as T @ A_prim with A_prim primitive.

    T is M x M lower triangular with strictly positive diagonal; A_prim has
    the same rowspan and stacked shape as A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=int))
    block = _stacked_block(A)
    M, L = block.shape
    if M == 0:
        return A.copy(), np.zeros((0, 0), dtype=int)
    S, U, V = smith_normal_form(block.tolist())
    # block = U^-1 S V^-1 and S = [D 0]; rows of V^-1 are primitive
    Uinv = np.array(_exact.int_inverse_unimodular(U), dtype=int)
    Vinv = np.array(_exact.int_inverse_unimodular(V), dtype=int)
    D = np.array([[S[i][i] if i == j else 0 for j in range(M)] for i in range(M)], dtype=int)
    B = Vinv[:M, :]                       # primitive basis of the saturation
    T0 = Uinv @ D
    Tlow, W = _exact.column_hnf_lower(T0.tolist())
    T = np.array(Tlow, dtype=int)
    Winv = np.array(_exact.int_inverse_unimodular(W), dtype=int)
    prim_block = Winv @ B
    if not np.array_equal(T @ prim_block, block):
        raise AssertionError("primitive factorization failed to reproduce input")
    A_prim = np.vstack([prim_block, np.zeros((A.shape[0] - M, L), dtype=int)])
    return A_prim, T


def primitivity_minors_oracle(block) -> bool:
    """The gcd of the M x M minors of a full-row-rank M x L block is one."""
    rows = _exact.int_rows(block)
    M, L = len(rows), len(rows[0])
    return math.gcd(*(_exact.int_det([[row[c] for c in cols] for row in rows])
                      for cols in itertools.combinations(range(L), M))) == 1


_TOL = 1e-9  # regions._TOL


def admissible_witness_oracle(Atilde, pairs) -> np.ndarray | None:
    """The lower-unitriangular float witness of the pair set, or None: the
    floats of the exact rational coefficients of cancellation_solves."""
    rows = _exact.int_rows(np.atleast_2d(Atilde))
    pairs = frozenset((int(m), int(l)) for (m, l) in pairs)
    W = np.eye(len(rows))
    for m, sol in regions.cancellation_solves(rows, pairs):
        if sol is None:
            return None
        nums, d = sol
        W[m, :m] = [n / d if n else 0.0 for n in nums]
    return W


def witness_holds_oracle(A: np.ndarray, pairs, W) -> bool:
    """W is lower unitriangular and zeroes, in one product with A, every
    entry outside the pairs up to _TOL times the largest |A|."""
    M, L = A.shape
    if W is None or W.shape != (M, M):
        return False
    # python loops: the matrices are small, and numpy's per-call cost dominates
    upper = W.tolist()
    if any(upper[i][j] != (i == j) for i in range(M) for j in range(i, M)):
        return False
    entries = A.tolist()
    tol = _TOL * max(1.0, *(abs(v) for row in entries for v in row))
    prod = (W @ A).tolist()
    return all(abs(prod[m][l]) <= tol for m in range(M) for l in range(L)
               if (m + 1, l + 1) not in pairs)
