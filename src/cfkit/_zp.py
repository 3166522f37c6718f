"""Linear algebra over the prime field Z_p with exact python-int arithmetic."""

from __future__ import annotations

import numpy as np


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def reduce_mod(mat, p: int) -> list[list[int]]:
    arr = np.asarray(mat)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return [[int(v) % p for v in row] for row in arr.tolist()]


def rref_mod_p(mat, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z_p; returns (rref, pivot_columns)."""
    a = [row[:] for row in reduce_mod(mat, p)]
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


def rank_mod_p(mat, p: int) -> int:
    return len(rref_mod_p(mat, p)[1])


def in_rowspan_mod_p(mat, vec, p: int) -> bool:
    """True when vec lies in the Z_p row space of mat."""
    base = rank_mod_p(mat, p)
    stacked = reduce_mod(mat, p) + reduce_mod(vec, p)
    return rank_mod_p(stacked, p) == base


def solve_mod_p(A, b, p: int) -> list[int] | None:
    """One solution x of A x = b over Z_p, or None when inconsistent.

    Free variables (if any) are set to zero.
    """
    A = reduce_mod(A, p)
    bcol = [int(v) % p for v in np.asarray(b).ravel().tolist()]
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [A[i] + [bcol[i]] for i in range(m)]
    rref, pivots = rref_mod_p(aug, p)
    x = [0] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None  # pivot in the augmented column: inconsistent
        x[c] = rref[r][n]
    return x


def inv_mod_p(mat, p: int) -> list[list[int]]:
    """Exact inverse of a square matrix over Z_p."""
    a = reduce_mod(mat, p)
    n = len(a)
    aug = [a[i] + [int(i == j) for j in range(n)] for i in range(n)]
    rref, pivots = rref_mod_p(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return [row[n:] for row in rref[:n]]


def right_inverse_mod_p(mat, p: int) -> list[list[int]]:
    """R with mat R = I over Z_p, for a k x n matrix of full row rank k.

    R is zero outside the pivot rows of mat's echelon form, where it holds
    the inverse of mat's pivot columns.
    """
    a = reduce_mod(mat, p)
    k, n = len(a), len(a[0])
    _, pivots = rref_mod_p(a, p)
    if len(pivots) != k:
        raise ValueError("matrix does not have full row rank mod p")
    inv = inv_mod_p([[row[c] for c in pivots] for row in a], p)
    R = [[0] * k for _ in range(n)]
    for i, c in enumerate(pivots):
        R[c] = inv[i]
    return R


def matmul_mod_p(A, B, p: int) -> list[list[int]]:
    A = reduce_mod(A, p)
    B = reduce_mod(B, p)
    n = len(B)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) % p for j in range(len(B[0]))]
            for i in range(len(A))]
