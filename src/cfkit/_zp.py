"""Linear algebra over the prime field Z_p with exact python-int arithmetic.

One elimination step, _insert, adds a row to a reduced row echelon basis:
rref_mod_p (and the solve built on it) and prefix_echelons insert a
matrix's rows in order, and in_rowspan_mod_p tries further rows against the
basis of rref_mod_p.
"""

from __future__ import annotations

from . import _exact


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
    """The rows of an integer matrix mod p, as lists of python ints.  The
    matrix is read by _exact.int_rows: exactly, a 1-D input as one row, and
    a non-integral entry raises ValueError."""
    return [[v % p for v in row] for row in _exact.int_rows(mat)]


def _insert(basis: list, pivots: list, r: list, n: int, p: int) -> bool:
    """Add row r, in place, to a reduced row echelon basis over Z_p: rows
    sorted by pivot (the first nonzero of their leading n entries), each 1
    at its pivot and alone there.  Returns whether r was added: False,
    changing nothing, when r reduces to zero in its leading n entries."""
    for b, c in zip(basis, pivots):
        f = r[c]
        if f:
            r = [(x - f * y) % p for x, y in zip(r, b)]
    lead = next((c for c in range(n) if r[c]), None)
    if lead is None:
        return False
    inv = pow(r[lead], -1, p)
    r = [(x * inv) % p for x in r]
    for i, b in enumerate(basis):
        f = b[lead]
        if f:
            basis[i] = [(x - f * y) % p for x, y in zip(b, r)]
    at = sum(c < lead for c in pivots)
    basis.insert(at, r)
    pivots.insert(at, lead)
    return True


def rref_mod_p(mat, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Z_p; returns (rref, pivot_columns).
    The rows are inserted in order; dependent ones become the zero rows."""
    rows = reduce_mod(mat, p)
    n = len(rows[0]) if rows else 0
    basis, pivots = [], []
    for row in rows:
        _insert(basis, pivots, row, n, p)
    return basis + [[0] * n for _ in range(len(rows) - len(basis))], pivots


def in_rowspan_mod_p(mat, vec, p: int) -> bool:
    """True when every row of vec lies in the Z_p row space of mat: none
    can be inserted into mat's echelon basis."""
    rref, pivots = rref_mod_p(mat, p)
    basis = rref[:len(pivots)]
    return not any(_insert(basis, pivots, row, len(row), p)
                   for row in reduce_mod(vec, p))


def solve_mod_p(A, b, p: int) -> list[int] | None:
    """One solution x of A x = b over Z_p, or None when inconsistent.

    Free variables (if any) are set to zero.
    """
    A = reduce_mod(A, p)
    bcol = [v for row in reduce_mod(b, p) for v in row]  # a row or a column
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


def prefix_echelons(mat, p: int) -> list[tuple[list[list[int]], list[int], list[list[int]]]]:
    """The reduced row echelon forms of a matrix's leading rows over Z_p, from
    one pass that adds the rows in order.

    Entry j is (rref, pivots, T) for mat[:j]: rref and pivots as rref_mod_p
    gives them, and the j x j matrix T with T mat[:j] = rref mod p.  The list
    runs from j = 0 up to the last j whose rows are independent mod p: its
    length is one more than the number of leading independent rows.
    """
    rows = reduce_mod(mat, p)
    k = len(rows)
    basis, pivots = [], []  # the rref rows so far, each followed by its row of T
    out = [([], [], [])]
    for j, row in enumerate(rows):
        n = len(row)
        if not _insert(basis, pivots, row + [int(i == j) for i in range(k)], n, p):
            break
        out.append(([b[:n] for b in basis], pivots[:], [b[n:n + j + 1] for b in basis]))
    return out


def echelon_right_inverse(pivots, T, n: int) -> list[list[int]]:
    """R with mat R = I over Z_p, for a k x n matrix of full row rank k whose
    reduced row echelon form has `pivots` and transform T (T mat = rref).

    R is zero outside the pivot rows, where it holds T: T is the inverse of
    mat's pivot columns, since rref holds the identity there.
    """
    R = [[0] * len(pivots) for _ in range(n)]
    for i, c in enumerate(pivots):
        R[c] = list(T[i])
    return R
