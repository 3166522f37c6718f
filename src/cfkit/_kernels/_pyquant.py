"""Numpy reference implementation of the nearest-codeword search.

Given the shifted codeword table S (one row per codeword, already scaled by
gamma/p), the lattice is the union of the cosets S[k] + gamma * Z^n.  The
nearest point to x is found per coset by componentwise rounding, then across
cosets by squared distance.  Ties break to the lexicographically smallest
coordinate vector: within a coset, rounding halves downward achieves this;
across cosets, candidates within TIE_REL of the best distance are compared
lexicographically.
"""

import numpy as np

TIE_REL = 1e-12


def nearest_codeword_point(shifts: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    shifts = np.ascontiguousarray(shifts, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    resid = (x[None, :] - shifts) / gamma
    steps = np.ceil(resid - 0.5)  # round half down -> smaller coordinate wins
    cands = shifts + gamma * steps
    diffs = cands - x[None, :]
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    best = float(np.min(d2))
    tol = TIE_REL * max(1.0, gamma * gamma)
    tied = np.flatnonzero(d2 <= best + tol)
    if tied.size == 1:
        return cands[tied[0]].copy()
    rows = cands[tied]
    order = np.lexsort(tuple(rows[:, k] for k in reversed(range(rows.shape[1]))))
    return rows[order[0]].copy()


def nearest_codeword_points(shifts: np.ndarray, X: np.ndarray, gamma: float) -> np.ndarray:
    """nearest_codeword_point for each row of the B x n query block X.

    Same arithmetic, element for element, as the single-query search, so the
    points are bitwise equal to B separate calls.  Temporaries are B x K x n
    for a K-row table; lattice.nearest_points bounds their size.
    """
    shifts = np.ascontiguousarray(shifts, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, n = X.shape
    # in place: cands = shifts + gamma * ceil((x - shifts) / gamma - 0.5),
    # operand order aside the same operations, in one B x K x n buffer
    cands = np.subtract(X[:, None, :], shifts)
    cands /= gamma
    cands -= 0.5
    np.ceil(cands, out=cands)
    cands *= gamma
    cands += shifts
    diffs = np.subtract(cands, X[:, None, :]).reshape(-1, n)
    # one row per candidate, as in the single-query einsum, so every squared
    # distance is summed in the same order
    d2 = np.einsum("ij,ij->i", diffs, diffs).reshape(B, -1)
    best = np.min(d2, axis=1)
    tol = TIE_REL * max(1.0, gamma * gamma)
    tied = d2 <= (best + tol)[:, None]
    out = cands[np.arange(B), np.argmax(tied, axis=1)]
    for b in np.flatnonzero(np.count_nonzero(tied, axis=1) > 1):
        rows = cands[b, tied[b]]
        out[b] = rows[np.lexsort(rows.T[::-1])[0]]
    return out
