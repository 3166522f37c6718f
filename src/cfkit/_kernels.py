"""The nearest-codeword search, the hot kernel of the decoding chains.

Given the shifted codeword table S (one row per codeword, already scaled by
gamma/p), the lattice is the union of the cosets S[k] + gamma * Z^n.  The
nearest point to x is found per coset by componentwise rounding, then across
cosets by squared distance.  Ties break to the lexicographically smallest
coordinate vector: within a coset, rounding halves downward achieves this;
across cosets, candidates within TIE_REL of the best distance are compared
lexicographically.

There is one kernel, nearest_codeword_points, over a block of queries;
nearest_codeword_point is its one-row view.
"""

import numpy as np

TIE_REL = 1e-12

# Kept for result files that record which quantizer produced them.
BACKEND = "python"


def backend_name() -> str:
    return BACKEND


def nearest_codeword_points(shifts: np.ndarray, X: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to each row of the B x n query block X.

    Each row's point depends only on that row, so a block gives the same
    bits as one call per row.  Temporaries are B x K x n for a K-row table;
    lattice.nearest_points bounds their size.
    """
    shifts = np.ascontiguousarray(shifts, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, n = X.shape
    # in place: cands = shifts + gamma * ceil((x - shifts) / gamma - 0.5),
    # rounding half down so the smaller coordinate wins, in one B x K x n buffer
    cands = np.subtract(X[:, None, :], shifts)
    cands /= gamma
    cands -= 0.5
    np.ceil(cands, out=cands)
    cands *= gamma
    cands += shifts
    diffs = np.subtract(cands, X[:, None, :]).reshape(-1, n)
    # one row per candidate, so every squared distance is summed in the same
    # order whatever the block size
    d2 = np.einsum("ij,ij->i", diffs, diffs).reshape(B, -1)
    best = d2.min(axis=1)
    tol = TIE_REL * max(1.0, gamma * gamma)
    tied = d2 <= (best + tol)[:, None]
    out = cands[np.arange(B), tied.argmax(axis=1)]
    for b in np.flatnonzero(tied.sum(axis=1) > 1):
        rows = cands[b, tied[b]]
        out[b] = rows[np.lexsort(rows.T[::-1])[0]]
    return out


def nearest_codeword_point(shifts: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """Nearest lattice point to the length-n query x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return nearest_codeword_points(shifts, x[None], gamma)[0]
