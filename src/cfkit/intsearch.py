"""Integer coefficient machinery: entry bounds, shortest independent integer
vectors under ||F a||, rowspan and mod-p solvability checks, unimodularity,
and primitive-basis handling.

The shortest vectors come from one Fincke-Pohst enumeration of the integer
points of an ellipsoid ||F a||^2 <= R (Fincke and Pohst, Math. Comp. 1985),
breadth first and vectorized over the nodes of each level.  Determinants,
column Hermite forms, independence and mod-p elimination are exact (python
ints); floating point is used only for the norms being minimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _exact, _zp
from .core import ChannelInstance

MAX_EXACT_USERS = 4  # enumeration is exponential in the user count
_MAX_RADIUS = 64
# Most nodes dominant_solution's search may visit, over all its levels.  A
# level of a million nodes holds about 100 MB (coordinates, centres and
# their copies).  Near-singular channels, whose ellipsoid is wide in several
# directions, reach it and end in a RuntimeError.
MAX_SEARCH_NODES = 1_000_000
_EPS = float(np.finfo(float).eps)


@dataclass
class DominantSolution:
    """Greedy-minimal independent integer rows with nondecreasing ||F a||."""

    A_star: np.ndarray
    norms: np.ndarray  # ||F a*_m||, sorted nondecreasing


def entry_bound(ch: ChannelInstance) -> float:
    """Largest eigenvalue of I + P H^T H.

    Integer coefficients with squared magnitude above this bound force the
    corresponding user's rate to zero, so searches prune them.
    """
    sqrtP = np.sqrt(ch.P)
    S = (sqrtP[:, None] * (ch.H.T @ ch.H)) * sqrtP[None, :]
    return float(np.linalg.eigvalsh(np.eye(ch.num_users) + S)[-1])


def _triangular_factor(F: np.ndarray) -> np.ndarray:
    """Lower-triangular T with positive diagonal and ||T a|| = ||F a||.

    effective_matrix's F is lower triangular with a positive diagonal
    already and is returned as it is; otherwise T comes from a QR
    factorization of F with its columns reversed.
    """
    dim = F.shape[1]
    rows = F.tolist()
    if len(rows) == dim and all(rows[i][i] > 0 and not any(rows[i][i + 1:])
                                for i in range(dim)):
        return F
    T = np.linalg.qr(F[:, ::-1], mode="r")[::-1, ::-1]
    return T * np.where(np.diag(T) < 0, -1.0, 1.0)[:, None]


def _ellipsoid_points(T: np.ndarray, bound: float, radius: int,
                      pad: float) -> np.ndarray:
    """Integer rows a in [-radius, radius]^dim with ||T a||^2 <= bound whose
    first nonzero entry is positive, in lexicographic order.

    A breadth-first Fincke-Pohst search: at level k each node (a prefix
    a_0..a_k-1) takes the integers a_k that keep its partial norm within
    bound, an interval widened by pad / T[k, k] on each side so that
    rounding drops no point.  Nodes stay in lexicographic order, so node 0
    is the zero prefix, the one node that takes only a_k >= 0; it ends as
    the zero row, which is dropped.  The search is vectorized over the nodes
    of a level.  RuntimeError when the levels would hold more than
    MAX_SEARCH_NODES nodes in all.
    """
    dim = T.shape[0]
    diag = T.diagonal().tolist()
    over = RuntimeError(f"enumeration stopped at {MAX_SEARCH_NODES} nodes; "
                        f"the channel is too ill-conditioned")
    # level 0 has one node, the empty prefix: a_0 runs over 0..top
    top = min(math.floor((math.sqrt(bound) + pad) / diag[0]), radius)
    visited = top + 1
    if visited > MAX_SEARCH_NODES:
        raise over
    value = np.arange(top + 1)
    coords = np.zeros((top + 1, dim), dtype=np.int64)
    coords[:, 0] = value
    centre = np.multiply.outer(value, T[:, 0])  # T[:, :k] @ a[:k] per node
    used = centre[:, 0] ** 2                    # ||T[:k, :k] a[:k]||^2 per node
    for k in range(1, dim):
        half = np.sqrt(np.maximum(bound - used, 0.0))
        half += pad
        mid = centre[:, k]
        lo = np.maximum(np.ceil((-mid - half) / diag[k]), -radius)
        lo[0] = max(lo[0], 0.0)
        counts = np.minimum(np.floor((half - mid) / diag[k]), radius) - lo + 1
        counts = np.maximum(counts, 0, out=counts).astype(np.intp)
        total = int(counts.sum())
        visited += total
        if visited > MAX_SEARCH_NODES:
            raise over
        # each node's children run lo, lo + 1, ... in node order
        value = np.repeat(lo.astype(np.int64) - np.cumsum(counts) + counts,
                          counts) + np.arange(total)
        coords = np.repeat(coords, counts, axis=0)
        coords[:, k] = value
        if k + 1 < dim:
            centre = np.repeat(centre, counts, axis=0) + np.multiply.outer(value, T[:, k])
            used = np.repeat(used, counts) + centre[:, k] ** 2
    return coords[1:]


def dominant_solution(F: np.ndarray, max_radius: int = _MAX_RADIUS) -> DominantSolution:
    """Greedily pick one integer vector per column of F, each minimizing
    ||F a|| subject to independence from the picks before it.

    The greedy order is (||F a||^2, then lexicographic on a) over integer
    vectors up to sign (first nonzero entry positive), so ties break
    deterministically.  The picks are certified when they lie in the box
    |a_i| <= max_radius and sigma_min(F) * (max_radius + 1) exceeds the last
    pick: every vector outside the box is longer, so no vector anywhere
    beats them.  These are the picks and the outcome of growing the box
    from radius 1 until the first radius that certifies.

    The candidates are the points of the box in the ellipsoid
    ||F a||^2 <= bound, enumerated once by _ellipsoid_points on a
    triangular factor of F.  The bound is the largest unit-vector norm^2,
    since the unit vectors are independent and no pick is longer, or
    (sigma_min(F) (max_radius + 1))^2 when that is smaller, since no longer
    pick is certified.  Their norms come from one product with F.
    RuntimeError("enumeration exhausted at radius max_radius") when the
    picks are not certified, and RuntimeError when the search would visit
    more than MAX_SEARCH_NODES nodes.
    """
    F = np.asarray(F, dtype=float)
    dim = F.shape[1]
    if dim > MAX_EXACT_USERS:
        raise ValueError(f"exact enumeration capped at {MAX_EXACT_USERS} users (got {dim})")
    sv = np.linalg.svd(F, compute_uv=False)
    smin = float(sv[-1]) if 0 < dim <= F.shape[0] else 0.0
    if smin <= 0:
        raise ValueError("F must have full rank")
    exhausted = RuntimeError(f"enumeration exhausted at radius {max_radius}")
    if max_radius < 1:
        raise exhausted

    R = max(np.einsum("ij,ij->j", F, F).tolist())
    # No point of the ellipsoid has an entry past sqrt(R) / smin, so a box
    # wider than that holds the same points, and certifies whatever the
    # wider box does.
    radius = int(min(max_radius, math.sqrt(R) / smin + 2, 2.0 ** 53))
    cap = smin * (radius + 1)
    bound = min(R, cap * cap)
    # Rounding: for a point of the search, each entry of F a and of T a is
    # computed to within err, and so each squared norm to within
    # dim err (2 sqrt(bound) + err); the search's bound and intervals are
    # widened by them.
    err = 8 * dim * math.sqrt(dim) * _EPS * radius * float(sv[0])
    bound += 3 * dim * err * (2 * math.sqrt(bound) + err)
    if not math.isfinite(bound):
        raise exhausted  # norms past the float range: nothing is certified
    grid = _ellipsoid_points(_triangular_factor(F), bound, radius, 2 * err)

    FA = grid @ F.T
    norms2 = np.einsum("ij,ij->i", FA, FA)
    # The grid is in lexicographic order, so a stable sort on the squared
    # norm breaks ties lexicographically.  Rows longer than the longest unit
    # vector sort after all of them and are never picked; a pick longer
    # than the cap fails the certificate below.
    order = np.argsort(norms2, kind="stable")
    basis = _exact.RowBasis()
    picks: list[int] = []
    for idx in order.tolist():
        if basis.add(grid[idx].tolist()):
            picks.append(idx)
            if len(picks) == dim:
                break
    if len(picks) < dim or not cap > math.sqrt(norms2[picks[-1]]):
        raise exhausted
    return DominantSolution(A_star=grid[picks],
                            norms=np.sqrt(norms2[picks]))


def rowspan_contains_real(Atilde, A) -> bool:
    """True when every row of A lies in the real row space of Atilde (exact)."""
    Atilde = _exact.int_matrix(Atilde)
    A = _exact.int_matrix(A)
    if A.shape[1] != Atilde.shape[1]:
        raise ValueError("Atilde and A must have the same number of columns")
    basis = _exact.RowBasis()
    for row in Atilde.tolist():
        basis.add(row)
    return not any(basis.add(row) for row in A.tolist())


def mod_p_solvability(A, m: int, p: int) -> bool:
    """Can the m-th (1-indexed) unit row be solved from [A] mod p over Z_p?"""
    _zp.require_prime(p)
    A = _exact.int_matrix(A)
    L = A.shape[1]
    if not 1 <= m <= L:
        raise ValueError(f"index {m} out of range 1..{L}")
    delta = [0] * L
    delta[m - 1] = 1
    return _zp.in_rowspan_mod_p(A.tolist(), [delta], p)


is_unimodular = _exact.is_unimodular


def _stacked_block(A: np.ndarray) -> np.ndarray:
    """Split a stacked [A_M; 0] matrix, validating the shape."""
    nonzero = [i for i in range(A.shape[0]) if np.any(A[i])]
    M = len(nonzero)
    if nonzero != list(range(M)):
        raise ValueError("expected full-rank rows followed by zero rows")
    block = A[:M]
    if M and _exact.int_rank(block.tolist()) != M:
        raise ValueError("leading block must have full row rank")
    return block


def primitivity(A) -> bool:
    """The gcd of the leading block's maximal minors is one: its column
    Hermite form [T 0] has T = I.

    Equivalently the block can be completed to a unimodular matrix.
    """
    A = _exact.int_matrix(A)
    block = _stacked_block(A)
    if block.shape[0] == 0:
        return True
    H, _ = _exact.column_hnf_lower(block.tolist())
    return all(row[i] == 1 for i, row in enumerate(H))


def primitivize(A) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite [A_M; 0] as T @ A_prim with A_prim primitive.

    T is M x M lower triangular with strictly positive diagonal; A_prim has
    the same rowspan and stacked shape as A.
    """
    A = _exact.int_matrix(A)
    block = _stacked_block(A)
    M, L = block.shape
    if M == 0:
        return A.copy(), np.zeros((0, 0), dtype=int)
    # block @ W = [T 0], so block = T (W^-1)[:M], and the rows of a
    # unimodular matrix are primitive; the rows that complete them can
    # outgrow int64 and are not kept
    H, W = _exact.column_hnf_lower(block.tolist())
    try:
        T = np.array([row[:M] for row in H], dtype=int)
    except OverflowError:
        raise ValueError("the column Hermite factor T of this block does not "
                         "fit int64") from None
    prim_block = np.array(_exact.int_inverse_unimodular(W)[:M], dtype=int)
    if not np.array_equal(T @ prim_block, block):
        raise AssertionError("primitive factorization failed to reproduce input")
    A_prim = np.vstack([prim_block, np.zeros((A.shape[0] - M, L), dtype=int)])
    return A_prim, T
