"""Integer coefficient machinery: entry bounds, shortest independent integer
vectors under ||F a||, rowspan and mod-p solvability checks, unimodularity,
and primitive-basis handling.

Determinants, Smith forms, and mod-p elimination are exact (python ints);
floating point is used only for the norms being minimized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _exact, _zp
from .core import ChannelInstance

MAX_EXACT_USERS = 4  # enumeration is exponential in the user count
_MAX_RADIUS = 64
# Largest half box dominant_solution builds.  Near the cap a radius step holds
# about 220 MB (int64 rows, their float copy and products); four users stop
# after radius 21, while two and three users reach _MAX_RADIUS first.
MAX_BOX_ROWS = 2_000_000


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


def _half_box(dim: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero rows of [-radius, radius]^dim whose first nonzero entry is
    positive, in lexicographic order, and the row index of each unit vector.

    Every nonzero box row is +-1 times exactly one of these rows.  Rows with
    more leading zeros sort first, so the block of rows with ``lead`` leading
    zeros follows the block with ``lead + 1``; within a block the entries
    after the leading one run like digits.
    """
    side = 2 * radius + 1
    grid = np.zeros((_half_box_rows(dim, radius), dim), dtype=int)
    units = np.zeros(dim, dtype=np.intp)
    start = 0
    for lead in reversed(range(dim)):
        tail = dim - 1 - lead
        stop = start + radius * side ** tail
        digits = grid[start:stop].reshape((radius,) + (side,) * tail + (dim,))
        digits[..., lead] = np.arange(1, radius + 1).reshape((radius,) + (1,) * tail)
        for j in range(tail):
            digits[..., lead + 1 + j] = np.arange(-radius, radius + 1).reshape(
                (side,) + (1,) * (tail - 1 - j))
        units[lead] = start + (side ** tail - 1) // 2  # the row (1, 0, ..., 0)
        start = stop
    return grid, units


def _half_box_rows(dim: int, radius: int) -> int:
    return ((2 * radius + 1) ** dim - 1) // 2


def dominant_solution(F: np.ndarray, L: int | None = None,
                      max_users: int = MAX_EXACT_USERS,
                      max_radius: int = _MAX_RADIUS) -> DominantSolution:
    """Greedily pick L integer vectors minimizing ||F a|| subject to independence.

    Candidates are the rows of the box |a_i| <= radius up to sign: the half
    box of rows whose first nonzero entry is positive.  Within a box the
    greedy order is (||F a||^2, then lexicographic on a), so ties break
    deterministically.  Only rows no longer than the longest unit vector are
    sorted: the unit vectors are independent and lie in every box, so the
    greedy pick never reaches past them.  The radius grows from 1 until
    sigma_min(F) * (radius + 1) exceeds the last pick, which certifies that
    no vector outside the box can beat the picks.  RuntimeError("enumeration
    exhausted at radius r") is raised when radius r was searched without a
    certificate and the next box would pass ``max_radius`` or hold more than
    MAX_BOX_ROWS rows.
    """
    F = np.asarray(F, dtype=float)
    dim = F.shape[1]
    if L is None:
        L = dim
    if dim > max_users:
        raise ValueError(f"exact enumeration capped at {max_users} users (got {dim})")
    if not 1 <= L <= dim:
        raise ValueError(f"need 1 <= L <= {dim} vectors (got {L})")
    smin = float(np.linalg.svd(F, compute_uv=False)[-1])
    if smin <= 0:
        raise ValueError("F must have full rank")

    radius = 1
    while radius <= max_radius and _half_box_rows(dim, radius) <= MAX_BOX_ROWS:
        grid, units = _half_box(dim, radius)
        FA = grid @ F.T
        norms2 = np.einsum("ij,ij->i", FA, FA)
        near = np.flatnonzero(norms2 <= norms2[units].max())
        # primary key: squared norm; ties: lexicographic on the entries
        order = near[np.lexsort(tuple(grid[near, k] for k in reversed(range(dim)))
                                + (norms2[near],))]
        basis = _exact.RowBasis()
        chosen: list[list[int]] = []
        norms: list[float] = []
        for idx in order:
            if len(chosen) == L:
                break
            vec = grid[idx].tolist()
            if basis.add(vec):
                chosen.append(vec)
                norms.append(float(np.sqrt(norms2[idx])))
        if len(chosen) == L and smin * (radius + 1) > norms[-1]:
            A = np.array(chosen, dtype=int)
            return DominantSolution(A_star=A, norms=np.array(norms))
        radius += 1
    raise RuntimeError(f"enumeration exhausted at radius {radius - 1}")


def rowspan_contains_real(Atilde, A) -> bool:
    """True when every row of A lies in the real row space of Atilde (exact)."""
    Atilde = np.atleast_2d(np.asarray(Atilde, dtype=int))
    A = np.atleast_2d(np.asarray(A, dtype=int))
    base = _exact.int_rank(Atilde.tolist())
    for row in A:
        stacked = Atilde.tolist() + [row.tolist()]
        if _exact.int_rank(stacked) != base:
            return False
    return True


def mod_p_solvability(A, m: int, p: int) -> bool:
    """Can the m-th (1-indexed) unit row be solved from [A] mod p over Z_p?"""
    _zp.require_prime(p)
    A = np.atleast_2d(np.asarray(A, dtype=int))
    L = A.shape[1]
    if not 1 <= m <= L:
        raise ValueError(f"index {m} out of range 1..{L}")
    delta = [0] * L
    delta[m - 1] = 1
    return _zp.in_rowspan_mod_p(A.tolist(), [delta], p)


def is_unimodular(A) -> bool:
    return _exact.is_unimodular(np.atleast_2d(np.asarray(A, dtype=int)).tolist())


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
    """All Smith invariant factors of the leading block equal one.

    Equivalently the block can be completed to a unimodular matrix.
    """
    A = np.atleast_2d(np.asarray(A, dtype=int))
    block = _stacked_block(A)
    if block.shape[0] == 0:
        return True
    return all(d == 1 for d in _exact.invariant_factors(block.tolist()))


def primitivize(A) -> tuple[np.ndarray, np.ndarray]:
    """Rewrite [A_M; 0] as T @ A_prim with A_prim primitive.

    T is M x M lower triangular with strictly positive diagonal; A_prim has
    the same rowspan and stacked shape as A.
    """
    A = np.atleast_2d(np.asarray(A, dtype=int))
    block = _stacked_block(A)
    M, L = block.shape
    if M == 0:
        return A.copy(), np.zeros((0, 0), dtype=int)
    S, U, V = _exact.smith_normal_form(block.tolist())
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
