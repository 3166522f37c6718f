"""Dense linear-algebra kernels for compute-and-forward rate computations.

Conventions: a receiver with N_r antennas observes Y = H X + Z where the rows
of X are the user signals, H is N_r x L, Z is unit-variance AWGN, and user
powers sit on the diagonal of P.  Everything downstream (rate regions, integer
search, decoders) consumes the effective-noise variances computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _exact

UNBOUNDED = math.inf

_RANK_RTOL = 1e-10  # singular values below this fraction of the max count as zero


@dataclass(frozen=True)
class ChannelInstance:
    """Real channel matrix H (N_r x L) plus per-user powers P (length L)."""

    H: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        H = np.array(self.H, dtype=float)
        P = np.array(self.P, dtype=float)
        if H.ndim != 2 or H.shape[0] < 1 or H.shape[1] < 1:
            raise ValueError("H must be a matrix with at least one row and column")
        if P.ndim != 1:
            raise ValueError("P must be a vector with one power per user")
        if not np.all(np.isfinite(H)):
            raise ValueError("H must be finite-valued")
        if P.shape[0] != H.shape[1]:
            raise ValueError(f"power vector length {P.shape[0]} != user count {H.shape[1]}")
        if not np.all(np.isfinite(P)) or np.any(P < 0):
            raise ValueError("powers must be finite and nonnegative")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "P", P)
        H.setflags(write=False)
        P.setflags(write=False)

    @property
    def num_users(self) -> int:
        return self.H.shape[1]

    @property
    def num_antennas(self) -> int:
        return self.H.shape[0]

    def require_positive_powers(self):
        zeros = np.flatnonzero(self.P == 0)
        if zeros.size:
            raise ValueError(
                f"user {zeros[0] + 1} has zero power; strip zero-power users first")

    def P_matrix(self) -> np.ndarray:
        return np.diag(self.P)

    @cached_property
    def _effective_matrix(self) -> np.ndarray:
        # effective_matrix's factor, built on first use and kept in this
        # instance's __dict__; a raise stores nothing, so a failing channel
        # fails again on the next call
        gram = lattice_gram(self)
        alt = _gram_woodbury(self)
        scale = max(1.0, float(np.max(np.abs(gram))))
        if np.max(np.abs(gram - alt)) > 1e-8 * scale:
            raise ArithmeticError("inconsistent Gram matrix; input is too ill-conditioned")
        rev = slice(None, None, -1)
        chol = np.linalg.cholesky(gram[rev, rev])  # gram reversed = chol @ chol.T
        F = chol.T[rev, rev]
        F.setflags(write=False)
        return F

    @cached_property
    def _sum_capacity(self) -> float:
        # sum_capacity's value, kept like _effective_matrix: a raise
        # stores nothing
        H = self.H
        if self.num_antennas > self.num_users:
            root = np.sqrt(self.P)
            G = np.eye(self.num_users) + root[:, None] * (H.T @ H) * root
        else:
            G = np.eye(self.num_antennas) + H @ self.P_matrix() @ H.T
        sign, logdet = np.linalg.slogdet(G)
        if sign <= 0:
            raise ArithmeticError("I + H P H^T must be positive definite")
        return 0.5 * logdet / math.log(2.0)

    @cached_property
    def _dominant_solution(self):
        # intsearch.dominant_solution of effective_matrix at the default
        # radius, 64 (one ellipsoid enumeration, certified for entries up
        # to it), kept like _effective_matrix: read-only arrays, and nothing
        # stored when the search raises
        from . import intsearch

        dom = intsearch.dominant_solution(effective_matrix(self))
        dom.A_star.setflags(write=False)
        dom.norms.setflags(write=False)
        return dom

    @cached_property
    def _dominant_mappings(self):
        # regions.lu_mappings_all of the dominant solution, shared by the
        # parallel and successive strategies like _dominant_solution; each
        # mapping is a frozen pair set, so the tuple is immutable
        from . import regions

        return tuple(regions.lu_mappings_all(self._dominant_solution.A_star))

    @cached_property
    def _dominant_unimodular(self) -> bool:
        # _exact.is_unimodular of the dominant solution, kept like
        # _dominant_mappings: the successive table's test of whether the
        # solution joins its candidates, an answer of the channel alone
        return _exact.is_unimodular(self._dominant_solution.A_star)


@dataclass
class NoiseReport:
    """Effective-noise variance with the equalizers that achieve it."""

    variance: float
    b_opt: np.ndarray
    c_opt: np.ndarray | None = None
    projector: np.ndarray | None = None


def lattice_gram(ch: ChannelInstance) -> np.ndarray:
    """(P^-1 + H^T H)^-1, the Gram matrix of the effective channel lattice."""
    ch.require_positive_powers()
    H, P = ch.H, ch.P
    M = np.diag(1.0 / P) + H.T @ H
    try:
        gram = np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError("P^-1 + H^T H is singular") from exc
    return 0.5 * (gram + gram.T)


def _gram_woodbury(ch: ChannelInstance) -> np.ndarray:
    H = ch.H
    P = ch.P_matrix()
    G = np.eye(ch.num_antennas) + H @ P @ H.T
    return P - P @ H.T @ np.linalg.solve(G, H @ P)


def effective_matrix(ch: ChannelInstance) -> np.ndarray:
    """Lower-triangular F with F^T F = (P^-1 + H^T H)^-1.

    The factor is not unique; callers must only rely on F^T F.  The direct
    inverse is cross-checked against the equivalent Woodbury expression
    P - P H^T (I + H P H^T)^-1 H P as a numerical guard.

    F is built once per ChannelInstance, on the first call, and every later
    call on that instance returns the same read-only array.  Errors (a
    zero-power user, a singular or inconsistent Gram matrix) are raised anew
    on every call; nothing is cached for them.
    """
    return ch._effective_matrix


def sigma_para_eval(ch: ChannelInstance, a, b) -> float:
    """Effective noise variance ||b||^2 + ||(b^T H - a^T) P^(1/2)||^2:
    sigma_succ_eval with no prior rows."""
    return sigma_succ_eval(ch, a, (), b, ())


def mmse_solve(ch: ChannelInstance, a, prev, noise_levels) -> list[tuple[np.ndarray, np.ndarray]]:
    """The MMSE (b, c) of row a given the real combinations of the rows of
    prev, at each noise deviation s of noise_levels, in their order: the
    (minimum-norm) least-squares solution of
    [P^1/2 H^T, P^1/2 prev^T; s I, 0] [b; c] ~ [P^1/2 a; 0] on the unscaled
    channel, so (s^2 I + H P H^T) b = H P (a - prev^T c).  Its squared
    residual is the effective-noise variance of (s b, c) on the channel
    H / s, which sigma_succ_opt minimizes; s = 0 gives zero forcing.  This
    is the one equalizer solve: sigma_para_opt and sigma_succ_opt take
    theirs from it at s = 1, and the simulator's equalizers at every level.
    The top block and the target do not depend on s and are built once; a
    level writes only the s I block before its lstsq, so each matrix has
    the bits of the level's own."""
    antennas, users = ch.H.shape
    root = np.sqrt(ch.P)[:, None]
    D = np.zeros((users + antennas, antennas + prev.shape[0]))
    np.multiply(ch.H.T, root, out=D[:users, :antennas])
    np.multiply(prev.T, root, out=D[:users, antennas:])
    target = np.zeros(users + antennas)
    np.multiply(a, root[:, 0], out=target[:users])
    diagonal = (np.arange(users, users + antennas), np.arange(antennas))
    out = []
    for s in noise_levels:
        # the s I block, as s * np.eye gives it for s >= 0
        D[diagonal] = s
        z = np.linalg.lstsq(D, target, rcond=None)[0]
        out.append((z[:antennas], z[antennas:]))
    return out


def sigma_para_opt(ch: ChannelInstance, a) -> NoiseReport:
    """MMSE equalizer b (mmse_solve at unit noise) and minimal variance
    a^T (P^-1 + H^T H)^-1 a = ||F a||^2."""
    a = np.asarray(a, dtype=float).ravel()
    if a.shape[0] != ch.num_users:
        raise ValueError("coefficient vector length must match user count")
    variance = noise_variance(ch, a)
    b_opt = mmse_solve(ch, a, np.zeros((0, ch.num_users)), (1.0,))[0][0]
    return NoiseReport(variance=variance, b_opt=b_opt)


def _chained_rows(F: np.ndarray, S: np.ndarray, m: int) -> np.ndarray:
    """Chained variance ||N F a_m||^2 of row a_m = S[m] given rows 0..m-1
    (||F a_0||^2 for m = 0), one value per matrix of S: an M x L matrix or a
    K x M x L stack.  N = I - Q Q^T with Q from the QR of F S[:m]^T, much
    better conditioned than forming S[:m] (F^T F) S[:m]^T.  This is the one
    variance computation: every other variance is read from here.  A QR of
    the whole F S^T, or R's diagonal, would change the bits.
    """
    Fa = np.matmul(F, S[..., m, :, None])
    if m == 0:
        return np.add.reduce(Fa[..., 0] ** 2, axis=-1)
    Q = np.linalg.qr(F @ S[..., :m, :].swapaxes(-1, -2))[0]
    resid = Fa - np.matmul(Q, np.matmul(Q.swapaxes(-1, -2), Fa))
    return np.matmul(resid.swapaxes(-1, -2), resid)[..., 0, 0]


def chained_variances(ch: ChannelInstance, A) -> np.ndarray:
    """noise_variance(ch, A[m], A[:m]) for every row m of A, bitwise.

    A is one M x L integer matrix or a K x M x L stack of them; the result
    has shape (M,) or (K, M).  The rows of each matrix must be exactly
    independent (a unimodular matrix's, say); this is not checked.  Each
    prefix length takes one QR of the whole stack (_chained_rows).
    """
    S = np.asarray(A, dtype=float)
    if S.ndim not in (2, 3) or S.shape[-1] != ch.num_users:
        raise ValueError("A must be an M x L matrix or a K x M x L stack "
                         "with one column per user")
    F = effective_matrix(ch)
    out = np.empty(S.shape[:-1])
    for m in range(S.shape[-2]):
        out[..., m] = _chained_rows(F, S, m)
    return out


def _prev_rows(A_prev, L: int) -> np.ndarray:
    """The prior rows as a float matrix; no rows is a 0 x L matrix."""
    if not np.size(A_prev):
        return np.zeros((0, L))
    return np.atleast_2d(np.asarray(A_prev, dtype=float))


def _succ_rows(ch: ChannelInstance, a_m, A_prev) -> np.ndarray:
    """The float matrix [A_prev; a_m]; ValueError("dimension mismatch")
    unless a_m and the prior rows have one entry per user."""
    a_m = np.asarray(a_m, dtype=float).ravel()
    A_prev = _prev_rows(A_prev, ch.num_users)
    if A_prev.shape[1] != ch.num_users or a_m.shape[0] != ch.num_users:
        raise ValueError("dimension mismatch")
    return np.vstack([A_prev, a_m])


def noise_variance(ch: ChannelInstance, a_m, A_prev=()) -> float:
    """sigma_succ_opt(ch, a_m, A_prev).variance without the equalizers:
    the _chained_rows value of the last row of [A_prev; a_m].  With no
    prior rows this is sigma_para_opt's ||F a_m||^2.  The widths are
    checked but not the rank of A_prev: callers pass rows they know to be
    exactly independent (the rows of a unimodular matrix, say).
    """
    S = _succ_rows(ch, a_m, A_prev)
    return float(_chained_rows(effective_matrix(ch), S, S.shape[0] - 1))


def sigma_succ_eval(ch: ChannelInstance, a_m, A_prev, b, c) -> float:
    """Variance ||b||^2 + ||(b^T H + c^T A_prev - a_m^T) P^(1/2)||^2."""
    a_m = np.asarray(a_m, dtype=float).ravel()
    A_prev = _prev_rows(A_prev, ch.num_users)
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel() if np.size(c) else np.zeros(0)
    if A_prev.shape[0] != c.shape[0]:
        raise ValueError("c must have one entry per prior combination")
    if A_prev.shape[1] != ch.num_users:
        raise ValueError("A_prev column count must match user count")
    if a_m.shape[0] != ch.num_users or b.shape[0] != ch.num_antennas:
        raise ValueError("dimension mismatch")
    mismatch = b @ ch.H - a_m
    if A_prev.shape[0]:
        mismatch = mismatch + c @ A_prev
    return float(b @ b + mismatch @ (ch.P * mismatch))


def _numeric_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_RTOL * s[0]))


def require_full_row_rank(A_prev) -> None:
    """ValueError unless the prior rows have full row rank numerically
    (singular values above _RANK_RTOL of the largest)."""
    if _numeric_rank(np.asarray(A_prev, dtype=float)) != len(A_prev):
        raise ValueError("A_prev must have full row rank (drop dependent rows)")


def sigma_succ_opt(ch: ChannelInstance, a_m, A_prev) -> NoiseReport:
    """MMSE (b, c) pair given exact prior combinations A_prev, plus variance.

    A_prev must have full row rank; callers drop dependent rows first.  The
    variance is noise_variance's ||N F a_m||^2 for the projector N onto the
    orthogonal complement of F A_prev^T; with no prior rows, N = I.
    """
    S = _succ_rows(ch, a_m, A_prev)
    a_m, A_prev = S[-1], S[:-1]
    require_full_row_rank(A_prev)
    variance = noise_variance(ch, a_m, A_prev)
    Q = np.linalg.qr(effective_matrix(ch) @ A_prev.T)[0]
    [(b_opt, c_opt)] = mmse_solve(ch, a_m, A_prev, (1.0,))
    return NoiseReport(variance=variance, b_opt=b_opt, c_opt=c_opt,
                       projector=np.eye(ch.num_users) - Q @ Q.T)


def sum_capacity(ch: ChannelInstance) -> float:
    """Multiple-access sum capacity 0.5 log2 det(I + H P H^T).

    With more antennas than users the determinant is taken as that of the
    L x L matrix I + P^1/2 H^T H P^1/2 (Sylvester's identity): the larger
    N_r x N_r one is rank-deficient plus I, and with large entries its
    log-determinant loses the unit eigenvalues.

    Computed once per ChannelInstance, like effective_matrix: every later
    call on that instance returns the same float, and an error is raised
    anew on every call.
    """
    return ch._sum_capacity


def rounded(values, ndigits: int) -> np.ndarray:
    """round(v, ndigits) of every entry of values, bit for bit, as a float
    array of the same shape; 0 <= ndigits <= 22, so 10**ndigits is exact.

    Python's round takes the integer N nearest to the exact v 10^n (half
    to even) and returns the float nearest to N / 10^n.  Below 2^51 every
    half-integer is a float, and rounding to a float never changes the
    order of two numbers, so the float product y = v * 10^n lies on the
    same side of every half-integer as the exact product, or on one.
    Where it is not on one, rint(y) is N, and N / 10^n is one correctly
    rounded division.  The entries whose y is a half-integer, at or above
    2^51, or not finite take Python's round.
    """
    v = np.asarray(values, dtype=float)
    scale = 10.0 ** ndigits
    size = np.abs(v)
    # the common case, checked on the largest entry: every entry finite
    # and below 2^51 / 10^n, and no y a half-integer (a NaN fails every
    # comparison)
    if float(np.maximum.reduce(size, axis=None, initial=0.0)) * scale < 2.0 ** 51:
        y = v * scale
        r = np.rint(y)
        # y - r is exact, and 0.5 in size only where y is a half-integer
        if np.maximum.reduce(np.abs(y - r), axis=None, initial=0.0) < 0.5:
            return r / scale
    # else entry by entry, the large and not finite ones masked to 0
    big = ~(size < 2.0 ** 51 / scale)
    y = np.where(big, 0.0, v) * scale
    r = np.rint(y)
    out = r / scale
    slow = big | (np.abs(y - r) >= 0.5)
    out[slow] = [round(x, ndigits) for x in v[slow].tolist()]
    return out


def log2_plus(x: float) -> float:
    return max(0.0, math.log2(x)) if x > 0 else 0.0


def achievable_rate(power: float, variance: float) -> float:
    """0.5 log2^+(power / variance); zero variance with positive power is unbounded."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    if variance == 0.0:
        return UNBOUNDED if power > 0 else 0.0
    return 0.5 * log2_plus(power / variance)
