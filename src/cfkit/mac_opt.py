"""Multiple-access rate assignments built on parallel / successive computation.

Two strategies: (a) decode a full-rank set of shortest integer combinations in
parallel, cancel algebraically, and assign users to rows via a permutation --
lands within (L/2) log2 L bits of sum capacity; (b) chain successively with a
unimodular coefficient matrix -- hits sum capacity exactly whenever the
per-user noise conditions hold.

Every successive candidate, a (matrix, mapping, pi) triple, is scored by one
function, _score, on a stack of K of them as arrays: chained variances
(K x M), mapping supports (K x M x L) and decoding steps (K x L) in, accept
flags, rates and sum rates out.  The successive table scores all its
candidates in one call, and successive_mac_assignment its one candidate as a
stack of one, wording the first check that declines it.  The parallel table
scores and checks all pivot orders of the dominant solution in one pass
too.

Both tables stay arrays to the file: _parallel_table and _successive_table
return a _Table of their kept rows, duplicates dropped on array keys
(_first_rows: the rates through core.rounded, Python's round bit for bit),
and cli._mac_payload takes its columns from them, one tolist() per field.
parallel_mac_assignments and successive_mac_assignments make
MacAssignments of the same rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _exact, intsearch, regions
from .core import (ChannelInstance, achievable_rate, chained_variances, log2_plus,
                   require_full_row_rank, rounded, sum_capacity)
from .regions import AdmissibleMapping


@dataclass
class MacAssignment:
    A: np.ndarray
    mapping: AdmissibleMapping
    pi: tuple[int, ...]  # pi[l-1] = decoding step assigned to user l
    rates: tuple[float, ...]
    sum_rate: float
    gap_to_capacity: float


@dataclass
class SuccessiveOutcome:
    """Successive assignment, or the reason the conditions failed."""

    assignment: MacAssignment | None
    declined_reason: str | None = None

    def __bool__(self) -> bool:
        return self.assignment is not None


def mac_mapping(A, pivot_order=None) -> tuple[AdmissibleMapping, tuple[int, ...]]:
    """Admissible mapping + user permutation from row-swap-free elimination.

    Pivots greedily on the leftmost usable column unless pivot_order forces
    the column sequence.  The mapping is the support of L @ A, so it is the
    tightest pair set the elimination certifies.
    """
    A = _exact.int_matrix(A)
    if _exact.int_rank(A.tolist()) != A.shape[0]:
        raise ValueError("coefficient matrix must have full rank")
    res = regions.lu_mapping(A, pivot_order=pivot_order)
    if res is None:
        raise ValueError("forced pivot order requires a row swap; not admissible")
    return res


def parallel_mac_assignment(ch: ChannelInstance) -> MacAssignment:
    """Rate tuple R_l = 1/2 log+ (P_l / sigma2_para(a*_pi(l))) for the shortest
    independent combinations a*: the assignment with the best sum rate over
    the available pivot orders (deterministic tie handling)."""
    ch.require_positive_powers()
    best = None
    for cand in parallel_mac_assignments(ch):
        if best is None or cand.sum_rate > best.sum_rate + 1e-12:
            best = cand
    return best


def parallel_mac_assignments(ch: ChannelInstance) -> list[MacAssignment]:
    """One assignment per distinct rate tuple over the elimination
    permutations of the channel's dominant solution, in pivot-order order
    (the rows of _parallel_table)."""
    return _assignments(_parallel_table(ch), sum_capacity(ch))


class _Table(NamedTuple):
    """A mac table's kept rows, in table order: row k is the coefficient
    matrix matrices[k] (a read-only L x L array, shared by the rows of one
    candidate) under mappings[k], with decoding steps steps[k] (its pi,
    K x L), rates rates[k] (K x L) and sum rate sums[k]."""

    matrices: tuple
    mappings: tuple
    steps: np.ndarray
    rates: np.ndarray
    sums: np.ndarray


def _assignments(table: _Table, cap: float) -> list[MacAssignment]:
    """The table's rows as MacAssignments, with gaps to the sum capacity cap."""
    return [MacAssignment(A=A, mapping=mapping, pi=tuple(pi), rates=tuple(rates),
                          sum_rate=total, gap_to_capacity=cap - total)
            for A, mapping, pi, rates, total in zip(
                table.matrices, table.mappings, table.steps.tolist(),
                table.rates.tolist(), table.sums.tolist())]


def parallel_gap_bound(L: int) -> float:
    """(L/2) log2 L: how far below the sum capacity an L-user parallel
    assignment's sum rate may lie."""
    return 0.5 * L * log2_plus(L)


def _parallel_table(ch: ChannelInstance) -> _Table:
    """The parallel table in one array pass over the pivot orders of the
    dominant solution a* (its shared mappings).

    User l's rate under pi is R_l = 1/2 log+ (P_l / ||a*_pi(l)||^2), read
    from a table of achievable_rate over users and steps.  Every pivot
    order is checked at once against its own cancellation box (the
    asc_region box of its mapping, from the unchained row variances) and
    against the (L/2) log2 L gap bound; a failure raises AssertionError for
    the first order that fails.  Rows whose rates round (12 digits) to those
    of an earlier row are dropped.
    """
    ch.require_positive_powers()
    dom = ch._dominant_solution
    row_variances = regions.row_variances(ch, dom.A_star, chained=False)
    cap = sum_capacity(ch)
    dominant = ch._dominant_mappings
    L, K = ch.num_users, len(dominant)
    mappings = tuple(mapping for mapping, _pi in dominant)
    steps = np.array([pi for _mapping, pi in dominant])
    # entry 2 L l + m: user l's rate at step m + 1, then (m >= L) its box
    # cap from row m - L + 1 alone, with the box's tolerance.  A box caps
    # the user at the rate of the worst (largest) variance of the rows
    # mapped to it, the least of their rates: achievable_rate never
    # increases with the variance.  So a rate is outside its box when it
    # exceeds the cap of some mapped row.
    rate_at = np.array([[achievable_rate(power, n ** 2) for n in dom.norms.tolist()]
                        + [achievable_rate(power, v) + 1e-9 for v in row_variances]
                        for power in ch.P.tolist()]).ravel()
    rates = rate_at[[2 * L * l + step - 1 for _mapping, pi in dominant
                     for l, step in enumerate(pi)]].reshape(K, L)
    sums = _sum_rows(rates)
    # (rate, cap) for each pair (m, l) of each mapping, in mapping order
    capped = rate_at[np.array([(2 * L * (l - 1) + pi[l - 1] - 1, 2 * L * (l - 1) + L + m - 1)
                               for mapping, pi in dominant for m, l in mapping.pairs])]
    above = capped[:, 0] > capped[:, 1]
    bound = parallel_gap_bound(L) + 1e-9
    # cap - s never grows with s, so the least sum has the largest gap
    if np.logical_or.reduce(above) or cap - np.fmin.reduce(sums) > bound:
        orders = np.array([k for k, mapping in enumerate(mappings) for _pair in mapping.pairs])
        outside = np.isin(np.arange(K), orders[above])
        first = (outside | (cap - sums > bound)).argmax()
        raise AssertionError("assignment fell outside its own cancellation region"
                             if outside[first]
                             else "sum-rate gap exceeded the (L/2) log2 L bound")
    keep = _first_rows(rates, 12)
    if len(keep) < K:
        mappings = tuple(mappings[k] for k in keep)
        steps, rates, sums = steps[keep], rates[keep], sums[keep]
    return _Table((dom.A_star,) * len(keep), mappings, steps, rates, sums)


def _sum_rows(rates: np.ndarray) -> np.ndarray:
    """Each row's sum, adding its entries in order from 0, as a loop over
    the row does, whatever the number of rows."""
    sums = np.zeros(len(rates))
    for column in rates.T:
        sums += column
    return sums


def _first_rows(values: np.ndarray, ndigits: int) -> list:
    """The indices, ascending, of the rows of values (K x L) whose key,
    the row rounded to ndigits, equals no earlier row's: the rows a
    seen-set of tuple(round(v, ndigits) for v in row) keeps (-0.0 equals
    0.0, NaN equals nothing).  The keys are one core.rounded call, and a
    dict filled from the last row to the first keeps each key's earliest
    index."""
    K = len(values)
    if K < 2:
        return list(range(K))
    keys = map(tuple, reversed(rounded(values, ndigits).tolist()))
    return sorted(dict(zip(keys, range(K - 1, -1, -1))).values())


def successive_mac_assignment(ch: ChannelInstance, A, mapping, pi) -> SuccessiveOutcome:
    """Exact sum-capacity assignment via successive computation, when valid.

    Requires unimodular A with numerically independent rows and an
    admissible mapping allowing permutation pi (else ValueError).  Declines
    (with the reason) when some user's worst mapped noise is not the one pi
    assigns it, or when its power cannot cover that noise.  The candidate
    is scored by _score as a stack of one, and the reason names its first
    failed check.
    """
    A = _exact.int_matrix(A)
    if not intsearch.is_unimodular(A):
        raise ValueError("coefficient matrix must be unimodular")
    ch.require_positive_powers()
    mapping = regions._coerce_mapping(A, mapping)
    # as in successive_sum_identity, A[:-1] passing covers every prefix
    require_full_row_rank(A[:-1])
    pi = _exact.int_permutation(pi, 1, ch.num_users, "pi")
    variances = chained_variances(ch, A)
    cap = sum_capacity(ch)
    support = np.zeros((1, *A.shape), dtype=bool)
    _mark_pairs(support, 0, [mapping])
    scores = _score(ch.P, variances[None], support, np.array([pi]))
    if not scores.ok[0]:
        return SuccessiveOutcome(None, _declined_reason(ch, mapping, pi, scores))
    _require_capacity(scores.sums, cap, scores.ok)
    total = float(scores.sums[0])
    return SuccessiveOutcome(MacAssignment(
        A=A, mapping=mapping, pi=pi, rates=tuple(scores.rates[0].tolist()),
        sum_rate=total, gap_to_capacity=cap - total))


class _Scores(NamedTuple):
    """_score's answer for a stack of K candidates with L users.

    ok[k] accepts candidate k.  rates (K x L) and sums (K) are filled for
    every row, declined ones too.  The rest is kept to word a decline:
    last (K x L) is the last row mapped to each user (0 for none), worst
    the largest noise of those rows (-inf for none), assigned the noise of
    the user's own step, and worse and weak mark the users whose worst
    mapped noise, or whose power, fails that step's noise.
    """

    ok: np.ndarray
    rates: np.ndarray
    sums: np.ndarray
    last: np.ndarray
    worst: np.ndarray
    assigned: np.ndarray
    worse: np.ndarray
    weak: np.ndarray


def _score(P, variances, support, steps) -> _Scores:
    """Score K successive candidates in one pass of array operations.

    variances (K x M) are each candidate's chained row variances, support
    (K x M x L, bool) its mapping, pair (m, l) as entry [k, m - 1, l - 1],
    and steps (K x L) its pi, user l's decoding step in 1..M.  The
    mappings must be admissible for their matrices and each pi a
    permutation; M = L.

    A candidate is accepted when the last row mapped to each user is its
    own step (no pair sits below the step, and the step is mapped), no
    user's worst mapped noise exceeds its step's by more than a relative
    1e-9 plus 1e-12, and each power covers its step's noise to within
    1e-12.  User l's rate is 0.5 log2(P_l / assigned_l), and a sum adds
    the rates in user order from 0: the float operations of a
    per-candidate loop, so no bit depends on how many candidates are
    scored together.  The reductions are the ufuncs' own (maximum.reduce
    rather than max), which skip numpy's Python-level wrapper.
    """
    K, M, _L = support.shape
    last = np.maximum.reduce(np.where(support, np.arange(1, M + 1)[:, None], 0), axis=1)
    worst = np.maximum.reduce(np.where(support, variances[:, :, None], -np.inf), axis=1)
    assigned = variances[np.arange(K)[:, None], steps - 1]
    worse = worst > assigned * (1 + 1e-9) + 1e-12
    weak = P < assigned - 1e-12
    ok = ~np.logical_or.reduce((last != steps) | worse | weak, axis=1)
    rates = 0.5 * np.log2(P / assigned)
    return _Scores(ok, rates, _sum_rows(rates), last, worst, assigned, worse, weak)


def _mark_pairs(support, first: int, mappings) -> None:
    """Mark each mapping's pairs in rows first, first + 1, ... of a K x M x L
    support, in one write."""
    _K, M, L = support.shape
    support.reshape(-1)[[((k * M) + m - 1) * L + l - 1
                         for k, mapping in enumerate(mappings, first)
                         for m, l in mapping.pairs]] = True


def _declined_reason(ch, mapping, pi, scores: _Scores) -> str:
    """Word the first check that declined the one candidate of scores: a
    pair below its user's pivot step (the first such pair of
    mapping.pairs), else the first user, in order, whose step is unmapped,
    whose worst mapped noise exceeds it, or whose power is too low."""
    last, steps = scores.last[0], np.array(pi)
    if (last > steps).any():
        m, l = next((m, l) for m, l in mapping.pairs if m > pi[l - 1])
        return (f"mapping pair ({m},{l}) sits below user {l}'s pivot step "
                f"{pi[l - 1]}; pi is not allowed by this mapping")
    l = int(np.argmax((last != steps) | scores.worse[0] | scores.weak[0]))
    if last[l] != steps[l]:
        return f"user {l + 1} is not mapped to its assigned step {pi[l]}"
    assigned = scores.assigned[0, l]
    if scores.worse[0, l]:
        return (f"user {l + 1}: worst mapped noise {scores.worst[0, l]:.6g} exceeds "
                f"assigned step {pi[l]} noise {assigned:.6g}")
    return (f"user {l + 1}: power {ch.P[l]:.6g} below required noise "
            f"tolerance {assigned:.6g}")


def _require_capacity(sums: np.ndarray, cap: float, ok: np.ndarray) -> None:
    """Accepted candidates' rates sum to cap in exact arithmetic.  When the
    float sum of an accepted row (ok[k]) misses cap by more than 1e-8,
    ArithmeticError names the miss of the first such row: on an
    ill-conditioned channel the variances are not accurate enough for the
    assignment to be reported.  s - cap never falls as s grows, and cap - s
    never grows, so the largest and least accepted sums (NaN skipped, as a
    NaN miss fails the test) have the largest misses."""
    if (np.fmax.reduce(sums, initial=cap, where=ok) - cap > 1e-8
            or cap - np.fmin.reduce(sums, initial=cap, where=ok) > 1e-8):
        miss = np.abs(sums - cap)
        raise ArithmeticError(
            f"successive sum rate misses the sum capacity by "
            f"{miss[(ok & (miss > 1e-8)).argmax()]:.2e} "
            f"(tolerance 1e-8); the channel is too ill-conditioned")


@functools.cache
def _permutation_candidates(L: int) -> tuple:
    """(stack, support, steps, mappings) of the L! user permutation
    matrices, in ``itertools.permutations`` order, as read-only arrays and
    a tuple of AdmissibleMappings.  A permutation matrix's one
    lu_mappings_all result needs no elimination: step m pivots on the
    column of row m's one, with pivot 1, and clears nothing, so the
    mapping is the matrix's support and user l is decoded at the step
    whose row holds its one (steps = argsort(perm) + 1)."""
    perms = np.array(list(itertools.permutations(range(L))), dtype=int)
    stack = np.eye(L, dtype=int)[perms]
    support = stack.astype(bool)
    steps = np.argsort(perms, axis=1) + 1
    for a in (stack, support, steps):
        a.setflags(write=False)
    mappings = tuple(AdmissibleMapping(frozenset(zip(range(1, L + 1), (perm + 1).tolist())))
                     for perm in perms)
    return stack, support, steps, mappings


def successive_mac_assignments(ch: ChannelInstance) -> list[MacAssignment]:
    """Valid successive assignments over the natural candidates: all user
    permutation matrices plus the dominant solution (when unimodular), one
    per distinct rate tuple, in candidate then pivot-order order (the rows
    of _successive_table)."""
    return _assignments(_successive_table(ch), sum_capacity(ch))


def _successive_table(ch: ChannelInstance) -> _Table:
    """The successive table in one array pass over its candidates.

    A permutation matrix's one mapping is its support
    (_permutation_candidates); the dominant solution's are the channel's
    shared lu_mappings_all.  Both are admissible by construction and are
    used as they are.  The candidates are unimodular by construction (the
    dominant solution is checked once per channel,
    ChannelInstance._dominant_unimodular, before it joins them), so none is
    checked again.  Their chained variances are one chained_variances call on
    their stack, and every (matrix, mapping) pair is a row of one _score
    call.  Every accepted row must reach the sum capacity
    (_require_capacity), and rows whose rates round (10 digits) to those of
    an earlier accepted row are dropped.
    """
    # the search refuses more than MAX_EXACT_USERS users before L! candidates
    # are built
    dom = ch._dominant_solution
    dominant = ch._dominant_mappings if ch._dominant_unimodular else ()
    L = ch.num_users
    stack, perm_support, perm_steps, perm_mappings = _permutation_candidates(L)
    n = len(stack)
    K = n + len(dominant)
    cap = sum_capacity(ch)
    support = np.zeros((K, L, L), dtype=bool)
    steps = np.empty((K, L), dtype=int)
    support[:n], steps[:n] = perm_support, perm_steps
    mappings = perm_mappings
    if dominant:
        chained = chained_variances(ch, np.concatenate([stack, dom.A_star[None]]))
        # each pivot order of the dominant solution is a row of its own
        variances = np.concatenate([chained[:n], np.repeat(chained[n:], len(dominant), axis=0)])
        steps[n:] = [pi for _mapping, pi in dominant]
        mappings += tuple(mapping for mapping, _pi in dominant)
        _mark_pairs(support, n, mappings[n:])
    else:
        variances = chained_variances(ch, stack)
    scores = _score(ch.P, variances, support, steps)
    _require_capacity(scores.sums, cap, scores.ok)
    accepted = scores.ok.nonzero()[0]
    keep = accepted[_first_rows(scores.rates[accepted], 10)]
    rows = keep.tolist()
    return _Table(tuple(stack[k] if k < n else dom.A_star for k in rows),
                  tuple(mappings[k] for k in rows), steps[keep], scores.rates[keep],
                  scores.sums[keep])


def successive_sum_identity(ch: ChannelInstance, A, pi) -> tuple[float, float]:
    """(sum of per-step log rates under pi, sum capacity); equal for any
    unimodular A up to numerical error."""
    A = _exact.int_matrix(A)
    if not intsearch.is_unimodular(A):
        raise ValueError("coefficient matrix must be unimodular")
    ch.require_positive_powers()
    L = ch.num_users
    if A.shape[1] != L:
        raise ValueError("coefficient vector length must match user count")
    pi = _exact.int_permutation(pi, 1, L, "pi")
    # dropping rows cannot shrink the smallest singular value or grow the
    # largest, so when A[:-1] passes the check every shorter prefix does
    require_full_row_rank(A[:-1])
    variances = chained_variances(ch, A).tolist()
    lhs = float(sum(0.5 * np.log2(ch.P[l] / variances[pi[l] - 1]) for l in range(L)))
    return lhs, sum_capacity(ch)


def random_unimodular(L: int, rng: np.random.Generator, steps: int = 12,
                      entry_cap: int = 50) -> np.ndarray:
    """Product of random elementary integer row operations applied to I.

    Bounded entries keep the matrices well conditioned for numerical tests.
    """
    A = np.eye(L, dtype=int)
    for _ in range(steps):
        i, j = rng.integers(0, L, size=2)
        if i == j:
            A[i] = -A[i]
            continue
        f = int(rng.integers(-2, 3))
        trial = A.copy()
        trial[i] = trial[i] + f * trial[j]
        if np.max(np.abs(trial)) <= entry_cap:
            A = trial
    return A
