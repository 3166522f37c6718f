"""Multiple-access rate assignments built on parallel / successive computation.

Two strategies: (a) decode a full-rank set of shortest integer combinations in
parallel, cancel algebraically, and assign users to rows via a permutation --
lands within (L/2) log2 L bits of sum capacity; (b) chain successively with a
unimodular coefficient matrix -- hits sum capacity exactly whenever the
per-user noise conditions hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import _exact, intsearch, regions
from .core import (ChannelInstance, achievable_rate, chained_variances, log2_plus,
                   require_full_row_rank, sum_capacity)
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
    permutations of the channel's dominant solution, in pivot-order order.

    The dominant solution and its mappings are computed once per
    ChannelInstance and shared with the successive strategy.  Its unchained
    row variances (one regions.row_variances call) and the sum
    capacity are computed once per call; each permutation's rates are then
    checked against its own cancellation box (the asc_region box of its
    mapping) and against the (L/2) log2 L gap bound.
    """
    ch.require_positive_powers()
    dom = ch._dominant_solution
    bounds = _parallel_bounds(ch, dom)
    out = []
    seen = set()
    for mapping, pi in ch._dominant_mappings:
        asg = _assemble_parallel(ch, dom, mapping, pi, *bounds)
        key = tuple(round(r, 12) for r in asg.rates)
        if key not in seen:
            seen.add(key)
            out.append(asg)
    return out


def _parallel_bounds(ch, dom) -> tuple[list[float], float]:
    """Unchained row variances of dom.A_star, and the sum capacity."""
    return regions.row_variances(ch, dom.A_star, chained=False), sum_capacity(ch)


def _assemble_parallel(ch, dom, mapping, pi, row_variances, cap) -> MacAssignment:
    variances = [float(n) ** 2 for n in dom.norms]
    rates = tuple(achievable_rate(ch.P[l], variances[pi[l] - 1])
                  for l in range(ch.num_users))
    total = float(sum(rates))
    asg = MacAssignment(A=dom.A_star, mapping=mapping, pi=pi, rates=rates,
                        sum_rate=total, gap_to_capacity=cap - total)
    if not regions._box(ch, row_variances, mapping).contains(rates, tol=1e-9):
        raise AssertionError("assignment fell outside its own cancellation region")
    L = ch.num_users
    if asg.gap_to_capacity > 0.5 * L * log2_plus(L) + 1e-9:
        raise AssertionError("sum-rate gap exceeded the (L/2) log2 L bound")
    return asg


def successive_mac_assignment(ch: ChannelInstance, A, mapping, pi) -> SuccessiveOutcome:
    """Exact sum-capacity assignment via successive computation, when valid.

    Requires unimodular A with numerically independent rows and an
    admissible mapping allowing permutation pi (else ValueError).  Declines
    (with the reason) when some user's worst mapped noise is not the one pi
    assigns it, or when its power cannot cover that noise.
    """
    A = _exact.int_matrix(A)
    if not intsearch.is_unimodular(A):
        raise ValueError("coefficient matrix must be unimodular")
    ch.require_positive_powers()
    mapping = regions._coerce_mapping(A, mapping)
    # as in successive_sum_identity, A[:-1] passing covers every prefix
    require_full_row_rank(A[:-1])
    return _successive_outcome(ch, A, mapping, _decoding_steps(pi, ch.num_users),
                               chained_variances(ch, A).tolist(), sum_capacity(ch))


def _decoding_steps(pi, L: int) -> tuple[int, ...]:
    """pi read by _exact's integer rule; ValueError unless it is a
    permutation of the decoding steps 1..L."""
    pi = tuple(_exact._as_int(v, "pi entries") for v in pi)
    if sorted(pi) != list(range(1, L + 1)):
        raise ValueError("pi must be a permutation of decoding steps 1..L")
    return pi


def _successive_outcome(ch, A, mapping, pi, variances, cap) -> SuccessiveOutcome:
    """successive_mac_assignment after its checks on A, the mapping, pi and
    the powers: mapping is an AdmissibleMapping whose pairs are admissible
    for A, pi is a permutation of 1..L (a tuple of ints), variances are A's
    chained row variances and cap is sum_capacity(ch).

    The rates of an accepted assignment sum to cap in exact arithmetic.  A
    float sum that misses cap by more than 1e-8 raises ArithmeticError: on
    an ill-conditioned channel the variances are not accurate enough for
    the assignment to be reported.
    """
    L = ch.num_users
    for (m, l) in mapping.pairs:
        if 1 <= l <= L and m > pi[l - 1]:  # pairs naming no user are ignored
            return SuccessiveOutcome(
                None,
                f"mapping pair ({m},{l}) sits below user {l}'s pivot step "
                f"{pi[l - 1]}; pi is not allowed by this mapping")
    worst = mapping.worst_variances(variances, L)
    rates = []
    for l in range(L):
        if (pi[l], l + 1) not in mapping.pairs:
            return SuccessiveOutcome(None, f"user {l + 1} is not mapped to its assigned step {pi[l]}")
        worst_l = worst[l]
        assigned = variances[pi[l] - 1]
        if worst_l > assigned * (1 + 1e-9) + 1e-12:
            return SuccessiveOutcome(
                None,
                f"user {l + 1}: worst mapped noise {worst_l:.6g} exceeds assigned "
                f"step {pi[l]} noise {assigned:.6g}")
        if ch.P[l] < assigned - 1e-12:
            return SuccessiveOutcome(
                None,
                f"user {l + 1}: power {ch.P[l]:.6g} below required noise "
                f"tolerance {assigned:.6g}")
        rates.append(0.5 * np.log2(ch.P[l] / assigned))
    total = float(sum(rates))
    if abs(total - cap) > 1e-8:
        raise ArithmeticError(
            f"successive sum rate misses the sum capacity by {abs(total - cap):.2e} "
            f"(tolerance 1e-8); the channel is too ill-conditioned")
    asg = MacAssignment(A=A, mapping=mapping, pi=pi, rates=tuple(float(r) for r in rates),
                        sum_rate=total, gap_to_capacity=cap - total)
    return SuccessiveOutcome(asg)


def successive_mac_assignments(ch: ChannelInstance) -> list[MacAssignment]:
    """Valid successive assignments over the natural candidates: all user
    permutation matrices plus the dominant solution (when unimodular), one
    per distinct rate tuple, in candidate then pivot-order order.

    A permutation matrix's one mapping is read off its permutation
    (regions.permutation_mapping); the dominant solution's are the
    channel's shared lu_mappings_all.  Both are admissible by construction
    and are used as they are.  The sum capacity is computed once per
    call, and the chained variances of every candidate in one
    chained_variances call on their stack.  The candidates are unimodular
    by construction (the dominant solution is checked before it joins
    them), so none is checked again.
    """
    L = ch.num_users
    perms = list(itertools.permutations(range(L)))
    candidates = [np.eye(L, dtype=int)[list(perm)] for perm in perms]
    mappings = [[regions.permutation_mapping(perm)] for perm in perms]
    dom = ch._dominant_solution
    if intsearch.is_unimodular(dom.A_star):
        candidates.append(dom.A_star)
        mappings.append(ch._dominant_mappings)
    cap = sum_capacity(ch)
    variances = chained_variances(ch, np.stack(candidates)).tolist()
    out = []
    seen = set()
    for A, row_variances, results in zip(candidates, variances, mappings):
        for mapping, pi in results:
            outcome = _successive_outcome(ch, A, mapping, pi, row_variances, cap)
            if outcome:
                key = tuple(round(r, 10) for r in outcome.assignment.rates)
                if key not in seen:
                    seen.add(key)
                    out.append(outcome.assignment)
    return out


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
    pi = _decoding_steps(pi, L)
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
