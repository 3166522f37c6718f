"""Achievable rate regions: per-combination boxes for parallel/successive
computation, multiple-access capacity constraint sets, SIC rate tuples,
membership search, and exact 2D region geometry (intersections and hulls).

Index pairs in mappings are 1-indexed, matching the (combination, user)
naming used throughout: (m, l) means user l must tolerate the noise of
decoding step m.  mapping_pairs is the one reader of a mapping: it refuses
a pair that names no row or no user of the coefficient matrix, so every
consumer takes a mapping's pairs as given.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _exact, intsearch
from .core import (UNBOUNDED, ChannelInstance, achievable_rate, chained_variances,
                   noise_variance, require_full_row_rank, sum_capacity)

_TOL = 1e-9
MAX_CANDIDATES = 500_000  # membership's cap on the integer matrices it scans


@dataclass(frozen=True)
class AdmissibleMapping:
    """Set of (combination, user) pairs that some lower-unitriangular L
    makes admissible: (L @ A)[m, l] == 0 for every pair outside the set,
    which is what makes the cancellation order realizable.  is_admissible
    decides this exactly; the mapping holds only its pairs.
    """

    pairs: frozenset[tuple[int, int]]


@dataclass
class Box:
    caps: tuple[float, ...]  # per-user rate caps; math.inf marks "unbounded"
    provenance: dict | str | None = None

    def contains(self, rates, tol: float = _TOL) -> bool:
        rates = np.asarray(rates, dtype=float).ravel()
        return all(r <= c + tol for r, c in zip(rates, self.caps))


@dataclass
class RateRegionSpec:
    """Union of axis-aligned boxes and/or a list of subset-sum constraints."""

    L: int
    boxes: list[Box] = field(default_factory=list)
    constraint_sets: list[tuple[frozenset, float]] | None = None

    def contains(self, rates, tol: float = _TOL) -> bool:
        rates = np.asarray(rates, dtype=float).ravel()
        if self.boxes and any(b.contains(rates, tol) for b in self.boxes):
            return True
        if self.constraint_sets is not None:
            return all(sum(rates[u - 1] for u in users) <= bound + tol
                       for users, bound in self.constraint_sets)
        return False


def mapping_pairs(mapping, M: int, L: int) -> frozenset:
    """The (m, l) pairs of an AdmissibleMapping, or of any iterable of
    pairs, as a frozenset of int pairs, each entry read by _exact's integer
    rule.  A pair names a row m and a user l of an M x L coefficient
    matrix; an entry that is not an integer, or a pair outside the matrix,
    raises ValueError."""
    if isinstance(mapping, AdmissibleMapping):
        mapping = mapping.pairs
    pairs = frozenset((_exact._as_int(m, "mapping pairs"), _exact._as_int(l, "mapping pairs"))
                      for (m, l) in mapping)
    if not all(1 <= m <= M and 1 <= l <= L for m, l in pairs):
        raise ValueError(f"mapping pairs [m, l] need 1 <= m <= {M} and 1 <= l <= {L}")
    return pairs


def all_pairs_mapping(L: int) -> AdmissibleMapping:
    pairs = frozenset((m, l) for m in range(1, L + 1) for l in range(1, L + 1))
    return AdmissibleMapping(pairs)


def participation_mapping(Atilde) -> AdmissibleMapping:
    """Pairs where the coefficient is nonzero; always admissible (L = I)."""
    A = _exact.int_matrix(Atilde)
    pairs = frozenset((m + 1, l + 1) for m in range(A.shape[0])
                      for l in range(A.shape[1]) if A[m, l] != 0)
    return AdmissibleMapping(pairs)


def cancellation_solves(rows: list, pairs: frozenset):
    """For each row m (0-indexed) with columns outside the mapping, yield
    (m, _exact.solve's answer for the coefficients on rows 0..m-1 that zero
    every such column l, (m + 1, l + 1) not in pairs): (numerators, D), or
    None when no combination of the earlier rows does."""
    for m, row in enumerate(rows):
        cols = [l for l in range(len(row)) if (m + 1, l + 1) not in pairs]
        if cols:
            yield m, _exact.solve([[rows[i][c] for i in range(m)] for c in cols],
                                  [-row[c] for c in cols])


def is_admissible(Atilde, pairs) -> AdmissibleMapping | None:
    """The pair set as an AdmissibleMapping when some lower-unitriangular L
    makes it admissible for Atilde, else None.

    Decided exactly by cancellation_solves, the same solve as
    simulator.zp_asc_matrix.  Atilde must be an integer matrix (else
    ValueError) and may have any number of rows; mapping_pairs refuses a
    pair naming no row or no column of it.
    """
    rows = _exact.int_rows(Atilde)
    pairs = mapping_pairs(pairs, len(rows), len(rows[0]) if rows else 0)
    if any(sol is None for _m, sol in cancellation_solves(rows, pairs)):
        return None
    return AdmissibleMapping(pairs)


def _lu_walk(A, pivot_order=None):
    """Yield (mapping, pi) for every pivot order that needs no row swap, in
    ``itertools.permutations`` order, or only for pivot_order when given
    (ValueError unless it is a permutation of the columns 0..L-1).

    Walks the pivot prefixes depth first, trying columns in increasing order,
    so each prefix is eliminated once (one fraction-free step,
    _exact.eliminate_below) and a zero pivot prunes every order that starts
    with that prefix (a permutation matrix costs L steps, not L! orders).
    Distinct orders give distinct pi, so no result repeats.  The mapping is
    the support of the eliminated rows: the row operations that produce
    them are the lower-unitriangular L that makes it admissible.
    """
    A = _exact.int_matrix(A)
    L = A.shape[0]
    pi = [0] * L
    if pivot_order is not None:
        pivot_order = _exact.int_permutation(pivot_order, 0, L, "pivot order")

    def walk(rows, step, d):
        if step == L:
            pairs = frozenset((m + 1, l + 1) for m in range(L) for l in range(L)
                              if rows[m][l])
            yield AdmissibleMapping(pairs), tuple(pi)
            return
        cols = range(L) if pivot_order is None else (pivot_order[step],)
        for col in cols:
            pivot = rows[step][col]
            if pi[col] == 0 and pivot != 0:
                pi[col] = step + 1
                yield from walk(_exact.eliminate_below(rows, step, col, d), step + 1, pivot)
                pi[col] = 0

    return walk(A.tolist(), 0, 1)


def lu_mapping(A, pivot_order=None) -> tuple[AdmissibleMapping, tuple[int, ...]] | None:
    """Eliminate below each pivot without row swaps; returns (mapping, pi).

    pivot_order optionally forces the column (0-indexed) pivoted at each step;
    by default the leftmost unused nonzero column is taken (the first order
    of _lu_walk: on a full-rank matrix no prefix dead-ends).  pi[l-1] is the
    step at which user l's column was pivoted (1-indexed), so L @ A is upper
    triangular once columns are permuted into pivot order.  Returns None when
    a forced pivot is zero (that order needs a row swap); with no forced
    order, a matrix with no such order is rank deficient (ValueError).
    """
    res = next(_lu_walk(A, pivot_order), None)
    if res is None and pivot_order is None:
        raise ValueError("matrix is rank deficient")
    return res


def lu_mappings_all(A) -> list[tuple[AdmissibleMapping, tuple[int, ...]]]:
    """(mapping, pi) for every pivot order that needs no row swap, in
    ``itertools.permutations`` order; each result equals
    ``lu_mapping(A, order)``."""
    return list(_lu_walk(A))


def row_variances(ch: ChannelInstance, Atilde, chained: bool) -> list[float]:
    """Per-row effective noise variance, chained (successive) or not.

    A chained row is conditioned on the earlier rows that _exact.kept_rows
    keeps, which must have full row rank numerically
    (core.require_full_row_rank).  The check runs once, on the longest
    such prefix: dropping rows cannot shrink the smallest singular value
    or grow the largest, so every shorter prefix passes with it.  The
    values are core._chained_rows' (through chained_variances and
    noise_variance), so bitwise sigma_para_opt's and sigma_succ_opt's.
    """
    A = _exact.int_matrix(Atilde)
    if not A.shape[0]:
        return []
    if A.shape[1] != ch.num_users:
        raise ValueError("coefficient vector length must match user count")
    if not chained:
        # each row alone is a chain of one step
        return chained_variances(ch, A[:, None, :])[:, 0].tolist()
    kept = _exact.kept_rows(A.tolist())
    prefix = [i for i in range(A.shape[0] - 1) if kept[i]]
    require_full_row_rank(A[prefix])
    return [noise_variance(ch, A[m], A[[i for i in prefix if i < m]])
            for m in range(A.shape[0])]


def _box(ch: ChannelInstance, variances, mapping: AdmissibleMapping,
         provenance: dict | None = None) -> Box:
    """The box of a mapping: user l is capped by the worst of the rows
    mapped to it, and unbounded when none is.  achievable_rate never
    increases with the variance, so this is the least of the rows' rates."""
    worst = [None] * ch.num_users
    for m, l in mapping.pairs:
        if worst[l - 1] is None or variances[m - 1] > worst[l - 1]:
            worst[l - 1] = variances[m - 1]
    caps = tuple(UNBOUNDED if v is None else achievable_rate(ch.P[l], v)
                 for l, v in enumerate(worst))
    return Box(caps=caps, provenance=provenance)


def para_region(ch: ChannelInstance, Atilde) -> RateRegionSpec:
    """One box: user l is capped by the worst row in which it participates."""
    A = _exact.int_matrix(Atilde)
    box = _box(ch, row_variances(ch, A, chained=False), participation_mapping(A),
               {"Atilde": A.tolist(), "mapping": "participation"})
    return RateRegionSpec(L=ch.num_users, boxes=[box])


def succ_region(ch: ChannelInstance, Atilde, mapping) -> RateRegionSpec:
    """One box from chained variances; caps follow the admissible mapping."""
    A = _exact.int_matrix(Atilde)
    mapping = _coerce_mapping(A, mapping)
    box = _box(ch, row_variances(ch, A, chained=True), mapping,
               {"Atilde": A.tolist(), "mapping": sorted(mapping.pairs)})
    return RateRegionSpec(L=ch.num_users, boxes=[box])


def asc_region(ch: ChannelInstance, Atilde, mapping) -> RateRegionSpec:
    """Like succ_region but with unchained per-row variances (side-information
    equalizers set to zero: only the cancellation order is exploited)."""
    A = _exact.int_matrix(Atilde)
    mapping = _coerce_mapping(A, mapping)
    box = _box(ch, row_variances(ch, A, chained=False), mapping,
               {"Atilde": A.tolist(), "mapping": sorted(mapping.pairs), "chained": False})
    return RateRegionSpec(L=ch.num_users, boxes=[box])


def _coerce_mapping(A: np.ndarray, mapping) -> AdmissibleMapping:
    """is_admissible's answer for A and the mapping (an AdmissibleMapping
    or a raw pair set), or ValueError when it is not admissible for A
    exactly."""
    admissible = is_admissible(A, mapping)
    if admissible is None:
        raise ValueError("mapping is not admissible for this coefficient matrix")
    return admissible


def mac_region(ch: ChannelInstance) -> RateRegionSpec:
    """Multiple-access capacity region as 2^L - 1 subset-sum constraints."""
    L = ch.num_users
    constraints = []
    for r in range(1, L + 1):
        for subset in itertools.combinations(range(L), r):
            sub = ChannelInstance(H=ch.H[:, list(subset)], P=ch.P[list(subset)])
            constraints.append((frozenset(u + 1 for u in subset), sum_capacity(sub)))
    return RateRegionSpec(L=L, boxes=[], constraint_sets=constraints)


def sic_rates(ch: ChannelInstance, order) -> tuple[float, ...]:
    """Rate tuple of successive interference cancellation in the given
    decoding order (1-indexed users, first decoded first)."""
    order = _exact.int_permutation(order, 1, ch.num_users, "order")
    H, P = ch.H, ch.P
    rates = [0.0] * ch.num_users
    for pos, user in enumerate(order):
        later = [u - 1 for u in order[pos + 1:]]
        G = np.eye(ch.num_antennas)
        for i in later:
            hi = H[:, i:i + 1]
            G = G + P[i] * (hi @ hi.T)
        h = H[:, user - 1]
        snr = P[user - 1] * float(h @ np.linalg.solve(G, h))
        rates[user - 1] = 0.5 * math.log2(1.0 + snr)
    return tuple(rates)


@dataclass
class MembershipResult:
    status: str  # "member", "not_member", or "inconclusive"
    witness_Atilde: np.ndarray | None = None
    witness_mapping: AdmissibleMapping | None = None

    def __bool__(self) -> bool:
        return self.status == "member"


def membership(ch: ChannelInstance, A, rates, mode: str = "parallel",
               search_bound: int | None = None) -> MembershipResult:
    """Search bounded integer matrices whose rowspan contains rowspan(A) for a
    box covering the rate tuple.

    Definite rejection uses the capacity-region outer bound; otherwise a
    failed search is reported as "inconclusive" because the achievable union
    ranges over all integer matrices, not just the searched box.
    """
    if mode not in ("parallel", "successive"):
        raise ValueError("mode must be 'parallel' or 'successive'")
    A = _exact.int_matrix(A)
    L = ch.num_users
    rates = np.asarray(rates, dtype=float).ravel()
    if np.all(rates <= _TOL):
        pad = np.vstack([A, np.zeros((max(0, L - A.shape[0]), L), dtype=int)])
        return MembershipResult("member", pad, all_pairs_mapping(L))
    if not mac_region(ch).contains(rates):
        return MembershipResult("not_member")
    if search_bound is None:
        search_bound = int(math.ceil(math.sqrt(intsearch.entry_bound(ch))))
    count = (2 * search_bound + 1) ** (L * L)
    if count > MAX_CANDIDATES:
        raise ValueError(f"{count} candidate matrices exceed MAX_CANDIDATES={MAX_CANDIDATES}")
    entries = range(-search_bound, search_bound + 1)
    nonzero_users = [l for l in range(L) if rates[l] > _TOL]
    for flat in itertools.product(entries, repeat=L * L):
        cand = np.array(flat, dtype=int).reshape(L, L)
        # participation prefilter: every positive-rate user needs a box cap
        if any(not np.any(cand[:, l]) for l in nonzero_users):
            continue
        if not intsearch.rowspan_contains_real(cand, A):
            continue
        if mode == "parallel":
            if para_region(ch, cand).contains(rates):
                return MembershipResult("member", cand, None)
        else:
            # lu_mappings_all's mappings are admissible by construction,
            # and the all-pairs mapping leaves nothing to cancel: neither
            # is checked again
            variances = row_variances(ch, cand, chained=True)
            mappings = [all_pairs_mapping(L)]
            if _exact.int_rank(cand.tolist()) == L:
                mappings = [mapping for mapping, _pi in lu_mappings_all(cand)] + mappings
            for mapping in mappings:
                if _box(ch, variances, mapping).contains(rates):
                    return MembershipResult("member", cand, mapping)
    return MembershipResult("inconclusive")


# ---------------------------------------------------------------------------
# exact 2D geometry
# ---------------------------------------------------------------------------

def _frac(x) -> Fraction | None:
    return None if x == UNBOUNDED else Fraction(float(x))


class _Region2D:
    """Upper boundary y = f(x) of a two-user region, evaluated exactly."""

    def __init__(self, spec: RateRegionSpec):
        if spec.L != 2:
            raise ValueError("2D geometry requires exactly two users")
        self.boxes: list[tuple[Fraction | None, Fraction | None]] = []
        self.poly: tuple[Fraction, Fraction, Fraction] | None = None
        if spec.constraint_sets is not None:
            c1 = c2 = c12 = None
            for users, bound in spec.constraint_sets:
                b = Fraction(float(bound))
                if users == frozenset({1}):
                    c1 = b
                elif users == frozenset({2}):
                    c2 = b
                elif users == frozenset({1, 2}):
                    c12 = b
            if None in (c1, c2, c12):
                raise ValueError("constraint sets must cover {1}, {2}, {1,2}")
            self.poly = (c1, c2, min(c12, c1 + c2))
        for box in spec.boxes:
            self.boxes.append((_frac(box.caps[0]), _frac(box.caps[1])))
        if not self.boxes and self.poly is None:
            raise ValueError("empty region spec")

    def xmax(self) -> Fraction | None:
        vals = []
        if self.poly is not None:
            c1, _, c12 = self.poly
            vals.append(min(c1, c12))
        if self.boxes:
            caps1 = [b[0] for b in self.boxes]
            vals.append(None if any(c is None for c in caps1) else max(caps1))
        if any(v is None for v in vals):
            return None
        return max(vals)

    def value(self, x: Fraction, strict: bool = False) -> Fraction | None:
        """f(x) = sup{y : (x, y) in region}; None means unbounded, negative
        means x lies beyond the region.  strict=True gives the right limit
        (box edges excluded), which is what staircase jumps need."""
        candidates = []
        for c1, c2 in self.boxes:
            covers = True if c1 is None else (c1 > x if strict else c1 >= x)
            if covers:
                if c2 is None:
                    return None
                candidates.append(c2)
        if self.poly is not None:
            c1, c2, c12 = self.poly
            if x <= min(c1, c12):
                candidates.append(min(c2, c12 - x))
        if not candidates:
            return Fraction(-1)
        return max(candidates)

    def breakpoints(self) -> tuple[set, set, set]:
        """(x-candidates, horizontal levels, diagonal offsets c12)."""
        xs, levels, diags = set(), set(), set()
        for c1, c2 in self.boxes:
            if c1 is not None:
                xs.add(c1)
            if c2 is not None:
                levels.add(c2)
        if self.poly is not None:
            c1, c2, c12 = self.poly
            xs.update([min(c1, c12), c12 - c2 if c12 - c2 >= 0 else Fraction(0)])
            levels.add(c2)
            diags.add(c12)
        return xs, levels, diags


def _min_over(regions: list[_Region2D], x: Fraction, strict: bool) -> Fraction | None:
    vals = [reg.value(x, strict) for reg in regions]
    if any(v is not None and v < 0 for v in vals):
        return Fraction(-1)
    finite = [v for v in vals if v is not None]
    if not finite:
        return None  # unbounded everywhere
    return min(finite)


def region_2d(specs: list[RateRegionSpec], operation: str = "intersect"):
    """Vertices of the intersection of two-user regions, optionally convexified.

    Returns a list of (R1, R2) floats tracing the outer boundary from the
    R2 axis down to the R1 axis, sorted by R1.  An empty intersection yields
    an empty list.
    """
    if operation not in ("intersect", "hull"):
        raise ValueError("operation must be 'intersect' or 'hull'")
    regions = [_Region2D(s) for s in specs]
    xmaxes = [r.xmax() for r in regions]
    if any(x is None for x in xmaxes):
        finite = [x for x in xmaxes if x is not None]
        if not finite:
            raise ValueError("intersection is unbounded in R1")
        X = min(finite)
    else:
        X = min(xmaxes)
    if X < 0:
        return []
    all_x, all_levels, all_diags = set(), set(), set()
    for reg in regions:
        xs, levels, diags = reg.breakpoints()
        all_x |= xs
        all_levels |= levels
        all_diags |= diags
    for c12 in all_diags:
        for y in all_levels:
            all_x.add(c12 - y)
    xs = sorted({x for x in all_x if 0 <= x <= X} | {Fraction(0), X})

    y0 = _min_over(regions, Fraction(0), strict=False)
    if y0 is None:
        raise ValueError("intersection is unbounded in R2")
    if y0 < 0:
        return []
    verts: list[tuple[Fraction, Fraction]] = [(Fraction(0), y0)]
    for xa, xb in zip(xs, xs[1:]):
        right = _min_over(regions, xa, strict=True)
        if right is None:
            raise ValueError("intersection is unbounded in R2")
        if right != verts[-1][1]:
            verts.append((xa, max(right, Fraction(0))))
        left_b = _min_over(regions, xb, strict=False)
        if left_b is None:
            raise ValueError("intersection is unbounded in R2")
        verts.append((xb, max(left_b, Fraction(0))))
    if verts[-1][1] != 0:
        verts.append((X, Fraction(0)))
    verts = _merge_collinear(verts)
    if operation == "hull":
        verts = _upper_hull(verts)
    return [(float(x), float(y)) for x, y in verts]


def _merge_collinear(verts):
    out = [verts[0]]
    for p in verts[1:]:
        if p == out[-1]:
            continue
        if len(out) >= 2:
            (x1, y1), (x2, y2) = out[-2], out[-1]
            if (x2 - x1) * (p[1] - y2) == (p[0] - x2) * (y2 - y1):
                out[-1] = p
                continue
        out.append(p)
    return out


def _upper_hull(verts):
    pts = sorted(set(verts), key=lambda p: (p[0], -p[1]))
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1)
            if cross >= 0:  # hull turns clockwise going right
                hull.pop()
            else:
                break
        hull.append(p)
    if hull and hull[-1][1] != 0:
        hull.append((hull[-1][0], Fraction(0)))
    return _merge_collinear(hull)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def boundary_to_csv(vertices) -> str:
    lines = ["R1,R2"]
    lines += [f"{x:.6f},{y:.6f}" for x, y in vertices]
    return "\n".join(lines) + "\n"


def _cap_json(c: float):
    return "unbounded" if c == UNBOUNDED else round(float(c), 6)


def spec_to_json(spec: RateRegionSpec) -> str:
    payload: dict = {"L": spec.L, "boxes": [
        {"caps": [_cap_json(c) for c in b.caps], "provenance": b.provenance}
        for b in spec.boxes]}
    if spec.constraint_sets is not None:
        payload["constraint_sets"] = [
            {"users": sorted(users), "bound": round(float(bound), 6)}
            for users, bound in spec.constraint_sets]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
