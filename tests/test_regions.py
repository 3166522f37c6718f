import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from cfkit import _exact, mac_opt, regions, simulator
from cfkit.core import (UNBOUNDED, ChannelInstance, achievable_rate,
                        effective_matrix, require_full_row_rank,
                        sigma_para_opt, sigma_succ_opt, sum_capacity)
from cfkit.lattice import build_ensemble
from cfkit.regions import (AdmissibleMapping, Box, RateRegionSpec, asc_region,
                           all_pairs_mapping, boundary_to_csv, is_admissible,
                           lu_mapping, lu_mappings_all, mac_region, membership,
                           para_region,
                           participation_mapping, region_2d, sic_rates,
                           spec_to_json, succ_region, _coerce_mapping)
from exact_oracle import (admissible_witness_oracle, chained_variance_oracle,
                          para_variance_oracle, witness_holds_oracle)

FIG7 = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])
COMPSUCC = ChannelInstance(H=[[2.0, 1.0, 1.0]], P=[1.0, 1.0, 1.0])
COMPSUCC_A = np.array([[1, 1, 1], [1, -1, -1], [0, 0, 0]])

# every library entry point that takes a mapping, as (A, call(A, mapping))
_CH2 = ChannelInstance(H=[[1.0, 0.7], [0.2, 1.3]], P=[2.0, 3.0])
_TALL = [[1, 0], [1, 1], [0, 1]]  # M = 3 rows, L = 2 users
_ENS2 = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=0)
MAPPING_ENTRY_POINTS = {
    "is_admissible": (_TALL, is_admissible),
    "succ_region": (_TALL, lambda A, mapping: succ_region(_CH2, A, mapping)),
    "asc_region": (_TALL, lambda A, mapping: asc_region(_CH2, A, mapping)),
    "successive_mac_assignment": ([[1, 0], [1, 1]], lambda A, mapping:
                                  mac_opt.successive_mac_assignment(_CH2, A, mapping, (1, 2))),
    "zp_asc_matrix": (_TALL, lambda A, mapping: simulator.zp_asc_matrix(A, mapping, 3)),
    "TrialConfig": (_TALL, lambda A, mapping: simulator.TrialConfig(
        ensemble=_ENS2, ch=_CH2, A=A, mode="successive", mapping=mapping)),
}


class TestParaRegion:
    def test_identity_matches_interference_as_noise(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            L = int(rng.integers(2, 5))
            ch = ChannelInstance(H=rng.normal(size=(2, L)),
                                 P=rng.uniform(0.5, 8.0, size=L))
            caps = para_region(ch, np.eye(L, dtype=int)).boxes[0].caps
            for l in range(L):
                others = [i for i in range(L) if i != l]
                G = np.eye(2)
                for i in others:
                    hi = ch.H[:, i:i + 1]
                    G = G + ch.P[i] * (hi @ hi.T)
                h = ch.H[:, l]
                tin = 0.5 * math.log2(1 + ch.P[l] * float(h @ np.linalg.solve(G, h)))
                assert caps[l] == pytest.approx(tin, abs=1e-9)

    def test_zero_row_contributes_nothing(self):
        spec = para_region(FIG7, [[1, 1], [0, 0]])
        only = para_region(FIG7, [[1, 1]])
        assert spec.boxes[0].caps == only.boxes[0].caps

    def test_absent_user_is_unbounded(self):
        spec = para_region(FIG7, [[1, 0]])
        assert spec.boxes[0].caps[1] == UNBOUNDED

    def test_fig7_worst_row_binds(self):
        caps = para_region(FIG7, [[1, 1], [1, 2]]).boxes[0].caps
        # oracle: sigma2 of the worst participating row
        s1 = sigma_para_opt(FIG7, [1, 1]).variance
        s2 = sigma_para_opt(FIG7, [1, 2]).variance
        assert caps[0] == pytest.approx(0.5 * math.log2(7 / max(s1, s2)), abs=1e-12)
        assert caps[0] == pytest.approx(0.9940, abs=5e-5)
        assert caps[1] == pytest.approx(0.5903, abs=5e-5)


def _solves(A, pairs) -> dict:
    """cancellation_solves' coefficients of each row, as Fractions."""
    return {m: [Fraction(n, sol[1]) for n in sol[0]]
            for m, sol in regions.cancellation_solves(np.asarray(A).tolist(),
                                                      frozenset(pairs))}


class TestAdmissibility:
    def test_first_mapping_witness(self):
        pairs = {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)}
        wit = is_admissible(COMPSUCC_A, pairs)
        assert wit is not None and wit.pairs == pairs
        assert _solves(COMPSUCC_A, pairs)[1] == [-1]

    def test_second_mapping_witness(self):
        pairs = {(1, 1), (1, 2), (1, 3), (2, 1)}
        wit = is_admissible(COMPSUCC_A, pairs)
        assert wit is not None and wit.pairs == pairs
        assert _solves(COMPSUCC_A, pairs)[1] == [1]

    def test_all_pairs_always_admissible(self):
        rng = np.random.default_rng(22)
        A = rng.integers(-4, 5, size=(3, 3))
        pairs = all_pairs_mapping(3).pairs
        wit = is_admissible(A, pairs)
        assert wit is not None and wit.pairs == pairs
        assert _solves(A, pairs) == {}  # nothing to cancel: L = I

    def test_non_admissible_returns_none(self):
        assert is_admissible([[1, 1], [1, 2]], {(1, 1), (2, 2)}) is None

    def test_borderline_mapping_refused_exactly(self):
        # row 2 must cancel column 1 with -(10^12 + 1)/10^12 and column 2
        # with -1; a float solve with a 1e-9 residual test accepted it
        A = [[10 ** 12, 1], [10 ** 12 + 1, 1]]
        pairs = {(1, 1), (1, 2)}
        assert is_admissible(A, pairs) is None
        with pytest.raises(ValueError, match="not admissible"):
            succ_region(ChannelInstance(H=[[1.0, 1.0]], P=[1.0, 1.0]), A, pairs)
        assert is_admissible(A, pairs | {(2, 2)}) is not None

    def test_exact_witness_entries(self):
        A = [[3, 1, 0], [1, 2, 0], [5, 0, 7]]
        pairs = frozenset({(1, 1), (1, 2), (2, 2), (3, 3)})
        assert is_admissible(A, pairs).pairs == pairs
        # -1/3 and the solve of x [3 1; 1 2] = -[5 0], [-2, 1], both exact
        assert list(regions.cancellation_solves(A, pairs)) == [
            (0, ([], 1)), (1, ([-1], 3)), (2, ([-10, 5], 5))]

    def test_non_integral_matrix_rejected(self):
        for A in ([[1.5, 1], [1, 2]], np.array([[1.0, np.nan], [1, 2]])):
            with pytest.raises(ValueError, match="matrix entries must be integers"):
                is_admissible(A, {(1, 1), (1, 2)})
        assert is_admissible(np.array([[2.0, 1.0], [4.0, 2.0]]),
                             {(1, 1), (1, 2)}) is not None

    def test_witness_zeroes_mapped_out_entries(self):
        # lu_mapping's pairs are admissible: a witness clears the rest
        rng = np.random.default_rng(23)
        for _ in range(20):
            A = rng.integers(-3, 4, size=(3, 3))
            res = lu_mapping(A)
            if res is None:
                continue
            mapping, _ = res
            assert is_admissible(A, mapping.pairs) == mapping
            assert witness_holds_oracle(
                A, mapping.pairs, admissible_witness_oracle(A, mapping.pairs))


class TestCarriedWitness:
    """_coerce_mapping answers with is_admissible for the mapping's pairs,
    and refuses pairs that are not admissible or lie outside A."""

    def test_near_witness_of_inadmissible_pairs_raises(self):
        # a float witness cleared column 1 of row 2 to 1e-12 relative, but
        # the pairs are not admissible
        A = [[10 ** 12, 1], [10 ** 12 + 1, 1]]
        near = frozenset({(1, 1), (1, 2)})
        ch = ChannelInstance(H=[[1.0, 1.0]], P=[1.0, 1.0])
        for region in (succ_region, asc_region):
            with pytest.raises(ValueError, match="not admissible"):
                region(ch, A, near)

    def test_inadmissible_pairs_raise_despite_a_witness(self):
        with pytest.raises(ValueError, match="not admissible"):
            _coerce_mapping(np.array([[1, 1], [1, 2]]), frozenset({(1, 1), (2, 2)}))

    @pytest.mark.parametrize("wrap", [frozenset, AdmissibleMapping])
    @pytest.mark.parametrize("entry", list(MAPPING_ENTRY_POINTS))
    @pytest.mark.parametrize("junk", ["row-0", "user-0", "row-past", "user-past"])
    def test_pair_outside_A_is_refused(self, junk, entry, wrap):
        # regions.mapping_pairs reads every mapping, raw or an
        # AdmissibleMapping, and refuses a pair naming no row or no user
        A, call = MAPPING_ENTRY_POINTS[entry]
        M, L = len(A), len(A[0])
        pair = {"row-0": (0, 1), "user-0": (1, 0), "row-past": (M + 1, 1),
                "user-past": (1, L + 1)}[junk]
        every = frozenset(itertools.product(range(1, M + 1), range(1, L + 1)))
        call(A, wrap(every))
        message = re.escape(f"mapping pairs [m, l] need 1 <= m <= {M} and 1 <= l <= {L}")
        with pytest.raises(ValueError, match=message):
            call(A, wrap(every | {pair}))

    def test_non_square_matrices(self):
        wide = np.array([[1, 2, 0]])
        assert is_admissible(wide, {(1, 1), (1, 2)}) is not None
        assert is_admissible(wide, {(1, 1)}) is None
        tall = np.array([[1], [2]])
        assert is_admissible(tall, {(1, 1)}).pairs == {(1, 1)}
        assert _solves(tall, {(1, 1)}) == {1: [-2]}


def _lu_mapping_oracle(A, pivot_order=None):
    """Per-order elimination as it was before the prefix walk, verbatim but
    for the float witness, which a mapping no longer carries."""
    A = np.atleast_2d(np.asarray(A, dtype=int))
    L = A.shape[0]
    work = [[Fraction(int(v)) for v in row] for row in A.tolist()]
    pi = [0] * L
    used: list[int] = []
    for step in range(L):
        if pivot_order is not None:
            col = int(pivot_order[step])
            if col in used or work[step][col] == 0:
                return None
        else:
            col = next((c for c in range(L) if c not in used and work[step][c] != 0), None)
            if col is None:
                raise ValueError("matrix is rank deficient")
        used.append(col)
        pi[col] = step + 1
        for i in range(step + 1, L):
            if work[i][col] != 0:
                f = work[i][col] / work[step][col]
                work[i] = [wi - f * ws for wi, ws in zip(work[i], work[step])]
    pairs = frozenset((m + 1, l + 1) for m in range(L) for l in range(L)
                      if work[m][l] != 0)
    return AdmissibleMapping(pairs), tuple(pi)


def pivot_orders_oracle(A):
    """lu_mappings_all as one elimination per pivot order, verbatim."""
    A = np.atleast_2d(np.asarray(A, dtype=int))
    out = []
    seen = set()
    for order in itertools.permutations(range(A.shape[0])):
        res = _lu_mapping_oracle(A, pivot_order=order)
        if res is not None and (res[0].pairs, res[1]) not in seen:
            seen.add((res[0].pairs, res[1]))
            out.append(res)
    return out


def _pairs_pi(results):
    return [(mapping.pairs, pi) for mapping, pi in results]


def _oracle_matrices(rng, count):
    """Random L = 1..4 integer matrices: dense, singular, permutation and
    unimodular ones in turn."""
    from cfkit.mac_opt import random_unimodular

    for i in range(count):
        L = 1 + i % 4
        kind = (i // 4) % 4
        if kind == 0:
            yield rng.integers(-3, 4, size=(L, L))
        elif kind == 1:
            A = rng.integers(-2, 3, size=(L, L))
            A[-1] = A[0] * int(rng.integers(-2, 3))  # rank deficient
            yield A
        elif kind == 2:
            yield np.eye(L, dtype=int)[rng.permutation(L)]
        else:
            yield random_unimodular(L, rng)


class TestLuMappingsAll:
    def test_prefix_walk_equals_per_order_oracle(self):
        rng = np.random.default_rng(41)
        for A in _oracle_matrices(rng, 400):
            assert _pairs_pi(lu_mappings_all(A)) == _pairs_pi(pivot_orders_oracle(A)), A

    def test_forced_and_default_orders_equal_oracle(self):
        rng = np.random.default_rng(42)
        for A in _oracle_matrices(rng, 200):
            for order in itertools.permutations(range(A.shape[0])):
                got, want = lu_mapping(A, order), _lu_mapping_oracle(A, order)
                assert (got is None) == (want is None)
                if got is not None:
                    assert _pairs_pi([got]) == _pairs_pi([want])
            try:
                want = _lu_mapping_oracle(A)
            except ValueError:
                with pytest.raises(ValueError, match="rank deficient"):
                    lu_mapping(A)
                continue
            assert _pairs_pi([lu_mapping(A)]) == _pairs_pi([want])

    def test_zero_pivot_prunes_the_subtree(self, monkeypatch):
        from cfkit import _exact

        calls = []
        honest = _exact.eliminate_below
        monkeypatch.setattr(_exact, "eliminate_below",
                            lambda *args: calls.append(args[1:3]) or honest(*args))
        A = np.eye(4, dtype=int)[[2, 0, 3, 1]]
        (mapping, pi), = lu_mappings_all(A)
        assert pi == (2, 4, 1, 3) and len(calls) == 4
        calls.clear()
        assert len(lu_mappings_all(np.ones((3, 3), dtype=int) + np.eye(3, dtype=int))) == 6
        assert len(calls) == 3 + 6 + 6  # one elimination per pivot prefix

    def test_permutation_mapping_is_the_one_elimination_result(self):
        # the successive table reads each permutation matrix's mapping off
        # its support and its pi off argsort, without elimination
        for L in range(1, 7):
            stack, support, steps, mappings = mac_opt._permutation_candidates(L)
            perms = list(itertools.permutations(range(L)))
            assert len(stack) == len(perms)
            for k, perm in enumerate(perms):
                A = np.eye(L, dtype=int)[list(perm)]
                assert np.array_equal(stack[k], A) and np.array_equal(support[k], A != 0)
                pairs = {(m + 1, l + 1) for m, l in zip(*np.nonzero(support[k]))}
                assert _pairs_pi([(mappings[k], tuple(steps[k].tolist()))]) == \
                    _pairs_pi(lu_mappings_all(A)) == [(pairs, tuple(steps[k].tolist()))], perm


class TestSuccRegion:
    def test_compsucc_chain_caps(self):
        # noise chain: 5/7 then 8/5 (minimized over both equalizers)
        mapping = {(1, 1), (1, 2), (1, 3), (2, 1)}
        caps = succ_region(COMPSUCC, COMPSUCC_A, mapping).boxes[0].caps
        r1 = achievable_rate(1.0, 5 / 7)
        r2 = achievable_rate(1.0, 8 / 5)
        assert caps[0] == pytest.approx(min(r1, r2), abs=1e-9)
        assert caps[1] == pytest.approx(r1, abs=1e-9)
        assert caps[2] == pytest.approx(r1, abs=1e-9)
        assert r1 == pytest.approx(0.5 * math.log2(7 / 5), abs=1e-12)

    def test_identity_mapping_reproduces_sic(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            L = int(rng.integers(2, 5))
            ch = ChannelInstance(H=rng.normal(size=(1, L)) * 2,
                                 P=rng.uniform(0.5, 8.0, size=L))
            diag = {(m, m) for m in range(1, L + 1)}
            caps = succ_region(ch, np.eye(L, dtype=int), diag).boxes[0].caps
            sic = sic_rates(ch, tuple(range(1, L + 1)))
            assert np.allclose(caps, sic, atol=1e-9)

    def test_permuted_identity_reproduces_any_sic_order(self):
        rng = np.random.default_rng(25)
        ch = ChannelInstance(H=rng.normal(size=(1, 3)), P=[1.0, 2.0, 3.0])
        for order in itertools.permutations((1, 2, 3)):
            A = np.zeros((3, 3), dtype=int)
            for step, user in enumerate(order):
                A[step, user - 1] = 1
            mapping = {(step + 1, user) for step, user in enumerate(order)}
            caps = succ_region(ch, A, mapping).boxes[0].caps
            assert np.allclose(caps, sic_rates(ch, order), atol=1e-9)

    def test_dominates_parallel_box(self):
        rng = np.random.default_rng(26)
        from cfkit.mac_opt import random_unimodular

        for _ in range(20):
            L = int(rng.integers(2, 4))
            ch = ChannelInstance(H=rng.normal(size=(2, L)),
                                 P=rng.uniform(0.5, 8.0, size=L))
            A = random_unimodular(L, rng)
            para = para_region(ch, A).boxes[0].caps
            succ = succ_region(ch, A, participation_mapping(A)).boxes[0].caps
            assert all(p <= s + 1e-9 for p, s in zip(para, succ))

    def test_rejects_non_admissible_mapping(self):
        with pytest.raises(ValueError, match="admissible"):
            succ_region(FIG7, [[1, 1], [1, 2]], {(1, 1), (2, 2)})


def _reference_variances(ch, A, chained):
    """row_variances one row at a time through exact_oracle's one-matrix
    variances, each chained row conditioned on the earlier rows that raise
    the exact rank of the rows kept so far, whose full row rank is checked
    for every row."""
    F = effective_matrix(ch)
    out, kept = [], []
    for row in A.tolist():
        a = np.array(row, dtype=float)
        if chained and kept:
            prev = np.array(kept, dtype=float)
            require_full_row_rank(prev)
            out.append(chained_variance_oracle(F, a, prev))
        else:
            out.append(para_variance_oracle(F, a))
        if chained and _exact.int_rank(kept + [row]) > len(kept):
            kept.append(row)
    return out


class TestRowVariances:
    @staticmethod
    def _matrix(rng, L):
        M = int(rng.integers(1, L + 2))
        A = rng.integers(-3, 4, size=(M, L))
        kind = rng.integers(4)
        if kind == 1 and M >= 2:  # a row repeated or scaled: dependent
            i, j = rng.choice(M, size=2, replace=False)
            A[j] = int(rng.integers(-2, 3)) * A[i]
        elif kind == 2:
            A[int(rng.integers(M))] = 0
        elif kind == 3 and M >= 2 and L >= 2:  # near-parallel rows near 10^12
            k = int(10 ** rng.uniform(6, 12.5))
            A[0, :2] = [k, 1]
            A[1, :2] = [k + 1, 1]
        return A

    @pytest.mark.parametrize("chained", [False, True])
    def test_bitwise_equal_to_sigma_opt(self, chained):
        rng = np.random.default_rng(41 + chained)
        refused = 0
        for _ in range(300):
            L = int(rng.integers(1, 5))
            ch = ChannelInstance(H=rng.normal(size=(int(rng.integers(1, 3)), L)) * 2,
                                 P=rng.uniform(0.3, 9.0, size=L))
            A = self._matrix(rng, L)
            try:
                expected = _reference_variances(ch, A, chained)
            except ValueError as err:
                refused += 1
                with pytest.raises(ValueError) as got:
                    regions.row_variances(ch, A, chained)
                assert str(got.value) == str(err)
                continue
            got = regions.row_variances(ch, A, chained)
            assert np.array(got).tobytes() == np.array(expected).tobytes(), A.tolist()
        # the near-parallel rows exercise the full-row-rank refusal
        assert (refused > 0) == chained

    def test_compsucc_zero_row_is_conditioned_on_kept_rows(self):
        got = regions.row_variances(COMPSUCC, COMPSUCC_A, chained=True)
        assert got == _reference_variances(COMPSUCC, COMPSUCC_A, chained=True)


class TestAscRegion:
    def test_all_pairs_equals_para_for_dense_matrix(self):
        A = [[1, 1], [1, 2]]
        asc = asc_region(FIG7, A, all_pairs_mapping(2)).boxes[0].caps
        para = para_region(FIG7, A).boxes[0].caps
        assert np.allclose(asc, para, atol=1e-12)

    def test_fig7_vertices_from_dominant_mappings(self):
        A = np.array([[1, 1], [1, 2]])
        m1, _ = lu_mapping(A)
        m2, _ = lu_mapping(A, pivot_order=(1, 0))
        caps1 = asc_region(FIG7, A, m1).boxes[0].caps
        caps2 = asc_region(FIG7, A, m2).boxes[0].caps
        got = {tuple(round(c, 4) for c in caps1), tuple(round(c, 4) for c in caps2)}
        assert got == {(1.3624, 0.5903), (0.994, 0.9588)}

    def test_contained_in_succ_region(self):
        rng = np.random.default_rng(27)
        from cfkit.mac_opt import random_unimodular

        for _ in range(20):
            L = int(rng.integers(2, 4))
            ch = ChannelInstance(H=rng.normal(size=(1, L)) * 2,
                                 P=rng.uniform(0.5, 8.0, size=L))
            A = random_unimodular(L, rng)
            res = lu_mapping(A)
            if res is None:
                continue
            asc = asc_region(ch, A, res[0]).boxes[0].caps
            succ = succ_region(ch, A, res[0]).boxes[0].caps
            assert all(a <= s + 1e-9 for a, s in zip(asc, succ))


class TestMacRegion:
    def test_single_user(self):
        ch = ChannelInstance(H=[[2.0]], P=[3.0])
        spec = mac_region(ch)
        assert len(spec.constraint_sets) == 1
        users, bound = spec.constraint_sets[0]
        assert users == frozenset({1})
        assert bound == pytest.approx(0.5 * math.log2(1 + 4 * 3), abs=1e-12)

    def test_fig8_receiver1_bounds(self):
        ch = ChannelInstance(H=[[3.3, 2.1]], P=[4.0, 3.0])
        bounds = dict(mac_region(ch).constraint_sets)
        assert bounds[frozenset({1})] == pytest.approx(2.7388, abs=5e-4)
        assert bounds[frozenset({2})] == pytest.approx(1.9154, abs=5e-4)
        assert bounds[frozenset({1, 2})] == pytest.approx(2.9263, abs=5e-4)

    def test_submodularity(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            L = int(rng.integers(2, 5))
            ch = ChannelInstance(H=rng.normal(size=(2, L)),
                                 P=rng.uniform(0.5, 6.0, size=L))
            bounds = dict(mac_region(ch).constraint_sets)
            bounds[frozenset()] = 0.0
            users = list(range(1, L + 1))
            for r in range(1, L + 1):
                for S in itertools.combinations(users, r):
                    for T_ in itertools.combinations(users, r):
                        S_, T__ = frozenset(S), frozenset(T_)
                        lhs = bounds[S_ | T__] + bounds[S_ & T__]
                        rhs = bounds[S_] + bounds[T__]
                        assert lhs <= rhs + 1e-9

    def test_vertices_satisfy_constraints(self):
        ch = ChannelInstance(H=[[3.3, 2.1]], P=[4.0, 3.0])
        spec = mac_region(ch)
        verts = region_2d([spec], "intersect")
        bounds = dict(spec.constraint_sets)
        for (r1, r2) in verts:
            assert r1 <= bounds[frozenset({1})] + 1e-9
            assert r2 <= bounds[frozenset({2})] + 1e-9
            assert r1 + r2 <= bounds[frozenset({1, 2})] + 1e-9


class TestSicRates:
    def test_fig7_orders(self):
        assert np.allclose(sic_rates(FIG7, (1, 2)), (0.3828, 1.6610), atol=5e-5)
        assert np.allclose(sic_rates(FIG7, (2, 1)), (1.5000, 0.5437), atol=5e-5)

    def test_sum_equals_capacity(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            L = int(rng.integers(2, 5))
            ch = ChannelInstance(H=rng.normal(size=(2, L)),
                                 P=rng.uniform(0.5, 8.0, size=L))
            order = tuple(rng.permutation(L) + 1)
            assert sum(sic_rates(ch, order)) == pytest.approx(sum_capacity(ch),
                                                              abs=1e-9)


class TestMembership:
    def test_zero_rates_member(self):
        res = membership(FIG7, np.eye(2, dtype=int), [0.0, 0.0])
        assert res.status == "member"

    def _extra_successive_point(self):
        """Exact value of the quoted (1.0850, 0.9588) sum-capacity point."""
        s1 = sigma_succ_opt(FIG7, [1, 1], np.zeros((0, 2))).variance
        s2 = sigma_succ_opt(FIG7, [1, 2], [[1, 1]]).variance
        return [0.5 * math.log2(7.0 / s2), 0.5 * math.log2(4.0 / s1)]

    def test_fig7_successive_point(self):
        point = self._extra_successive_point()
        assert np.allclose(point, [1.0850, 0.9588], atol=5e-5)
        res = membership(FIG7, np.eye(2, dtype=int), point,
                         mode="successive", search_bound=2)
        assert res.status == "member"
        # the witness's own box must cover the point
        box = succ_region(FIG7, res.witness_Atilde, res.witness_mapping).boxes[0]
        assert box.contains(point)

    def test_successive_search_checks_no_mapping_again(self, monkeypatch):
        # lu_mappings_all's witnesses are exact and the all-pairs mapping
        # cancels nothing, so no candidate's mapping is re-checked
        def refuse(*args):
            raise AssertionError("a mapping was re-checked")

        point = self._extra_successive_point()
        monkeypatch.setattr(regions, "_coerce_mapping", refuse)
        monkeypatch.setattr(regions, "is_admissible", refuse)
        res = membership(FIG7, np.eye(2, dtype=int), point,
                         mode="successive", search_bound=2)
        scan = membership(FIG7, np.eye(2, dtype=int), [0.9940, 0.9588],
                          mode="successive", search_bound=1)
        monkeypatch.undo()
        assert scan.status == "inconclusive" and res.status == "member"
        box = succ_region(FIG7, res.witness_Atilde, res.witness_mapping).boxes[0]
        assert box.contains(point)

    def test_above_capacity_rejected(self):
        res = membership(FIG7, np.eye(2, dtype=int), [1.5, 1.5], mode="successive",
                         search_bound=2)
        assert res.status == "not_member"

    def test_monotone(self):
        base = self._extra_successive_point()
        for scale in (0.9, 0.5, 0.1):
            res = membership(FIG7, np.eye(2, dtype=int),
                             [scale * r for r in base], mode="successive",
                             search_bound=2)
            assert res.status == "member"

    def test_inconclusive_when_no_bounded_witness_exists(self):
        # the cancellation-order point (0.9940, 0.9588) is below capacity but
        # no single parallel box covers it, so the search cannot conclude
        res = membership(FIG7, np.eye(2, dtype=int), [0.9940, 0.9588],
                         mode="parallel", search_bound=2)
        assert res.status == "inconclusive"


class TestRegion2D:
    def test_intersection_of_identical_boxes(self):
        spec = RateRegionSpec(L=2, boxes=[Box(caps=(1.0, 2.0))])
        verts = region_2d([spec, spec], "intersect")
        assert verts == [(0.0, 2.0), (1.0, 2.0), (1.0, 0.0)]

    def test_union_staircase(self):
        spec = RateRegionSpec(L=2, boxes=[Box(caps=(1.0, 2.0)), Box(caps=(2.0, 1.0))])
        verts = region_2d([spec], "intersect")
        assert verts == [(0.0, 2.0), (1.0, 2.0), (1.0, 1.0), (2.0, 1.0), (2.0, 0.0)]

    def test_hull_of_two_corner_points(self):
        spec = RateRegionSpec(L=2, boxes=[Box(caps=(0.3828, 1.6610)),
                                          Box(caps=(1.5, 0.5437))])
        verts = region_2d([spec], "hull")
        assert verts[0] == (0.0, 1.6610)
        assert (0.3828, 1.6610) in verts
        assert (1.5, 0.5437) in verts
        assert verts[-1] == (1.5, 0.0)
        assert len(verts) == 4

    def test_fig8_capacity_intersection(self):
        ch1 = ChannelInstance(H=[[3.3, 2.1]], P=[4.0, 3.0])
        ch2 = ChannelInstance(H=[[2.4, 4.2]], P=[4.0, 3.0])
        verts = region_2d([mac_region(ch1), mac_region(ch2)], "intersect")
        assert any(abs(x - 1.0109) < 5e-4 and abs(y - 1.9154) < 5e-4
                   for x, y in verts)
        assert any(abs(x - 2.2937) < 5e-4 and abs(y - 0.6327) < 5e-4
                   for x, y in verts)
        # receiver 2's own boundary carries the quoted corner (2.2937, 0.8393)
        rx2 = region_2d([mac_region(ch2)], "intersect")
        assert any(abs(x - 2.2937) < 5e-4 and abs(y - 0.8393) < 5e-4
                   for x, y in rx2)

    def test_empty_intersection(self):
        a = RateRegionSpec(L=2, boxes=[Box(caps=(0.0, 0.0))])
        verts = region_2d([a], "intersect")
        assert verts == [(0.0, 0.0)]

    def test_requires_two_users(self):
        with pytest.raises(ValueError):
            region_2d([RateRegionSpec(L=3, boxes=[Box(caps=(1, 1, 1))])])


class TestExports:
    def test_boundary_csv_format(self):
        text = boundary_to_csv([(0.0, 1.5), (1.234567891, 0.0)])
        assert text == "R1,R2\n0.000000,1.500000\n1.234568,0.000000\n"

    def test_spec_json_roundtrip_fields(self):
        import json

        spec = para_region(FIG7, [[1, 0]])
        doc = json.loads(spec_to_json(spec))
        assert doc["L"] == 2
        assert doc["boxes"][0]["caps"][1] == "unbounded"
        mac = json.loads(spec_to_json(mac_region(FIG7)))
        assert {tuple(c["users"]) for c in mac["constraint_sets"]} == {
            (1,), (2,), (1, 2)}
