import contextlib
import functools
import io
import itertools
import json
import math
import operator
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from cfkit import cli, intsearch, mac_opt, regions
from cfkit.core import (ChannelInstance, achievable_rate, effective_matrix,
                        log2_plus, noise_variance, sigma_para_opt,
                        sigma_succ_opt, sum_capacity)
from cfkit.mac_opt import (MacAssignment, SuccessiveOutcome, mac_mapping,
                           parallel_mac_assignment, parallel_mac_assignments,
                           random_unimodular, successive_mac_assignment,
                           successive_mac_assignments, successive_sum_identity)
from cfkit.regions import AdmissibleMapping, asc_region, succ_region

FIG7 = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])


class TestMacMapping:
    def test_identity(self):
        mapping, pi = mac_mapping(np.eye(2, dtype=int))
        assert pi == (1, 2)
        assert mapping.pairs == {(1, 1), (2, 2)}

    def test_fig7_default_pivots(self):
        mapping, pi = mac_mapping(np.array([[1, 1], [1, 2]]))
        assert pi == (1, 2)
        assert mapping.pairs == {(1, 1), (1, 2), (2, 2)}

    def test_fig7_forced_second_column(self):
        mapping, pi = mac_mapping(np.array([[1, 1], [1, 2]]), pivot_order=(1, 0))
        assert pi == (2, 1)
        assert mapping.pairs == {(1, 1), (1, 2), (2, 1)}

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="full rank"):
            mac_mapping(np.array([[1, 1], [2, 2]]))

    @pytest.mark.parametrize("order", [[-1, 0], [5, 0], [0, 0], [0], [0, 1, 2]],
                             ids=["negative", "past-last", "repeated", "short", "long"])
    def test_forced_order_must_be_a_column_permutation(self, order):
        # [-1, 0] once pivoted on the last column, [5, 0] raised IndexError
        # and [0, 0] said "requires a row swap"
        message = re.escape(f"pivot order {order} is not a permutation of 0..1")
        with pytest.raises(ValueError, match=message):
            mac_mapping([[1, 1], [1, 2]], pivot_order=order)
        with pytest.raises(ValueError, match=message):
            regions.lu_mapping([[1, 1], [1, 2]], order)


class TestParallelAssignments:
    def test_fig7_pair_of_assignments(self):
        got = {tuple(round(r, 4) for r in a.rates)
               for a in parallel_mac_assignments(FIG7)}
        assert got == {(1.3624, 0.5903), (0.9940, 0.9588)}

    def test_single_user(self):
        ch = ChannelInstance(H=[[2.0]], P=[3.0])
        asg = parallel_mac_assignment(ch)
        assert asg.rates[0] == pytest.approx(0.5 * np.log2(1 + 4 * 3), abs=1e-9)
        assert asg.gap_to_capacity == pytest.approx(0.0, abs=1e-9)

    def test_random_gap_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            L = int(rng.integers(2, 4))
            ch = ChannelInstance(H=rng.normal(size=(1, L)) * 2,
                                 P=rng.uniform(0.5, 8.0, size=L))
            asg = parallel_mac_assignment(ch)
            assert asg.gap_to_capacity <= 0.5 * L * np.log2(L) + 1e-9

    def test_inside_own_region(self):
        asg = parallel_mac_assignment(FIG7)
        box = asc_region(FIG7, asg.A, asg.mapping).boxes[0]
        assert box.contains(asg.rates)

    @pytest.mark.parametrize("scale, extra", [(1.0001, 0.0), (50.0, 0.0), (1.0, 1.0),
                                              (0.5, 2.0), (1.0001, 2.0)])
    def test_failed_checks_raise_as_the_oracle(self, monkeypatch, scale, extra):
        # widened row variances shrink every box, and a raised sum capacity
        # widens every gap, until some pivot order fails a check: the table
        # raises the oracle's error, that of the first order that fails
        row_variances = regions.row_variances
        monkeypatch.setattr(regions, "row_variances", lambda ch, A, chained: [
            v * scale for v in row_variances(ch, A, chained)])
        raised = 0
        for ch in oracle_channels(np.random.default_rng(5), 60):
            vars(ch)["_sum_capacity"] = sum_capacity(ch) + extra
            try:
                want = parallel_oracle(ch, ch._dominant_solution)
            except AssertionError as exc:
                with pytest.raises(AssertionError, match=re.escape(str(exc))):
                    parallel_mac_assignments(ch)
                raised += 1
            else:
                assert _bitwise(parallel_mac_assignments(ch)) == _bitwise(want)
        assert raised

    def test_first_failing_order_names_its_check(self):
        ch = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])
        (kept, pi1), (other, pi2) = ch._dominant_mappings
        # pi2 decodes user 2 first, at the better row, but row 2 would cap it
        boxed = AdmissibleMapping(other.pairs | {(2, 2)})
        vars(ch)["_sum_capacity"] = sum_capacity(ch) + 1.0  # past the 1-bit bound
        for dominant, message in ((((kept, pi1), (boxed, pi2)), "gap exceeded"),
                                  (((boxed, pi2), (kept, pi1)), "cancellation region")):
            vars(ch)["_dominant_mappings"] = dominant
            with pytest.raises(AssertionError, match=message):
                parallel_mac_assignments(ch)


class TestSuccessiveAssignments:
    def test_fig7_identity_pivots(self):
        A = np.array([[1, 1], [1, 2]])
        mapping, pi = mac_mapping(A)
        out = successive_mac_assignment(FIG7, A, mapping, pi)
        assert out
        assert np.allclose(out.assignment.rates, (1.3624, 0.6813), atol=5e-5)
        assert out.assignment.sum_rate == pytest.approx(sum_capacity(FIG7), abs=1e-9)

    def test_fig7_swapped_pivots(self):
        A = np.array([[1, 1], [1, 2]])
        mapping, pi = mac_mapping(A, pivot_order=(1, 0))
        out = successive_mac_assignment(FIG7, A, mapping, pi)
        assert out
        assert np.allclose(out.assignment.rates, (1.0850, 0.9588), atol=5e-5)

    def test_permutation_matrix_reproduces_sic(self):
        from cfkit.regions import sic_rates

        A = np.array([[1, 0], [0, 1]])
        mapping, pi = mac_mapping(A)
        out = successive_mac_assignment(FIG7, A, mapping, pi)
        assert out
        assert np.allclose(out.assignment.rates, sic_rates(FIG7, (1, 2)), atol=1e-9)
        B = np.array([[0, 1], [1, 0]])
        mapping, pi = mac_mapping(B)
        out = successive_mac_assignment(FIG7, B, mapping, pi)
        assert np.allclose(out.assignment.rates, sic_rates(FIG7, (2, 1)), atol=1e-9)

    def test_all_fig7_points(self):
        got = {tuple(round(r, 4) for r in a.rates)
               for a in successive_mac_assignments(FIG7)}
        assert got == {(0.3828, 1.6610), (1.5000, 0.5437),
                       (1.0850, 0.9588), (1.3624, 0.6813)}
        for a in successive_mac_assignments(FIG7):
            assert abs(a.gap_to_capacity) <= 1e-8
            box = succ_region(FIG7, a.A, a.mapping).boxes[0]
            assert box.contains(a.rates)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            successive_mac_assignment(FIG7, [[2, 0], [0, 1]], {(1, 1), (2, 2)}, (1, 2))

    def test_declines_with_reason_on_power_deficit(self):
        ch = ChannelInstance(H=[[1.0, 1.5]], P=[0.1, 4.0])
        A = np.array([[1, 1], [1, 2]])
        mapping, pi = mac_mapping(A)
        out = successive_mac_assignment(ch, A, mapping, pi)
        assert not out
        assert "power" in out.declined_reason

    def test_declines_when_worst_noise_is_not_the_assigned_step(self):
        # identity matrix, full upper-triangular mapping: user 2 is mapped to
        # both steps but step 1's noise dominates, violating the assignment
        mapping = {(1, 1), (1, 2), (2, 2)}
        out = successive_mac_assignment(FIG7, np.eye(2, dtype=int), mapping, (1, 2))
        assert not out
        assert "worst mapped noise" in out.declined_reason

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2)])
    def test_refuses_numerically_dependent_prefix(self, order):
        # unimodular, but its first two rows are parallel to within the
        # numerical rank tolerance: a noise of 8.4e+23 was once quoted
        ch = ChannelInstance(H=[[1.0, 2.0, 0.5]], P=[1.0, 1.0, 1.0])
        A = np.array([[10**12, 1, 0], [10**12 + 1, 1, 0], [0, 0, 1]])
        mapping, pi = mac_mapping(A, pivot_order=order)
        with pytest.raises(ValueError, match="A_prev must have full row rank"):
            successive_mac_assignment(ch, A, mapping, pi)


def _oracle_assemble_parallel(ch, dom, mapping, pi) -> MacAssignment:
    variances = [float(n) ** 2 for n in dom.norms]
    rates = tuple(achievable_rate(ch.P[l], variances[pi[l] - 1])
                  for l in range(ch.num_users))
    # in user order from 0: from Python 3.12 the built-in sum of floats is
    # compensated, so it would no longer match an in-order loop bit for bit
    total = functools.reduce(operator.add, rates, 0.0)
    cap = sum_capacity(ch)
    asg = MacAssignment(A=dom.A_star, mapping=mapping, pi=pi, rates=rates,
                        sum_rate=total, gap_to_capacity=cap - total)
    box = regions.asc_region(ch, dom.A_star, mapping)
    if not box.contains(rates, tol=1e-9):
        raise AssertionError("assignment fell outside its own cancellation region")
    L = ch.num_users
    if asg.gap_to_capacity > 0.5 * L * log2_plus(L) + 1e-9:
        raise AssertionError("sum-rate gap exceeded the (L/2) log2 L bound")
    return asg


def _oracle_successive_step(ch, A, mapping, pi) -> SuccessiveOutcome:
    A = np.atleast_2d(np.asarray(A, dtype=int))
    if not intsearch.is_unimodular(A):
        raise ValueError("coefficient matrix must be unimodular")
    ch.require_positive_powers()
    L = ch.num_users
    pairs = mapping.pairs if isinstance(mapping, AdmissibleMapping) else mapping
    mapping = regions._coerce_mapping(A, pairs)
    pi = tuple(int(v) for v in pi)
    if sorted(pi) != list(range(1, L + 1)):
        raise ValueError(f"pi {list(pi)} is not a permutation of 1..{L}")
    for (m, l) in mapping.pairs:
        if m > pi[l - 1]:
            return SuccessiveOutcome(None, "pair below pivot")
    variances = regions.row_variances(ch, A, chained=True)
    rates = []
    for l in range(L):
        rows = sorted(m for (m, u) in mapping.pairs if u == l + 1)
        if pi[l] not in rows:
            return SuccessiveOutcome(None, "not mapped")
        worst = max(variances[m - 1] for m in rows)
        assigned = variances[pi[l] - 1]
        if worst > assigned * (1 + 1e-9) + 1e-12:
            return SuccessiveOutcome(None, "worst mapped noise")
        if ch.P[l] < assigned - 1e-12:
            return SuccessiveOutcome(None, "power")
        rates.append(0.5 * np.log2(ch.P[l] / assigned))
    total = float(functools.reduce(operator.add, rates, 0.0))  # in order, as above
    cap = sum_capacity(ch)
    if abs(total - cap) > 1e-8:
        raise AssertionError("sum rate failed to match the sum capacity identity")
    asg = MacAssignment(A=A, mapping=mapping, pi=pi, rates=tuple(float(r) for r in rates),
                        sum_rate=total, gap_to_capacity=cap - total)
    return SuccessiveOutcome(asg)


def parallel_oracle(ch, dom):
    """mac_oracle's parallel table for the dominant solution dom."""
    parallel = []
    seen = set()
    for mapping, pi in regions.lu_mappings_all(dom.A_star):
        asg = _oracle_assemble_parallel(ch, dom, mapping, pi)
        key = tuple(round(r, 12) for r in asg.rates)
        if key not in seen:
            seen.add(key)
            parallel.append(asg)
    return parallel


def mac_oracle(ch):
    """(parallel, successive) assignment lists computed as before the
    per-channel sharing: every check, variance and sum capacity per mapping.
    The loops are kept verbatim, except that both use one dominant-solution
    search (a search is deterministic, and it is the slow part here)."""
    ch.require_positive_powers()
    dom = intsearch.dominant_solution(effective_matrix(ch))
    parallel = parallel_oracle(ch, dom)

    L = ch.num_users
    candidates: list[np.ndarray] = []
    for perm in itertools.permutations(range(L)):
        P = np.zeros((L, L), dtype=int)
        for m, u in enumerate(perm):
            P[m, u] = 1
        candidates.append(P)
    if intsearch.is_unimodular(dom.A_star):
        candidates.append(dom.A_star)
    successive = []
    seen = set()
    for A in candidates:
        for mapping, pi in regions.lu_mappings_all(A):
            outcome = _oracle_successive_step(ch, A, mapping, pi)
            if outcome:
                key = tuple(round(r, 10) for r in outcome.assignment.rates)
                if key not in seen:
                    seen.add(key)
                    successive.append(outcome.assignment)
    return parallel, successive


def _bitwise(assignments):
    return [(a.A.dtype, a.A.shape, a.A.tobytes(), a.pi, a.rates, a.sum_rate,
             a.gap_to_capacity, a.mapping.pairs) for a in assignments]


def _assert_lu_mappings(assignments):
    """Each mapping is the one of lu_mapping for the assignment's pivot
    order."""
    for asg in assignments:
        order = [asg.pi.index(step) for step in range(1, len(asg.pi) + 1)]
        exact, pi = regions.lu_mapping(asg.A, order)
        assert pi == asg.pi and exact.pairs == asg.mapping.pairs


def oracle_channels(rng, count):
    """2-4 users, 1-2 antennas; every third channel has small integer gains
    and powers, where equal variances (ties) are common."""
    for i in range(count):
        L = 2 + i % 3
        nr = int(rng.integers(1, 3))
        if i % 3 == 0:
            H = rng.integers(-3, 4, size=(nr, L)).astype(float)
            P = rng.choice([1.0, 2.0, 4.0, 16.0], size=L)
        else:
            H = rng.normal(0.0, 2.0, size=(nr, L))
            P = rng.uniform(0.5, 9.0, size=L)
        yield ChannelInstance(H=H, P=P)


class TestAgainstOracle:
    def test_assignment_tables_equal_oracle_bitwise(self):
        rng = np.random.default_rng(43)
        for i, ch in enumerate(oracle_channels(rng, 300)):
            parallel, successive = mac_oracle(ch)
            for new, old in ((parallel_mac_assignments(ch), parallel),
                             (successive_mac_assignments(ch), successive)):
                assert _bitwise(new) == _bitwise(old), i
                _assert_lu_mappings(new)

    def test_noise_variance_equals_full_reports_bitwise(self):
        # every row prefix of every successive_mac_assignments candidate:
        # the user permutation matrices and the dominant solution
        rng = np.random.default_rng(43)
        for i, ch in enumerate(oracle_channels(rng, 300)):
            L = ch.num_users
            candidates = [np.eye(L, dtype=int)[list(p)]
                          for p in itertools.permutations(range(L))]
            candidates.append(ch._dominant_solution.A_star)
            prefixes = {A[:m + 1].tobytes(): A[:m + 1] for A in candidates
                        for m in range(L)}
            for rows in prefixes.values():
                a_m, prev = rows[-1], rows[:-1]
                full = sigma_succ_opt(ch, a_m, prev).variance
                assert np.float64(noise_variance(ch, a_m, prev)).tobytes() == \
                    np.float64(full).tobytes(), (i, rows.tolist())
                assert np.float64(noise_variance(ch, a_m)).tobytes() == \
                    np.float64(sigma_para_opt(ch, a_m).variance).tobytes(), i

    def test_one_chained_variances_call_on_unimodular_candidates(self, monkeypatch):
        # the candidates are not re-checked in the loop: each must be
        # unimodular by construction
        stacks = []
        chained_variances = mac_opt.chained_variances

        def spy(ch, A):
            stacks.append(np.array(A))
            return chained_variances(ch, A)

        monkeypatch.setattr(mac_opt, "chained_variances", spy)
        rng = np.random.default_rng(45)
        for ch in oracle_channels(rng, 30):
            stacks.clear()
            successive_mac_assignments(ch)
            assert len(stacks) == 1
            L = ch.num_users
            assert stacks[0].shape[0] in (math.factorial(L), math.factorial(L) + 1)
            assert all(intsearch.is_unimodular(A) for A in stacks[0])

    def test_one_elimination_walk_per_channel(self, monkeypatch):
        # the permutation candidates' mappings are read off the permutation;
        # only the dominant solution is eliminated, once for both tables
        walked = []
        lu_mappings_all = regions.lu_mappings_all

        def spy(A):
            walked.append(np.array(A))
            return lu_mappings_all(A)

        monkeypatch.setattr(regions, "lu_mappings_all", spy)
        rng = np.random.default_rng(46)
        for ch in oracle_channels(rng, 30):
            walked.clear()
            parallel_mac_assignments(ch)
            successive_mac_assignments(ch)
            assert len(walked) == 1
            assert np.array_equal(walked[0], ch._dominant_solution.A_star)

    def test_tables_use_the_exact_witnesses_unchecked(self, monkeypatch):
        # lu_mappings_all's mappings are admissible by construction: neither
        # table re-checks one
        def refuse(*args):
            raise AssertionError("a mapping was re-checked")

        monkeypatch.setattr(regions, "_coerce_mapping", refuse)
        monkeypatch.setattr(regions, "is_admissible", refuse)
        rng = np.random.default_rng(44)
        for ch in oracle_channels(rng, 20):
            parallel_mac_assignments(ch)
            successive_mac_assignments(ch)

    def test_public_assignment_refuses_a_near_witness(self):
        A = np.array([[10 ** 12, 1], [10 ** 12 + 1, 1]])  # det -1: unimodular
        near = frozenset({(1, 1), (1, 2)})  # not admissible for A
        with pytest.raises(ValueError, match="not admissible"):
            successive_mac_assignment(FIG7, A, near, (1, 2))

    def test_dominant_solution_cached_read_only(self):
        ch = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])
        dom = ch._dominant_solution
        assert ch._dominant_solution is dom
        assert not dom.A_star.flags.writeable and not dom.norms.flags.writeable
        assert parallel_mac_assignments(ch)[0].A is dom.A_star
        zero = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 0.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="user 2 has zero power"):
                zero._dominant_solution
        assert "_dominant_solution" not in vars(zero)

    def test_one_search_per_mac_call(self, tmp_path, monkeypatch):
        import json

        from cfkit.cli import main

        calls = []
        honest = intsearch.dominant_solution
        monkeypatch.setattr(intsearch, "dominant_solution",
                            lambda *a, **k: calls.append(a) or honest(*a, **k))
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"H": [[1.0, -0.4, 2.2]], "P": [3.0, 1.0, 5.0]}))
        assert main(["mac", "--input", str(path), "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_one_unimodular_check_per_channel(self, monkeypatch):
        # the successive table asks whether the dominant solution is
        # unimodular once per channel: a second table on one channel makes
        # no call, and another channel asks again
        from cfkit import _exact

        calls = []
        honest = _exact.is_unimodular

        def spy(A):
            calls.append(A)
            return honest(A)

        monkeypatch.setattr(_exact, "is_unimodular", spy)
        monkeypatch.setattr(intsearch, "is_unimodular", spy)
        ch = ChannelInstance(H=[[1.0, -0.4, 2.2]], P=[3.0, 1.0, 5.0])
        first = mac_opt._successive_table(ch)
        assert len(calls) == 1 and calls[0] is ch._dominant_solution.A_star
        second = mac_opt._successive_table(ch)
        assert len(calls) == 1
        assert first.rates.tobytes() == second.rates.tobytes()
        mac_opt._successive_table(ChannelInstance(H=ch.H, P=ch.P))
        assert len(calls) == 2


# An ill-conditioned 3-user channel (tests/test_cli.py's): the float chained
# rates of A = I, pi = (1, 2, 3) sum to 1.26e-8 off the sum capacity.
ILL_CONDITIONED = ChannelInstance(
    H=[[0.18741764658239202, 3240.7824325742536, 347.20363251559723],
       [-3947.6845546120926, -203.38369279157774, -0.3125176278023317],
       [2.6173547520922833, 0.049296135617367245, -0.00856342679795989]],
    P=[0.3495355968249849, 7737.990263562073, 479.81084557660967])


def _scorer_rows(ch, rng):
    """(A, mapping, pi) candidates for one _score stack: the successive
    table's own (every user permutation matrix, and the dominant solution's
    pivot orders when it is unimodular), then every pivot order of two
    random unimodular matrices under every pi, the lu mapping and a
    superset of it with one more pair, so that each declining check fires."""
    L = ch.num_users
    rows = [(np.eye(L, dtype=int)[list(perm)], None, None)
            for perm in itertools.permutations(range(L))]
    rows = [(A, *regions.lu_mapping(A)) for A, _m, _p in rows]
    dom = ch._dominant_solution.A_star
    if intsearch.is_unimodular(dom):
        rows += [(dom, mapping, pi) for mapping, pi in regions.lu_mappings_all(dom)]
    for _ in range(2):
        A = random_unimodular(L, rng, entry_cap=4)
        for mapping, _pi in regions.lu_mappings_all(A):
            extra = AdmissibleMapping(mapping.pairs | {(int(rng.integers(1, L + 1)),
                                                       int(rng.integers(1, L + 1)))})
            rows += [(A, m, tuple(pi)) for m in (mapping, extra)
                     for pi in itertools.permutations(range(1, L + 1))]
    return rows


def _scorer_inputs(ch, rows):
    """_score's arrays for (A, mapping, pi) rows, the variances from one
    chained_variances call on the stack of their matrices."""
    L = ch.num_users
    variances = mac_opt.chained_variances(ch, np.stack([A for A, _m, _p in rows]))
    support = np.zeros((len(rows), L, L), dtype=bool)
    for k, (_A, mapping, _pi) in enumerate(rows):
        for m, l in mapping.pairs:
            support[k, m - 1, l - 1] = True
    return variances, support, np.array([pi for _A, _m, pi in rows])


class TestScorer:
    def test_capacity_checked_on_accepted_rows_only(self):
        # the first accepted row that misses is named; declined rows and a
        # NaN sum are not checked, as in a loop over the accepted rows
        cap = 2.0
        sums = np.array([cap + 1.0, cap + 2e-8, cap, math.nan])
        mac_opt._require_capacity(sums, cap, np.array([False, False, True, True]))
        with pytest.raises(ArithmeticError, match=re.escape("by 2.00e-08")):
            mac_opt._require_capacity(sums, cap, np.array([False, True, True, True]))
        with pytest.raises(ArithmeticError, match=re.escape("by 1.00e+00")):
            mac_opt._require_capacity(sums, cap, np.ones(4, dtype=bool))

    def test_agrees_with_scalar_oracle_on_every_candidate(self):
        # the kept per-candidate loop decides every row, and an accepted
        # row's rates and sum are its bits
        rng = np.random.default_rng(47)
        fired = set()
        for i, ch in enumerate(oracle_channels(rng, 60)):
            rows = _scorer_rows(ch, rng)
            scores = mac_opt._score(ch.P, *_scorer_inputs(ch, rows))
            for k, (A, mapping, pi) in enumerate(rows):
                want = _oracle_successive_step(ch, A, mapping, pi)
                fired.add(want.declined_reason)
                assert bool(scores.ok[k]) == bool(want), (i, k)
                if want:
                    assert tuple(scores.rates[k].tolist()) == want.assignment.rates, (i, k)
                    assert scores.sums[k].tobytes() == \
                        np.float64(want.assignment.sum_rate).tobytes(), (i, k)
        # "not mapped" needs a mapping no full-rank matrix admits; see below
        assert fired == {None, "pair below pivot", "worst mapped noise", "power"}

    def test_unmapped_user_declines(self):
        # both users on row 1 and none on row 2: no pair sits below a step,
        # but user 2's step 2 is unmapped.  For an admissible mapping of a
        # full-rank matrix this cannot happen once no pair sits below, since
        # the rows from step m on would lie in fewer columns than they are
        mapping = AdmissibleMapping(frozenset({(1, 1), (1, 2)}))
        support = np.array([[[True, True], [False, False]]])
        scores = mac_opt._score(FIG7.P, np.array([[0.5, 1.0]]), support, np.array([[1, 2]]))
        assert not scores.ok[0]
        assert mac_opt._declined_reason(FIG7, mapping, (1, 2), scores) == \
            "user 2 is not mapped to its assigned step 2"

    @pytest.mark.parametrize("ch, A, mapping, pi, reason", [
        (FIG7, [[1, 1], [1, 2]], {(1, 1), (1, 2), (2, 2)}, (2, 1),
         "mapping pair (2,2) sits below user 2's pivot step 1; pi is not allowed by "
         "this mapping"),
        (FIG7, [[1, 0], [0, 1]], {(1, 1), (1, 2), (2, 2)}, (1, 2),
         "user 2: worst mapped noise 4.11765 exceeds assigned step 2 noise 0.4"),
        (ChannelInstance(H=[[1.0, 1.5]], P=[0.1, 4.0]), [[1, 1], [1, 2]],
         {(1, 1), (1, 2), (2, 2)}, (1, 2),
         "user 1: power 0.1 below required noise tolerance 0.415842"),
    ], ids=["below-pivot", "worst-noise", "power"])
    def test_public_decline_reasons(self, ch, A, mapping, pi, reason):
        assert successive_mac_assignment(ch, A, mapping, pi).declined_reason == reason

    def test_ill_conditioned_sum_keeps_its_error(self):
        message = ("successive sum rate misses the sum capacity by 1.26e-08 "
                   "(tolerance 1e-8); the channel is too ill-conditioned")
        with pytest.raises(ArithmeticError) as table:
            successive_mac_assignments(ILL_CONDITIONED)
        with pytest.raises(ArithmeticError) as one:
            successive_mac_assignment(ILL_CONDITIONED, np.eye(3, dtype=int),
                                      {(1, 1), (2, 2), (3, 3)}, (1, 2, 3))
        assert str(table.value) == str(one.value) == message

    def test_one_scorer_call_per_table(self, monkeypatch):
        calls = []
        score = mac_opt._score

        def spy(P, variances, support, steps):
            calls.append(len(steps))
            return score(P, variances, support, steps)

        monkeypatch.setattr(mac_opt, "_score", spy)
        rng = np.random.default_rng(48)
        for ch in oracle_channels(rng, 30):
            calls.clear()
            successive_mac_assignments(ch)
            dom = ch._dominant_solution.A_star
            extra = len(ch._dominant_mappings) if intsearch.is_unimodular(dom) else 0
            assert calls == [math.factorial(ch.num_users) + extra]


def mac_payload_oracle(ch) -> dict:
    """cli._mac_payload before the tables became arrays, on mac_oracle's
    tables: one dict per assignment, every printed value through Python's
    round."""
    cap = sum_capacity(ch)
    parallel, successive = mac_oracle(ch)
    entries = [{"strategy": strategy, "A": asg.A.tolist(), "pi": list(asg.pi),
                "rates": [round(r, 6) for r in asg.rates],
                "sum_rate": round(asg.sum_rate, 6),
                "gap": round(asg.gap_to_capacity, 6)}
               for strategy, table in (("parallel", parallel), ("successive", successive))
               for asg in table]
    return {"sum_capacity": round(cap, 6), "assignments": entries}


def mac_table_oracle(payload: dict) -> str:
    """cmd_mac's printed table before it was formatted by columns."""
    def fmt(x):
        return f"{x:.6f}"

    lines = [f"{'strategy':<11} {'rates':<30} {'sum':>9} {'gap':>9}"]
    for e in payload["assignments"]:
        rates = " ".join(fmt(r) for r in e["rates"])
        lines.append(f"{e['strategy']:<11} {rates:<30} {fmt(e['sum_rate']):>9} "
                     f"{fmt(e['gap']):>9}")
    return "\n".join(lines) + "\n"


def pool_channels():
    """The analysis-sweep pool (perfbench/workloads.py) in four equivalent
    forms each."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import channel_pool, equivalent_channel

    for seed in range(4):
        for i, (H, P) in enumerate(channel_pool()):
            H, P = equivalent_channel(H, P, np.random.default_rng([seed, 0, i]))
            yield ChannelInstance(H=H, P=P)


class TestPayloadOracle:
    def test_mac_files_and_tables_equal_the_oracle_on_the_pool(self, tmp_path):
        answered = 0
        for i, ch in enumerate(pool_channels()):
            try:
                want = mac_payload_oracle(ch)
            except RuntimeError as exc:  # the search gives up: so does the command
                with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                    cli._mac_payload(ch)
                continue
            path = tmp_path / "channel.json"
            path.write_text(json.dumps({"H": ch.H.tolist(), "P": ch.P.tolist()}))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["mac", "--input", str(path), "--out", str(tmp_path)]) == 0
            written = (tmp_path / "mac_assignments.json").read_text()
            assert written == json.dumps(want, sort_keys=True, indent=2) + "\n", i
            wrote = f"wrote {tmp_path / 'mac_assignments.json'}\n"
            assert out.getvalue() == wrote + mac_table_oracle(want), i
            answered += 1
        assert answered >= 100

    def test_public_tables_are_the_payload_rows(self):
        # parallel_mac_assignments and successive_mac_assignments read the
        # arrays the payload is made from
        for ch in itertools.islice(pool_channels(), 30):
            payload = cli._mac_payload(ch)
            rows = parallel_mac_assignments(ch) + successive_mac_assignments(ch)
            assert payload["strategy"] == ["parallel"] * len(parallel_mac_assignments(ch)) + \
                ["successive"] * len(successive_mac_assignments(ch))
            assert payload["A"] == [a.A.tolist() for a in rows]
            assert payload["pi"] == [list(a.pi) for a in rows]
            assert payload["sum_rate"] == [round(a.sum_rate, 6) for a in rows]


class TestSumIdentity:
    def test_identity_matrix_any_order(self):
        for pi in ((1, 2), (2, 1)):
            lhs, rhs = successive_sum_identity(FIG7, np.eye(2, dtype=int), pi)
            assert abs(lhs - rhs) <= 1e-9

    def test_fig7_value(self):
        lhs, rhs = successive_sum_identity(FIG7, [[1, 1], [1, 2]], (1, 2))
        assert lhs == pytest.approx(2.043731, abs=5e-6)
        assert rhs == pytest.approx(2.043731, abs=5e-6)

    def test_random_instances(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            L = int(rng.integers(2, 5))
            ch = ChannelInstance(H=rng.normal(size=(int(rng.integers(1, 3)), L)) * 2,
                                 P=rng.uniform(0.4, 9.0, size=L))
            A = random_unimodular(L, rng)
            pi = tuple(rng.permutation(L) + 1)
            lhs, rhs = successive_sum_identity(ch, A, pi)
            assert abs(lhs - rhs) <= 1e-8

    def test_refuses_numerically_dependent_prefix(self):
        # unimodular (determinant -1), but its first two rows are parallel
        # to within the numerical rank tolerance
        ch = ChannelInstance(H=[[1.0, 2.0, 0.5]], P=[1.0, 1.0, 1.0])
        A = [[10**12, 1, 0], [10**12 + 1, 1, 0], [0, 0, 1]]
        with pytest.raises(ValueError, match="A_prev must have full row rank"):
            successive_sum_identity(ch, A, (1, 2, 3))


class TestEquivariance:
    def test_user_permutation_permutes_assignment_sets(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            L = 3
            H = rng.normal(size=(1, L)) * 2
            P = rng.uniform(0.5, 8.0, size=L)
            perm = rng.permutation(L)
            ch1 = ChannelInstance(H=H, P=P)
            ch2 = ChannelInstance(H=H[:, perm], P=P[perm])
            set1 = {tuple(round(np.array(a.rates)[perm][i], 9) for i in range(L))
                    for a in parallel_mac_assignments(ch1)}
            set2 = {tuple(round(a.rates[i], 9) for i in range(L))
                    for a in parallel_mac_assignments(ch2)}
            assert set1 == set2


class TestRandomUnimodular:
    def test_properties(self):
        from cfkit.intsearch import is_unimodular

        rng = np.random.default_rng(34)
        for _ in range(50):
            L = int(rng.integers(2, 5))
            A = random_unimodular(L, rng)
            assert is_unimodular(A)
            assert np.max(np.abs(A)) <= 50
