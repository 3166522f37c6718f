"""The exact core against the Fraction eliminations it replaced.

_exact.solve is checked against solve_rational on tall, wide and
rank-deficient systems with consistent and inconsistent right-hand sides and
entries past 2^63; zp_asc_matrix against zp_asc_matrix_oracle, its Fraction
build, bytes and errors alike; and regions.is_admissible against
zp_asc_matrix, which must accept and refuse the same mappings."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cfkit import _exact  # noqa: E402
from cfkit.regions import is_admissible, lu_mapping  # noqa: E402
from cfkit.simulator import zp_asc_matrix  # noqa: E402
from exact_oracle import (admissible_witness_oracle, solve_rational,  # noqa: E402
                          witness_holds_oracle, zp_asc_matrix_oracle)

_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                     st.integers(-2 ** 80, 2 ** 80),
                     st.integers(2 ** 63 - 2, 2 ** 63 + 2).map(lambda v: v * (-1) ** v))
_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


@st.composite
def systems(draw):
    """(M, t, consistent): M of 1-5 rows and 0-5 columns, some rows integer
    combinations of earlier ones; t is M x0 for an integer x0 when
    consistent, else arbitrary."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    M = [[draw(_ENTRIES) for _ in range(n)] for _ in range(m)]
    for i in range(1, m):
        if draw(st.integers(0, 2)) == 0:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            f, g = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            M[i] = [f * x + g * y for x, y in zip(M[a], M[b])]
    consistent = draw(st.booleans())
    if consistent:
        x0 = [draw(st.integers(-5, 5)) for _ in range(n)]
        t = [sum(a * x for a, x in zip(row, x0)) for row in M]
    else:
        t = [draw(_ENTRIES) for _ in range(m)]
    return M, t, consistent


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(system=systems())
@example(system=([[2 ** 63 + 1, 2 ** 63], [2 ** 63, 2 ** 63 - 1]], [1, 0], False))
@example(system=([[1, 2], [2, 4]], [1, 3], False))
def test_solve_matches_rational_oracle(system):
    M, t, consistent = system
    want = solve_rational([[Fraction(v) for v in row] for row in M],
                          [Fraction(v) for v in t])
    got = _exact.solve(M, t)
    assert (got is None) == (want is None)
    if consistent:
        assert got is not None
    if got is not None:
        nums, d = got
        assert d != 0 and [Fraction(v, d) for v in nums] == want
        assert all(sum(a * v for a, v in zip(row, nums)) == tv * d
                   for row, tv in zip(M, t))


@st.composite
def mappings(draw, max_entry=3):
    """(A, pairs): A of 1-4 rows and 1-4 columns; pairs a random subset, or
    the support of lu_mapping's elimination when A is square and has one."""
    rows, users = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.integers(-max_entry, max_entry)
    A = np.array([[draw(entry) for _ in range(users)] for _ in range(rows)])
    if rows == users and draw(st.booleans()):
        try:
            res = lu_mapping(A)
        except ValueError:
            res = None
        if res is not None:
            return A, res[0].pairs
    density = draw(st.sampled_from([0.4, 0.7, 0.9]))
    flips = draw(st.lists(st.floats(0, 1), min_size=rows * users,
                          max_size=rows * users))
    pairs = frozenset((m + 1, l + 1) for m in range(rows) for l in range(users)
                      if flips[m * users + l] < density)
    return A, pairs


def _outcome(fn, *args):
    try:
        Lbar, Lbar_inv = fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    return Lbar.dtype, Lbar.tobytes(), Lbar_inv.dtype, Lbar_inv.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=mappings(), p=_PRIMES)
@example(case=(np.array([[2, 1], [1, 0]]), frozenset({(1, 1), (1, 2), (2, 2)})), p=2)
@example(case=(np.array([[2, 1, 0], [4, 2, 1], [1, 0, 0]]),
               frozenset({(1, 1), (1, 2), (1, 3), (2, 3), (3, 1)})), p=2)
def test_zp_asc_matrix_matches_fraction_oracle(case, p):
    A, pairs = case
    assert _outcome(zp_asc_matrix, A, pairs, p) == _outcome(zp_asc_matrix_oracle, A, pairs, p)


def test_zp_asc_matrix_oracle_outcomes_all_occur():
    """The seeded cases reach every outcome: a matrix, each error message."""
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(3000):
        rows, users = rng.integers(1, 5, size=2)
        A = rng.integers(-3, 4, size=(rows, users))
        pairs = frozenset((m + 1, l + 1) for m in range(rows) for l in range(users)
                          if rng.random() < 0.7)
        p = int(rng.choice([2, 3, 5, 7, 11, 13]))
        got = _outcome(zp_asc_matrix, A, pairs, p)
        assert got == _outcome(zp_asc_matrix_oracle, A, pairs, p)
        seen.add("too small" if "too small" in str(got[1]) else
                 "not admissible" if "not admissible" in str(got[1]) else "matrix")
    assert seen == {"too small", "not admissible", "matrix"}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=mappings())
@example(case=(np.array([[10 ** 12, 1], [10 ** 12 + 1, 1]]), frozenset({(1, 1), (1, 2)})))
def test_is_admissible_agrees_with_zp_asc_matrix(case):
    A, pairs = case
    try:
        zp_asc_matrix(A, pairs, 13)
        refused = False
    except ValueError as exc:
        # every row is solved before any denominator is reduced mod 13, so
        # "p too small" means the mapping is admissible
        refused = "not admissible" in str(exc)
        assert refused or "too small" in str(exc)
    mapping = is_admissible(A, pairs)
    assert (mapping is None) == refused
    W = admissible_witness_oracle(A, pairs)
    assert (W is None) == refused
    if mapping is not None:
        assert mapping.pairs == pairs
        assert witness_holds_oracle(A, pairs, W)
