from fractions import Fraction

import numpy as np
import pytest

from cfkit import _exact
from exact_oracle import (int_det_oracle, int_rank_oracle, smith_normal_form,
                          solve_rational)


def brute_det(M):
    return round(float(np.linalg.det(np.array(M, dtype=float))))


def test_det_matches_float_determinant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        M = rng.integers(-6, 7, size=(n, n)).tolist()
        assert _exact.int_det(M) == brute_det(M)


def test_det_singular():
    assert _exact.int_det([[1, 2], [2, 4]]) == 0


def test_det_equals_bareiss_oracle():
    # square matrices with small entries, entries past 2^63, zero rows and
    # rows that are integer combinations of others (determinant 0)
    rng = np.random.default_rng(6)
    seen = {"zero": 0, "swap": 0, "big": 0}
    for trial in range(3000):
        n = int(rng.integers(0, 6))
        M = rng.integers(-4, 5, size=(n, n)).tolist()
        if trial % 4 == 0:
            M = [[v * 2 ** int(rng.integers(60, 70)) + int(rng.integers(-3, 4))
                  for v in row] for row in M]
            seen["big"] += 1
        if n >= 2 and trial % 3 == 1:
            f, g = (int(v) for v in rng.integers(-3, 4, size=2))
            M[-1] = [f * x + g * y for x, y in zip(M[0], M[-2])]
        if n and trial % 7 == 2:
            M[int(rng.integers(0, n))] = [0] * n
        if n and not M[0][0]:
            seen["swap"] += 1
        det = _exact.int_det(M)
        assert det == int_det_oracle(M)
        seen["zero"] += det == 0
        if n:
            # solve's D changes sign with each swap; its ratios do not
            t = [int(v) for v in rng.integers(-5, 6, size=n)]
            got, want = _exact.solve(M, t), solve_rational(M, t)
            assert (got is None) == (want is None)
            if got is not None:
                nums, d = got
                assert [Fraction(x, d) for x in nums] == want
    assert min(seen.values()) > 300
    with pytest.raises(ValueError, match="square"):
        _exact.int_det([[1, 2, 3], [4, 5, 6]])
    assert _exact.int_det([]) == int_det_oracle([]) == 1


def test_rank_examples():
    assert _exact.int_rank([[1, 1], [2, 2]]) == 1
    assert _exact.int_rank([[1, 0], [0, 1]]) == 2
    assert _exact.int_rank([[0, 0], [0, 0]]) == 0


def test_rows_independent():
    assert _exact.rows_independent([], [1, 2, 3])
    assert not _exact.rows_independent([[1, 2, 3]], [2, 4, 6])
    assert _exact.rows_independent([[1, 2, 3]], [1, 0, 0])


def _row_sequence(rng, dim):
    """Candidate rows for a RowBasis: small rows, rows with entries above
    2^40 (kept below 2^63 in every combination, as int_rank reads them
    through numpy), zero rows, and integer combinations of the rows drawn so
    far (dependent ones)."""
    rows = []
    for _ in range(int(rng.integers(1, 9))):
        kind = int(rng.integers(0, 5))
        if kind == 0:
            row = [0] * dim
        elif kind == 1 and rows:
            picks = rng.integers(0, len(rows), size=2)
            f, g = (int(v) for v in rng.integers(-3, 4, size=2))
            row = [f * x + g * y for x, y in zip(rows[picks[0]], rows[picks[1]])]
        elif kind == 2:
            row = [int(v) * 2 ** int(rng.integers(40, 57)) + int(rng.integers(-5, 6))
                   for v in rng.integers(-3, 4, size=dim)]
        else:
            row = [int(v) for v in rng.integers(-3, 4, size=dim)]
        rows.append(row)
    return rows


def test_row_basis_agrees_with_rows_independent():
    rng = np.random.default_rng(5)
    seen = {True: 0, False: 0}
    for _ in range(600):
        dim = int(rng.integers(1, 6))
        basis = _exact.RowBasis()
        kept = []
        for row in _row_sequence(rng, dim):
            expected = int_rank_oracle(kept + [row]) == len(kept) + 1
            assert _exact.rows_independent(kept, row) == expected
            assert _exact.int_rank(kept + [row]) == len(kept) + expected
            assert basis.add(row) == expected
            seen[expected] += 1
            if expected:
                kept.append(row)
    assert min(seen.values()) > 300


def test_row_basis_examples():
    basis = _exact.RowBasis()
    assert not basis.add([0, 0, 0])
    assert basis.add([2, 4, 6]) and not basis.add([1, 2, 3])
    assert basis.add([2 ** 41, 1, 0]) and not basis.add([2 ** 41 + 2, 5, 6])
    assert basis.add(np.array([0, 0, 5])) and not basis.add([7, -1, 2])


def test_unimodular():
    assert _exact.is_unimodular([[1, 1], [1, 2]])
    assert not _exact.is_unimodular([[2, 0], [0, 1]])
    assert not _exact.is_unimodular([[1, 2, 3]])


def test_smith_form_reconstructs_input():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        A = rng.integers(-8, 9, size=(m, n))
        S, U, V = smith_normal_form(A.tolist())
        S, U, V = np.array(S), np.array(U), np.array(V)
        assert np.array_equal(U @ A @ V, S)
        assert _exact.int_det(U.tolist()) in (1, -1)
        assert _exact.int_det(V.tolist()) in (1, -1)
        diag = [S[i, i] for i in range(min(m, n))]
        # off-diagonal zero, nonnegative divisibility chain
        assert np.count_nonzero(S) == np.count_nonzero(diag)
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0


def test_smith_known_case():
    S, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [S[i][i] for i in range(3)] == [2, 2, 156]


def test_int_inverse_unimodular():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        A = np.eye(n, dtype=int)
        for _ in range(6):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                A[i] += int(rng.integers(-3, 4)) * A[j]
        inv = np.array(_exact.int_inverse_unimodular(A.tolist()))
        assert np.array_equal(A @ inv, np.eye(n, dtype=int))


def test_int_inverse_rejects_non_unimodular():
    for mat in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]]):
        with pytest.raises(ValueError, match="not unimodular"):
            _exact.int_inverse_unimodular(mat)


def test_solve_examples():
    # pivots on the leftmost columns, free variables 0, one denominator
    assert _exact.solve([[2, 4, 1], [0, 0, 3]], [1, 1]) == ([2, 0, 2], 6)
    assert _exact.solve([[1, 2], [2, 4]], [1, 3]) is None
    assert _exact.solve([[0], [0]], [0, 0]) == ([0], 1)
    nums, d = _exact.solve([[2 ** 64, 1], [1, 1]], [1, 0])
    assert [Fraction(v, d) for v in nums] == [Fraction(1, 2 ** 64 - 1),
                                              Fraction(-1, 2 ** 64 - 1)]


def test_eliminate_below_keeps_integers_and_shares_rows():
    rows = [[2, 1, 1, 0, 0], [4, 3, 0, 1, 0], [6, 5, 0, 0, 1]]
    once = _exact.eliminate_below(rows, 0, 0, 1)
    assert once[0] is rows[0] and rows[1] == [4, 3, 0, 1, 0]
    assert once[1:] == [[0, 2, -4, 2, 0], [0, 4, -6, 0, 2]]
    # the second step divides by the first pivot, 2
    assert _exact.eliminate_below(once, 1, 1, 2)[2] == [0, 0, 2, -4, 2]


def test_column_hnf_lower():
    rng = np.random.default_rng(3)
    blocks = []
    for _ in range(40):
        n = int(rng.integers(1, 5))
        while True:
            T = rng.integers(-6, 7, size=(n, n))
            if _exact.int_det(T.tolist()) != 0:
                break
        blocks.append(T)
    # wide blocks of full row rank: block @ W = [T 0]
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        while True:
            T = rng.integers(-6, 7, size=(m, n))
            if _exact.int_rank(T.tolist()) == m:
                break
        blocks.append(T)
    for T in blocks:
        m, n = T.shape
        Tlow, W = _exact.column_hnf_lower(T.tolist())
        Tlow, W = np.array(Tlow), np.array(W)
        assert W.shape == (n, n)
        assert _exact.int_det(W.tolist()) in (1, -1)
        assert np.array_equal(T @ W, Tlow)
        assert not Tlow[:, m:].any()
        assert np.array_equal(Tlow, np.tril(Tlow))
        assert all(Tlow[i, i] > 0 for i in range(m))
        for i in range(m):
            for j in range(i):
                assert 0 <= Tlow[i, j] < Tlow[i, i]


@pytest.mark.parametrize("mat", [
    [[1, 2, 3], [2, 4, 6]],
    [[0, 0, 0], [1, 2, 3]],
    [[1, 0], [0, 1], [1, 1]],
], ids=["dependent-rows", "zero-row", "tall"])
def test_column_hnf_lower_rejects_rank_deficient(mat):
    with pytest.raises(ValueError, match="singular matrix has no column Hermite form"):
        _exact.column_hnf_lower(mat)


def test_column_hnf_of_unimodular_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = np.eye(n, dtype=int)
        for _ in range(8):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                A[i] += int(rng.integers(-2, 3)) * A[j]
        Tlow, _ = _exact.column_hnf_lower(A.tolist())
        assert np.array_equal(np.array(Tlow), np.eye(n, dtype=int))


def test_python_ints_past_int64_stay_exact():
    # numpy would hold these as objects it cannot round, or as float64,
    # where 2**63 + 1 and 2**63 - 1 both read as 2**63
    assert _exact.is_unimodular([[2 ** 64 + 1, 2 ** 64], [1, 1]])
    assert _exact.int_det([[2 ** 63 + 1, 2 ** 63], [1, 1]]) == 1
    assert _exact.int_rank([[2 ** 63 + 1, 2 ** 63], [2 ** 63, 2 ** 63 - 1]]) == 2


@pytest.mark.parametrize("mat", [
    [[1.5, 2 ** 64], [1, 1]],
    [[0.5, 1], [1, 1]],
    np.array([[2.5, 1.0], [1.0, 1.0]]),
    [[float("nan"), 1], [1, 1]],
], ids=["past-int64", "list", "array", "nan"])
def test_non_integral_entries_rejected(mat):
    for fn in (_exact.int_det, _exact.int_rank, _exact.is_unimodular):
        with pytest.raises(ValueError, match="must be integers"):
            fn(mat)
