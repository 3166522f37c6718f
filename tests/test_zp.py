import numpy as np
import pytest

from cfkit import _zp
from exact_oracle import rref_mod_p_oracle


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(2, 25):
        assert _zp.is_prime(n) == (n in primes)
    assert not _zp.is_prime(1)
    with pytest.raises(ValueError):
        _zp.require_prime(9)


def _rank(mat, p):
    return len(_zp.rref_mod_p(mat, p)[1])


def test_rref_and_rank():
    a = [[1, 2, 0], [2, 4, 1]]
    rref, pivots = _zp.rref_mod_p(a, 5)
    assert pivots == [0, 2]
    assert _rank(a, 5) == 2
    assert _rank([[5, 0], [0, 5]], 5) == 0


def test_solve_roundtrip():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5, 7):
        for _ in range(30):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.integers(0, p, size=(m, n))
            x = rng.integers(0, p, size=n)
            b = (A @ x) % p
            sol = _zp.solve_mod_p(A.tolist(), b.tolist(), p)
            assert sol is not None
            assert np.array_equal((A @ np.array(sol)) % p, b)


def test_solve_inconsistent():
    assert _zp.solve_mod_p([[1, 1], [1, 1]], [1, 2], 3) is None


def _random_matrix(rng, p):
    """A matrix with 0-6 rows and 1-8 columns, entries past [0, p), and
    often a row that is a combination of two others mod p."""
    m, n = int(rng.integers(0, 7)), int(rng.integers(1, 9))
    M = rng.integers(-20, 20, size=(m, n))
    if m >= 3 and rng.random() < 0.4:
        M[int(rng.integers(2, m))] = M[0] * int(rng.integers(0, p)) + M[1]
    return M


def test_rref_equals_column_loop_oracle():
    rng = np.random.default_rng(7)
    dependent = 0
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(400):
            M = _random_matrix(rng, p)
            got = _zp.rref_mod_p(M.tolist(), p)
            assert got == rref_mod_p_oracle(M.tolist(), p)
            dependent += len(got[1]) < len(M)
    assert dependent > 500
    assert _zp.rref_mod_p([[0, 0], [0, 0]], 3) == ([[0, 0], [0, 0]], [])


def test_rowspan_equals_rank_test():
    # vec lies in the row space exactly when stacking it keeps the rank
    rng = np.random.default_rng(8)
    seen = {True: 0, False: 0}
    for p in (2, 3, 5, 7, 11, 13):
        for _ in range(300):
            M = _random_matrix(rng, p)
            if not len(M):
                continue
            vec = rng.integers(0, p, size=(int(rng.integers(1, 3)), M.shape[1]))
            if rng.random() < 0.5:
                vec[0] = M[0] * 2 + M[-1]
            rank = len(rref_mod_p_oracle(M.tolist(), p)[1])
            want = len(rref_mod_p_oracle(M.tolist() + vec.tolist(), p)[1]) == rank
            assert _zp.in_rowspan_mod_p(M.tolist(), vec.tolist(), p) == want
            seen[want] += 1
    assert min(seen.values()) > 400
    # no rows span only the zero vector
    assert _zp.in_rowspan_mod_p(np.zeros((0, 2), dtype=int), [[0, 0]], 3)
    assert not _zp.in_rowspan_mod_p(np.zeros((0, 2), dtype=int), [[0, 1]], 3)


def test_rowspan_membership():
    assert _zp.in_rowspan_mod_p([[1, 2], [0, 1]], [[1, 0]], 5)
    assert not _zp.in_rowspan_mod_p([[1, 2]], [[1, 0]], 5)
    # integer rowspan vs mod-p rowspan can disagree
    assert not _zp.in_rowspan_mod_p([[5, 0], [0, 1]], [[1, 0]], 5)


def test_right_inverse():
    # the echelon of all k rows exists exactly when G has full row rank
    rng = np.random.default_rng(3)
    for p in (2, 3, 7, 13):
        for _ in range(20):
            k, n = int(rng.integers(1, 4)), int(rng.integers(3, 7))
            G = rng.integers(0, p, size=(k, n))
            echelons = _zp.prefix_echelons(G, p)
            assert (len(echelons) > k) == (_rank(G, p) == k)
            if len(echelons) <= k:
                continue
            _, pivots, T = echelons[k]
            R = np.array(_zp.echelon_right_inverse(pivots, T, n))
            assert R.shape == (n, k)
            assert np.array_equal((G @ R) % p, np.eye(k, dtype=int))


def test_prefix_echelons_match_rref_of_each_prefix():
    # one pass over the rows gives every prefix's rref and pivots, and the
    # transform T with T mat[:j] = rref; it stops at the first dependent row
    rng = np.random.default_rng(4)
    stops = 0
    for p in (2, 3, 7, 13):
        for _ in range(60):
            k, n = int(rng.integers(0, 6)), int(rng.integers(1, 9))
            G = rng.integers(0, p, size=(k, n))
            if k > 2 and rng.random() < 0.4:
                G[2] = (G[0] * int(rng.integers(0, p)) + G[1]) % p
            echelons = _zp.prefix_echelons(G, p)
            assert echelons[0] == ([], [], [])
            for j, (rref, pivots, T) in enumerate(echelons[1:], start=1):
                assert (rref, pivots) == rref_mod_p_oracle(G[:j].tolist(), p)
                assert np.array_equal(np.array(T) @ G[:j] % p, np.array(rref))
            independent = len(echelons) - 1
            assert _rank(G[:independent].tolist(), p) == independent
            if independent < k:
                stops += 1
                assert _rank(G[:independent + 1].tolist(), p) == independent
    assert stops > 10
