import itertools

import numpy as np
import pytest

from cfkit import _kernels
from cfkit._kernels import (backend_name, nearest_codeword_point,
                            nearest_codeword_points)


def random_case(rng):
    K = int(rng.integers(1, 40))
    n = int(rng.integers(1, 6))
    gamma = float(rng.uniform(0.5, 4.0))
    shifts = rng.integers(0, 5, size=(K, n)).astype(float) * gamma / 5
    x = rng.normal(size=n) * 3
    return shifts, x, gamma


def brute_force(shifts, x, gamma, reach=1):
    """Oracle: enumerate explicit lattice points around each coset's rounded
    base (the per-coset optimum is always within one step of it) and take the
    nearest; distances equal to 10 decimals tie, and the lexicographically
    smallest point wins."""
    n = len(x)
    offsets = np.array(list(itertools.product(range(-reach, reach + 1), repeat=n)))
    base = np.round((x - shifts) / gamma)
    cands = (shifts[:, None, :] + gamma * (base[:, None, :] + offsets)).reshape(-1, n)
    dist = np.round(np.sum((cands - x) ** 2, axis=1), 10)
    coords = np.round(cands, 9)
    order = np.lexsort(tuple(coords[:, j] for j in reversed(range(n))) + (dist,))
    return cands[order[0]]


def test_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(60):
        shifts, x, gamma = random_case(rng)
        got = nearest_codeword_point(shifts, x, gamma)
        want = brute_force(shifts, x, gamma)
        assert np.allclose(got, want, atol=1e-9), (got, want)


def test_tie_break_prefers_lexicographically_smaller():
    shifts = np.zeros((1, 2))
    # exact facet midpoint between (0,0) and (1,0): smaller coordinate wins
    out = nearest_codeword_point(shifts, np.array([0.5, 0.0]), 1.0)
    assert np.array_equal(out, [0.0, 0.0])
    out = nearest_codeword_point(shifts, np.array([-0.5, 0.5]), 1.0)
    assert np.array_equal(out, [-1.0, 0.0])
    # tie across cosets
    shifts = np.array([[0.0, 0.0], [0.5, 0.0]])
    out = nearest_codeword_point(shifts, np.array([0.25, 0.0]), 1.0)
    assert np.array_equal(out, [0.0, 0.0])


def test_ties_match_brute_force():
    # grid-midpoint queries, where ties abound, as in the batched tie test
    # below (2,400 queries), checked against the oracle rather than against
    # the kernel itself
    rng = np.random.default_rng(44)
    for _ in range(200):
        shifts, _, gamma = random_case(rng)
        X = rng.integers(-10, 10, size=(12, shifts.shape[1])) * gamma / 10
        got = nearest_codeword_points(shifts, X, gamma)
        for x, point in zip(X, got):
            want = brute_force(shifts, x, gamma)
            assert np.allclose(point, want, atol=1e-9), (x, point, want)


def assert_batched_bitwise(shifts, X, gamma):
    got = nearest_codeword_points(shifts, X, gamma)
    want = np.array([nearest_codeword_point(shifts, x, gamma) for x in X])
    assert got.shape == X.shape
    assert got.tobytes() == want.reshape(X.shape).tobytes()


def test_batched_bitwise_equal_to_single_queries():
    rng = np.random.default_rng(43)
    for _ in range(100):
        shifts, _, gamma = random_case(rng)
        X = rng.normal(size=(int(rng.integers(1, 30)), shifts.shape[1])) * 3
        assert_batched_bitwise(shifts, X, gamma)


def test_batched_ties_bitwise_equal_to_single_queries():
    rng = np.random.default_rng(44)
    # facet midpoints of gamma Z^2 (one coset), mixed with untied queries
    shifts = np.zeros((1, 2))
    X = np.array([[0.5, 0.0], [-0.5, 0.5], [0.3, -0.2], [1.5, -1.5], [0.5, 0.5]])
    assert_batched_bitwise(shifts, X, 1.0)
    # ties across cosets: points equidistant from two or more cosets
    shifts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    X = np.array([[0.25, 0.0], [0.25, 0.25], [0.1, 0.3], [0.75, 0.25], [0.0, 0.25]])
    assert_batched_bitwise(shifts, X, 1.0)
    # random grid tables queried at grid midpoints, where ties abound
    for _ in range(40):
        shifts, _, gamma = random_case(rng)
        X = rng.integers(-10, 10, size=(12, shifts.shape[1])) * gamma / 10
        assert_batched_bitwise(shifts, X, gamma)


def test_backend_reported():
    assert backend_name() in ("compiled", "python")
    assert _kernels.BACKEND == backend_name()
