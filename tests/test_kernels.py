import itertools

import numpy as np
import pytest

from cfkit import _kernels
from cfkit._kernels import (TIE_REL, CodeTable, backend_name,
                            nearest_codeword_point, nearest_codeword_points)
from cfkit.lattice import build_ensemble


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


def scan_oracle(shifts, X, gamma):
    """The full scan the staged kernel replaces: every coset's candidate in
    one B x K x n buffer, the same rounding and step-down rule, row-wise
    einsum distances, then TIE_REL and the lexicographic pass."""
    shifts = np.ascontiguousarray(shifts, dtype=np.float64)
    X = np.ascontiguousarray(X, dtype=np.float64)
    B, n = X.shape
    tol = TIE_REL * max(1.0, gamma * gamma)
    x = X[:, None, :]
    steps = np.subtract(x, shifts)
    steps /= gamma
    steps -= 0.5
    np.ceil(steps, out=steps)
    cands = steps * gamma
    cands += shifts
    steps -= cands - x >= gamma / 2 - tol / (2 * gamma)
    cands = steps * gamma
    cands += shifts
    diffs = np.subtract(cands, x).reshape(-1, n)
    d2 = np.einsum("ij,ij->i", diffs, diffs).reshape(B, -1)
    best = d2.min(axis=1)
    tied = d2 <= (best + tol)[:, None]
    out = cands[np.arange(B), tied.argmax(axis=1)]
    for b in np.flatnonzero(tied.sum(axis=1) > 1):
        rows = cands[b, tied[b]]
        out[b] = rows[np.lexsort(rows.T[::-1])[0]]
    return out


def grid_queries(rng, shifts, gamma, normal=4, midpoints=12):
    """Normal queries, then points of the gamma/10 grid, where ties abound."""
    n = shifts.shape[1]
    return np.vstack([rng.normal(size=(normal, n)) * 3,
                      rng.integers(-10, 10, size=(midpoints, n)) * gamma / 10])


def assert_matches_oracle(shifts, X, gamma):
    got = nearest_codeword_points(shifts, X, gamma)
    assert got.tobytes() == scan_oracle(shifts, X, gamma).tobytes()


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


def test_midpoint_ties_match_brute_force():
    # a coordinate half a step between two points of one coset takes the
    # smaller even when (x - s) / gamma - 0.5 rounds one ulp above an integer
    rng = np.random.default_rng(123)
    for _ in range(300):
        shifts, x, gamma = random_case(rng)
        X = np.vstack([x, grid_queries(rng, shifts, gamma, normal=3)])
        got = nearest_codeword_points(shifts, X, gamma)
        for q, point in zip(X, got):
            want = brute_force(shifts, q, gamma)
            assert np.allclose(point, want, atol=1e-9), (q, point, want)


def test_bitwise_equal_to_scan_oracle():
    rng = np.random.default_rng(45)
    for _ in range(400):
        shifts, _, gamma = random_case(rng)
        assert_matches_oracle(shifts, grid_queries(rng, shifts, gamma), gamma)
    # prepared tables and tables with signed zeros go the same way
    shifts, _, gamma = random_case(rng)
    X = grid_queries(rng, shifts, gamma)
    got = nearest_codeword_points(CodeTable.from_shifts(shifts), X, gamma)
    assert got.tobytes() == scan_oracle(shifts, X, gamma).tobytes()
    signed = np.where(rng.random(shifts.shape) < 0.5, -shifts, shifts)
    assert_matches_oracle(signed, X, gamma)


def test_campaign_table_bitwise_equal_to_scan_oracle():
    # the 7^5 = 16807-row table of the parallel benchmark campaign
    ens = build_ensemble(8, 7, 7.0, [[0, 4], [1, 5]], seed=21)
    table = ens.code_table(5)
    rng = np.random.default_rng(46)
    X = np.vstack([rng.normal(size=(24, 8)) * 7,
                   rng.integers(-14, 14, size=(24, 8)) * 7.0 / 14])
    got = nearest_codeword_points(table, X, 7.0)
    for i in range(0, X.shape[0], 4):
        want = scan_oracle(table.shifts, X[i:i + 4], 7.0)
        assert got[i:i + 4].tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1.0 + 1e-3, 1.0 - 1e-3])
def test_shortlist_boundary(scale):
    # two cosets whose exact squared distances differ by scale * tol, with
    # the nearer one lexicographically larger: below tol they tie and the
    # smaller point wins, above it the nearer one does.  The distances are
    # below 1e-5, so only the 2 tol margin of the shortlist keeps both rows.
    gamma = 1.0
    tol = TIE_REL
    for h in (1e-3, 3e-3):
        for extra in (0, 2):
            shifts = np.array([[0.0, 0.0], [0.0, h]] + [[0.5, 0.5]] * extra)
            x = np.array([[0.0, h / 2 + scale * tol / (2 * h)]])
            got = nearest_codeword_points(shifts, x, gamma)
            assert got.tobytes() == scan_oracle(shifts, x, gamma).tobytes()
            want = [0.0, h] if scale > 1 else [0.0, 0.0]
            assert np.array_equal(got[0], want), (h, scale, got)


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


def test_code_table_builds_shifts_on_first_access():
    rng = np.random.default_rng(47)
    shifts = rng.integers(0, 5, size=(30, 5)).astype(float) * 0.4
    table = CodeTable.from_shifts(shifts)
    nearest_codeword_points(table, rng.normal(size=(6, 5)), 2.0)
    assert table.shape == (30, 5) and table._shifts is None
    built = table.shifts
    assert built.tobytes() == shifts.tobytes() and table.shifts is built
    for a in (table.values, table.cells, table.pairs, built):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
