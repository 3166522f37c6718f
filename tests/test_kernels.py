import itertools

import numpy as np
import pytest

from cfkit import _kernels, _zp, lattice
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


def assert_sliced_matches_oracle(table, X, gamma, step=4):
    got = nearest_codeword_points(table, X, gamma)
    for i in range(0, X.shape[0], step):
        want = scan_oracle(table.shifts, X[i:i + step], gamma)
        assert got[i:i + step].tobytes() == want.tobytes(), i


def trie_queries(rng, table, gamma, count=24):
    """Decode-like queries (codewords moved by gamma Z^n plus noise), queries
    uniform over [0, gamma)^n and points of the gamma/14 grid, where
    midpoint ties abound."""
    K, n = table.shape
    points = table.shifts[rng.integers(0, K, count)]
    points = points + gamma * rng.integers(-2, 3, size=points.shape)
    return {"decode": points + rng.normal(size=points.shape) * 0.3,
            "uniform": rng.random((count, n)) * gamma,
            "grid": rng.integers(-14, 14, size=(count, n)) * gamma / 14}


@pytest.fixture(scope="module")
def campaign_ensemble():
    # the 7^4 = 2401- and 7^5 = 16807-row tables of the parallel benchmark campaign
    return build_ensemble(8, 7, 7.0, [[0, 4], [1, 5]], seed=21)


@pytest.mark.parametrize("prefix", [4, 5])
def test_trie_search_bitwise_equal_to_scan_oracle(campaign_ensemble, prefix):
    table = campaign_ensemble.code_table(prefix)
    assert table.shape[0] >= _kernels.TRIE_MIN_ROWS
    rng = np.random.default_rng(48 + prefix)
    for X in trie_queries(rng, table, 7.0).values():
        assert_sliced_matches_oracle(table, X, 7.0)


def test_trie_branches_over_an_information_set(campaign_ensemble):
    # pivot columns first; the search reads no row of the table, and a walk
    # with no threshold reaches each of its codewords once
    ens = lattice.NestedLatticeEnsemble(8, 7, 7.0, ((0, 5),), campaign_ensemble.G)
    table = ens.code_table(5)
    rng = np.random.default_rng(49)
    X = rng.integers(0, 7, (24, 5)) @ table.generator % 7 + rng.normal(size=(24, 8)) * 0.3
    nearest_codeword_points(table, X, 7.0)
    assert table._cells is None and table._pairs is None and table._shifts is None
    pivots = _zp.rref_mod_p(campaign_ensemble.G.tolist(), 7)[1]
    assert list(table.order[:5]) == pivots and sorted(table.order) == list(range(8))
    _, codes, _, kept = _kernels._walk(table, np.zeros((1, 8, 7)), np.zeros((9, 1)),
                                       np.array([np.inf]), np.zeros(1, dtype=np.intp))
    assert kept == sum(7 ** t for t in range(1, 6)) + 3 * 7 ** 5
    assert np.array_equal(codes[:, pivots], list(itertools.product(range(7), repeat=5)))
    want = table.cells - 7 * np.arange(8)
    assert np.array_equal(np.unique(codes, axis=0), np.unique(want, axis=0))
    for a in (table.generator, table.order, table.lift):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_trie_search_retries_uniform_queries(campaign_ensemble, monkeypatch):
    # uniform queries sit far from the 2401-row table's codewords, beyond
    # the first threshold, so some are searched again
    table = campaign_ensemble.code_table(4)
    passes = []
    walk = _kernels._walk
    monkeypatch.setattr(_kernels, "_walk", lambda *a: passes.append(a[-1].size) or walk(*a))
    X = np.random.default_rng(50).random((24, 8)) * 7.0
    assert_sliced_matches_oracle(table, X, 7.0, step=24)
    assert len(passes) > 1


def test_trie_search_without_leading_information_set():
    # column 0 is zero and columns 1 and 2 repeat a symbol, so the pivots
    # are not the leading columns
    G = build_ensemble(8, 7, 7.0, [[0, 4]], seed=21).G.copy()
    G[:, 0] = 0
    G[:, 2] = G[:, 1]
    ens = lattice.NestedLatticeEnsemble(8, 7, 7.0, ((0, 4),), G)
    table = ens.code_table(4)
    assert table.shape[0] >= _kernels.TRIE_MIN_ROWS
    assert list(table.order[:4]) != [0, 1, 2, 3] and 0 not in table.order[:4]
    rng = np.random.default_rng(51)
    for X in trie_queries(rng, table, 7.0).values():
        assert_sliced_matches_oracle(table, X, 7.0)


def test_float_tables_take_pair_lookups_at_any_size(campaign_ensemble, monkeypatch):
    # a float table, here with duplicate rows, has no generator to walk
    shifts = campaign_ensemble.codeword_shifts(4)
    rng = np.random.default_rng(52)
    shifts = np.vstack([shifts, shifts[rng.integers(0, len(shifts), 600)]])
    table = CodeTable.from_shifts(shifts)
    assert table.shape[0] >= _kernels.TRIE_MIN_ROWS and table.generator is None
    monkeypatch.setattr(_kernels, "_tree_shortlist", None)
    for X in trie_queries(rng, table, 7.0).values():
        assert_sliced_matches_oracle(table, X, 7.0)


def test_trie_search_non_finite_queries(campaign_ensemble):
    # NaN offsets shortlist nothing and take row 0; offsets that overflow
    # tie every row; both as in the scan, also in blocks of NaN rows only
    table = campaign_ensemble.code_table(4)
    X = np.array([[np.nan] * 8, [np.inf] + [0.0] * 7, [1e300] + [0.0] * 7, [1e160] * 8,
                  [3e153, 1, 2, 3, 4, 5, 6, 7]])
    one = np.array([[np.nan] + [0.0] * 7])
    with np.errstate(invalid="ignore", over="ignore"):
        assert_sliced_matches_oracle(table, X, 7.0, step=5)
        for Y in (one, X[:1], X[[0, 0, 0]], np.vstack([one, X[:1]])):
            assert_sliced_matches_oracle(table, Y, 7.0, step=len(Y))
        point = lattice.nearest_point(campaign_ensemble, ("F", 2), one[0])
    assert np.isnan(point[0]) and np.array_equal(point[1:], np.zeros(7))


def small_code(rng):
    """A random code table of p in {2, 3, 5, 7}, k <= 3 and n <= 6."""
    p = int(rng.choice([2, 3, 5, 7]))
    n = int(rng.integers(1, 7))
    k = int(rng.integers(1, min(3, n) + 1))
    gamma = float(rng.uniform(0.5, 4.0))
    ens = build_ensemble(n, p, gamma, [(0, k)], seed=int(rng.integers(2 ** 32)))
    return ens.code_table(k), gamma


@pytest.mark.parametrize("seed", [45, 123])
def test_trie_search_on_small_tables(monkeypatch, seed):
    # random small linear codes, searched as implicit trees, on decode-like,
    # uniform and grid-midpoint queries
    monkeypatch.setattr(_kernels, "TRIE_MIN_ROWS", 2)
    rng = np.random.default_rng(seed)
    for _ in range(150):
        table, gamma = small_code(rng)
        n = table.shape[1]
        p = table.values.shape[0]
        codes = rng.integers(0, p, (8, len(table.generator))) @ table.generator % p
        points = (codes + p * rng.integers(-2, 3, size=codes.shape)) * (gamma / p)
        X = np.vstack([points + rng.normal(size=points.shape) * 0.2 * gamma / p,
                       rng.random((8, n)) * gamma,
                       rng.integers(-2 * p, 2 * p, size=(12, n)) * (gamma / (2 * p))])
        got = nearest_codeword_points(table, X, gamma)
        assert table._cells is None
        assert got.tobytes() == scan_oracle(table.shifts, X, gamma).tobytes()


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


@pytest.mark.parametrize("scale", [1.0 + 1e-3, 1.0 - 1e-3])
def test_trie_shortlist_boundary(monkeypatch, scale):
    # the same near ties on the codes of [0 1] and [[0 1 0], [1 0 1]] over
    # Z_2 with gamma = 2h, whose codewords (0, 0) and (0, h) are the two
    # nearest cosets, searched as implicit trees
    monkeypatch.setattr(_kernels, "TRIE_MIN_ROWS", 2)
    tol = TIE_REL
    for h in (1e-3, 3e-3):
        for G in ([[0, 1]], [[0, 1, 0], [1, 0, 1]]):
            table = CodeTable.from_generator(np.array(G), 2, 2 * h, _zp.rref_mod_p(G, 2))
            x = np.zeros((1, len(G[0])))
            x[0, 1] = h / 2 + scale * tol / (2 * h)
            got = nearest_codeword_points(table, x, 2 * h)
            assert got.tobytes() == scan_oracle(table.shifts, x, 2 * h).tobytes()
            want = h if scale > 1 else 0.0
            assert np.array_equal(got[0], [0.0, want, 0.0][:len(G[0])]), (h, scale, got)


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


def test_generator_table_checks_its_echelon():
    # the echelon a generator table is built from must be the generator's:
    # full rank, the identity in the pivot columns, and the same row space
    G = np.array([[1, 2, 0], [0, 1, 1]])
    rref, pivots = _zp.rref_mod_p(G.tolist(), 3)
    table = CodeTable.from_generator(G, 3, 3.0, (rref, pivots))
    assert table.shape == (9, 3) and list(table.order[:2]) == pivots
    bad = [(rref[:1], pivots[:1]),                       # too few pivots
           ([rref[0], [1, 1, 1]], pivots),               # no identity at pivots
           (_zp.rref_mod_p([[1, 0, 0], [0, 1, 0]], 3))]  # another row space
    for echelon in bad:
        with pytest.raises(ValueError, match="full row rank|echelon"):
            CodeTable.from_generator(G, 3, 3.0, echelon)
    with pytest.raises(ValueError, match="full row rank"):
        CodeTable.from_generator(np.array([[1, 2, 0], [2, 1, 0]]), 3, 3.0,
                                 _zp.rref_mod_p([[1, 2, 0], [2, 1, 0]], 3))


def one_coset_queries(rng, row, gamma, count=40):
    """Queries on a one-row table: normal ones, each coordinate at its
    entry's +-gamma/2 midpoints and within tol of them, and NaN and +-inf
    coordinates, all in one block."""
    n = row.shape[0]
    tol = TIE_REL * max(1.0, gamma * gamma)
    half = np.array([-gamma / 2, gamma / 2])
    nudge = np.array([-tol, -tol / 3, 0.0, tol / 3, tol, 4 * tol])
    mids = row + rng.choice(half, size=(count, n)) + rng.integers(-3, 4, size=(count, n)) * gamma
    mids += rng.choice(nudge, size=(count, n)) * rng.integers(0, 2, size=(count, n))
    odd = rng.normal(size=(12, n)) * 3
    odd[np.arange(12), rng.integers(0, n, size=12)] = [np.nan, np.inf, -np.inf] * 4
    return np.vstack([rng.normal(size=(count, n)) * 3, mids, odd])


@pytest.mark.parametrize("seed", range(4))
def test_one_coset_tables_bitwise_equal_to_scan_oracle(seed):
    # a one-row table rounds the block against its row as the block lies:
    # a generator table of k = 0 (the zero row) and from_shifts rows whose
    # columns hold different values, against the full scan
    rng = np.random.default_rng(500 + seed)
    for n in (1, 2, 5, 8):
        gamma = float(rng.choice([1.0, 3.0, 7.0, 0.25]))
        p = int(rng.choice([2, 3, 7]))
        zero = CodeTable.from_generator(np.zeros((0, n), dtype=np.int64), p, gamma, ([], []))
        row = rng.integers(0, p, size=n) * gamma / p
        row[0], row[-1] = 0.0, (p - 1) * gamma / p  # at least two values when n > 1
        for table in (zero, CodeTable.from_shifts(row[None]), row[None]):
            shifts = table.shifts if isinstance(table, CodeTable) else table
            X = one_coset_queries(rng, shifts[0], gamma)
            with np.errstate(invalid="ignore"):
                got = nearest_codeword_points(table, X, gamma)
                want = scan_oracle(shifts, X, gamma)
                # each row alone gives its bits in the block
                single = np.vstack([nearest_codeword_point(table, x, gamma) for x in X])
            assert got.flags.c_contiguous and got.shape == X.shape
            assert got.tobytes() == want.tobytes(), (n, gamma)
            assert single.tobytes() == got.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_non_finite_queries_hide_no_midpoint_step(campaign_ensemble, seed):
    # a query with a NaN or infinite coordinate has NaN offsets and
    # shortlists nothing; the other queries of its block still step down
    # from the midpoints they pass and still break their ties
    # lexicographically, as in the scan and as when each is quantized alone
    rng = np.random.default_rng(600 + seed)
    tables = [small_code(rng) for _ in range(6)]
    tables.append((campaign_ensemble.code_table(4), 7.0))
    for table, gamma in tables:
        shifts = table.shifts
        X = one_coset_queries(rng, shifts[int(rng.integers(len(shifts)))], gamma, count=10)
        with np.errstate(invalid="ignore", over="ignore"):
            got = nearest_codeword_points(table, X, gamma)
            want = scan_oracle(shifts, X, gamma)
            single = np.vstack([nearest_codeword_point(table, x, gamma) for x in X])
        assert got.tobytes() == want.tobytes() == single.tobytes(), table.shape
