import contextlib
import itertools
import signal
from unittest import mock

import numpy as np
import pytest

from cfkit import _exact, intsearch
from cfkit.core import ChannelInstance, effective_matrix, lattice_gram
from cfkit.intsearch import (DominantSolution, dominant_solution,
                             entry_bound, is_unimodular, mod_p_solvability,
                             primitivity, primitivize, rowspan_contains_real)
from exact_oracle import (primitivity_minors_oracle, primitivity_oracle,
                          primitivize_oracle)

FIG7 = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])


class TestEntryBound:
    def test_zero_channel_unit_powers(self):
        ch = ChannelInstance(H=[[0.0, 0.0, 0.0]], P=[1.0, 1.0, 1.0])
        assert entry_bound(ch) == pytest.approx(1.0, abs=1e-12)

    def test_fig7_eigenvalue_oracle(self):
        # symmetric eigenvalue oracle: I + P^(1/2) H^T H P^(1/2) has trace 18
        # and determinant 17 (H^T H is rank one), so the top eigenvalue is 17
        s = np.sqrt([7.0, 4.0])
        S = np.eye(2) + (s[:, None] * (np.array([[1.0, 1.5]]).T
                                       @ np.array([[1.0, 1.5]]))) * s[None, :]
        tr, det = np.trace(S), np.linalg.det(S)
        lam = (tr + np.sqrt(tr * tr - 4 * det)) / 2
        assert lam == pytest.approx(17.0, abs=1e-9)
        assert entry_bound(FIG7) == pytest.approx(lam, abs=1e-9)
        # entries above sqrt(bound) are prunable: |a| <= 4 survives
        assert int(np.floor(np.sqrt(entry_bound(FIG7)))) == 4

    def test_invariant_under_antenna_permutation(self):
        ch1 = ChannelInstance(H=[[1.0, 2.0], [0.5, -1.0]], P=[2.0, 3.0])
        ch2 = ChannelInstance(H=[[0.5, -1.0], [1.0, 2.0]], P=[2.0, 3.0])
        assert entry_bound(ch1) == pytest.approx(entry_bound(ch2), rel=1e-12)


def brute_force_minima(F, bound):
    """Oracle: full enumeration of the greedy minima over |a_i| <= bound."""
    from cfkit._exact import rows_independent

    dim = F.shape[1]
    cands = []
    for vec in itertools.product(range(-bound, bound + 1), repeat=dim):
        if not any(vec):
            continue
        arr = np.array(vec)
        nz = next(v for v in vec if v)
        if nz < 0:
            arr = -arr
        cands.append((float(np.sum((F @ arr) ** 2)), tuple(arr)))
    cands = sorted(set(cands))
    chosen = []
    for _, vec in cands:
        if len(chosen) == dim:
            break
        if rows_independent(chosen, vec):
            chosen.append(vec)
    return np.array(chosen)


def box_oracle(F, max_users=4, max_radius=64):
    """Reference search: sign-normalize the full box, np.unique it, and sort
    every row on (||F a||^2, entries) at each radius.  dominant_solution must
    give bitwise the same picks, norms and errors."""
    F = np.asarray(F, dtype=float)
    dim = F.shape[1]
    if dim > max_users:
        raise ValueError(f"exact enumeration capped at {max_users} users (got {dim})")
    smin = float(np.linalg.svd(F, compute_uv=False)[-1])
    if smin <= 0:
        raise ValueError("F must have full rank")

    radius = 1
    while radius <= max_radius:
        axes = [np.arange(-radius, radius + 1)] * dim
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
        grid = grid[np.any(grid != 0, axis=1)]
        first_nz = np.argmax(grid != 0, axis=1)
        grid = grid * np.sign(grid[np.arange(len(grid)), first_nz])[:, None]
        grid = np.unique(grid, axis=0)
        norms2 = np.einsum("ij,ij->i", grid @ F.T, grid @ F.T)
        order = np.lexsort(tuple(grid[:, k] for k in reversed(range(dim))) + (norms2,))
        chosen = []
        norms = []
        for idx in order:
            if len(chosen) == dim:
                break
            vec = tuple(int(v) for v in grid[idx])
            if _exact.rows_independent(chosen, vec):
                chosen.append(vec)
                norms.append(float(np.sqrt(norms2[idx])))
        if len(chosen) == dim and smin * (radius + 1) > norms[-1]:
            return DominantSolution(A_star=np.array(chosen, dtype=int),
                                    norms=np.array(norms))
        radius += 1
    raise RuntimeError(f"enumeration exhausted at radius {max_radius}")


def search_outcome(search, F, **kwargs):
    """(A_star bytes, norms bytes) of a search, or its exception type and message."""
    try:
        dom = search(F, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return dom.A_star.dtype.str, dom.A_star.tobytes(), dom.norms.tobytes()


class TestDominantSolution:
    def test_identity_factor(self):
        dom = dominant_solution(np.eye(3))
        assert sorted(map(tuple, dom.A_star.tolist())) == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert np.allclose(dom.norms, 1.0)

    def test_fig7_brute_force_oracle(self):
        F = effective_matrix(FIG7)
        oracle = brute_force_minima(F, 4)
        dom = dominant_solution(F)
        assert np.array_equal(dom.A_star, oracle)
        assert dom.A_star.tolist() == [[1, 1], [1, 2]]
        assert np.allclose(dom.norms ** 2, [1.058824, 1.764706], atol=5e-7)

    def test_norms_sorted_and_minkowski_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            L = int(rng.integers(2, 5))
            ch = ChannelInstance(H=rng.normal(size=(2, L)),
                                 P=rng.uniform(0.5, 6.0, size=L))
            F = effective_matrix(ch)
            dom = dominant_solution(F)
            assert np.all(np.diff(dom.norms) >= -1e-12)
            prod = float(np.prod(dom.norms ** 2))
            bound = L ** L * float(np.linalg.det(lattice_gram(ch)))
            assert prod <= bound * (1 + 1e-9)

    def test_determinism(self):
        F = effective_matrix(FIG7)
        a = dominant_solution(F)
        b = dominant_solution(F)
        assert np.array_equal(a.A_star, b.A_star)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            ch = ChannelInstance(H=rng.normal(size=(1, 2)) * 1.5,
                                 P=rng.uniform(0.5, 6.0, size=2))
            F = effective_matrix(ch)
            dom = dominant_solution(F)
            oracle = brute_force_minima(F, max(4, int(np.max(np.abs(dom.A_star))) + 2))
            assert np.array_equal(dom.A_star, oracle)

    def test_user_cap(self):
        with pytest.raises(ValueError, match="capped"):
            dominant_solution(np.eye(5))


class TestBoxOracle:
    """dominant_solution against box_oracle, bitwise, errors included."""

    def test_bitwise_equal_on_random_channels(self):
        rng = np.random.default_rng(31)
        exhausted = 0
        for i in range(500):
            L = int(rng.integers(2, 5))
            nr = int(rng.integers(1, L + 1))
            if i % 2:  # integer gains and powers: exact ties in ||F a||^2
                ch = ChannelInstance(H=rng.integers(-2, 3, size=(nr, L)),
                                     P=rng.integers(1, 4, size=L))
            else:
                ch = ChannelInstance(H=rng.normal(size=(nr, L)) * rng.uniform(0.3, 3),
                                     P=rng.uniform(0.3, 10, size=L))
            F = effective_matrix(ch)
            want = search_outcome(box_oracle, F, max_radius=4)
            assert search_outcome(dominant_solution, F, max_radius=4) == want, i
            exhausted += want[0] == "RuntimeError"
        assert 10 <= exhausted <= 100

    @pytest.mark.parametrize("H", [[[1e12, 1]], [[1e12, 1, 1, 1]]])
    def test_same_exhaustion_message(self, H):
        F = effective_matrix(ChannelInstance(H=H, P=[1] * len(H[0])))
        want = search_outcome(box_oracle, F, max_radius=3)
        assert want == ("RuntimeError", "enumeration exhausted at radius 3")
        assert search_outcome(dominant_solution, F, max_radius=3) == want

    def test_non_triangular_factors(self):
        # a rotated F, and F over extra zero rows, go through the QR factor
        rng = np.random.default_rng(32)
        for i in range(120):
            L = int(rng.integers(2, 5))
            ch = ChannelInstance(H=rng.normal(size=(int(rng.integers(1, L + 1)), L)),
                                 P=rng.uniform(0.3, 10, size=L))
            F = effective_matrix(ch)
            if i % 2:
                F = np.linalg.qr(rng.normal(size=(L, L)))[0] @ F
            else:
                F = np.vstack([F, np.zeros((2, L))])
            want = search_outcome(box_oracle, F, max_radius=4)
            assert search_outcome(dominant_solution, F, max_radius=4) == want, i

    def test_found_channel_answered(self):
        # Refused by the old half-box search's row cap (4 users stopped after
        # radius 21); first certified at radius 22, as sigma_min(F) = 0.1249
        # and the last norm is 2.83.  box_oracle takes about two minutes to
        # get there, so its answer is written out below.
        ch = ChannelInstance(H=[[0, -4, 4, -4], [-2, 2, 0, 0], [0, -4, -4, 4]],
                             P=[16, 16, 16, 16])
        dom = dominant_solution(effective_matrix(ch), max_radius=64)
        assert dom.A_star.tolist() == FOUND_A_STAR
        assert dom.norms.tolist() == FOUND_NORMS

    def test_node_budget(self):
        F = effective_matrix(ChannelInstance(H=np.diag([1e6, 1e6, 1e6, 0.0])[:3],
                                             P=[1, 1, 1, 1]))
        with pytest.raises(RuntimeError, match=r"^enumeration stopped at 1000000 nodes; "):
            dominant_solution(F)
        F = effective_matrix(FIG7)
        with mock.patch.object(intsearch, "MAX_SEARCH_NODES", 5), \
                pytest.raises(RuntimeError, match="enumeration stopped at 5 nodes"):
            dominant_solution(F)

    def test_radius_extremes(self):
        F = effective_matrix(FIG7)
        want = search_outcome(dominant_solution, F)
        assert search_outcome(dominant_solution, F, max_radius=10 ** 400) == want
        assert search_outcome(dominant_solution, F, max_radius=2) == want
        for r in (1, 0, -3):
            assert search_outcome(dominant_solution, F, max_radius=r) == (
                "RuntimeError", f"enumeration exhausted at radius {r}")


# box_oracle's answer for the channel of test_found_channel_answered
FOUND_A_STAR = [[0, 1, 0, 0], [0, 0, 1, -1], [1, -1, 0, 0], [0, 0, 1, 0]]
FOUND_NORMS = [0.1764350770293639, 0.17669044171975448, 0.4961463635300775,
               2.8298065089416746]


class TestEllipsoidPoints:
    def test_against_the_box(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            dim = int(rng.integers(1, 5))
            radius = int(rng.integers(1, 5))
            T = np.tril(rng.normal(size=(dim, dim)))
            T[np.diag_indices(dim)] = rng.uniform(0.2, 2, size=dim)
            bound = float(rng.uniform(0.1, 6))
            got = intsearch._ellipsoid_points(T, bound, radius, 0.0)
            box = np.array(list(itertools.product(range(-radius, radius + 1), repeat=dim)))
            first = box[np.arange(len(box)), np.argmax(box != 0, axis=1)]
            want = box[(first > 0) & (np.einsum("ij,ij->i", box @ T.T, box @ T.T) <= bound)]
            assert got.dtype == np.int64 and np.array_equal(got, want)


class TestRowspan:
    def test_trivial_cases(self):
        assert rowspan_contains_real([[1, 2], [3, 4]], [[1, 2], [3, 4]])
        assert rowspan_contains_real(np.eye(3, dtype=int), [[5, -7, 2]])

    def test_rank_one_rejection(self):
        assert not rowspan_contains_real([[1, 1], [2, 2]], np.eye(2, dtype=int))


class TestModPSolvability:
    def test_identity(self):
        for p in (2, 3, 5):
            for m in (1, 2):
                assert mod_p_solvability(np.eye(2, dtype=int), m, p)

    def test_reduction_gap(self):
        # integer rowspan contains delta_1 but the mod-p reduction kills it
        A = [[5, 0], [0, 1]]
        assert rowspan_contains_real(A, [[1, 0]])
        assert not mod_p_solvability(A, 1, 5)
        assert mod_p_solvability(A, 2, 5)

    def test_unimodular_always_solvable(self):
        rng = np.random.default_rng(7)
        from cfkit.mac_opt import random_unimodular

        for _ in range(20):
            L = int(rng.integers(2, 5))
            A = random_unimodular(L, rng)
            for p in (2, 3, 5, 7):
                for m in range(1, L + 1):
                    assert mod_p_solvability(A, m, p)

    def test_requires_prime(self):
        with pytest.raises(ValueError, match="prime"):
            mod_p_solvability(np.eye(2, dtype=int), 1, 6)


@contextlib.contextmanager
def _time_limit(seconds: int):
    """TimeoutError when the block runs longer than seconds, so that a
    stalling call fails instead of holding up the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# blocks on which the Smith form's coefficient growth overflowed int64
# (5 x 5) or ran for minutes (6 x 6)
GROWTH_BLOCKS = {
    "5x5": ([[-5, -4, 0, -4, -5], [2, -3, -2, 5, 4], [-4, -3, 4, 4, -2],
             [3, 5, 3, -5, 5], [3, -1, 5, -4, -5]],
            [1, 1, 1, 1, 14510]),
    "6x6": ([[14, 0, -17, -17, 8, 13], [0, 7, 13, 15, -13, -12],
             [-13, -6, 19, 10, -12, 18], [-3, 11, -14, 9, -7, 1],
             [-7, 15, 4, 3, 1, -17], [19, 19, 13, 6, 10, -12]],
            [1, 1, 1, 1, 4, 15110154]),
}


class TestPrimitive:
    def test_identity(self):
        assert is_unimodular(np.eye(3, dtype=int))
        assert primitivity(np.eye(3, dtype=int))
        A_prim, T = primitivize(np.eye(3, dtype=int))
        assert np.array_equal(A_prim, np.eye(3, dtype=int))
        assert np.array_equal(T, np.eye(3, dtype=int))

    def test_gcd_row(self):
        A = np.array([[2, 2], [0, 0]])
        assert not primitivity(A)
        A_prim, T = primitivize(A)
        assert A_prim.tolist() == [[1, 1], [0, 0]]
        assert T.tolist() == [[2]]

    def test_fig7_matrix(self):
        A = np.array([[1, 1], [1, 2]])
        assert is_unimodular(A)
        assert primitivity(A)

    def test_primitivize_properties(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            L = int(rng.integers(2, 5))
            M = int(rng.integers(1, L + 1))
            while True:
                block = rng.integers(-5, 6, size=(M, L))
                from cfkit._exact import int_rank

                if int_rank(block.tolist()) == M:
                    break
            A = np.vstack([block, np.zeros((L - M, L), dtype=int)])
            A_prim, T = primitivize(A)
            assert primitivity(A_prim)
            assert np.array_equal(T @ A_prim[:M], block)
            assert np.array_equal(T, np.tril(T))
            assert all(T[i, i] > 0 for i in range(M))
            # idempotence
            again, T2 = primitivize(A_prim)
            assert np.array_equal(again, A_prim)
            assert np.array_equal(T2, np.eye(M, dtype=int))

    def test_matches_smith_oracle(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 150:
            L = int(rng.integers(1, 5))
            M = int(rng.integers(1, L + 1))
            block = rng.integers(-9, 10, size=(M, L))
            if _exact.int_rank(block.tolist()) < M:
                continue
            A = np.vstack([block, np.zeros((L - M, L), dtype=int)])
            got, want = primitivize(A), primitivize_oracle(A)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert primitivity(A) == primitivity_oracle(A) == \
                primitivity_minors_oracle(block)
            checked += 1

    @pytest.mark.parametrize("name", sorted(GROWTH_BLOCKS))
    def test_smith_growth_blocks_answered(self, name):
        block, diag = GROWTH_BLOCKS[name]
        with _time_limit(20):
            A_prim, T = primitivize(block)
            primitive = primitivity(block)
        assert np.diag(T).tolist() == diag
        assert np.array_equal(T @ A_prim[:len(block)], block)
        assert is_unimodular(A_prim)
        assert not primitive and not primitivity_minors_oracle(block)

    def test_factor_past_int64_is_a_value_error(self):
        # T's diagonal multiplies to |det|, past int64 here; A_prim would fit
        block = [[4, -2744, -1046, 1541, -1951, 2924],
                 [-2932, -2439, -1595, 1806, -2303, 2592],
                 [-2961, 1048, 989, 16, 2863, 1533],
                 [87, 1446, 1923, 902, 2823, -402],
                 [-2516, -1343, -447, -2181, -469, 2381],
                 [-1508, 1530, 1306, -210, 323, 1718]]
        assert not primitivity(block)
        with pytest.raises(ValueError, match="does not fit int64"):
            primitivize(block)

    def test_malformed_stack_rejected(self):
        with pytest.raises(ValueError):
            primitivize([[0, 0], [1, 1]])

    def test_primitive_basis_never_increases_chain_noise(self):
        from cfkit.regions import row_variances

        rng = np.random.default_rng(9)
        for _ in range(30):
            L = int(rng.integers(2, 4))
            M = int(rng.integers(1, L + 1))
            while True:
                block = rng.integers(-4, 5, size=(M, L)) * int(rng.integers(1, 3))
                from cfkit._exact import int_rank

                if int_rank(block.tolist()) == M:
                    break
            A = np.vstack([block, np.zeros((L - M, L), dtype=int)])
            A_prim, _ = primitivize(A)
            ch = ChannelInstance(H=rng.normal(size=(1, L)) * 2,
                                 P=rng.uniform(0.5, 6.0, size=L))
            v = row_variances(ch, A[:M], chained=True)
            v_prim = row_variances(ch, A_prim[:M], chained=True)
            for a, b in zip(v, v_prim):
                assert a >= b - 1e-9
