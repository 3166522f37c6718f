import itertools
import math

import numpy as np
import pytest

import chain_oracle
from cfkit import _kernels, _zp, lattice, simulator
from cfkit.lattice import (NestedLatticeEnsemble, build_ensemble, coset_contains,
                           label_inverse, linear_label, linear_labels, mod_lattice,
                           nearest_point, nearest_points)
from chain_oracle import second_moment


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def cubic_ensemble(n=2, p=3, gamma=3.0):
    """k_C = 0 for both users: the coarsest lattice is gamma Z^n."""
    return build_ensemble(n, p, gamma, [(0, 1), (0, 2)], seed=1,
                          G=np.eye(2, n, dtype=int))


class TestBuildEnsemble:
    def test_square_generator_must_be_invertible(self):
        ens = build_ensemble(2, 3, 3.0, [(0, 2), (0, 2)], seed=9)
        from cfkit._zp import rref_mod_p

        assert len(rref_mod_p(ens.G.tolist(), 3)[1]) == 2

    def test_injected_generator_cosets(self):
        ens = cubic_ensemble()
        # full code at gamma = p: finest lattice is Z^2
        for pt in [(1, 0), (0, 1), (2, -1)]:
            assert np.allclose(mod_lattice(ens, "F", np.array(pt, float)), 0, atol=1e-9)
        # one-row prefix (1,0): second coordinate must vanish mod 3
        assert np.allclose(mod_lattice(ens, ("F", 1), np.array([1.0, 3.0])), 0, atol=1e-9)
        assert not np.allclose(mod_lattice(ens, ("F", 1), np.array([1.0, 1.0])), 0,
                               atol=1e-9)

    def test_seed_determinism(self):
        a = build_ensemble(4, 5, 2.0, [(0, 2), (1, 3)], seed=77)
        b = build_ensemble(4, 5, 2.0, [(0, 2), (1, 3)], seed=77)
        assert np.array_equal(a.G, b.G)

    def test_desk_scale_caps(self):
        with pytest.raises(ValueError, match="desk scale"):
            build_ensemble(11, 3, 1.0, [(0, 1)], seed=0)
        with pytest.raises(ValueError, match="k_F must not exceed"):
            build_ensemble(2, 3, 1.0, [(0, 3)], seed=0)

    @pytest.mark.parametrize("n, p, levels", [(2, 9999999999999937, [(0, 1)]),
                                              (2, 15, [(0, 1)]),
                                              (2_000_000, 3, [(0, 1)]),
                                              (2, 3, [(0, 7)])])
    def test_caps_checked_before_any_work(self, monkeypatch, n, p, levels):
        # neither the primality test of p nor a draw of G may run first
        def spy(*args, **kwargs):
            raise AssertionError("work done before the desk scale caps")

        monkeypatch.setattr(lattice._zp, "require_prime", spy)
        monkeypatch.setattr(lattice.np.random, "PCG64", spy)
        with pytest.raises(ValueError, match="desk scale caps"):
            build_ensemble(n, p, 3.0, levels, seed=0)
        with pytest.raises(ValueError, match="desk scale caps"):
            NestedLatticeEnsemble(n=n, p=p, gamma=3.0, levels=levels,
                                  G=np.zeros((1, 2), dtype=np.int64))

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, -math.inf, 0.0])
    def test_gamma_must_be_finite_and_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            build_ensemble(2, 3, gamma, [(0, 1), (0, 2)], seed=21)

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_gamma_range(self, p):
        # gamma/p a normal float, (gamma/2)^2 <= 2^998
        low = p * 2.0 ** -1022
        assert lattice.GAMMA_MAX == 2.0 ** 500
        for gamma in (low, lattice.GAMMA_MAX):
            assert build_ensemble(2, p, gamma, [(0, 1)], seed=0).gamma == gamma
        message = (r"gamma must be finite and positive, in \[p 2\^-1022, 2\^500\] = "
                   rf"\[{low:.6g}, 3.27339e\+150\] for p = {p}$")
        for gamma in (math.nextafter(low, 0.0), 5e-324, math.nextafter(lattice.GAMMA_MAX, 1e308)):
            with pytest.raises(ValueError, match=message):
                build_ensemble(2, p, gamma, [(0, 1)], seed=0)

    @pytest.mark.parametrize("n, p, levels", [(2, 3, [(0, 2)]), (8, 7, [(0, 4), (1, 5)]),
                                              (6, 13, [(0, 3)]), (3, 2, [(1, 3)])])
    def test_codeword_tables_in_message_order(self, n, p, levels):
        # row v holds (gamma/p)(v G mod p), v in lexicographic order
        ens = build_ensemble(n, p, 2.5, levels, seed=5)
        for k in range(ens.k_F + 1):
            V = np.array(list(itertools.product(range(p), repeat=k)),
                         dtype=np.int64).reshape(p ** k, k)
            want = (2.5 / p) * ((V @ ens.G[:k]) % p).astype(np.float64)
            assert ens.codeword_shifts(k).tobytes() == want.tobytes()
            assert ens.code_table(k).shifts is ens.codeword_shifts(k)


class TestUserIndex:
    ENS = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=0)

    @pytest.mark.parametrize("call", [
        lambda ens, user: lattice.zero_padded_label(ens, user, [1]),
        lambda ens, user: coset_contains(ens, user, [0, 1], [1]),
        lambda ens, user: simulator.encode(ens, user, [1], np.zeros(3)),
        lambda ens, user: ens.prefix_len(("C", user)),
    ], ids=["zero_padded_label", "coset_contains", "simulator.encode", "prefix_len"])
    @pytest.mark.parametrize("user", [0, -1, 3])
    def test_out_of_range_user_refused(self, call, user):
        # user 0 and -1 once read the last user's levels
        with pytest.raises(ValueError, match=f"user index {user} out of range"):
            call(self.ENS, user)

    def test_in_range_user_reads_its_levels(self):
        assert self.ENS.user_levels(1) == (0, 1) and self.ENS.user_levels(2.0) == (1, 2)
        assert lattice.zero_padded_label(self.ENS, 1, [1]).tolist() == [1, 0]
        with pytest.raises(ValueError, match="user indices must be integers"):
            self.ENS.user_levels(1.5)


class TestPrefixEchelons:
    """The ensemble reduces G once; its rank checks, code tables and right
    inverse read that pass."""

    @pytest.mark.parametrize("n, p, levels, seed", [(2, 3, [(0, 1), (0, 2)], 21),
                                                    (8, 7, [(0, 4), (1, 5)], 21),
                                                    (6, 13, [(0, 3)], 5), (3, 2, [(1, 3)], 5),
                                                    (4, 5, [(1, 2), (0, 3)], 10)])
    def test_each_prefix_and_right_inverse_as_separate_eliminations(self, n, p, levels, seed):
        ens = build_ensemble(n, p, 2.5, levels, seed=seed)
        for k in range(1, ens.k_F + 1):
            rref, pivots = _zp.rref_mod_p(ens.G[:k].tolist(), p)
            assert ens._echelons[k][:2] == (rref, pivots)
            table = ens.code_table(k)
            assert list(table.order[:k]) == pivots
            want = np.arange(p)[:, None] * np.array(rref).reshape(k, 1, n) % p
            assert np.array_equal(table.lift, want)
        # the right inverse as it was built before: zero outside G's pivot
        # rows, where it holds the inverse mod p of G's pivot columns
        pivots = _zp.rref_mod_p(ens.G.tolist(), p)[1]
        R = ens.G_right_inverse
        assert R.dtype == np.int64 and R.shape == (n, ens.k_F)
        assert not np.delete(R, pivots, axis=0).any() and R.min() >= 0 and R.max() < p
        assert np.array_equal(ens.G[:, pivots] @ R[pivots] % p, np.eye(ens.k_F, dtype=np.int64))

    def test_first_deficient_required_prefix_is_named(self):
        # row 3 repeats row 1: prefixes 1 and 2 are full rank, 3 and 4 not
        G = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]
        ens = NestedLatticeEnsemble(4, 3, 3.0, ((0, 2),), np.array(G[:2]))
        assert len(ens._echelons) == 3
        with pytest.raises(ValueError, match="prefix of 4 rows of G is rank deficient"):
            NestedLatticeEnsemble(4, 3, 3.0, ((0, 2), (1, 4)), np.array(G))
        with pytest.raises(ValueError, match="prefix of 3 rows of G is rank deficient"):
            NestedLatticeEnsemble(4, 3, 3.0, ((0, 3), (2, 4)), np.array(G))

    def test_empty_generator(self):
        ens = NestedLatticeEnsemble(3, 5, 1.0, ((0, 0),), np.zeros((0, 3), dtype=int))
        assert ens.G_right_inverse.shape == (3, 0)
        assert ens.code_table(0).shape == (1, 3)


class TestNearestPoint:
    def test_lattice_point_is_fixed(self):
        ens = cubic_ensemble()
        for w in itertools.product(range(3), repeat=2):
            pt = label_inverse(ens, w)
            assert np.allclose(nearest_point(ens, "F", pt), pt, atol=1e-9)

    def test_rounding_oracle(self):
        ens = cubic_ensemble()
        # finest lattice is Z^2: plain rounding, halves toward minus infinity
        assert np.allclose(nearest_point(ens, "F", [0.4, -0.6]), [0, -1], atol=1e-12)
        assert np.allclose(nearest_point(ens, "F", [0.5, 1.5]), [0, 1], atol=1e-12)

    def test_unique_decoding_within_packing_radius(self):
        ens = build_ensemble(2, 3, 3.0, [(0, 1), (0, 2)], seed=2,
                             G=np.array([[1, 2], [0, 1]]))
        # enumeration oracle for the minimum distance of the user-1 fine lattice
        dmin = min(np.linalg.norm(np.array(c) + 3 * np.array(z))
                   for t in range(3) for z in itertools.product((-1, 0, 1), repeat=2)
                   for c in [((t % 3), (2 * t % 3))]
                   if any(np.array(c) % 3) or any(z))
        rng = np.random.default_rng(5)
        for _ in range(100):
            w = rng.integers(0, 3)
            base = (3 / 3) * np.array([w % 3, (2 * w) % 3], dtype=float)
            v = rng.normal(size=2)
            v *= rng.uniform(0, 0.49) * dmin / np.linalg.norm(v)
            assert np.allclose(nearest_point(ens, ("F", 1), base + v), base, atol=1e-9)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            nearest_point(cubic_ensemble(), "F", [1.0, 2.0, 3.0])


class TestNearestPoints:
    def test_bitwise_equal_per_row(self):
        ens = build_ensemble(4, 5, 2.0, [(1, 2), (0, 3)], seed=10)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 4)) * 3
        for which in ("C", "F", ("C", 1), ("F", 1), ("C", 2), ("F", 2)):
            want = np.array([nearest_point(ens, which, x) for x in X])
            assert nearest_points(ens, which, X).tobytes() == want.tobytes()

    def test_large_table_is_split_and_bitwise_equal(self):
        ens = build_ensemble(4, 7, 7.0, [(0, 4)], seed=3)
        size = ens.codeword_shifts(4).size
        step = lattice.slice_length(size // ens.n)
        X = np.random.default_rng(13).normal(size=(2 * step + 5, 4)) * 7
        assert 1 < step < X.shape[0]  # several slices
        want = np.array([nearest_point(ens, "F", x) for x in X])
        assert nearest_points(ens, "F", X).tobytes() == want.tobytes()

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            nearest_points(cubic_ensemble(), "F", np.zeros((2, 3)))


class TestStackedBlocks:
    """nearest_points and linear_labels on blocks stacked into one give each
    block's rows bitwise: a campaign decodes all its noise levels this way."""

    @pytest.mark.parametrize("path", ["tree", "gathers"])
    @pytest.mark.parametrize("kind", ["decode", "uniform"])
    def test_stacked_equals_separate_calls(self, path, kind):
        if path == "tree":  # the 16807-row table of the parallel benchmark campaign
            ens = build_ensemble(8, 7, 7.0, [(0, 4), (1, 5)], seed=21)
        else:
            ens = build_ensemble(6, 7, 7.0, [(0, 3)], seed=0)
        table = ens.code_table(ens.k_F)
        rows = table.shape[0]
        assert (rows >= _kernels.TRIE_MIN_ROWS) == (path == "tree")
        step = lattice.slice_length(rows)
        if path == "tree":
            assert step == 62
        rng = np.random.default_rng(15)
        sizes = [15, step - 1, 1, step + 1, 2 * step + 3, 50]
        blocks = []
        for size in sizes:
            V = rng.integers(0, ens.p, size=(size, ens.k_F))
            if kind == "decode":
                X = ens.gamma / ens.p * (V @ ens.G % ens.p)
                X = X + ens.gamma * rng.integers(-2, 3, size=X.shape)
                X = X + rng.normal(size=X.shape) * 0.2 * ens.gamma / ens.p
            else:
                X = rng.random((size, ens.n)) * ens.gamma
            blocks.append(X)
        separate = [nearest_points(ens, "F", X) for X in blocks]
        stacked = nearest_points(ens, "F", np.vstack(blocks))
        assert stacked.shape[0] > 3 * step  # the stacked block crosses slices
        assert stacked.tobytes() == np.vstack(separate).tobytes()
        labels = linear_labels(ens, stacked)
        assert labels.tobytes() == np.vstack([linear_labels(ens, s) for s in separate]).tobytes()


class TestModLattice:
    def test_zero_on_lattice_points(self):
        ens = cubic_ensemble()
        assert np.allclose(mod_lattice(ens, "C", [3.0, -6.0]), 0, atol=1e-12)

    def test_distributive_law(self):
        ens = cubic_ensemble()
        rng = np.random.default_rng(6)
        for _ in range(100):
            x, y = rng.normal(size=2) * 5, rng.normal(size=2) * 5
            a, b = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
            lhs = mod_lattice(ens, "C",
                              a * mod_lattice(ens, "C", x) + b * mod_lattice(ens, "C", y))
            rhs = mod_lattice(ens, "C", a * x + b * y)
            assert np.allclose(lhs, rhs, atol=1e-9)

    def test_nested_quantization_property(self):
        ens = build_ensemble(3, 3, 2.0, [(0, 2), (1, 3)], seed=4)
        rng = np.random.default_rng(7)
        pairs = [("C", ("F", 2)), (("C", 1), ("F", 1)), ("C", "F")]
        for coarse, fine in pairs:
            for _ in range(60):
                x = rng.normal(size=3) * 4
                lhs = mod_lattice(ens, coarse, nearest_point(ens, fine, x))
                rhs = mod_lattice(ens, coarse,
                                  nearest_point(ens, fine, mod_lattice(ens, coarse, x)))
                assert np.allclose(lhs, rhs, atol=1e-9)


class TestLabeling:
    def test_zero_label(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        assert np.array_equal(linear_label(ens, np.zeros(3)), np.zeros(2, dtype=int))

    def test_roundtrip_exhaustive(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        assert ens.k == 2
        for w in itertools.product(range(3), repeat=2):
            lam = label_inverse(ens, w)
            assert tuple(linear_label(ens, lam)) == w

    def test_linearity_exhaustive_small(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        pts = {w: label_inverse(ens, w) for w in itertools.product(range(3), repeat=2)}
        for (w1, l1), (w2, l2) in itertools.product(pts.items(), repeat=2):
            for a1, a2 in [(1, 1), (2, 1), (-1, 2), (3, -2)]:
                lhs = linear_label(ens, a1 * l1 + a2 * l2)
                rhs = (a1 * np.array(w1) + a2 * np.array(w2)) % 3
                assert np.array_equal(lhs, rhs)

    def test_level_structure_from_suffixes(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        for w in itertools.product(range(3), repeat=2):
            lam = label_inverse(ens, w)
            for user in (1, 2):
                kc, kf = ens.levels[user - 1]
                fine_zero = all(v == 0 for v in w[ens.k - (ens.k_F - kf):]) \
                    if ens.k_F > kf else True
                coarse_zero = all(v == 0 for v in w[ens.k - (ens.k_F - kc):])
                in_fine = np.allclose(mod_lattice(ens, ("F", user), lam), 0, atol=1e-9)
                in_coarse = np.allclose(mod_lattice(ens, ("C", user), lam), 0, atol=1e-9)
                assert in_fine == fine_zero
                assert in_coarse == coarse_zero

    def test_chain_nesting(self):
        ens = build_ensemble(4, 5, 2.0, [(1, 2), (0, 3)], seed=10)
        # every generator of a coarser lattice belongs to the finer ones
        for row in range(ens.k_C):
            base = (ens.gamma / ens.p) * ens.G[row].astype(float)
            for which in [("C", 1), ("C", 2), ("F", 1), ("F", 2), "F"]:
                assert np.allclose(mod_lattice(ens, which, base), 0, atol=1e-9)

    def test_labels_equal_zp_solve(self):
        # every label of small ensembles, at its base point and shifted by
        # coarse lattice vectors: the label is the tail of the solution of
        # G^T v = c mod p, the one-point solve linear_label once ran
        rng = np.random.default_rng(15)
        count = 0
        for n, p, levels, seed in [(3, 3, [(0, 1), (1, 2)], 8), (4, 5, [(1, 2), (1, 3)], 10),
                                   (3, 2, [(0, 3), (1, 2)], 3), (5, 7, [(0, 2), (2, 2)], 4),
                                   (2, 13, [(0, 1), (0, 2)], 5)]:
            ens = build_ensemble(n, p, 2.0 * p, levels, seed=seed)
            for w in itertools.product(range(p), repeat=ens.k):
                lam = label_inverse(ens, w) + ens.gamma * rng.integers(-2, 3, size=n)
                c = np.rint(lam * p / ens.gamma).astype(np.int64) % p
                v = _zp.solve_mod_p(ens.G.T.tolist(), c.tolist(), p)
                assert np.array_equal(linear_label(ens, lam), v[ens.k_C:])
                count += 1
        assert count == 260

    def test_wrong_length_points_rejected(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=0)
        for bad in (np.zeros(4), np.zeros(2), np.zeros(0)):
            with pytest.raises(ValueError, match="points must be rows of dimension 3"):
                linear_label(ens, bad)
            with pytest.raises(ValueError, match="points must be rows of dimension 3"):
                linear_labels(ens, bad.reshape(1, -1))
        with pytest.raises(ValueError, match="points must be rows of dimension 3"):
            linear_labels(ens, np.zeros(3))

    def test_rejects_non_lattice_points(self):
        ens = cubic_ensemble()
        with pytest.raises(ValueError):
            linear_label(ens, [0.5, 0.5])

    def test_batched_labels_match(self):
        for ens in (build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8),
                    build_ensemble(4, 5, 2.0, [(1, 2), (1, 3)], seed=10)):
            rng = np.random.default_rng(14)
            W = rng.integers(0, ens.p, size=(30, ens.k))
            # lattice points away from the base cell: labels are mod coarse
            pts = np.array([label_inverse(ens, w) for w in W])
            pts += ens.gamma * rng.integers(-2, 3, size=pts.shape)
            got = linear_labels(ens, pts)
            assert np.array_equal(got, W % ens.p)
            assert np.array_equal(got, [linear_label(ens, pt) for pt in pts])

    def test_batched_labels_reject_like_single(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        good = label_inverse(ens, [1, 2])
        # on the gamma/p grid but not a codeword (k_F = 2 < n = 3)
        off_code = next(np.array(c, dtype=float) for c in
                        itertools.product(range(3), repeat=3)
                        if _raises(linear_label, ens, np.array(c, dtype=float)))
        for bad in (off_code, np.array([0.5, 0.0, 0.0])):
            with pytest.raises(ValueError) as single:
                linear_label(ens, bad)
            with pytest.raises(ValueError) as batched:
                linear_labels(ens, np.vstack([good, bad]))
            assert str(batched.value) == str(single.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        # the README ensemble; a NaN once cast to an integer label
        ens = build_ensemble(2, 3, 3.0, [(0, 1), (0, 2)], seed=21)
        with pytest.raises(ValueError, match="not on the gamma/p integer grid"):
            linear_label(ens, [bad, 0.0])
        with pytest.raises(ValueError, match="not on the gamma/p integer grid"):
            linear_labels(ens, [[0.0, 0.0], [bad, 0.0]])

    @pytest.mark.parametrize("big", [1e300, 3e19, 2.0 ** 53, -2.0 ** 60])
    def test_huge_points_rejected(self, big):
        # past 2^53 every float passes the grid test, and past 2^63 the
        # int64 cast overflowed to a wrong label
        ens = build_ensemble(2, 3, 3.0, [(0, 1), (0, 2)], seed=21)
        with pytest.raises(ValueError, match="not on the gamma/p integer grid"):
            linear_label(ens, [big, 0.0])
        with pytest.raises(ValueError, match="not on the gamma/p integer grid"):
            linear_labels(ens, [[0.0, 0.0], [big, 0.0]])

    def test_largest_grid_points_labelled(self):
        ens = build_ensemble(2, 3, 3.0, [(0, 1), (0, 2)], seed=21)
        top = 2.0 ** 53 - 1  # gamma / p = 1: a grid coordinate of its own
        want = linear_label(ens, [top % 3, -top % 3])
        assert np.array_equal(linear_label(ens, [top, -top]), want)
        assert np.array_equal(linear_labels(ens, [[top, -top]]), [want])

    def test_codebook_cardinality(self):
        for n, p in [(2, 3), (3, 3), (2, 5)]:
            ens = build_ensemble(n, p, float(p), [(0, 1), (1, 2)], seed=11)
            for user in (1, 2):
                kc, kf = ens.levels[user - 1]
                pts = set()
                for msg in itertools.product(range(p), repeat=kf - kc):
                    padded = lattice.zero_padded_label(ens, user, msg)
                    lam = mod_lattice(ens, ("C", user), label_inverse(ens, padded))
                    pts.add(tuple(np.round(lam, 6)))
                assert len(pts) == p ** (kf - kc)


class TestCosets:
    def test_zero_message(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        assert coset_contains(ens, 1, np.zeros(2, dtype=int), [0])

    def test_leading_dont_care(self):
        # user 2 has k_C,2 - k_C = 1 leading free symbol
        ens = build_ensemble(3, 3, 3.0, [(0, 2), (1, 2)], seed=12)
        assert ens.k == 2
        assert coset_contains(ens, 2, [0, 2], [2])
        assert coset_contains(ens, 2, [1, 2], [2])  # differs only in don't-care
        assert not coset_contains(ens, 2, [0, 1], [2])

    def test_trailing_symbol_must_be_zero(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        assert coset_contains(ens, 1, [2, 0], [2])
        assert not coset_contains(ens, 1, [2, 1], [2])

    def test_length_mismatch(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        with pytest.raises(ValueError):
            coset_contains(ens, 1, [0, 0], [0, 0])


def _reference_layout(ens, user, messages):
    """Reference by direct slicing: the messages at columns k_C,l .. k_F,l
    of k_F-symbol message vectors V, and the points (gamma/p) (V G mod p)."""
    kc, kf = ens.levels[user - 1]
    V = np.zeros((len(messages), ens.k_F), dtype=np.int64)
    V[:, kc:kf] = messages
    return V, (ens.gamma / ens.p) * ((V @ ens.G) % ens.p).astype(np.float64)


def _label_ensembles():
    """Pinned ensembles (p = 2, users with k_C,l > 0, zero-width users,
    k_F,l < k_F, k_C > 0) and random ones with n 2-8, p in {2, 3, 5, 7}."""
    out = [build_ensemble(8, 7, 2.5, [(0, 4), (1, 5)], seed=1),
           build_ensemble(4, 2, 2.0, [(0, 3), (2, 2), (1, 4)], seed=2),
           build_ensemble(5, 3, 3.0, [(1, 3), (2, 2), (1, 2)], seed=3),
           build_ensemble(3, 5, 5.0, [(2, 2)], seed=4)]
    rng = np.random.default_rng(32)
    while len(out) < 40:
        n, p = int(rng.integers(2, 9)), int(rng.choice([2, 3, 5, 7]))
        top = min(n, lattice.MAX_KF, int(math.log(lattice.MAX_CODEWORDS, p)))
        kf = int(rng.integers(1, top + 1))
        levels = [sorted(rng.integers(0, kf + 1, size=2).tolist())
                  for _ in range(int(rng.integers(1, 4)))]
        levels[0][1] = kf
        out.append(build_ensemble(n, p, float(p), levels, seed=len(out)))
    return out


LABEL_ENSEMBLES = _label_ensembles()
LABEL_IDS = [f"{e.n}-{e.p}-{e.levels}" for e in LABEL_ENSEMBLES]


class TestLabelBlocks:
    """lattice's block rule for signal levels against direct slicing and
    products, bit for bit, and each one-row view against its block."""

    @pytest.mark.parametrize("ens", LABEL_ENSEMBLES, ids=LABEL_IDS)
    def test_blocks_match_inline_reference(self, ens):
        rng = np.random.default_rng(ens.n * 100 + ens.p)
        B, p = 9, ens.p
        for user, (kc, kf) in enumerate(ens.levels, 1):
            msgs = rng.integers(0, p, size=(B, kf - kc))
            V, points = _reference_layout(ens, user, msgs)
            labels = lattice.zero_padded_labels(ens, user, msgs)
            assert labels.dtype == np.int64 and np.array_equal(labels, V[:, ens.k_C:])
            lifted = lattice.label_inverses(ens, labels)
            assert lifted.shape == (B, ens.n) and lifted.tobytes() == points.tobytes()
            # candidates: free leading symbols drawn, some rows perturbed anywhere
            cand = labels.copy()
            cand[:, :kc - ens.k_C] = rng.integers(0, p, size=(B, kc - ens.k_C))
            if ens.k:
                rows = rng.random(B) < 0.5
                cols = rng.integers(0, ens.k, size=B)
                cand[rows, cols[rows]] = (cand[rows, cols[rows]] + 1) % p
            want = (np.all(cand[:, kc - ens.k_C:kf - ens.k_C] == msgs, axis=1)
                    & ~cand[:, kf - ens.k_C:].any(axis=1))
            assert np.array_equal(lattice.cosets_contain(ens, user, cand, msgs), want)
            assert np.array_equal(lattice.in_fine_lattice(ens, user, cand),
                                  ~cand[:, kf - ens.k_C:].any(axis=1))
            for i in range(B):
                assert np.array_equal(lattice.zero_padded_label(ens, user, msgs[i]), labels[i])
                assert lattice.label_inverse(ens, labels[i]).tobytes() == lifted[i].tobytes()
                assert lattice.coset_contains(ens, user, cand[i], msgs[i]) is bool(want[i])
        L = ens.num_users
        A = rng.integers(-4, 5, size=(3, L))
        block = rng.integers(0, p, size=(B, L, ens.k))
        combined = lattice.label_combinations(ens, A, block)
        assert np.array_equal(combined, np.matmul(A % p, block) % p)
        for b in range(B):
            for m in range(3):
                assert np.array_equal(lattice.label_add(ens, block[b], A[m]), combined[b, m])

    @pytest.mark.parametrize("ens", LABEL_ENSEMBLES[:12], ids=LABEL_IDS[:12])
    def test_encode_block_matches_inline_reference(self, ens):
        # codewords: the reference points mod the user's coarse lattice;
        # true labels: the shifted points' labels combined by np.matmul
        messages, cubes, _ = simulator._draw_block(ens, 1, 7, 0, 11)
        A = np.random.default_rng(ens.p).integers(-3, 4, size=(2, ens.num_users))
        _, _, codewords, shifted, truth = simulator._encode_block(ens, A, messages, cubes)
        labels = []
        for user, (kc, kf) in enumerate(ens.levels, 1):
            _, points = _reference_layout(ens, user, messages[user - 1])
            want = points - nearest_points(ens, ("C", user), points)
            assert codewords[user - 1].tobytes() == want.tobytes()
            lab = linear_labels(ens, shifted[user - 1])
            assert np.array_equal(lab[:, kc - ens.k_C:kf - ens.k_C], messages[user - 1])
            assert not lab[:, kf - ens.k_C:].any()
            labels.append(lab)
        want = np.matmul(A % ens.p, np.stack(labels, axis=1)) % ens.p
        assert truth.dtype == np.int64 and np.array_equal(truth, want)

    def test_label_add_refuses_bad_shapes(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)  # k = 2
        # a label of length 1 was broadcast to [1, 1]
        with pytest.raises(ValueError, match="blocks of L = 1 labels of length k = 2"):
            lattice.label_add(ens, [[1]], [1])
        # two labels and one coefficient: the second label was dropped
        with pytest.raises(ValueError, match="blocks of L = 1 labels of length k = 2"):
            lattice.label_add(ens, [[1, 2], [2, 2]], [1])
        assert lattice.label_add(ens, [[1, 2], [2, 2]], [1, 1]).tolist() == [0, 1]

    def test_block_shapes_refused(self):
        ens = build_ensemble(3, 3, 3.0, [(0, 1), (1, 2)], seed=8)
        with pytest.raises(ValueError, match="label must have length 2"):
            lattice.label_inverses(ens, [[1, 2, 0]])
        with pytest.raises(ValueError, match="message for user 2 must have length 1"):
            lattice.zero_padded_labels(ens, 2, [[1, 2]])
        with pytest.raises(ValueError, match="labels must be blocks"):
            lattice.label_combinations(ens, [[1, 1]], [[1, 2], [0, 1]])


class TestSecondMoment:
    def test_cubic_lattice(self):
        ens = cubic_ensemble(gamma=3.0)
        est, se = second_moment(ens, "C", samples=4000, seed=13)
        assert abs(est - 9.0 / 12.0) <= 3 * se

    def test_seed_invariance_within_error(self):
        ens = cubic_ensemble(gamma=3.0)
        e1, s1 = second_moment(ens, "C", samples=3000, seed=1)
        e2, s2 = second_moment(ens, "C", samples=3000, seed=2)
        assert abs(e1 - e2) <= 3 * math.hypot(s1, s2)

    def test_skewed_lattice_against_quadrature_oracle(self):
        # user-1 coarse lattice from code row (1,2): a skewed planar lattice
        ens = build_ensemble(2, 3, 3.0, [(1, 2), (1, 2)], seed=2,
                             G=np.array([[1, 2], [0, 1]]))
        grid = 80
        acc = 0.0
        for i in range(grid):
            for j in range(grid):
                x = (np.array([i + 0.5, j + 0.5]) / grid) * ens.gamma
                v = mod_lattice(ens, ("C", 1), x)
                acc += float(v @ v) / ens.n
        oracle = acc / (grid * grid)
        est, se = second_moment(ens, ("C", 1), samples=4000, seed=14)
        assert abs(est - oracle) <= 3 * se + 1e-3


class TestCryptoLemma:
    def test_dithered_point_uniform_over_voronoi(self):
        # cube Voronoi (k_C = 0): bin coordinates and chi-square against uniform
        ens = cubic_ensemble(gamma=2.0)
        rng = np.random.default_rng(15)
        bins = 4
        n_samples = 4800
        for x in [np.zeros(2), np.array([0.7, -1.3]), np.array([5.2, 0.4])]:
            counts = np.zeros((bins, bins))
            for _ in range(n_samples):
                d = chain_oracle.sample_voronoi(ens, "C", rng)
                v = mod_lattice(ens, "C", x + d)
                cell = np.floor((v + ens.gamma / 2) / ens.gamma * bins).astype(int)
                cell = np.clip(cell, 0, bins - 1)
                counts[cell[0], cell[1]] += 1
            expected = n_samples / bins ** 2
            chi2 = float(np.sum((counts - expected) ** 2 / expected))
            # 0.999 quantile of chi-square with 15 degrees of freedom
            assert chi2 < 37.697
