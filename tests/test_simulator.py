import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

import chain_oracle
from exact_oracle import solve_rational
from cfkit import _exact, core, lattice, simulator
from cfkit.core import ChannelInstance, sigma_para_opt, sigma_succ_eval, sigma_succ_opt
from cfkit.lattice import build_ensemble, linear_label, mod_lattice
from cfkit.simulator import (BLOCK_TRIALS, TrialConfig, _draw_block,
                             decode_parallel, decode_successive, encode,
                             recover_real_combo, run_block, run_campaign,
                             run_single_trial, run_trials, shifted_point,
                             true_combinations, wilson_interval, zp_asc_matrix)


def small_ensemble():
    """n=2, p=3, L=2, unequal fine levels, integer-friendly gamma."""
    return build_ensemble(2, 3, 3.0, [(0, 1), (0, 2)], seed=21)


def integer_channel(A):
    A = np.asarray(A, dtype=float)
    return ChannelInstance(H=A, P=np.ones(A.shape[1]))


A22 = np.array([[1, 1], [1, 2]])


class TestEncode:
    def test_zero_message_zero_dither(self):
        ens = small_ensemble()
        lam, x = encode(ens, 1, [0], np.zeros(2))
        assert np.allclose(lam, 0) and np.allclose(x, 0)

    def test_codeword_label_matches_message(self):
        ens = small_ensemble()
        rng = np.random.default_rng(1)
        for _ in range(30):
            user = int(rng.integers(1, 3))
            kc, kf = ens.levels[user - 1]
            msg = rng.integers(0, 3, size=kf - kc)
            d = chain_oracle.sample_voronoi(ens, ("C", user), rng)
            lam, _ = encode(ens, user, msg, d)
            label = linear_label(ens, lam)  # k_C = 0: the message, then zeros
            assert label[kc:kf].tolist() == msg.tolist() and not label[kf:].any()

    def test_input_power_bounded_by_voronoi(self):
        ens = small_ensemble()
        rng = np.random.default_rng(2)
        # worst case: squared covering radius of the cubic coarse cell
        cap = ens.n * (ens.gamma / 2) ** 2 / ens.n
        powers = []
        for _ in range(300):
            d = chain_oracle.sample_voronoi(ens, ("C", 1), rng)
            _, x = encode(ens, 1, [int(rng.integers(0, 3))], d)
            powers.append(float(x @ x) / ens.n)
            assert powers[-1] <= 2 * cap + 1e-9
        est, se = chain_oracle.second_moment(ens, ("C", 1), samples=2000, seed=3)
        assert abs(np.mean(powers) - est) <= 5 * (se + np.std(powers) / 17)

    def test_dither_outside_voronoi_rejected(self):
        ens = small_ensemble()
        with pytest.raises(ValueError, match="Voronoi"):
            encode(ens, 1, [0], np.array([5.0, 5.0]))

    def test_block_encoder_reduces_each_dither_once(self, monkeypatch):
        # per coarse table: every user's dithers and codewords reduced in
        # one call, then every user's dithered inputs in one more; the
        # dither is not re-checked.  Both users of small_ensemble have
        # k_C,l = 0, so the call for ("C", 1) serves them both
        calls = []
        quantize = lattice.nearest_points

        def spy(*args):
            calls.append((args[1], args[2].shape[0]))
            return quantize(*args)

        ens = small_ensemble()
        messages, cubes, _ = _draw_block(ens, 2, 5, 0, 7)
        monkeypatch.setattr(lattice, "nearest_points", spy)
        simulator._encode_block(ens, A22, messages, cubes)
        assert calls == [(("C", 1), 2 * 2 * 7), (("C", 1), 2 * 7)]


class TestTrueCombinations:
    def test_zero_matrix(self):
        ens = small_ensemble()
        rng = np.random.default_rng(3)
        pts = [lattice.label_inverse(ens, w) for w in ([1, 2], [0, 1])]
        out = true_combinations(ens, np.zeros((2, 2), dtype=int), pts)
        assert all(np.array_equal(u, np.zeros(2, dtype=int)) for u in out)

    def test_identity_no_dither(self):
        ens = small_ensemble()
        msgs = [[2], [1, 0]]
        lams = [encode(ens, u + 1, msgs[u], np.zeros(2))[0] for u in range(2)]
        shifted = [shifted_point(ens, u + 1, lams[u], np.zeros(2)) for u in range(2)]
        out = true_combinations(ens, np.eye(2, dtype=int), shifted, msgs)
        # k_C = 0 for both users: each label is its message, zero-padded to k = 2
        assert out[0].tolist() == [2, 0] and out[1].tolist() == [1, 0]

    def test_matches_field_matrix_oracle(self):
        ens = small_ensemble()
        rng = np.random.default_rng(4)
        for _ in range(30):
            A = rng.integers(-4, 5, size=(2, 2))
            pts = [lattice.label_inverse(ens, rng.integers(0, 3, size=2))
                   for _ in range(2)]
            labels = np.array([linear_label(ens, p) for p in pts])
            oracle = (A % 3) @ labels % 3
            out = true_combinations(ens, A, pts)
            assert np.array_equal(np.array(out), oracle)


class TestDecodeParallel:
    def test_noiseless_integer_channel_exhaustive(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        # unit-vector equalizers hit each combination exactly
        eq = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        rng = np.random.default_rng(5)
        for msg1 in range(3):
            for msg2a in range(3):
                for msg2b in range(3):
                    msgs = [np.array([msg1]), np.array([msg2a, msg2b])]
                    dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng)
                               for u in range(2)]
                    lams, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u])
                                     for u in range(2)))
                    X = np.vstack(xs)
                    Y = A22 @ X
                    shifted = [shifted_point(ens, u + 1, lams[u], dithers[u])
                               for u in range(2)]
                    truth = true_combinations(ens, A22, shifted, msgs)
                    decoded, live = decode_parallel(ens, Y, ch, A22, dithers, eq)
                    assert all(live)
                    for u, v in zip(decoded, truth):
                        assert np.array_equal(u, v)

    def test_overwhelming_noise_causes_errors(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        cfg = TrialConfig(ensemble=ens, ch=ch, A=A22, mode="parallel",
                          noise_std=2 * ens.gamma, master_seed=1)
        rep = run_trials(cfg, 60)
        assert sum(c["errors"] for c in rep["combinations"]) > 0

    def test_small_injected_noise_is_harmless(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        # enumeration oracle: minimum distance of the finest lattice (= Z^2 here)
        dmin = min(np.linalg.norm((3 / 3) * (np.array(c) + 3 * np.array(z)))
                   for c in itertools.product(range(3), repeat=2)
                   for z in itertools.product((-1, 0, 1), repeat=2)
                   if any(np.array(c) % 3) or any(z))
        rng = np.random.default_rng(6)
        eq = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        for _ in range(50):
            msgs = [rng.integers(0, 3, size=1), rng.integers(0, 3, size=2)]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            lams, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u]) for u in range(2)))
            X = np.vstack(xs)
            v = rng.normal(size=(2, 2))
            v *= 0.49 * dmin / np.linalg.norm(v, axis=1, keepdims=True)
            Y = A22 @ X + v
            shifted = [shifted_point(ens, u + 1, lams[u], dithers[u]) for u in range(2)]
            truth = true_combinations(ens, A22, shifted, msgs)
            decoded, _ = decode_parallel(ens, Y, ch, A22, dithers, eq)
            for u, t in zip(decoded, truth):
                assert np.array_equal(u, t)

    def test_all_zero_mod_p_row_flagged(self):
        ens = small_ensemble()
        ch = integer_channel(np.array([[1, 1], [3, 3]]))
        A = np.array([[1, 1], [3, 3]])  # second row vanishes mod 3
        decoded, live = decode_parallel(ens, np.zeros((2, 2)), ch, A,
                                        [np.zeros(2), np.zeros(2)],
                                        [np.zeros(2), np.zeros(2)])
        assert live == [True, False]
        assert np.array_equal(decoded[1], np.zeros(ens.k, dtype=int))


class TestZpAsc:
    def test_all_pairs_is_identity(self):
        from cfkit.regions import all_pairs_mapping

        Lbar, Linv = zp_asc_matrix(A22, all_pairs_mapping(2).pairs, 3)
        assert np.array_equal(Lbar, np.eye(2, dtype=int))
        assert np.array_equal(Linv, np.eye(2, dtype=int))

    def test_three_user_example_mod5(self):
        A = [[1, 1, 1], [1, -1, -1], [0, 0, 0]]
        mapping = {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)}
        Lbar, Linv = zp_asc_matrix(A, mapping, 5)
        assert Lbar[1].tolist() == [4, 1, 0]
        reduced = (Lbar @ np.array(A)) % 5
        assert reduced[1, 0] == 0

    def test_inverse_property_random(self):
        from cfkit.regions import lu_mapping

        from cfkit._exact import int_rank

        rng = np.random.default_rng(7)
        for _ in range(30):
            A = rng.integers(-3, 4, size=(3, 3))
            if int_rank(A.tolist()) < 3:
                continue
            res = lu_mapping(A)
            if res is None:
                continue
            for p in (5, 7, 11):
                try:
                    Lbar, Linv = zp_asc_matrix(A, res[0].pairs, p)
                except ValueError:
                    continue  # p too small for this mapping
                assert np.array_equal((Linv @ Lbar) % p, np.eye(3, dtype=int))

    def test_inadmissible_before_too_small(self):
        # row 2 needs -1/2, which has no image mod 2, but row 3 has no
        # solution at all: that is reported first, whatever the field
        A = [[2, 1, 0], [1, 0, 0], [0, 0, 1]]
        mapping = {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)}
        for p in (2, 3):
            with pytest.raises(ValueError, match=r"mapping is not admissible \(row 3\)"):
                zp_asc_matrix(A, mapping, p)

    def test_p_too_small_reported(self):
        # row 2 needs coefficient -1/2, which has no image mod 2
        A = [[2, 1], [1, 0]]
        mapping = {(1, 1), (1, 2), (2, 2)}
        with pytest.raises(ValueError, match="too small"):
            zp_asc_matrix(A, mapping, 2)
        Lbar, _ = zp_asc_matrix(A, mapping, 3)
        assert Lbar[1].tolist() == [1, 1]  # -1/2 = 1 mod 3

    def test_int64_products_bound_p(self):
        # the mapping is checked on Lbar A mod p in int64: L (p - 1)^2 must
        # stay below 2^63, which 2^31 - 1 does for two rows and not for three
        from exact_oracle import zp_asc_matrix_oracle

        p = 2 ** 31 - 1
        A, mapping = [[2, 1], [1, 3]], {(1, 1), (1, 2), (2, 2)}
        got, want = zp_asc_matrix(A, mapping, p), zp_asc_matrix_oracle(A, mapping, p)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert got[0][1, 0] == (-pow(2, -1, p)) % p
        with pytest.raises(ValueError, match="p = 2147483647 too large for 3 rows"):
            zp_asc_matrix(A + [[0, 1]], mapping, p)


class TestRecoverRealCombo:
    def test_noiseless_exact(self):
        ens = small_ensemble()
        rng = np.random.default_rng(8)
        for _ in range(40):
            a = rng.integers(-3, 4, size=2)
            msgs = [rng.integers(0, 3, size=1), rng.integers(0, 3, size=2)]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            lams, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u]) for u in range(2)))
            X = np.vstack(xs)
            ytilde = a @ X
            shifted = [shifted_point(ens, u + 1, lams[u], dithers[u]) for u in range(2)]
            mu = mod_lattice(ens, "C", a[0] * shifted[0] + a[1] * shifted[1])
            s = recover_real_combo(ens, ytilde, mu, dithers, a)
            assert np.allclose(s, a @ X, atol=1e-9)

    def test_zero_coefficients(self):
        ens = small_ensemble()
        y = np.array([2.9, -3.1])
        s = recover_real_combo(ens, y, np.zeros(2), [np.zeros(2), np.zeros(2)],
                               np.zeros(2, dtype=int))
        assert np.allclose(s, lattice.nearest_point(ens, "C", y), atol=1e-12)

    def test_noise_inside_coarse_cell_keeps_equality(self):
        ens = small_ensemble()
        rng = np.random.default_rng(9)
        # packing radius of the coarse lattice gamma Z^2 is gamma/2
        for _ in range(100):
            a = rng.integers(-2, 3, size=2)
            msgs = [rng.integers(0, 3, size=1), rng.integers(0, 3, size=2)]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            lams, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u]) for u in range(2)))
            X = np.vstack(xs)
            z = rng.normal(size=2)
            z *= rng.uniform(0, 0.49) * ens.gamma / np.linalg.norm(z)
            shifted = [shifted_point(ens, u + 1, lams[u], dithers[u]) for u in range(2)]
            mu = mod_lattice(ens, "C", a[0] * shifted[0] + a[1] * shifted[1])
            s = recover_real_combo(ens, a @ X + z, mu, dithers, a)
            assert np.allclose(s, a @ X, atol=1e-9)


class TestDecodeSuccessive:
    def test_first_step_matches_parallel(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        rng = np.random.default_rng(10)
        mapping = {(1, 1), (1, 2), (2, 2)}
        for _ in range(30):
            msgs = [rng.integers(0, 3, size=1), rng.integers(0, 3, size=2)]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            _, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u]) for u in range(2)))
            Y = A22 @ np.vstack(xs) + rng.normal(size=(2, 2)) * 0.05
            para, _ = decode_parallel(ens, Y, ch, A22, dithers, noise_std=0.05)
            succ, _, _ = decode_successive(ens, Y, ch, A22, mapping, dithers,
                                           noise_std=0.05)
            assert np.array_equal(para[0], succ[0])

    def test_noiseless_exhaustive_with_real_sums(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        mapping = {(1, 1), (1, 2), (2, 2)}
        rng = np.random.default_rng(11)
        for msgs in itertools.product(range(3), range(3), range(3)):
            m = [np.array([msgs[0]]), np.array(msgs[1:])]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            lams, xs = zip(*(encode(ens, u + 1, m[u], dithers[u]) for u in range(2)))
            X = np.vstack(xs)
            Y = A22 @ X
            shifted = [shifted_point(ens, u + 1, lams[u], dithers[u]) for u in range(2)]
            truth = true_combinations(ens, A22, shifted, m)
            labels, reals, _ = decode_successive(ens, Y, ch, A22, mapping, dithers,
                                                 noise_std=0.0)
            for got, want in zip(labels, truth):
                assert np.array_equal(got, want)
            for k in range(2):
                assert np.allclose(reals[k], A22[k] @ X, atol=1e-9)

    def test_agrees_with_parallel_under_all_pairs_zero_c(self):
        from cfkit.regions import all_pairs_mapping

        ens = small_ensemble()
        ch = integer_channel(A22)
        rng = np.random.default_rng(12)
        b_eq = simulator.parallel_equalizers(ch, A22, (0.3,))[0]
        succ_eq = [(b_eq[m], np.zeros(m)) for m in range(2)]
        for _ in range(40):
            msgs = [rng.integers(0, 3, size=1), rng.integers(0, 3, size=2)]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            _, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u]) for u in range(2)))
            Y = A22 @ np.vstack(xs) + rng.normal(size=(2, 2)) * 0.3
            para, _ = decode_parallel(ens, Y, ch, A22, dithers, b_eq)
            succ, _, _ = decode_successive(ens, Y, ch, A22,
                                           all_pairs_mapping(2).pairs, dithers,
                                           succ_eq)
            for u, v in zip(para, succ):
                assert np.array_equal(u, v)

    def test_conditional_correctness_instrumented(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        mapping = {(1, 1), (1, 2), (2, 2)}
        rng = np.random.default_rng(13)
        Lbar, _ = zp_asc_matrix(A22, mapping, ens.p)
        checked = 0
        for trial in range(400):
            msgs = [rng.integers(0, 3, size=1), rng.integers(0, 3, size=2)]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            lams, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u]) for u in range(2)))
            X = np.vstack(xs)
            Y = A22 @ X + rng.normal(size=(2, 2)) * 0.4
            shifted = [shifted_point(ens, u + 1, lams[u], dithers[u]) for u in range(2)]
            truth = true_combinations(ens, A22, shifted, msgs)
            labels, reals, _, internals = decode_successive(
                ens, Y, ch, A22, mapping, dithers, noise_std=0.4,
                with_internals=True)
            reduced = (Lbar @ A22) % ens.p
            true_nu = [mod_lattice(ens, "C", sum(
                int(reduced[m, l]) * shifted[l] for l in range(2)))
                for m in range(2)]
            if all(np.allclose(internals["nu"][m], true_nu[m], atol=1e-9)
                   for m in range(2)):
                checked += 1
                for got, want in zip(labels, truth):
                    assert np.array_equal(got, want)
                for k in range(2):
                    assert np.allclose(reals[k], A22[k] @ X, atol=1e-6)
        assert checked > 100  # the condition must actually trigger

    def test_dither_invariance_at_zero_noise(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        mapping = {(1, 1), (1, 2), (2, 2)}
        rng = np.random.default_rng(14)
        msgs = [np.array([2]), np.array([1, 2])]
        outputs = set()
        for _ in range(40):
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            _, xs = zip(*(encode(ens, u + 1, msgs[u], dithers[u]) for u in range(2)))
            Y = A22 @ np.vstack(xs)
            labels, _, _ = decode_successive(ens, Y, ch, A22, mapping, dithers,
                                             noise_std=0.0)
            shifted = [shifted_point(ens, u + 1,
                                     encode(ens, u + 1, msgs[u], dithers[u])[0],
                                     dithers[u]) for u in range(2)]
            truth = true_combinations(ens, A22, shifted, msgs)
            for got, want in zip(labels, truth):
                assert np.array_equal(got, want)
            outputs.add(tuple(tuple(lab) for lab in labels))
        # decoded combination of the zero-padded messages is dither independent
        # modulo don't-care symbols; here k_C,l = k_C so labels are unique
        assert len(outputs) == 1


def exact_mmse(H, P, a, prev, s):
    """The minimum-norm least-squares solution z = [b; c] of
    [P^1/2 H^T, P^1/2 prev^T; s I, 0] z ~ [P^1/2 a; 0], in Fractions: the
    minimum-norm solution of its normal equations

        [H P H^T + s^2 I, H P prev^T; prev P H^T, prev P prev^T] z = [H P a; prev P a],

    which hold no square root.  That solution lies in the row space of the
    matrix N: z = B^T y for a basis B of N's rows, with (B N B^T) y = B r."""
    F = np.vectorize(Fraction, otypes=[object])
    K = np.vstack([F(H), F(prev).reshape(-1, len(a))])   # rows: antennas, then prev
    PK = K * F(P)
    N = PK @ K.T
    antennas = len(H)
    for i in range(antennas):
        N[i, i] += Fraction(s) ** 2
    r = PK @ F(a)
    basis = []
    for row in N.tolist():
        if any(row) and (not basis or solve_rational(np.array(basis).T.tolist(), row) is None):
            basis.append(row)
    B = np.array(basis, dtype=object).reshape(-1, N.shape[0])
    y = solve_rational((B @ N @ B.T).tolist(), (B @ r).tolist())
    return B.T @ np.array(y, dtype=object).reshape(-1) if basis else np.zeros(N.shape[0], object)


class TestEqualizersExact:
    """parallel_equalizers, successive_equalizers and, at unit noise, the
    equalizers of sigma_para_opt and sigma_succ_opt against the MMSE
    solution solved exactly, and against the analysis layer's variance."""

    LEVELS = (0.0, 1e-3, 0.3, 1.0, 2.5)

    @staticmethod
    def instances(count, seed):
        """Random 1-3-user, 1-2-antenna channels with small integer or
        dyadic gains and powers, each with a 1-3-row coefficient matrix,
        and each row's prior rows (the independent ones before it)."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            users, antennas, rows = (int(v) for v in rng.integers(1, [4, 3, 4]))
            denom = int(rng.choice([1, 4]))
            H = rng.integers(-3 * denom, 3 * denom + 1, size=(antennas, users)) / denom
            P = rng.choice([0.25, 0.5, 1.0, 2.0, 3.0, 4.0], size=users)
            A = rng.integers(-2, 3, size=(rows, users))
            basis = _exact.RowBasis()
            kept = [basis.add(row) for row in A.tolist()]
            yield ChannelInstance(H=H, P=P), A, [[i for i in range(m) if kept[i]]
                                                 for m in range(rows)]

    @staticmethod
    def bound(ch, a, prev, s, z):
        """How far a backward-stable least-squares solve may land from the
        exact solution z of [P^1/2 H^T, P^1/2 prev^T; s I, 0] z ~ [P^1/2 a; 0].

        Higham, Accuracy and Stability of Numerical Algorithms, thm. 20.1:
        the exact solution for D and its target perturbed by eps relative to
        their norms moves by at most kappa eps (2 ||z|| + (kappa + 1) ||res||
        / ||D||) to first order, kappa = sigma_1 / sigma_r the condition of D
        on its row space (r its rank) and res the exact residual.  numpy's
        SVD solver has a backward error of a modest multiple of the unit
        roundoff; 10 (m + n) u stands for it.  A zero D has the zero
        solution, and the solver returns it exactly."""
        root = np.sqrt(ch.P)
        D = np.vstack([np.hstack([ch.H.T, prev.T]) * root[:, None],
                       np.hstack([s * np.eye(ch.num_antennas),
                                  np.zeros((ch.num_antennas, len(prev)))])])
        rank = np.linalg.matrix_rank(D)
        if rank == 0:
            return 0.0
        sv = np.linalg.svd(D, compute_uv=False)
        kappa = sv[0] / sv[rank - 1]
        eps = 10 * sum(D.shape) * np.finfo(float).eps
        res = D @ z.astype(float) - np.concatenate([a * root, np.zeros(ch.num_antennas)])
        return kappa * eps * (2 * np.linalg.norm(z.astype(float))
                              + (kappa + 1) * np.linalg.norm(res) / sv[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_equalizers_match_the_exact_mmse_solution(self, seed):
        checked = 0
        for ch, A, keep in self.instances(15, seed):
            paras = simulator.parallel_equalizers(ch, A, self.LEVELS)
            succs = simulator.successive_equalizers(ch, A, self.LEVELS)
            for s, para, succ in zip(self.LEVELS, paras, succs, strict=True):
                for m, a in enumerate(A):
                    b, c = succ[m]
                    assert not np.delete(c, keep[m]).any()
                    cases = [(A[:0], [para[m]]),
                             (A[keep[m]], [np.concatenate([b, c[keep[m]]])])]
                    if s == 1.0:  # the analysis layer's equalizers
                        rep = sigma_succ_opt(ch, a, A[keep[m]])
                        cases[0][1].append(sigma_para_opt(ch, a).b_opt)
                        cases[1][1].append(np.concatenate([rep.b_opt, rep.c_opt]))
                    for prev, gots in cases:
                        want = exact_mmse(ch.H, ch.P, a, prev, s)
                        bound = self.bound(ch, a, prev, s, want)
                        for got in gots:
                            err = np.linalg.norm(got - want.astype(float))
                            assert err <= bound, (s, m)
                            checked += 1
        assert checked > 300

    def test_one_solve_serves_both_layers(self, monkeypatch):
        # sigma_para_opt, sigma_succ_opt and the simulator's equalizers all
        # take their (b, c) from core.mmse_solve, and return what it returns
        calls = []
        solve = core.mmse_solve

        def spy(ch, a, prev, noise_levels):
            out = solve(ch, a, prev, noise_levels)
            calls.append((len(prev), tuple(noise_levels), out))
            return out

        for module in (core, simulator):
            monkeypatch.setattr(module, "mmse_solve", spy)
        ch = ChannelInstance(H=[[1.0, 1.5], [0.5, -1.0]], P=[2.0, 3.0])
        A = np.array([[1, 1], [2, 2], [1, 2]])  # row 2 depends on row 1
        levels = (0.3, 0.0, 1.5)
        b = sigma_para_opt(ch, A[0]).b_opt
        rep = sigma_succ_opt(ch, A[2], A[:1])
        para = simulator.parallel_equalizers(ch, A, levels)
        succ = simulator.successive_equalizers(ch, A, levels)
        # one solve per row, over every level
        assert [call[:2] for call in calls] == [(0, (1.0,)), (1, (1.0,)), *[(0, levels)] * 4,
                                                (1, levels), (1, levels)]
        outs = [call[2] for call in calls]
        assert outs[0][0][0] is b
        assert outs[1][0][0] is rep.b_opt and outs[1][0][1] is rep.c_opt
        for c in range(len(levels)):
            assert all(eq is out[c][0] for eq, out in zip(para[c], outs[2:5], strict=True))
            assert all(eq[0] is out[c][0] for eq, out in zip(succ[c], outs[5:], strict=True))

    @pytest.mark.parametrize("seed", range(2))
    def test_each_level_solves_its_own_system_bitwise(self, seed):
        # mmse_solve builds the top block once per row and writes only the
        # s I block per level: every level's (b, c) has the bits of an
        # lstsq on that level's system built from scratch, whatever the
        # levels before it
        for ch, A, keep in self.instances(15, seed):
            root = np.sqrt(ch.P)
            for m, a in enumerate(A):
                prev = A[keep[m]]
                levels = self.LEVELS[::-1] + self.LEVELS
                for s, (b, c) in zip(levels, core.mmse_solve(ch, a, prev, levels), strict=True):
                    D = np.vstack([np.hstack([ch.H.T, prev.T]) * root[:, None],
                                   np.hstack([s * np.eye(ch.num_antennas),
                                              np.zeros((ch.num_antennas, len(prev)))])])
                    target = np.concatenate([a * root, np.zeros(ch.num_antennas)])
                    z = np.linalg.lstsq(D, target, rcond=None)[0]
                    assert np.concatenate([b, c]).tobytes() == z.tobytes(), (s, m)

    @pytest.mark.parametrize("seed", range(4))
    def test_variance_is_the_analysis_layers(self, seed):
        # The variance of (s b, c) on the channel H / s is the least-squares
        # objective at the solution, and the analysis layer's MMSE variance.
        # It matches the objective at the exact solution to 1e-12.  The
        # analysis layer inverts P^-1 + H^T H / s^2, whose condition number
        # kappa grows as 1 / s^2, so its variance is good to about
        # eps kappa (up to 2.4e-9 at s = 1e-3 here); the tie takes 1e-9 or
        # 10 eps kappa, whichever is larger.  A row in the span of its prior
        # rows has variance exactly 0, which all sides give as a rounding
        # residue of order (eps ||z||)^2, far below 1e-20 a^T P a.
        F = np.vectorize(Fraction, otypes=[object])
        checked = 0
        for ch, A, keep in self.instances(15, seed):
            for s in self.LEVELS[1:]:
                scaled = ChannelInstance(H=ch.H / s, P=ch.P)
                gram = np.diag(1.0 / ch.P) + scaled.H.T @ scaled.H
                rel = max(1e-9, 10 * np.finfo(float).eps * np.linalg.cond(gram))
                for m, (b, c) in enumerate(simulator.successive_equalizers(ch, A, (s,))[0]):
                    a, prev = A[m], A[keep[m]]
                    floor = 1e-20 * float(a @ (ch.P * a))
                    z = exact_mmse(ch.H, ch.P, a, prev, s)
                    zb, zc = z[:ch.num_antennas], z[ch.num_antennas:]
                    miss = F(ch.H).T @ zb + F(prev).reshape(-1, len(a)).T @ zc - F(a)
                    exact = float(F(ch.P) @ (miss * miss) + Fraction(s) ** 2 * (zb @ zb))
                    got = sigma_succ_eval(scaled, a, prev, s * b, c[keep[m]])
                    assert got == pytest.approx(exact, rel=1e-12, abs=floor), (s, m)
                    want = sigma_succ_opt(scaled, a, prev).variance
                    assert got == pytest.approx(want, rel=rel, abs=floor), (s, m)
                    checked += 1
        assert checked > 100


class TestRunTrials:
    def test_noiseless_zero_errors(self):
        ens = small_ensemble()
        cfg = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A22,
                          mode="parallel", noise_std=0.0, master_seed=5)
        rep = run_trials(cfg, 40)
        assert all(c["errors"] == 0 for c in rep["combinations"])

    def test_reports_are_reproducible_and_thread_invariant(self):
        ens = small_ensemble()
        cfg = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A22,
                          mode="successive", mapping=frozenset({(1, 1), (1, 2), (2, 2)}),
                          noise_std=0.3, master_seed=9)
        r1 = run_trials(cfg, 30)
        r2 = run_trials(cfg, 30)
        assert r1 == r2

    def test_error_rate_monotone_in_noise(self):
        ens = small_ensemble()
        cfg_lo = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A22,
                             mode="parallel", noise_std=0.02, master_seed=11)
        cfg_hi = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A22,
                             mode="parallel", noise_std=2.0, master_seed=11)
        lo = run_trials(cfg_lo, 150, ci_level=0.99)["combinations"][0]
        hi = run_trials(cfg_hi, 150, ci_level=0.99)["combinations"][0]
        assert lo["ci_high"] < hi["ci_low"]

    def test_wilson_interval_basics(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_trial_record_fields(self):
        ens = small_ensemble()
        cfg = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A22,
                          mode="successive", mapping=frozenset({(1, 1), (1, 2), (2, 2)}),
                          noise_std=0.0, master_seed=3)
        rec = run_single_trial(cfg, 0)
        assert len(rec.messages) == 2 and len(rec.true_labels) == 2
        assert all(rec.success) and all(rec.real_success)


SUCC_MAP = frozenset({(1, 1), (1, 2), (2, 2)})


def block_outcomes_vs_oracle(cfg, trials):
    """run_block against the oracle's run_single_trial, trial by trial;
    returns the success flags so callers can check which outcomes occurred."""
    block = run_block(cfg, 0, trials)
    for i in range(trials):
        rec = chain_oracle.run_single_trial(cfg, i)
        assert np.array_equal(block.decoded[i], np.array(rec.decoded_labels)), i
        assert block.success[i].tolist() == rec.success, i
        if cfg.mode == "successive":
            assert block.real_success[i].tolist() == rec.real_success, i
        else:
            assert block.real_success is None
        assert block.inputs[i].tobytes() == rec.inputs.tobytes(), i
        # per-trial power exactly as the old per-record aggregation took it
        want = np.array([x @ x / cfg.ensemble.n for x in rec.inputs])
        assert block.powers[i].tobytes() == want.tobytes(), i
    return block.success


def oracle_report(cfg, trials):
    """Aggregation of the oracle's run_single_trial records, as run_trials
    did per trial."""
    records = [chain_oracle.run_single_trial(cfg, i) for i in range(trials)]
    combos = []
    for m in range(cfg.A.shape[0]):
        errs = sum(0 if rec.success[m] else 1 for rec in records)
        lo, hi = wilson_interval(errs, trials)
        entry = {"combination_index": m + 1, "errors": errs, "trials": trials,
                 "rate_estimate": errs / trials, "ci_low": lo, "ci_high": hi}
        if cfg.mode == "successive":
            entry["real_errors"] = sum(0 if rec.real_success[m] else 1 for rec in records)
        combos.append(entry)
    power = [float(np.mean([rec.inputs[u] @ rec.inputs[u] / cfg.ensemble.n
                            for rec in records]))
             for u in range(cfg.ensemble.num_users)]
    return {"noise_std": cfg.noise_std, "trials": trials,
            "combinations": combos, "mean_power_per_user": power}


class TestBlockEngine:
    @pytest.mark.parametrize("mode", ["parallel", "successive"])
    def test_matches_oracle_across_noise(self, mode):
        ens = small_ensemble()
        outcomes = set()
        for noise in (0.0, 0.3, 2.0):
            cfg = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A22, mode=mode,
                              mapping=SUCC_MAP, noise_std=noise, master_seed=21)
            success = block_outcomes_vs_oracle(cfg, 40)
            if noise == 0.0:
                assert success.all()
            outcomes.update(success.ravel().tolist())
        assert outcomes == {True, False}

    @pytest.mark.parametrize("mode", ["parallel", "successive"])
    def test_matches_oracle_with_coarse_prefix(self, mode):
        ens = build_ensemble(4, 3, 3.0, [(1, 2), (1, 3)], seed=5)
        assert ens.k_C > 0
        ch = ChannelInstance(H=[[1.0, 0.7], [0.4, 1.3]], P=[1.0, 1.0])
        outcomes = set()
        for noise in (0.1, 0.6):
            cfg = TrialConfig(ensemble=ens, ch=ch, A=A22, mode=mode,
                              mapping=SUCC_MAP, noise_std=noise, master_seed=4)
            outcomes.update(block_outcomes_vs_oracle(cfg, 30).ravel().tolist())
        assert outcomes == {True, False}

    def test_row_vanishing_mod_p(self):
        ens = small_ensemble()
        A = np.array([[1, 1], [3, 3]])
        cfg = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A,
                          mode="parallel", noise_std=0.3, master_seed=2)
        assert cfg.targets[1] is None
        block_outcomes_vs_oracle(cfg, 20)

    def test_parallel_rows_on_two_fine_tables(self):
        # rows quantized by users with different fine lattices (k_F,l = 2 and
        # 3), a row that vanishes mod p, and users 1 and 3 sharing a coarse
        # lattice that user 2 does not
        ens = build_ensemble(4, 3, 3.0, [(1, 2), (0, 3), (1, 3)], seed=8)
        A = np.array([[1, 0, 0], [0, 1, 1], [3, 3, 0], [1, 2, 0]])
        ch = ChannelInstance(H=[[1.0, 0.3, 0.2], [0.5, 1.2, 0.1], [0.2, 0.4, 1.1]],
                             P=[1.0, 1.0, 1.0])
        outcomes = set()
        for noise in (0.05, 0.3, 0.8):
            cfg = TrialConfig(ensemble=ens, ch=ch, A=A, mode="parallel",
                              noise_std=noise, master_seed=12)
            targets = cfg.targets
            assert [None if t is None else ens.levels[t - 1][1] for t in targets] == \
                [2, 3, None, 3]
            outcomes.update(block_outcomes_vs_oracle(cfg, 30).ravel().tolist())
        assert outcomes == {True, False}

    def test_dependent_successive_step(self):
        # criterion 9's channel: the zero third row has no quantizing user
        ens = build_ensemble(2, 3, np.sqrt(12.0), [(0, 1)] * 3, seed=909)
        ch = ChannelInstance(H=[[2.0, 1.0, 1.0]], P=[1.0, 1.0, 1.0])
        A = np.array([[1, 1, 1], [1, -1, -1], [0, 0, 0]])
        mapping = frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)})
        for noise in (1e-3, 0.4):
            cfg = TrialConfig(ensemble=ens, ch=ch, A=A, mode="successive",
                              mapping=mapping, noise_std=noise, master_seed=909)
            assert cfg.targets[2] is None
            block_outcomes_vs_oracle(cfg, 30)

    def test_custom_equalizer_dict(self):
        ens = small_ensemble()
        ch = integer_channel(A22)
        b = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        cfg = TrialConfig(ensemble=ens, ch=ch, A=A22, mode="parallel",
                          noise_std=0.3, equalizers=b, master_seed=8)
        block_outcomes_vs_oracle(cfg, 30)
        succ = {0: (b[0], []), 1: (np.array([-1.0, 1.0]), [1.0])}
        cfg = TrialConfig(ensemble=ens, ch=ch, A=A22, mode="successive",
                          mapping=SUCC_MAP, noise_std=0.3, equalizers=succ,
                          master_seed=8)
        block_outcomes_vs_oracle(cfg, 30)

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("trials", [1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1])
    def test_report_equals_oracle_aggregation(self, trials, n):
        ens = build_ensemble(n, 3, 3.0, [(0, 1), (0, 2)], seed=21)
        cfg = TrialConfig(ensemble=ens, ch=integer_channel(A22), A=A22,
                          mode="successive", mapping=SUCC_MAP, noise_std=0.5,
                          master_seed=13)
        assert run_trials(cfg, trials) == oracle_report(cfg, trials)


class TestPointCallsMatchOracle:
    """The per-point functions, one-row calls of the block stages, against
    the oracle's per-point copy of the chain."""

    @pytest.mark.parametrize("mode", ["parallel", "successive"])
    def test_run_single_trial_records(self, mode):
        ens = build_ensemble(4, 3, 3.0, [(1, 2), (1, 3)], seed=5)
        ch = ChannelInstance(H=[[1.0, 0.7], [0.4, 1.3]], P=[1.0, 1.0])
        outcomes = set()
        for noise in (0.0, 0.1, 0.6):
            cfg = TrialConfig(ensemble=ens, ch=ch, A=A22, mode=mode, mapping=SUCC_MAP,
                              noise_std=noise, master_seed=4)
            for i in range(25):
                got = run_single_trial(cfg, i)
                want = chain_oracle.run_single_trial(cfg, i)
                for name in ("messages", "dithers", "codewords", "shifted_points",
                             "true_labels", "decoded_labels"):
                    assert len(getattr(got, name)) == len(getattr(want, name))
                    for g, w in zip(getattr(got, name), getattr(want, name)):
                        assert g.tobytes() == w.tobytes(), (name, i)
                assert got.inputs.tobytes() == want.inputs.tobytes()
                assert got.success == want.success and got.real_success == want.real_success
                if mode == "parallel":
                    assert got.decoded_real is None
                else:
                    for g, w in zip(got.decoded_real, want.decoded_real):
                        assert np.allclose(g, w, rtol=0, atol=1e-12)
                outcomes.update(got.success)
        assert outcomes == {True, False}

    def test_point_functions(self):
        ens = small_ensemble()
        ch = ChannelInstance(H=[[1.0, 0.7], [0.4, 1.3]], P=[1.0, 1.0])
        rng = np.random.default_rng(15)
        for _ in range(40):
            msgs = [rng.integers(0, 3, size=1), rng.integers(0, 3, size=2)]
            dithers = [chain_oracle.sample_voronoi(ens, ("C", u + 1), rng) for u in range(2)]
            lams, xs = [], []
            for u in range(2):
                got = encode(ens, u + 1, msgs[u], dithers[u])
                want = chain_oracle.encode(ens, u + 1, msgs[u], dithers[u])
                assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
                lams.append(got[0])
                xs.append(got[1])
            shifted = [shifted_point(ens, u + 1, lams[u], dithers[u]) for u in range(2)]
            assert all(s.tobytes() == chain_oracle.shifted_point(
                ens, u + 1, lams[u], dithers[u]).tobytes() for u, s in enumerate(shifted))
            assert np.array_equal(true_combinations(ens, A22, shifted, msgs),
                                  chain_oracle.true_combinations(ens, A22, shifted, msgs))
            Y = ch.H @ np.vstack(xs) + rng.normal(size=(2, 2)) * 0.3
            got = decode_parallel(ens, Y, ch, A22, dithers, noise_std=0.3)
            want = chain_oracle.decode_parallel(ens, Y, ch, A22, dithers, noise_std=0.3)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            got = decode_successive(ens, Y, ch, A22, SUCC_MAP, dithers, noise_std=0.3,
                                    with_internals=True)
            want = chain_oracle.decode_successive(ens, Y, ch, A22, SUCC_MAP, dithers,
                                                  noise_std=0.3, with_internals=True)
            assert np.array_equal(got[0], want[0]) and got[2] == want[2]
            assert np.allclose(got[1], want[1], rtol=0, atol=1e-12)
            for key in ("nu", "mu"):
                assert np.allclose(got[3][key], want[3][key], rtol=0, atol=1e-12)
            for key in ("Lbar", "Lbar_inv"):
                assert np.array_equal(got[3][key], want[3][key])
            a = rng.integers(-3, 4, size=2)
            mu = got[3]["mu"][0]
            assert np.allclose(recover_real_combo(ens, Y[0], mu, dithers, a),
                               chain_oracle.recover_real_combo(ens, Y[0], mu, dithers, a),
                               rtol=0, atol=1e-12)


def oracle_draws(ens, antennas, seed, start, stop):
    """Each trial's draws from the oracle's own per-trial stream, in its
    run_single_trial's order: every user's message, every user's dither
    cube, the noise."""
    messages = [[] for _ in ens.levels]
    cubes, noise = [], []
    for i in range(start, stop):
        rng = chain_oracle._trial_rng(seed, i)
        for u, (kc, kf) in enumerate(ens.levels):
            messages[u].append(rng.integers(0, ens.p, size=kf - kc, dtype=np.int64))
        cubes.append([rng.random(ens.n) for _ in ens.levels])
        noise.append(rng.standard_normal((antennas, ens.n)))
    return ([np.array(m).reshape(stop - start, -1) for m in messages],
            np.array(cubes), np.array(noise))


class TestDrawBlock:
    # (ensemble, antennas): the README successive campaign's and the large
    # parallel campaign's ensembles, plus odd message widths, so that the
    # buffered upper half of a 64-bit Philox word crosses user boundaries
    SHAPES = [
        (lambda: small_ensemble(), 2),
        (lambda: build_ensemble(8, 7, 7.0, [(0, 4), (1, 5)], seed=21), 2),
        (lambda: build_ensemble(5, 3, 3.0, [(0, 3), (2, 3), (0, 1)], seed=4), 1),
        (lambda: build_ensemble(6, 5, 5.0, [(1, 2), (0, 3), (0, 1), (1, 4)], seed=6), 3),
        # every k_C,l = k_F,l: no message symbols, so no 32-bit half is read
        (lambda: build_ensemble(4, 3, 3.0, [(1, 1), (2, 2)], seed=3), 2),
    ]

    @pytest.mark.parametrize("shape", range(len(SHAPES)))
    def test_bitwise_equal_to_per_trial_streams(self, shape):
        make, antennas = self.SHAPES[shape]
        ens = make()
        keys = 0
        for seed in (0, 2 ** 63 + 5, -1):
            for start, stop in ((0, 450), (2 ** 32 - 200, 2 ** 32 + 250)):
                got = _draw_block(ens, antennas, seed, start, stop)
                want = oracle_draws(ens, antennas, seed, start, stop)
                for g, w in zip(got[0], want[0]):
                    assert g.dtype == w.dtype and np.array_equal(g, w), (seed, start)
                assert got[1].tobytes() == want[1].tobytes(), (seed, start)
                assert got[2].tobytes() == want[2].tobytes(), (seed, start)
                keys += stop - start
        assert keys * len(self.SHAPES) >= 10 ** 4

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 5, 2 ** 64 - 1])
    def test_reset_state_is_a_fresh_philox(self, seed):
        # the list state _draw_block resets to, its key rewritten per
        # trial, is field by field the state of a fresh Philox keyed by
        # (master_seed, i), whatever the bit generator drew before
        bitgen = np.random.Philox(key=np.array([seed, 3], dtype=np.uint64))
        state = simulator._list_state(bitgen)
        assert [type(v) for v in (*state["state"]["counter"], *state["state"]["key"],
                                  *state["buffer"])] == [int] * 10
        rng = np.random.Generator(bitgen)
        for i in (3, 0, 1, 2 ** 32 + 9, 2 ** 64 - 1):
            rng.integers(0, 5, size=3)  # leaves a buffered half behind
            rng.standard_normal(5)
            state["state"]["key"][1] = i
            bitgen.state = state
            got = bitgen.state
            want = np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).state
            assert got.keys() == want.keys() and got["state"].keys() == want["state"].keys()
            for name in ("counter", "key"):
                assert got["state"][name].dtype == want["state"][name].dtype
                assert np.array_equal(got["state"][name], want["state"][name]), (i, name)
            assert np.array_equal(got["buffer"], want["buffer"]), i
            for name in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
                assert got[name] == want[name], (i, name)

    @pytest.mark.parametrize("shape", [0, 1, 3])
    def test_refused_trials_are_drawn_again(self, shape, monkeypatch):
        # a refused half is too rare to meet in a test (odds about p / 2^32
        # per symbol), so chosen trials are marked refused and their symbols
        # spoiled: only the per-trial redraw gives them back
        chosen = [0, 5, 6, 39]
        words_to_symbols = simulator._lemire_symbols

        def refuse(*args):
            symbols, refused = words_to_symbols(*args)
            symbols[chosen] = -1
            refused[chosen] = True
            return symbols, refused

        monkeypatch.setattr(simulator, "_lemire_symbols", refuse)
        make, antennas = self.SHAPES[shape]
        ens = make()
        got = _draw_block(ens, antennas, 17, 100, 140)
        want = oracle_draws(ens, antennas, 17, 100, 140)
        for g, w in zip(got[0], want[0]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()


def numpy_symbols(words, p, width):
    """Generator.integers(0, p, width) on a Philox whose next four 64-bit
    words are the given ones (its buffer), and whether it read exactly
    `width` 32-bit halves of them."""
    bitgen = np.random.Philox(key=np.array([3, 4], dtype=np.uint64))
    state = bitgen.state
    state["buffer"] = np.asarray(words, dtype=np.uint64)
    state["buffer_pos"] = 0
    bitgen.state = state
    symbols = np.random.Generator(bitgen).integers(0, p, size=width, dtype=np.int64)
    after = bitgen.state
    read = 2 * after["buffer_pos"] - after["has_uint32"]
    return symbols, read == width and not after["state"]["counter"].any()


class TestLemireSymbols:
    """simulator._lemire_symbols against Generator.integers on crafted
    words: numpy refuses a half u when (u p) mod 2^32 < 2^32 mod p."""

    @staticmethod
    def halves(p):
        t = 2 ** 32 % p
        # the half whose (u p) mod 2^32 equals t: u = t p^-1 for odd p, and
        # 2^31 for p = 2 (t = 0)
        at = t * pow(p, -1, 2 ** 32) % 2 ** 32 if p % 2 else 2 ** 31
        below = (t - 1) * pow(p, -1, 2 ** 32) % 2 ** 32 if t else at
        rng = np.random.default_rng(p)
        return [0, at, below, 2 ** 32 - 1, 1, *rng.integers(0, 2 ** 32, size=10).tolist()]

    @pytest.mark.parametrize("p", [2, 3, 7, 13])
    def test_symbols_and_refusals_match_numpy(self, p):
        t = 2 ** 32 % p
        pool = self.halves(p)
        rng = np.random.default_rng(100 + p)
        rows = [[h] * 8 for h in pool]  # each crafted half alone
        rows += [rng.choice(pool, size=8).tolist() for _ in range(300)]
        words = np.array([[lo | hi << 32 for lo, hi in zip(r[::2], r[1::2])] for r in rows],
                         dtype=np.uint64)
        seen = set()
        for width in range(9):
            got, refused = simulator._lemire_symbols(words[:, :(width + 1) // 2], p, width)
            assert got.shape == (len(rows), width) and got.dtype == np.int64
            for row, (w, g, r) in enumerate(zip(words, got, refused)):
                want, exact = numpy_symbols(w, p, width)
                assert r == (not exact), (p, width, row)
                if exact:
                    assert np.array_equal(g, want), (p, width, row)
                # a zero half is refused unless t = 0 (p = 2); the half at
                # the threshold is kept
                if width and row < 2:
                    assert r == (row == 0 and t > 0), (p, width, row)
                seen.add(bool(r))
        assert seen == ({True, False} if t else {False})


def campaign(levels, **fields):
    """One config over the given noise levels (a sequence, or one number)."""
    ch = ChannelInstance(H=[[1.0, 0.7], [0.4, 1.3]], P=[1.0, 1.0])
    base = dict(ensemble=small_ensemble(), ch=ch, A=A22, mode="successive",
                mapping=SUCC_MAP, master_seed=31)
    base.update(fields)
    return TrialConfig(noise_std=levels, **base)


class TestRunCampaign:
    @pytest.mark.parametrize("mode", ["parallel", "successive"])
    @pytest.mark.parametrize("trials", [1, BLOCK_TRIALS - 1, BLOCK_TRIALS + 1, 300])
    def test_reports_equal_separate_runs(self, mode, trials):
        seen = set()
        for levels in ([0.0], [0.6, 0.0], [1.5, 0.0, 0.3]):
            reports = run_campaign(campaign(levels, mode=mode), trials)
            assert reports == [run_trials(campaign(s, mode=mode), trials) for s in levels]
            seen.update(c["errors"] > 0 for r in reports for c in r["combinations"])
        if trials > 1:
            assert seen == {True, False}

    def test_no_configs_no_reports(self):
        # a campaign of no noise levels is refused when it is built
        with pytest.raises(ValueError, match="at least one level"):
            campaign([])

    @pytest.mark.parametrize("levels", [0.5, [0.5], (0.5, 0.2)])
    def test_levels_of_a_number_or_a_sequence(self, levels):
        cfg = campaign(levels)
        assert cfg.levels == tuple(np.atleast_1d(levels))
        assert [r["noise_std"] for r in run_campaign(cfg, 3)] == list(cfg.levels)

    @pytest.mark.parametrize("levels", [[0.5, -0.1], [float("nan")], [0.5, float("inf")]])
    def test_every_level_is_checked(self, levels):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            campaign(levels)

    def test_one_level_calls_refuse_several(self):
        cfg = campaign([0.5, 0.2])
        with pytest.raises(ValueError, match="run_campaign runs several"):
            run_trials(cfg, 5)
        with pytest.raises(ValueError, match="run_campaign runs several"):
            run_single_trial(cfg, 0)

    @pytest.mark.parametrize("trials", [0, -3, 2.0, True])
    def test_trial_count_must_be_a_positive_integer(self, trials):
        cfg = campaign(0.5)
        for call in (run_campaign, run_trials):
            with pytest.raises(ValueError, match=r"trials must be an integer >= 1"):
                call(cfg, trials)

    def test_desk_scale_caps(self, monkeypatch):
        # refused before anything is sized by them: no block pass runs, so no
        # equalizer is built and nothing is drawn
        monkeypatch.setattr(simulator, "_block_pass", None)
        for call in (run_campaign, run_trials):
            with pytest.raises(ValueError, match="trials = 1000001; desk scale caps a "
                                                 "campaign at 1000000"):
                call(campaign(0.5), simulator.MAX_TRIALS + 1)
        with pytest.raises(ValueError, match="noise_std has 101 levels; desk scale caps a "
                                             "campaign at 100"):
            campaign([0.5] * (simulator.MAX_NOISE_LEVELS + 1))
        # the mean power adds at most MAX_TRIALS powers of at most
        # (gamma/2)^2 <= 2^998 (lattice.GAMMA_MAX)
        assert simulator.MAX_TRIALS <= 2 ** 24
        assert len(campaign([0.5] * simulator.MAX_NOISE_LEVELS).levels) == 100

    def test_a_config_is_frozen(self):
        # its targets, cancellation matrix and equalizers cannot go stale: a
        # changed campaign is a new config
        A = A22.copy()
        cfg = campaign(0.5, A=A)
        first = run_campaign(cfg, 20)
        for name, value in (("noise_std", [0.5, 0.1]), ("equalizers", {}), ("A", A22 * 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        with pytest.raises(ValueError, match="read-only"):
            cfg.A[1, 0] = 2
        A[1, 0] = 2  # the caller's array is not the config's
        assert run_campaign(cfg, 20) == first
        assert run_campaign(dataclasses.replace(cfg, noise_std=[0.5, 0.1]), 20) == \
            first + run_campaign(campaign(0.1), 20)

    def test_one_cancellation_matrix_and_no_channel_per_campaign(self, monkeypatch):
        # a 3-level successive campaign builds its Z_p cancellation matrix
        # once, with the config, and equalizes every level on the config's channel
        calls = []
        zp = simulator.zp_asc_matrix
        monkeypatch.setattr(simulator, "zp_asc_matrix",
                            lambda *args: calls.append("zp") or zp(*args))
        cfg = campaign([1.5, 0.5, 0.0])
        check = ChannelInstance.__post_init__
        monkeypatch.setattr(ChannelInstance, "__post_init__",
                            lambda self: calls.append("channel") or check(self))
        assert len(run_campaign(cfg, 40)) == 3
        assert calls == ["zp"]

    def test_large_parallel_campaign_equals_separate_runs(self):
        # the parallel benchmark campaign's 16807-row table, searched over
        # the implicit tree, with both levels' rows in one quantizer call
        ens = build_ensemble(8, 7, 7.0, [(0, 4), (1, 5)], seed=21)
        ch = ChannelInstance(H=[[1.0, 1.0], [1.0, 2.0]], P=[1.0, 1.0])

        def config(levels):
            return TrialConfig(ensemble=ens, ch=ch, A=A22, mode="parallel",
                               noise_std=levels, master_seed=7)

        trials = BLOCK_TRIALS + 22
        reports = run_campaign(config([0.5, 0.1]), trials)
        assert reports == [run_trials(config(s), trials) for s in (0.5, 0.1)]
        assert [[c["errors"] > 0 for c in r["combinations"]] for r in reports] == \
            [[True, True], [False, False]]

    @pytest.mark.parametrize("mode", ["parallel", "successive"])
    def test_one_decoding_pass_per_block_whatever_the_levels(self, mode, monkeypatch):
        # every level's rows go through each quantizer call of the pass
        calls = []
        quantize = lattice.nearest_points

        def spy(*args):
            calls.append(args[2].shape[0])
            return quantize(*args)

        monkeypatch.setattr(lattice, "nearest_points", spy)
        counts, rows = [], []
        for levels in ([0.5], [1.5, 0.5, 0.0]):
            calls.clear()
            run_campaign(campaign(levels, mode=mode), 2 * BLOCK_TRIALS)
            counts.append(len(calls))
            rows.append(sum(calls))
        assert counts[0] == counts[1] > 0
        assert rows[1] > rows[0]


@pytest.mark.parametrize("entry", ["campaign-1", "campaign-3", "run_block",
                                   "run_single_trial"])
def test_every_entry_point_runs_the_one_block_pass(entry, monkeypatch):
    # each block is drawn, encoded and decoded once, inside _block_pass
    calls, depth = [], [0]

    def spy(name, fn):
        def call(*args):
            calls.append((name, depth[0]))
            depth[0] += 1
            try:
                return fn(*args)
            finally:
                depth[0] -= 1
        return call

    for name in ("_block_pass", "_draw_block", "_encode_block", "_decode_block"):
        monkeypatch.setattr(simulator, name, spy(name, getattr(simulator, name)))
    if entry.startswith("campaign"):
        levels = [0.5] if entry == "campaign-1" else [1.5, 0.5, 0.0]
        reports = run_campaign(campaign(levels), 2 * BLOCK_TRIALS + 5)
        assert len(reports) == len(levels)
        blocks = 3
    elif entry == "run_block":
        assert run_block(campaign(0.5), 3, 3 + BLOCK_TRIALS + 7).success.shape == \
            (BLOCK_TRIALS + 7, 2)
        blocks = 1
    else:
        assert len(run_single_trial(campaign(0.5), 5).success) == 2
        blocks = 1
    assert calls == [("_block_pass", 0), ("_draw_block", 1), ("_encode_block", 1),
                     ("_decode_block", 1)] * blocks


def test_finest_user_equals_the_two_row_rules():
    # the one target rule against the oracle's parallel and successive rules,
    # directly and through the configs' targets, on random ensembles, rows
    # and mappings
    rng = np.random.default_rng(33)
    seen = set()
    for _ in range(40):
        L, M, p = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.choice([2, 3, 5]))
        tops = rng.integers(1, 4, size=L)
        ens = build_ensemble(3, p, float(p), [(int(rng.integers(0, k + 1)), int(k))
                                              for k in tops], seed=int(rng.integers(1000)))
        A = rng.integers(-2, 3, size=(M, L)) * rng.choice([1, p], size=(M, L))
        mapping = frozenset((m + 1, l + 1) for m in range(M) for l in range(L)
                            if A[m, l] or rng.random() < 0.2)
        ch = ChannelInstance(H=rng.normal(size=(2, L)), P=np.ones(L))
        para = TrialConfig(ensemble=ens, ch=ch, A=A, mode="parallel")
        succ = TrialConfig(ensemble=ens, ch=ch, A=A, mode="successive", mapping=mapping)
        for m in range(M):
            live = [l + 1 for l in range(L) if A[m, l] % p]
            mapped = sorted(l for row, l in mapping if row == m + 1)
            want = (chain_oracle._theta_user(ens, A[m], p),
                    chain_oracle._vartheta_user(ens, mapping, m + 1))
            assert (simulator._finest_user(ens, live),
                    simulator._finest_user(ens, mapped[::-1])) == want
            assert (para.targets[m], succ.targets[m]) == want
            for users in (live, mapped):
                tops_of = [ens.levels[l - 1][1] for l in users]
                if tops_of.count(max(tops_of, default=0)) > 1:
                    seen.add("tie")
            seen.update({"vanishes mod p"} if not live else set())
            seen.update({"unmapped"} if not mapped else set())
    assert seen == {"tie", "vanishes mod p", "unmapped"}


def test_parallel_decode_one_call_per_fine_table(monkeypatch):
    # one quantizer call per distinct fine table over the rows that target
    # it, at every level, then one mod-C call and one labeling call over
    # every live row
    ens = build_ensemble(4, 3, 3.0, [(1, 2), (0, 3), (1, 3)], seed=8)
    A = np.array([[1, 0, 0], [0, 1, 1], [3, 3, 0], [1, 2, 0]])
    ch = ChannelInstance(H=np.eye(3) + 0.2, P=[1.0, 1.0, 1.0])
    config = TrialConfig(ensemble=ens, ch=ch, A=A, mode="parallel",
                         noise_std=[0.5, 0.1], master_seed=3)
    messages, cubes, noise = _draw_block(ens, 3, 3, 0, 9)
    X, dithers, *_ = simulator._encode_block(ens, A, messages, cubes)
    Y = [np.matmul(ch.H, X) + noise * s for s in config.levels]
    calls = []
    quantize, label = lattice.nearest_points, lattice.linear_labels
    monkeypatch.setattr(lattice, "nearest_points",
                        lambda *args: calls.append((args[1], len(args[2]))) or quantize(*args))
    monkeypatch.setattr(lattice, "linear_labels",
                        lambda *args: calls.append(("labels", len(args[1]))) or label(*args))
    simulator._decode_block(config, dithers, Y)
    rows = 2 * 9  # levels x trials per live row
    assert calls == [(("F", 1), rows), (("F", 2), 2 * rows), ("C", 3 * rows),
                     ("labels", 3 * rows)]


def test_large_campaign_enumerates_no_large_table():
    # the parallel benchmark campaign searches its 16807-row table as an
    # implicit tree, so the table's rows are never enumerated
    ens = build_ensemble(8, 7, 7.0, [(0, 4), (1, 5)], seed=21)
    ch = ChannelInstance(H=[[1.0, 1.0], [1.0, 2.0]], P=[1.0, 1.0])
    run_campaign(TrialConfig(ensemble=ens, ch=ch, A=A22, mode="parallel",
                             noise_std=[0.3, 0.1], master_seed=7), 15)
    table = ens._tables[5]
    assert table._cells is None and table._pairs is None and table._shifts is None
