import itertools
import math

import numpy as np
import pytest

from cfkit.core import (UNBOUNDED, ChannelInstance, achievable_rate,
                        chained_variances, effective_matrix, lattice_gram,
                        noise_variance, sigma_para_eval, sigma_para_opt,
                        sigma_succ_eval, sigma_succ_opt, sum_capacity)
from cfkit.mac_opt import random_unimodular
from exact_oracle import chained_variance_oracle, para_variance_oracle

FIG7 = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])


def inv2x2(M):
    """Independent 2x2 inversion oracle (adjugate over determinant)."""
    (a, b), (c, d) = M
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


def random_channel(rng, L=None, nr=None):
    L = L or int(rng.integers(1, 5))
    nr = nr or int(rng.integers(1, 4))
    return ChannelInstance(H=rng.normal(size=(nr, L)) * 2,
                           P=rng.uniform(0.3, 9.0, size=L))


class TestChannelInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelInstance(H=[[np.inf, 1]], P=[1, 1])
        with pytest.raises(ValueError):
            ChannelInstance(H=[[1, 1]], P=[1, -1])
        with pytest.raises(ValueError):
            ChannelInstance(H=[[1, 1]], P=[1])

    def test_zero_power_rejected_by_ops(self):
        ch = ChannelInstance(H=[[1.0, 1.0]], P=[1.0, 0.0])
        with pytest.raises(ValueError, match="user 2"):
            lattice_gram(ch)


class TestEffectiveMatrix:
    def test_zero_channel_gives_power_diagonal(self):
        ch = ChannelInstance(H=[[0.0, 0.0]], P=[7.0, 4.0])
        F = effective_matrix(ch)
        assert np.allclose(F.T @ F, np.diag([7.0, 4.0]), atol=1e-12)

    def test_direct_2x2_inversion_oracle(self):
        M = [[1 / 7 + 1, 1.5], [1.5, 0.25 + 2.25]]
        expected = inv2x2(M)
        assert np.allclose(expected, [[4.117647, -2.470588], [-2.470588, 1.882353]],
                           atol=5e-7)
        F = effective_matrix(FIG7)
        assert np.allclose(F.T @ F, expected, atol=1e-10)
        assert np.allclose(F, np.tril(F))

    def test_alternate_inverse_form(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            ch = random_channel(rng)
            P = ch.P_matrix()
            G = np.eye(ch.num_antennas) + ch.H @ P @ ch.H.T
            alt = P - P @ ch.H.T @ np.linalg.solve(G, ch.H @ P)
            F = effective_matrix(ch)
            assert np.max(np.abs(F.T @ F - alt)) <= 1e-10 * max(1.0, np.max(np.abs(alt)))


class TestEffectiveMatrixCache:
    def test_one_read_only_array_per_channel(self):
        ch = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])
        F = effective_matrix(ch)
        assert effective_matrix(ch) is F
        assert not F.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            F[0, 0] = 1.0
        other = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])
        assert effective_matrix(other) is not F
        assert effective_matrix(other).tobytes() == F.tobytes()

    def test_zero_power_raises_on_every_call(self):
        ch = ChannelInstance(H=[[1.0, 1.0]], P=[1.0, 0.0])
        for _ in range(2):
            with pytest.raises(ValueError, match="user 2 has zero power"):
                effective_matrix(ch)

    def test_woodbury_disagreement_raises_and_caches_nothing(self, monkeypatch):
        from cfkit import core

        ch = ChannelInstance(H=[[1.0, 1.5]], P=[7.0, 4.0])
        honest = core._gram_woodbury
        monkeypatch.setattr(core, "_gram_woodbury", lambda c: honest(c) + 1e-3)
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="inconsistent Gram matrix"):
                effective_matrix(ch)
        monkeypatch.setattr(core, "_gram_woodbury", honest)
        assert effective_matrix(ch).tobytes() == effective_matrix(FIG7).tobytes()


class TestSigmaParallel:
    def test_zero_inputs(self):
        assert sigma_para_eval(FIG7, [0, 0], [0.0]) == 0.0

    def test_exact_match_leaves_equalizer_power(self):
        ch = ChannelInstance(H=[[1.0, 1.0]], P=[1.0, 1.0])
        assert sigma_para_eval(ch, [1, 1], [1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_matches_termwise_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            ch = random_channel(rng)
            a = rng.integers(-4, 5, size=ch.num_users)
            b = rng.normal(size=ch.num_antennas)
            mismatch = b @ ch.H - a
            oracle = sum(bi * bi for bi in b) + sum(
                ch.P[l] * mismatch[l] ** 2 for l in range(ch.num_users))
            assert sigma_para_eval(ch, a, b) == pytest.approx(oracle, abs=1e-12)

    def test_sum_combination_closed_form(self):
        # all-ones channel row: variance of the sum combination is SumP/(1+SumP)
        ch = ChannelInstance(H=[[1.0, 1.0]], P=[1.0, 1.0])
        assert sigma_para_opt(ch, [1, 1]).variance == pytest.approx(2 / 3, abs=1e-12)

    def test_three_user_closed_form(self):
        ch = ChannelInstance(H=[[2.0, 1.0, 1.0]], P=[1.0, 1.0, 1.0])
        assert sigma_para_opt(ch, [1, 1, 1]).variance == pytest.approx(5 / 7, abs=1e-12)

    def test_fig7_value(self):
        M = inv2x2([[1 / 7 + 1, 1.5], [1.5, 0.25 + 2.25]])
        a = np.array([1, 1])
        assert a @ M @ a == pytest.approx(1.058824, abs=5e-7)
        assert sigma_para_opt(FIG7, a).variance == pytest.approx(float(a @ M @ a), abs=1e-12)

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(13)
        ch = random_channel(rng, L=3, nr=2)
        a = np.array([1, -2, 1])
        rep = sigma_para_opt(ch, a)
        for _ in range(100):
            b = rep.b_opt + rng.normal(size=2) * rng.uniform(0, 2)
            assert sigma_para_eval(ch, a, b) >= rep.variance - 1e-10


class TestSigmaSuccessive:
    def test_zero_c_reduces_to_parallel(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            ch = random_channel(rng, L=3)
            a = rng.integers(-3, 4, size=3)
            prev = rng.integers(-3, 4, size=(2, 3))
            b = rng.normal(size=ch.num_antennas)
            assert sigma_succ_eval(ch, a, prev, b, [0, 0]) == pytest.approx(
                sigma_para_eval(ch, a, b), abs=1e-12)

    def test_exact_cancellation(self):
        ch = ChannelInstance(H=[[1.0, 1.0, 1.0]], P=[1.0, 2.0, 3.0])
        prev = np.array([[1, 0, 1], [0, 1, 1]])
        a = prev[0] + 2 * prev[1]
        val = sigma_succ_eval(ch, a, prev, np.zeros(1), [1.0, 2.0])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_termwise_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            ch = random_channel(rng, L=3)
            a = rng.integers(-4, 5, size=3)
            prev = rng.integers(-4, 5, size=(2, 3))
            b = rng.normal(size=ch.num_antennas)
            c = rng.normal(size=2)
            mism = b @ ch.H + c @ prev - a
            oracle = float(b @ b) + float(mism @ (ch.P * mism))
            assert sigma_succ_eval(ch, a, prev, b, c) == pytest.approx(oracle, abs=1e-12)

    def test_empty_side_information(self):
        rep = sigma_succ_opt(FIG7, [1, 1], np.zeros((0, 2)))
        assert rep.variance == pytest.approx(sigma_para_opt(FIG7, [1, 1]).variance,
                                             abs=1e-12)

    def test_fig7_gram_schmidt_oracle(self):
        # oracle: det(A M A^T) / ||F a1||^2 for A = [a1; a2]
        M = inv2x2([[1 / 7 + 1, 1.5], [1.5, 0.25 + 2.25]])
        A = np.array([[1, 1], [1, 2]])
        gram = A @ M @ A.T
        oracle = np.linalg.det(gram) / gram[0, 0]
        assert oracle == pytest.approx(1.555556, abs=5e-7)
        rep = sigma_succ_opt(FIG7, [1, 2], [[1, 1]])
        assert rep.variance == pytest.approx(oracle, abs=1e-12)

    def test_joint_optimality_against_perturbations(self):
        rng = np.random.default_rng(16)
        ch = random_channel(rng, L=3, nr=2)
        a = np.array([1, -1, 2])
        prev = np.array([[1, 1, 0]])
        rep = sigma_succ_opt(ch, a, prev)
        for _ in range(100):
            b = rep.b_opt + rng.normal(size=2) * rng.uniform(0, 2)
            c = rep.c_opt + rng.normal(size=1) * rng.uniform(0, 2)
            assert sigma_succ_eval(ch, a, prev, b, c) >= rep.variance - 1e-10

    def test_rank_deficient_prev_rejected(self):
        with pytest.raises(ValueError, match="full row rank"):
            sigma_succ_opt(FIG7, [1, 1], [[1, 2], [2, 4]])

    def test_monotone_and_strict_when_overlapping(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 30:
            ch = random_channel(rng, L=3)
            a = rng.integers(-3, 4, size=3)
            prev = np.atleast_2d(rng.integers(-3, 4, size=(1, 3)))
            if not np.any(a) or not np.any(prev):
                continue
            gram = lattice_gram(ch)
            overlap = float((a @ gram @ prev.T).item())
            para = sigma_para_opt(ch, a).variance
            succ = sigma_succ_opt(ch, a, prev).variance
            assert succ <= para + 1e-12
            if abs(overlap) > 1e-3:
                assert succ <= para - 1e-9
                done += 1

    def test_projector_is_projection(self):
        rep = sigma_succ_opt(FIG7, [1, 2], [[1, 1]])
        N = rep.projector
        assert np.allclose(N @ N, N, atol=1e-10)
        assert np.allclose(N, N.T, atol=1e-10)

    def test_empty_prefix_forms_are_parallel(self):
        # no prior rows, however written, is sigma_para_opt: the variance
        # bits, no c, and the identity projector exactly
        rng = np.random.default_rng(16)
        for _ in range(20):
            ch = random_channel(rng)
            L = ch.num_users
            a = rng.integers(-3, 4, size=L)
            para = sigma_para_opt(ch, a)
            bits = np.float64(para.variance).tobytes()
            for empty in ((), [], np.zeros((0, L))):
                assert np.float64(noise_variance(ch, a, empty)).tobytes() == bits
                rep = sigma_succ_opt(ch, a, empty)
                assert np.float64(rep.variance).tobytes() == bits
                assert rep.b_opt.tobytes() == para.b_opt.tobytes()
                assert rep.c_opt.shape == (0,)
                assert rep.projector.tobytes() == np.eye(L).tobytes()


    @pytest.mark.parametrize("a_m, A_prev", [
        ([1, 2, 3], ()),
        ([1], ()),
        ([1, 2], [[1, 1, 0]]),
        ([1, 2], [[1], [2]]),
    ], ids=["long-row", "short-row", "wide-prior", "narrow-prior"])
    def test_widths_checked(self, a_m, A_prev):
        for fn in (noise_variance, sigma_succ_opt):
            with pytest.raises(ValueError, match="dimension mismatch"):
                fn(FIG7, a_m, A_prev)


def _per_row_variances(ch, A) -> list[float]:
    """The per-row path: ||F a||^2 for row 0, and its own QR of F A[:m]^T
    for each later row (exact_oracle's one-matrix variances)."""
    F = effective_matrix(ch)
    S = np.asarray(A, dtype=float)
    return [chained_variance_oracle(F, S[m], S[:m]) if m else
            para_variance_oracle(F, S[m]) for m in range(S.shape[0])]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _chain_channels(rng, L):
    """Small-integer channels with ties (all-ones gains tie every user),
    and normal gains whose columns span four decades."""
    yield ChannelInstance(H=np.ones((1, L)), P=np.ones(L))
    yield ChannelInstance(H=rng.integers(-2, 3, size=(int(rng.integers(1, L + 1)), L)),
                          P=rng.choice([1.0, 2.0, 4.0], size=L))
    yield ChannelInstance(H=rng.normal(size=(int(rng.integers(1, L + 1)), L))
                          * 10.0 ** rng.uniform(-1, 3, size=L),
                          P=rng.uniform(0.5, 9.0, size=L))


def _chain_candidates(rng, L):
    """Every user permutation matrix, then random unimodular matrices with
    entries capped at 3, 20 and 200."""
    out = [np.eye(L, dtype=int)[list(p)] for p in itertools.permutations(range(L))]
    for cap in (3, 20, 200):
        out += [random_unimodular(L, rng, steps=60, entry_cap=cap) for _ in range(4)]
    return np.stack(out)


class TestChainedVariances:
    @pytest.mark.parametrize("L", range(2, 7))
    def test_stack_equals_per_row_path_bitwise(self, L):
        rng = np.random.default_rng(60 + L)
        S = _chain_candidates(rng, L)
        assert np.max(np.abs(S)) > 20
        for ch in _chain_channels(rng, L):
            V = chained_variances(ch, S)
            assert V.shape == S.shape[:2]
            for k, A in enumerate(S):
                ref = _per_row_variances(ch, A)
                assert _bits(V[k]) == _bits(ref), (L, k)
                assert _bits(chained_variances(ch, A)) == _bits(ref), (L, k)
                assert _bits([noise_variance(ch, A[m], A[:m]) for m in range(L)]) == \
                    _bits(ref), (L, k)

    @pytest.mark.parametrize("L", range(2, 7))
    def test_one_row_and_one_matrix(self, L):
        rng = np.random.default_rng(70 + L)
        S = _chain_candidates(rng, L)
        for ch in _chain_channels(rng, L):
            # M = 1: each value is sigma_para_opt's
            rows = chained_variances(ch, S[:, :1, :])
            assert rows.shape == (S.shape[0], 1)
            assert _bits(rows[:, 0]) == _bits([sigma_para_opt(ch, A[0]).variance for A in S])
            # K = 1, and a prefix of rows (M < L)
            A = S[-1]
            assert _bits(chained_variances(ch, A[None])[0]) == _bits(_per_row_variances(ch, A))
            assert _bits(chained_variances(ch, A[:L - 1])) == \
                _bits(_per_row_variances(ch, A[:L - 1]))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="one column per user"):
            chained_variances(FIG7, np.eye(3, dtype=int))
        with pytest.raises(ValueError, match="one column per user"):
            chained_variances(FIG7, [1, 2])


class TestSumCapacity:
    def test_zero_channel(self):
        assert sum_capacity(ChannelInstance(H=[[0.0, 0.0]], P=[3.0, 5.0])) == 0.0

    def test_scalar_oracle(self):
        # 1 + 7*1 + 4*2.25 = 17
        assert sum_capacity(FIG7) == pytest.approx(0.5 * math.log2(17), abs=1e-12)

    def test_compound_receiver_value(self):
        ch = ChannelInstance(H=[[3.3, 2.1]], P=[4.0, 3.0])
        assert sum_capacity(ch) == pytest.approx(1.0109 + 1.9154, abs=5e-4)


class TestFactorInvariance:
    def test_any_factor_gives_same_variances(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            ch = random_channel(rng, L=3)
            gram = lattice_gram(ch)
            w, V = np.linalg.eigh(gram)
            F2 = (V * np.sqrt(w)) @ V.T
            F1 = effective_matrix(ch)
            a = rng.integers(-3, 4, size=3)
            v1 = float(np.sum((F1 @ a) ** 2))
            v2 = float(np.sum((F2 @ a) ** 2))
            assert abs(v1 - v2) <= 1e-9 * max(1.0, v1)


class TestRates:
    def test_unbounded_rate(self):
        assert achievable_rate(2.0, 0.0) == UNBOUNDED
        assert achievable_rate(0.0, 0.0) == 0.0

    def test_log_plus_clips(self):
        assert achievable_rate(1.0, 2.0) == 0.0
        assert achievable_rate(4.0, 1.0) == 1.0
