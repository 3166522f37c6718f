"""The per-point encode and decode chain, kept as an independent oracle.

These are the bodies the simulator's per-point functions had before they
became one-row calls of its block stages: each trial drawn from its own
Philox stream, one point at a time through the lattice's quantizer and
labeling (nearest_point, mod_lattice, linear_label).  Where a user's
symbols sit in a label, the lift of a label to its lattice point, the coset
test and the mod-p combination are written out here symbol by symbol, apart
from lattice's block rule, which the simulator shares.  Each row's
quantizing user comes from this file's own two rules, _theta_user
(parallel) and _vartheta_user (successive), not from the simulator's one.
The block engine is checked against them trial by trial, decision by
decision.

sample_voronoi is the tests' dither source, and second_moment their
Monte-Carlo estimate of a Voronoi region's second moment.
"""

from __future__ import annotations

import math

import numpy as np

from cfkit import lattice
from cfkit.core import ChannelInstance
from cfkit.lattice import NestedLatticeEnsemble
from cfkit.regions import mapping_pairs
from cfkit.simulator import (TrialConfig, TrialRecord, parallel_equalizers,
                             successive_equalizers, zp_asc_matrix)


def _theta_user(ens: NestedLatticeEnsemble, coeffs, p: int) -> int | None:
    """User with the finest lattice among mod-p participants (1-indexed)."""
    best = None
    for user in range(1, ens.num_users + 1):
        if int(coeffs[user - 1]) % p != 0:
            kf = ens.levels[user - 1][1]
            if best is None or kf > ens.levels[best - 1][1]:
                best = user
    return best


def _vartheta_user(ens: NestedLatticeEnsemble, mapping, m: int) -> int | None:
    """User with the finest lattice among those the mapping maps to row m
    (1-indexed), the lowest index among ties."""
    users = [l for (row, l) in mapping if row == m]
    if not users:
        return None
    return max(users, key=lambda l: (ens.levels[l - 1][1], -l))


def _codeword(ens: NestedLatticeEnsemble, user: int, message) -> list[int]:
    """v G mod p for the message vector v of k_F symbols that holds the
    message at user `user`'s levels k_C,l .. k_F,l and zeros elsewhere."""
    kc, kf = ens.levels[user - 1]
    v = [0] * kc + [int(s) % ens.p for s in message] + [0] * (ens.k_F - kf)
    return [sum(v[i] * int(ens.G[i, j]) for i in range(ens.k_F)) % ens.p
            for j in range(ens.n)]


def _in_coset(ens: NestedLatticeEnsemble, user: int, label, message) -> bool:
    """The label's symbols k_C,l - k_C .. k_F,l - k_C are the message, and
    every symbol past them is zero."""
    kc, kf = ens.levels[user - 1]
    label = [int(s) for s in label]
    return (label[kc - ens.k_C:kf - ens.k_C] == [int(s) % ens.p for s in message]
            and not any(label[kf - ens.k_C:]))


def encode(ens: NestedLatticeEnsemble, user: int, message, dither) -> tuple[np.ndarray, np.ndarray]:
    """Map a message to its lattice codeword and dithered channel input."""
    dither = np.asarray(dither, dtype=float).ravel()
    back = lattice.mod_lattice(ens, ("C", user), dither)
    if not np.allclose(back, dither, atol=1e-9):
        raise ValueError("dither must lie in the user's coarse Voronoi region")
    point = (ens.gamma / ens.p) * np.array(_codeword(ens, user, message), dtype=np.float64)
    lam = lattice.mod_lattice(ens, ("C", user), point)
    x = lattice.mod_lattice(ens, ("C", user), lam + dither)
    return lam, x


def shifted_point(ens: NestedLatticeEnsemble, user: int, lam, dither) -> np.ndarray:
    """The coset representative the decoder actually recovers: the codeword
    shifted by the coarse point absorbed during dithering."""
    lam = np.asarray(lam, dtype=float).ravel()
    dither = np.asarray(dither, dtype=float).ravel()
    return lam - lattice.nearest_point(ens, ("C", user), lam + dither)


def true_combinations(ens: NestedLatticeEnsemble, A, shifted_points,
                      messages=None) -> list[np.ndarray]:
    """Ground-truth labels u_m of the integer combinations of shifted points."""
    A = np.atleast_2d(np.asarray(A, dtype=int))
    labels = [lattice.linear_label(ens, pt) for pt in shifted_points]
    if messages is not None:
        for user, (lab, msg) in enumerate(zip(labels, messages), start=1):
            if not _in_coset(ens, user, lab, msg):
                raise AssertionError(f"user {user}'s shifted point left its message coset")
    return [np.array([sum(int(A[m, l]) * int(labels[l][i]) for l in range(len(labels))) % ens.p
                      for i in range(ens.k)], dtype=np.int64) for m in range(A.shape[0])]


def decode_parallel(ens: NestedLatticeEnsemble, Y, ch: ChannelInstance, A,
                    dithers, equalizers="optimal", noise_std: float = 1.0):
    """Independent per-row decoding; returns (labels, flags) where a False
    flag marks a row whose coefficients all vanish mod p."""
    A = np.atleast_2d(np.asarray(A, dtype=int))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if equalizers == "optimal":
        equalizers = parallel_equalizers(ch, A, (noise_std,))[0]
    labels = []
    live = []
    for m in range(A.shape[0]):
        theta = _theta_user(ens, A[m], ens.p)
        if theta is None:
            labels.append(np.zeros(ens.k, dtype=np.int64))
            live.append(False)
            continue
        ytilde = np.asarray(equalizers[m], dtype=float) @ Y
        t = ytilde - sum(int(A[m, l]) * np.asarray(dithers[l], dtype=float)
                         for l in range(ens.num_users))
        mu_hat = lattice.mod_lattice(ens, "C", lattice.nearest_point(ens, ("F", theta), t))
        labels.append(lattice.linear_label(ens, mu_hat))
        live.append(True)
    return labels, live


def recover_real_combo(ens: NestedLatticeEnsemble, ytilde, mu, dithers, a) -> np.ndarray:
    """Rebuild the real combination a^T X from its mod-coarse residue.

    Exact whenever the effective noise of ytilde stays inside the coarsest
    Voronoi region; silently wrong otherwise (trial bookkeeping flags it).
    """
    a = np.asarray(a, dtype=int).ravel()
    acc = np.asarray(mu, dtype=float).ravel() + sum(
        int(a[l]) * np.asarray(dithers[l], dtype=float) for l in range(len(dithers)))
    chi = lattice.mod_lattice(ens, "C", acc)
    ytilde = np.asarray(ytilde, dtype=float).ravel()
    return lattice.nearest_point(ens, "C", ytilde - chi) + chi


def decode_successive(ens: NestedLatticeEnsemble, Y, ch: ChannelInstance, A,
                      mapping, dithers, equalizers="optimal",
                      noise_std: float = 1.0, with_internals: bool = False):
    """Full successive chain: equalize with decoded real combinations,
    cancel algebraically over Z_p, quantize, then invert the cancellation.

    Returns (labels, real_combos, live_flags); with_internals adds a dict of
    intermediate quantities (reduced combinations, cancellation matrices).
    """
    A = np.atleast_2d(np.asarray(A, dtype=int))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    L = A.shape[0]
    pairs = mapping_pairs(mapping, *A.shape)
    Lbar, Lbar_inv = zp_asc_matrix(A, pairs, ens.p)
    if equalizers == "optimal":
        equalizers = successive_equalizers(ch, A, (noise_std,))[0]
    labels, reals, nus, mus, live = [], [], [], [], []
    for m in range(L):
        b, c = equalizers[m]
        ytilde = np.asarray(b, dtype=float) @ Y
        for i in range(m):
            coef = float(np.asarray(c, dtype=float)[i]) if np.size(c) > i else 0.0
            if coef != 0.0:
                ytilde = ytilde + coef * reals[i]
        target_user = _vartheta_user(ens, pairs, m + 1)
        t = ytilde.copy()
        for i in range(m):
            if Lbar[m, i]:
                t = t + int(Lbar[m, i]) * mus[i]
        t = t - sum(int(A[m, l]) * np.asarray(dithers[l], dtype=float)
                    for l in range(ens.num_users))
        if target_user is None:
            nu = np.zeros(ens.n)
            live.append(False)
        else:
            nu = lattice.mod_lattice(
                ens, "C", lattice.nearest_point(ens, ("F", target_user), t))
            live.append(True)
        nus.append(nu)
        acc = nu
        for i in range(m):
            if Lbar_inv[m, i]:
                acc = acc + int(Lbar_inv[m, i]) * nus[i]
        mu = lattice.mod_lattice(ens, "C", acc)
        mus.append(mu)
        labels.append(lattice.linear_label(ens, mu))
        reals.append(recover_real_combo(ens, ytilde, mu, dithers, A[m]))
    if with_internals:
        return labels, reals, live, {"nu": nus, "mu": mus,
                                     "Lbar": Lbar, "Lbar_inv": Lbar_inv}
    return labels, reals, live


def sample_voronoi(ens: NestedLatticeEnsemble, which, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the Voronoi region of a coarse-chain lattice.

    A uniform draw from the cube [0, gamma)^n is uniform over a fundamental
    domain of gamma Z^n, which is a sublattice of every chain lattice, so its
    mod-lattice image is exactly uniform over the Voronoi region.
    """
    cube = rng.random(ens.n) * ens.gamma
    return lattice.mod_lattice(ens, which, cube)


def second_moment(ens: NestedLatticeEnsemble, which, samples: int,
                  seed: int) -> tuple[float, float]:
    """Monte-Carlo (estimate, standard error) of the per-dimension second
    moment of the named lattice's Voronoi region, from sample_voronoi."""
    rng = np.random.Generator(np.random.PCG64(seed))
    vals = np.empty(samples)
    for i in range(samples):
        v = sample_voronoi(ens, which, rng)
        vals[i] = float(v @ v) / ens.n
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(samples))


def _trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Trial `index`'s own stream: Philox keyed by (master_seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array(
        [master_seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)))


def run_single_trial(config: TrialConfig, index: int) -> TrialRecord:
    ens, ch, A = config.ensemble, config.ch, config.A
    rng = _trial_rng(config.master_seed, index)
    messages, dithers, codewords, inputs = [], [], [], []
    for user in range(1, ens.num_users + 1):
        kc, kf = ens.levels[user - 1]
        messages.append(rng.integers(0, ens.p, size=kf - kc, dtype=np.int64))
    for user in range(1, ens.num_users + 1):
        dithers.append(sample_voronoi(ens, ("C", user), rng))
    for user in range(1, ens.num_users + 1):
        lam, x = encode(ens, user, messages[user - 1], dithers[user - 1])
        codewords.append(lam)
        inputs.append(x)
    X = np.vstack(inputs)
    noise = rng.standard_normal((ch.num_antennas, ens.n)) * config.noise_std
    Y = ch.H @ X + noise
    shifted = [shifted_point(ens, u + 1, codewords[u], dithers[u])
               for u in range(ens.num_users)]
    truth = true_combinations(ens, A, shifted, messages)
    eq = config.equalizers
    if config.mode == "parallel":
        decoded, _live = decode_parallel(ens, Y, ch, A, dithers, eq, config.noise_std)
        reals = None
        real_ok = None
    else:
        decoded, reals, _live = decode_successive(
            ens, Y, ch, A, config.mapping, dithers, eq, config.noise_std)
        real_ok = [bool(np.allclose(r, A[m] @ X, atol=1e-6 * max(1.0, ens.gamma)))
                   for m, r in enumerate(reals)]
    success = [bool(np.array_equal(u, v)) for u, v in zip(decoded, truth)]
    return TrialRecord(messages=messages, dithers=dithers, codewords=codewords,
                       inputs=X, shifted_points=shifted, true_labels=truth,
                       decoded_labels=decoded, decoded_real=reals,
                       success=success, real_success=real_ok)
