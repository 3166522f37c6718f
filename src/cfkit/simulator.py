"""Monte-Carlo harness for the nested-lattice encoding and decoding chains.

Every trial keeps exact ground truth: the dithered lattice points, the
integer combinations they induce (via the linear labeling), and the real
combinations of channel inputs.  Decoders are checked symbol-exactly against
that truth.  Per-trial randomness comes from a counter-based generator keyed
by (master_seed, trial_index), so reports are reproducible and independent of
how trials are grouped.

Two paths run the same chain.  run_single_trial runs one trial through the
per-point functions (encode, true_combinations, decode_parallel,
decode_successive) and keeps every intermediate in a TrialRecord; it is the
debugging path and the oracle.  run_campaign runs configs that differ only
in noise_std: it builds one TrialPlan per config (the equalizers, the Z_p
cancellation matrix and the quantizing user per row), then takes blocks of
trials through three batched stages.  _draw_block draws each trial's
randomness in the oracle's order, on one Philox reset to each trial's key;
_encode_block computes the dithers, the channel inputs and the true labels;
_decode_block decodes.  Draws and encoding do not depend on the noise
level, so each block is drawn and encoded once and decoded once per config.
run_trials is the campaign of one config and run_block one config's block.
Both paths do the same floating-point operations on every coordinate, so
their decisions agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from . import _zp, lattice, regions
from .core import ChannelInstance
from .lattice import NestedLatticeEnsemble


@dataclass
class TrialConfig:
    ensemble: NestedLatticeEnsemble
    ch: ChannelInstance
    A: np.ndarray
    mode: str  # "parallel" or "successive"
    mapping: frozenset | None = None
    noise_std: float = 1.0
    equalizers: str | dict = "optimal"
    master_seed: int = 0
    # successive mode: zp_asc_matrix of the mapping, built (and so checked
    # against A and p) once here
    cancellation: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=int))
        if self.mode not in ("parallel", "successive"):
            raise ValueError("mode must be 'parallel' or 'successive'")
        if self.mode == "successive" and self.mapping is None:
            raise ValueError("successive mode needs an admissible mapping")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError("noise_std must be finite and nonnegative")
        if self.A.shape[1] != self.ch.num_users:
            raise ValueError("coefficient matrix width must match user count")
        if self.ensemble.num_users != self.ch.num_users:
            raise ValueError("ensemble and channel disagree on user count")
        if self.mode == "successive":
            M, L = self.A.shape
            if not all(1 <= m <= M and 1 <= l <= L for m, l in _mapping_pairs(self.mapping)):
                raise ValueError(f"mapping pairs [m, l] need 1 <= m <= {M} and 1 <= l <= {L}")
            self.cancellation = zp_asc_matrix(self.A, self.mapping, self.ensemble.p)


@dataclass
class TrialRecord:
    messages: list
    dithers: list
    codewords: list
    inputs: np.ndarray       # L x n
    shifted_points: list     # lattice points in the codeword cosets
    true_labels: list
    decoded_labels: list
    decoded_real: list | None
    success: list[bool]
    real_success: list[bool] | None


def encode(ens: NestedLatticeEnsemble, user: int, message, dither) -> tuple[np.ndarray, np.ndarray]:
    """Map a message to its lattice codeword and dithered channel input."""
    dither = np.asarray(dither, dtype=float).ravel()
    back = lattice.mod_lattice(ens, ("C", user), dither)
    if not np.allclose(back, dither, atol=1e-9):
        raise ValueError("dither must lie in the user's coarse Voronoi region")
    padded = lattice.zero_padded_label(ens, user, message)
    point = lattice.label_inverse(ens, padded)
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
            if not lattice.coset_contains(ens, user, lab, msg):
                raise AssertionError(f"user {user}'s shifted point left its message coset")
    return [lattice.label_add(ens, labels, A[m]) for m in range(A.shape[0])]


def _theta_user(ens: NestedLatticeEnsemble, coeffs, p: int) -> int | None:
    """User with the finest lattice among mod-p participants (1-indexed)."""
    best = None
    for user in range(1, ens.num_users + 1):
        if int(coeffs[user - 1]) % p != 0:
            kf = ens.levels[user - 1][1]
            if best is None or kf > ens.levels[best - 1][1]:
                best = user
    return best


def _mapping_pairs(mapping) -> frozenset:
    if isinstance(mapping, regions.AdmissibleMapping):
        return mapping.pairs
    return frozenset((int(m), int(l)) for (m, l) in mapping)


def _vartheta_user(ens: NestedLatticeEnsemble, mapping, m: int) -> int | None:
    users = [l for (row, l) in mapping if row == m]
    if not users:
        return None
    return max(users, key=lambda l: (ens.levels[l - 1][1], -l))


def parallel_equalizers(ch: ChannelInstance, A, noise_std: float) -> list[np.ndarray]:
    """Per-row MMSE equalizers for channel noise of the given deviation."""
    A = np.atleast_2d(np.asarray(A, dtype=int))
    if noise_std == 0.0:
        P = ch.P_matrix()
        G = ch.H @ P @ ch.H.T
        return [np.linalg.pinv(G) @ (ch.H @ P @ A[m]) for m in range(A.shape[0])]
    scaled = ChannelInstance(H=ch.H / noise_std, P=ch.P)
    out = []
    for m in range(A.shape[0]):
        from .core import sigma_para_opt

        out.append(sigma_para_opt(scaled, A[m]).b_opt / noise_std)
    return out


def successive_equalizers(ch: ChannelInstance, A, noise_std: float
                          ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-row (b, c) pairs; c entries for dropped (dependent) rows are zero."""
    from .core import sigma_succ_opt

    A = np.atleast_2d(np.asarray(A, dtype=int))
    scaled = None
    if noise_std > 0.0:
        scaled = ch if noise_std == 1.0 else ChannelInstance(H=ch.H / noise_std, P=ch.P)
    out = []
    for m in range(A.shape[0]):
        keep = [i for i in range(m)
                if regions._independent_prefix(A, i + 1).shape[0] >
                regions._independent_prefix(A, i).shape[0]]
        prev = A[keep] if keep else np.zeros((0, ch.num_users), dtype=int)
        c_full = np.zeros(m)
        if noise_std == 0.0:
            P12 = np.sqrt(ch.P)
            D = np.hstack([ch.H.T * 1.0, prev.T]) * P12[:, None]
            target = A[m] * P12
            z, *_ = np.linalg.lstsq(D, target, rcond=None)
            b = z[: ch.num_antennas]
            c = z[ch.num_antennas:]
        else:
            rep = sigma_succ_opt(scaled, A[m], prev)
            b = rep.b_opt / noise_std
            c = rep.c_opt if rep.c_opt is not None else np.zeros(0)
        for idx, row in enumerate(keep):
            c_full[row] = c[idx]
        out.append((np.asarray(b, dtype=float), c_full))
    return out


def decode_parallel(ens: NestedLatticeEnsemble, Y, ch: ChannelInstance, A,
                    dithers, equalizers="optimal", noise_std: float = 1.0):
    """Independent per-row decoding; returns (labels, flags) where a False
    flag marks a row whose coefficients all vanish mod p."""
    A = np.atleast_2d(np.asarray(A, dtype=int))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if equalizers == "optimal":
        equalizers = parallel_equalizers(ch, A, noise_std)
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


def zp_asc_matrix(A, mapping, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower-unitriangular cancellation matrix over Z_p and its inverse.

    Built by exact rational elimination, then reduced mod p.  Raises when a
    denominator vanishes mod p ("p too small" for this mapping).
    """
    _zp.require_prime(p)
    A = np.atleast_2d(np.asarray(A, dtype=int))
    L, users = A.shape
    pairs = _mapping_pairs(mapping)
    rows = [[Fraction(int(v)) for v in row] for row in A.tolist()]
    Lbar = np.eye(L, dtype=np.int64)
    for m in range(1, L + 1):
        cols = [l - 1 for l in range(1, users + 1) if (m, l) not in pairs]
        if not cols:
            continue
        if m == 1:
            if any(rows[0][c] != 0 for c in cols):
                raise ValueError("mapping is not admissible (row 1)")
            continue
        sol = _solve_rational([[rows[i][c] for i in range(m - 1)] for c in cols],
                              [-rows[m - 1][c] for c in cols])
        if sol is None:
            raise ValueError(f"mapping is not admissible (row {m})")
        for i, frac in enumerate(sol):
            if frac.denominator % p == 0:
                raise ValueError(
                    f"p = {p} too small: cancellation coefficient {frac} has no mod-p image")
            Lbar[m - 1, i] = (frac.numerator * pow(frac.denominator, -1, p)) % p
    reduced = np.array(_zp.matmul_mod_p(Lbar.tolist(), A.tolist(), p), dtype=np.int64)
    for (m, l) in ((m, l) for m in range(1, L + 1) for l in range(1, users + 1)):
        if (m, l) not in pairs and reduced[m - 1, l - 1] % p != 0:
            raise AssertionError("mod-p cancellation failed to match the mapping")
    Lbar_inv = np.array(_zp.inv_mod_p(Lbar.tolist(), p), dtype=np.int64)
    return Lbar, Lbar_inv


def _solve_rational(M, t) -> list[Fraction] | None:
    """Solve M x = t exactly over the rationals (free variables -> 0)."""
    rows = [list(r) + [tv] for r, tv in zip(M, t)]
    m = len(rows)
    n = len(rows[0]) - 1 if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_idx, c in enumerate(pivots):
        x[c] = rows[row_idx][n]
    return x


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
    pairs = _mapping_pairs(mapping)
    Lbar, Lbar_inv = zp_asc_matrix(A, pairs, ens.p)
    if equalizers == "optimal":
        equalizers = successive_equalizers(ch, A, noise_std)
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


def _trial_rng(master_seed: int, index: int) -> np.random.Generator:
    """Trial `index`'s own stream: Philox keyed by (master_seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array(
        [master_seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)))


def run_single_trial(config: TrialConfig, index: int, equalizers=None) -> TrialRecord:
    ens, ch, A = config.ensemble, config.ch, config.A
    rng = _trial_rng(config.master_seed, index)
    messages, dithers, codewords, inputs = [], [], [], []
    for user in range(1, ens.num_users + 1):
        kc, kf = ens.levels[user - 1]
        messages.append(rng.integers(0, ens.p, size=kf - kc, dtype=np.int64))
    for user in range(1, ens.num_users + 1):
        dithers.append(lattice.sample_voronoi(ens, ("C", user), rng))
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
    eq = equalizers if equalizers is not None else config.equalizers
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


def wilson_interval(errors: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# Trials per block.  On a 2-core Xeon, a two-level README campaign (drawn
# and encoded once, decoded twice) costs 78 us per trial at 16 trials per
# block, 19 us at 128 and 13 us at 512, where the per-trial draws (about
# 13 us: a state reset and three draw calls) dominate.  Block arrays are
# B x L x n floats, 10 kB per user at n = 10; quantizer temporaries are
# bounded separately by lattice.nearest_points.  A campaign holds one
# block's draws and encoding at a time.
BLOCK_TRIALS = 128


@dataclass
class TrialPlan:
    """Everything the trials of one config share, built once per config.

    Per coefficient row m: `equalizers[m]` is b (parallel) or (b, c)
    (successive), None for a parallel row that vanishes mod p; `targets[m]`
    is the user whose fine lattice quantizes the row (theta for parallel,
    vartheta for successive), None when the row has none.  Successive plans
    also hold the Z_p cancellation matrix and its inverse.
    """

    equalizers: list
    targets: list
    Lbar: np.ndarray | None = None
    Lbar_inv: np.ndarray | None = None

    @classmethod
    def build(cls, config: TrialConfig) -> "TrialPlan":
        ens, A = config.ensemble, config.A
        eq = config.equalizers
        rows = range(A.shape[0])
        if config.mode == "parallel":
            if eq == "optimal":
                eq = parallel_equalizers(config.ch, A, config.noise_std)
            targets = [_theta_user(ens, A[m], ens.p) for m in rows]
            return cls(equalizers=[None if targets[m] is None
                                   else np.asarray(eq[m], dtype=float) for m in rows],
                       targets=targets)
        if eq == "optimal":
            eq = successive_equalizers(config.ch, A, config.noise_std)
        pairs = _mapping_pairs(config.mapping)
        Lbar, Lbar_inv = config.cancellation
        return cls(equalizers=[(np.asarray(eq[m][0], dtype=float),
                                np.asarray(eq[m][1], dtype=float).ravel()) for m in rows],
                   targets=[_vartheta_user(ens, pairs, m + 1) for m in rows],
                   Lbar=Lbar, Lbar_inv=Lbar_inv)


@dataclass
class TrialBlock:
    """Outcomes of a block of B consecutive trials, one leading entry each."""

    decoded: np.ndarray              # B x M x k decoded labels
    success: np.ndarray              # B x M, decoded label equals the truth
    real_success: np.ndarray | None  # B x M (successive): real combination recovered
    inputs: np.ndarray               # B x L x n channel inputs
    powers: np.ndarray               # B x L, x @ x / n per input


def _mod_rows(ens: NestedLatticeEnsemble, which, X) -> np.ndarray:
    return X - lattice.nearest_points(ens, which, X)


def _dither_sum(coeffs, dithers):
    # the oracle's sum(), started at int 0, so rows round identically
    return sum(int(coeffs[l]) * dithers[l] for l in range(len(dithers)))


def _draw_block(ens: NestedLatticeEnsemble, antennas: int, master_seed: int,
                start: int, stop: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The random draws of trials start .. stop - 1, bitwise those that
    run_single_trial takes from each trial's _trial_rng stream.

    Returns the messages (one B x (k_F,l - k_C,l) block per user), the
    dither cubes (B x L x n uniforms on [0, 1)) and the unit noise
    (B x antennas x n standard normals).  One Philox serves the block: each
    trial sets its state to that of a fresh Philox keyed by
    (master_seed, i), counter 0, empty buffer, no buffered 32-bit half.
    Bounded integers (Lemire's method) take next_uint32 in order, so one
    integers call over all users' widths gives the per-user calls, upper
    halves carried across users included; one random and one
    standard_normal call fill the cubes and the noise in the oracle's order.
    """
    B, n = stop - start, ens.n
    widths = [kf - kc for kc, kf in ens.levels]
    bitgen = np.random.Philox(key=np.array(
        [master_seed & 0xFFFFFFFFFFFFFFFF, start], dtype=np.uint64))
    state = bitgen.state
    key = state["state"]["key"]
    rng = np.random.Generator(bitgen)
    symbols = np.empty((B, sum(widths)), dtype=np.int64)
    cubes = np.empty((B, ens.num_users, n))
    noise = np.empty((B, antennas, n))
    for j in range(B):
        key[1] = start + j
        bitgen.state = state
        symbols[j] = rng.integers(0, ens.p, size=symbols.shape[1], dtype=np.int64)
        rng.random(out=cubes[j])
        rng.standard_normal(out=noise[j])
    ends = np.cumsum(widths)
    messages = [symbols[:, end - w:end] for w, end in zip(widths, ends)]
    return messages, cubes, noise


def _encode_block(ens: NestedLatticeEnsemble, A: np.ndarray, messages: list,
                  cubes: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """sample_voronoi, encode, shifted_point and true_combinations for a
    block: the channel inputs X (B x L x n), each user's B x n dithers and
    the true labels (B x M x k) of the rows of A."""
    B, p, users = cubes.shape[0], ens.p, ens.num_users
    X = np.empty((B, users, ens.n))
    dithers, labels = [], np.empty((B, users, ens.k), dtype=np.int64)
    for u, (kc, kf) in enumerate(ens.levels):
        coarse = ("C", u + 1)
        dither = _mod_rows(ens, coarse, cubes[:, u] * ens.gamma)
        if not np.allclose(_mod_rows(ens, coarse, dither), dither, atol=1e-9):
            raise ValueError("dither must lie in the user's coarse Voronoi region")
        V = np.zeros((B, ens.k_F), dtype=np.int64)
        V[:, kc:kf] = messages[u]
        point = (ens.gamma / p) * ((V @ ens.G) % p).astype(np.float64)
        lam = _mod_rows(ens, coarse, point)
        moved = lam + dither
        absorbed = lattice.nearest_points(ens, coarse, moved)
        X[:, u] = moved - absorbed
        labels[:, u] = lattice.linear_labels(ens, lam - absorbed)
        dithers.append(dither)
        # coset check of true_combinations: message block set, tail zero
        if not (np.array_equal(labels[:, u, kc - ens.k_C:kf - ens.k_C], messages[u])
                and not labels[:, u, kf - ens.k_C:].any()):
            raise AssertionError(f"user {u + 1}'s shifted point left its message coset")
    return X, dithers, np.matmul(A % p, labels) % p


def _decode_block(config: TrialConfig, plan: TrialPlan, X: np.ndarray,
                  dithers: list, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """decode_parallel or decode_successive on a block of received Y
    (B x antennas x n): the decoded labels (B x M x k) and, in successive
    mode, whether each real combination came back equal to A[m] @ X."""
    ens, A = config.ensemble, config.A
    B, M, n = X.shape[0], A.shape[0], ens.n
    decoded = np.zeros((B, M, ens.k), dtype=np.int64)
    if config.mode == "parallel":
        for m, target in enumerate(plan.targets):
            if target is None:
                continue
            t = np.matmul(plan.equalizers[m], Y) - _dither_sum(A[m], dithers)
            mu = _mod_rows(ens, "C", lattice.nearest_points(ens, ("F", target), t))
            decoded[:, m] = lattice.linear_labels(ens, mu)
        return decoded, None
    real_ok = np.empty((B, M), dtype=bool)
    atol = 1e-6 * max(1.0, ens.gamma)
    reals, nus, mus = [], [], []
    for m, target in enumerate(plan.targets):
        b, c = plan.equalizers[m]
        ytilde = np.matmul(b, Y)
        for i in range(min(m, c.size)):
            if c[i] != 0.0:
                ytilde = ytilde + float(c[i]) * reals[i]
        t = ytilde.copy()
        for i in range(m):
            if plan.Lbar[m, i]:
                t = t + int(plan.Lbar[m, i]) * mus[i]
        t = t - _dither_sum(A[m], dithers)
        if target is None:
            nu = np.zeros((B, n))
        else:
            nu = _mod_rows(ens, "C", lattice.nearest_points(ens, ("F", target), t))
        nus.append(nu)
        acc = nu
        for i in range(m):
            if plan.Lbar_inv[m, i]:
                acc = acc + int(plan.Lbar_inv[m, i]) * nus[i]
        mu = _mod_rows(ens, "C", acc)
        mus.append(mu)
        decoded[:, m] = lattice.linear_labels(ens, mu)
        # recover_real_combo, then the np.allclose check against A[m] @ X
        chi = _mod_rows(ens, "C", mu + _dither_sum(A[m], dithers))
        reals.append(lattice.nearest_points(ens, "C", ytilde - chi) + chi)
        exact = np.matmul(A[m], X)
        real_ok[:, m] = np.all(np.abs(reals[m] - exact) <= atol + 1e-5 * np.abs(exact),
                               axis=1)
    return decoded, real_ok


def _powers(X: np.ndarray) -> np.ndarray:
    # the stacked matmul takes the 1-D dot path, so each x @ x rounds as the
    # oracle's does; the mean power is printed in full
    return np.matmul(X[:, :, None, :], X[:, :, :, None])[:, :, 0, 0] / X.shape[2]


def run_block(config: TrialConfig, plan: TrialPlan, start: int, stop: int) -> TrialBlock:
    """Trials start .. stop - 1 of the config, as run_single_trial would run
    them, with each stage batched over the block."""
    ens, ch = config.ensemble, config.ch
    messages, cubes, noise = _draw_block(ens, ch.num_antennas, config.master_seed,
                                         start, stop)
    X, dithers, truth = _encode_block(ens, config.A, messages, cubes)
    Y = np.matmul(ch.H, X) + noise * config.noise_std
    decoded, real_ok = _decode_block(config, plan, X, dithers, Y)
    return TrialBlock(decoded=decoded, success=np.all(decoded == truth, axis=2),
                      real_success=real_ok, inputs=X, powers=_powers(X))


def _bits(value):
    """What a config field holds, comparable with ==: arrays by shape, type
    and bytes; lists, tuples and dicts entry by entry."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _bits(v)) for k, v in value.items())
    return value


def _shared_fields(config: TrialConfig):
    """Every field of a config but noise_std, as _bits images."""
    ens, ch = config.ensemble, config.ch
    return _bits((ens.n, ens.p, ens.gamma, ens.levels, ens.G, ch.H, ch.P, config.A,
                  config.mode, config.mapping, config.equalizers, config.master_seed))


def run_campaign(configs: list[TrialConfig], trials: int,
                 ci_level: float = 0.95) -> list[dict]:
    """run_trials for each config, sharing the draws and the encoding.

    The configs may differ only in noise_std.  Trial i's draws depend only
    on (master_seed, i), and its dithers, channel inputs and true labels
    only on those draws, so each block of BLOCK_TRIALS trials is drawn and
    encoded once and decoded once per config.  Each report equals the one
    run_trials gives for its config alone.
    """
    if not configs:
        return []
    first = configs[0]
    shared = _shared_fields(first)
    if any(_shared_fields(cfg) != shared for cfg in configs[1:]):
        raise ValueError("campaign configs may differ only in noise_std")
    plans = [TrialPlan.build(cfg) for cfg in configs]
    ens, ch, A = first.ensemble, first.ch, first.A
    errors = np.zeros((len(configs), A.shape[0]), dtype=np.int64)
    real_errors = np.zeros_like(errors)
    powers = np.empty((ens.num_users, trials))
    for start in range(0, trials, BLOCK_TRIALS):
        stop = min(trials, start + BLOCK_TRIALS)
        messages, cubes, noise = _draw_block(ens, ch.num_antennas, first.master_seed,
                                             start, stop)
        X, dithers, truth = _encode_block(ens, A, messages, cubes)
        powers[:, start:stop] = _powers(X).T
        HX = np.matmul(ch.H, X)
        for c, (cfg, plan) in enumerate(zip(configs, plans)):
            decoded, real_ok = _decode_block(cfg, plan, X, dithers,
                                             HX + noise * cfg.noise_std)
            errors[c] += np.count_nonzero(~np.all(decoded == truth, axis=2), axis=0)
            if real_ok is not None:
                real_errors[c] += np.count_nonzero(~real_ok, axis=0)
    power = [float(np.mean(powers[u])) for u in range(ens.num_users)]
    return [_report(cfg, trials, errors[c], real_errors[c], power, ci_level)
            for c, cfg in enumerate(configs)]


def _report(config: TrialConfig, trials: int, errors, real_errors, power,
            ci_level: float) -> dict:
    combos = []
    for m, errs in enumerate(errors.tolist()):
        lo, hi = wilson_interval(errs, trials, ci_level)
        entry = {"combination_index": m + 1, "errors": errs, "trials": trials,
                 "rate_estimate": errs / trials if trials else 0.0,
                 "ci_low": lo, "ci_high": hi}
        if config.mode == "successive":
            entry["real_errors"] = int(real_errors[m])
        combos.append(entry)
    return {"noise_std": config.noise_std, "trials": trials,
            "combinations": combos, "mean_power_per_user": list(power)}


def run_trials(config: TrialConfig, trials: int, workers: int = 1,
               ci_level: float = 0.95) -> dict:
    """Deterministic report: per-combination error counts and confidence
    intervals plus per-user empirical power.

    Trial i depends only on (master_seed, i), so the report is the same for
    any block size.  This is run_campaign over the one config: a TrialPlan
    built for its noise level, then blocks of BLOCK_TRIALS trials; only
    counts and per-trial powers are kept.  `workers` is accepted for
    compatibility and has no effect.
    """
    return run_campaign([config], trials, ci_level)[0]
