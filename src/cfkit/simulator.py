"""Monte-Carlo harness for the nested-lattice encoding and decoding chains.

Every trial keeps exact ground truth: the dithered lattice points, the
integer combinations they induce (via the linear labeling), and the real
combinations of channel inputs.  Decoders are checked symbol-exactly against
that truth.  Per-trial randomness comes from a counter-based generator keyed
by (master_seed, trial_index), so reports are reproducible and independent of
how trials are grouped.

One chain, in three stages over blocks of trials.  _draw_block reads each
trial's raw 64-bit words and noise from one Philox reset to the trial's
key, and makes the block's messages and dither cubes from the words.
_encode_block runs the encoders of the users of each coarse lattice
together (_encode_users: the dithers and codewords in one quantizer call,
the channel inputs and shifted points in one more) and labels every
user's shifted points in one call: the channel inputs and the true labels
of the rows of A.  _decode_block equalizes, quantizes and, in successive
mode, cancels over Z_p and recovers the real combinations, with what the
TrialConfig holds for every trial: the quantizing user of each row and the
Z_p cancellation matrix, found when the config is built, and the
equalizers of each noise level, each row's from one core.mmse_solve on the
unscaled channel, built on first use.  A parallel pass makes one quantizer
call per distinct fine table, over every row that targets it, then one
mod-coarse and one labeling call over all live rows; a successive pass
goes row by row, each row needing the rows before it.  The kernel answers
each row of a call on its own, so stacking moves no output bit.

A TrialConfig is a campaign: its noise_std holds one noise level or a
sequence of them, and run_campaign gives one report per level.  Draws and
encoding do not depend on the noise level, so each block is drawn and
encoded once.  It is then decoded at every level in one pass: each level
is equalized on its own, and each quantizer and labeling call takes all
levels' rows as one stacked block.  _block_pass runs the three stages on
one block, with H X plus each level's noise between them: run_campaign
keeps only its counts and powers, and run_block every intermediate of a
one-level block.  run_trials is the campaign of one level.  The per-point
functions (encode, shifted_point, true_combinations, decode_parallel,
decode_successive, recover_real_combo and run_single_trial, whose
TrialRecord is row 0 of a TrialBlock) are one-row calls of the same
stages, decoding at one level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from statistics import NormalDist

import numpy as np

from . import _exact, _zp, lattice, regions
from .core import ChannelInstance, mmse_solve
from .lattice import NestedLatticeEnsemble


@dataclass(frozen=True)
class TrialConfig:
    """A campaign: one channel, coefficient matrix, mode, mapping and
    equalizers, run at each level of noise_std, a number (kept as a float)
    or a non-empty sequence (kept as a tuple of floats), and everything its
    trials share.  The levels are checked, and the rest that does not depend
    on the level is found once here: `targets[m]`, the user whose fine
    lattice quantizes row m (_finest_user; None when the row has none), and
    in successive mode `cancellation`, the mapping's Z_p cancellation matrix
    and its inverse (zp_asc_matrix, which checks the mapping against A and
    p).  Each level's equalizers are built on first use
    (level_equalizers).  The config is frozen and holds a read-only copy of
    A, so none of these can go stale: a changed campaign is a new config
    (dataclasses.replace)."""

    ensemble: NestedLatticeEnsemble
    ch: ChannelInstance
    A: np.ndarray
    mode: str  # "parallel" or "successive"
    mapping: frozenset | None = None
    noise_std: float | tuple = 1.0
    equalizers: str | list = "optimal"  # "optimal", or one entry per row of A
    master_seed: int = 0
    targets: tuple = field(default=(), init=False, repr=False)
    cancellation: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        def store(name, value):  # a frozen field, set once here
            object.__setattr__(self, name, value)

        A = _exact.int_matrix(self.A).copy()  # its own, so the caller's A may change
        A.setflags(write=False)
        store("A", A)
        if self.mode not in ("parallel", "successive"):
            raise ValueError("mode must be 'parallel' or 'successive'")
        if self.mode == "successive" and self.mapping is None:
            raise ValueError("successive mode needs an admissible mapping")
        one = np.ndim(self.noise_std) == 0
        levels = [self.noise_std] if one else list(self.noise_std)
        if not levels:
            raise ValueError("noise_std needs at least one level")
        if len(levels) > MAX_NOISE_LEVELS:
            raise ValueError(f"noise_std has {len(levels)} levels; desk scale caps a "
                             f"campaign at {MAX_NOISE_LEVELS}")
        if not all(math.isfinite(s) and s >= 0 for s in levels):
            raise ValueError("noise_std must be finite and nonnegative")
        store("noise_std", float(levels[0]) if one else tuple(map(float, levels)))
        if self.A.shape[1] != self.ch.num_users:
            raise ValueError("coefficient matrix width must match user count")
        if self.ensemble.num_users != self.ch.num_users:
            raise ValueError("ensemble and channel disagree on user count")
        ens, (M, L) = self.ensemble, self.A.shape
        if self.mode == "parallel":
            users = [(np.flatnonzero(a % ens.p) + 1).tolist() for a in self.A]
        else:
            pairs = regions.mapping_pairs(self.mapping, M, L)
            store("cancellation", zp_asc_matrix(self.A, pairs, ens.p))
            users = [[l for row, l in pairs if row == m] for m in range(1, M + 1)]
        store("targets", tuple(_finest_user(ens, row) for row in users))

    @property
    def levels(self) -> tuple:
        return self.noise_std if isinstance(self.noise_std, tuple) else (self.noise_std,)

    @cached_property
    def level_equalizers(self) -> list:
        """`level_equalizers[c][m]`: level c's equalizer of row m, in the
        order of the levels, built on the first read: b (parallel; None for
        a row with no target) or (b, c) (successive).  Optimal equalizers at
        a positive level need every user's power positive."""
        ch, A, eq, rows = self.ch, self.A, self.equalizers, range(self.A.shape[0])
        optimal = eq == "optimal"
        if optimal and max(self.levels) > 0:
            ch.require_positive_powers()
        if self.mode == "parallel":
            levels = (parallel_equalizers(ch, A, self.levels) if optimal
                      else [eq] * len(self.levels))
            return [[None if self.targets[m] is None else np.asarray(level[m], dtype=float)
                     for m in rows] for level in levels]
        levels = (successive_equalizers(ch, A, self.levels) if optimal
                  else [eq] * len(self.levels))
        return [[(np.asarray(level[m][0], dtype=float),
                  np.asarray(level[m][1], dtype=float).ravel()) for m in rows]
                for level in levels]


def _one_level(config: TrialConfig) -> float:
    if len(config.levels) != 1:
        raise ValueError("this call runs one noise level; run_campaign runs several")
    return config.levels[0]


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


def _finest_user(ens: NestedLatticeEnsemble, users) -> int | None:
    """The user (1-indexed) of users with the finest fine lattice, the
    largest k_F,l, and the lowest index among ties; None when users is
    empty.  A row's users are those whose coefficient is nonzero mod p
    (parallel) or those the mapping maps to it (successive)."""
    return max(sorted(users), key=lambda l: ens.levels[l - 1][1], default=None)


def parallel_equalizers(ch: ChannelInstance, A, noise_levels) -> list[list[np.ndarray]]:
    """Per-row MMSE equalizers b for channel noise of each deviation of
    noise_levels: one list of rows per level, in their order."""
    A = _exact.int_matrix(A)
    solves = [mmse_solve(ch, a, A[:0], noise_levels) for a in A]
    return [[row[c][0] for row in solves] for c in range(len(noise_levels))]


def successive_equalizers(ch: ChannelInstance, A,
                          noise_levels) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per-row MMSE (b, c) pairs, c weighting the real combinations of the
    earlier rows, for each deviation of noise_levels: one list of rows per
    level, in their order.  c entries for dropped (dependent) rows are
    zero."""
    A = _exact.int_matrix(A)
    kept = _exact.kept_rows(A.tolist())
    out = [[] for _ in noise_levels]
    for m in range(A.shape[0]):
        keep = [i for i in range(m) if kept[i]]
        for level, (b, c) in zip(out, mmse_solve(ch, A[m], A[keep], noise_levels)):
            c_full = np.zeros(m)
            c_full[keep] = c
            level.append((b, c_full))
    return out


def zp_asc_matrix(A, mapping, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower-unitriangular cancellation matrix over Z_p and its inverse.

    Each row is solved exactly (regions.cancellation_solves, as for
    regions.is_admissible), and each coefficient n/d, in lowest terms, is
    taken to n d^-1 mod p.  Raises "not admissible" at the first row with
    no solution, and only when every row has one, "p too small" at the
    first denominator that vanishes mod p.  The mapping is read by
    regions.mapping_pairs, which refuses a pair outside A.  It is checked
    against Lbar A mod p in int64, and the inverse is found by forward
    substitution in int64, so p needs L (p - 1)^2 < 2^63 (far past
    lattice.MAX_P); a larger p raises "p too large".
    """
    _zp.require_prime(p)
    A = _exact.int_matrix(A)
    L, users = A.shape
    if L * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"p = {p} too large for {L} rows: L (p - 1)^2 must stay "
                         f"below 2^63")
    pairs = regions.mapping_pairs(mapping, L, users)
    sols = list(regions.cancellation_solves(A.tolist(), pairs))
    for m, sol in sols:
        if sol is None:
            raise ValueError(f"mapping is not admissible (row {m + 1})")
    Lbar = np.eye(L, dtype=np.int64)
    for m, (nums, d) in sols:
        for i, n in enumerate(nums):
            g = math.gcd(n, d) * (-1 if d < 0 else 1)
            num, den = n // g, d // g
            if den % p == 0:
                raise ValueError(f"p = {p} too small: cancellation coefficient "
                                 f"{num}/{den} has no mod-p image")
            Lbar[m, i] = num * pow(den, -1, p) % p
    # entries of Lbar and of A % p are below p, so each entry of the product
    # is at most L (p - 1)^2
    outside = np.array([[(m, l) not in pairs for l in range(1, users + 1)]
                        for m in range(1, L + 1)], dtype=bool).reshape(L, users)
    if np.any(Lbar @ (A % p) % p * outside):
        raise AssertionError("mod-p cancellation failed to match the mapping")
    # Lbar is unit lower-triangular, and so is its inverse: row m is e_m
    # less Lbar[m, :m] times the rows above it, whose entries are below p
    Lbar_inv = np.eye(L, dtype=np.int64)
    for m in range(1, L):
        Lbar_inv[m] = (Lbar_inv[m] - Lbar[m, :m] @ Lbar_inv[:m]) % p
    return Lbar, Lbar_inv


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
# and encoded once, decoded twice) costs 44 us per trial at 16 trials per
# block, 10.5 us at 128 and 6.7 us at 512 (52, 16.5 and 12 us with three
# Generator calls per trial's draw).  The per-trial draw, a state reset, one
# random_raw and one standard_normal call, takes about 4 us of that at any
# block size (benchmarks/bench_campaign.py); the reset from _list_state's
# lists takes about 0.45 us, against 1.1 us from the arrays numpy's state
# holds.  Block arrays are B x L x n floats, 10 kB per user at n = 10.  A
# campaign of C noise levels decodes them in one pass, so each quantizer
# call holds C x B rows; its temporaries are bounded separately by
# lattice.nearest_points, which slices them.  A campaign holds one block's
# draws and encoding at a time.
BLOCK_TRIALS = 128
# Desk-scale caps on a campaign.  Its power record is L x trials floats, and
# a block's decode stacks every noise level's rows (C x B x n floats per
# array), so the two caps bound them at 8 L MB and about 1 MB per array.
# lattice.GAMMA_MAX counts on the trial cap: the mean power adds at most
# MAX_TRIALS powers.
MAX_TRIALS = 10 ** 6
MAX_NOISE_LEVELS = 100


@dataclass
class TrialBlock:
    """A block of B consecutive trials, one leading entry each: what a
    TrialRecord holds for one trial.  In _block_pass's block, decoded,
    decoded_real's entries, success and real_success lead with one more
    axis, the config's C noise levels; run_block keeps level 0's."""

    messages: list                   # per user, B x (k_F,l - k_C,l) symbols
    dithers: list                    # per user, B x n
    codewords: list                  # per user, B x n
    shifted_points: list             # per user, B x n
    inputs: np.ndarray               # B x L x n channel inputs
    powers: np.ndarray               # B x L, x @ x / n per input
    true_labels: np.ndarray          # B x M x k
    decoded: np.ndarray              # B x M x k decoded labels
    decoded_real: list | None        # successive: per row, B x n real combinations
    success: np.ndarray              # B x M, decoded label equals the truth
    real_success: np.ndarray | None  # B x M (successive): real combination recovered


def _nearest(ens: NestedLatticeEnsemble, which, X) -> np.ndarray:
    """lattice.nearest_points on the points along X's last axis, whatever
    its leading axes: one stacked block of rows."""
    return lattice.nearest_points(ens, which, X.reshape(-1, ens.n)).reshape(X.shape)


def _mod_rows(ens: NestedLatticeEnsemble, which, X) -> np.ndarray:
    return X - _nearest(ens, which, X)


def _dither_sum(coeffs, dithers):
    # summed from int 0 in user order: the reports depend on this rounding
    return sum(int(coeffs[l]) * dithers[l] for l in range(len(dithers)))


def _lemire_symbols(words: np.ndarray, p: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The symbols Generator.integers(0, p, width) makes from the 64-bit
    Philox words it reads, per row of a B x ceil(width / 2) block of words.

    Each word gives its low 32-bit half, then its high half, and half u
    gives symbol (u p) >> 32 (Lemire's bounded-integer rule).  numpy refuses
    a half whose (u p) mod 2^32 falls below 2^32 mod p and reads another, so
    a row with a refused half does not hold that stream's symbols.  Returns
    the B x width int64 symbols and, per row, whether a half was refused.
    """
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=-1).reshape(len(words), -1)
    scaled = halves[:, :width] * np.uint64(p)
    refused = np.any(scaled & 0xFFFFFFFF < (1 << 32) % p, axis=1)
    return (scaled >> 32).astype(np.int64), refused


def _list_state(bitgen: np.random.Philox) -> dict:
    """bitgen.state with its counter, key and buffer as lists of Python
    ints.  The state setter reads them entry by entry, and reads a list's
    entry in about half the time of an array's; the state it sets is the
    same."""
    state = bitgen.state
    inner = state["state"]
    inner["counter"], inner["key"] = inner["counter"].tolist(), inner["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    return state


def _draw_block(ens: NestedLatticeEnsemble, antennas: int, master_seed: int,
                start: int, stop: int) -> tuple[list, np.ndarray, np.ndarray]:
    """The random draws of trials start .. stop - 1, trial i's from its own
    stream, a Philox keyed by (master_seed, i): every user's message, every
    user's dither cube, then the noise.

    Returns the messages (one B x (k_F,l - k_C,l) block per user), the
    dither cubes (B x L x n uniforms on [0, 1)) and the unit noise
    (B x antennas x n standard normals).  One Philox serves the block: each
    trial sets its state to that of a fresh Philox keyed by
    (master_seed, i), counter 0, empty buffer, no buffered 32-bit half,
    from one state dict of lists (_list_state) whose key it rewrites.
    integers takes the W message symbols from 32-bit halves of the stream's
    64-bit words, low half first, so ceil(W / 2) words hold them unless a
    half is refused; random takes one whole word per cube entry,
    (word >> 11) 2^-53, and never reads a buffered upper half.  So each
    trial reads its ceil(W / 2) + L n words in one random_raw call and its
    noise in one standard_normal call, and the symbols (_lemire_symbols)
    and cubes are made from the words over the whole block.  A trial with a
    refused half (odds about p / 2^32 per symbol) is drawn again by the
    three Generator calls.
    """
    B, n, users = stop - start, ens.n, ens.num_users
    widths = [kf - kc for kc, kf in ens.levels]
    width = sum(widths)
    half = (width + 1) // 2
    bitgen = np.random.Philox(key=np.array(
        [master_seed & 0xFFFFFFFFFFFFFFFF, start], dtype=np.uint64))
    state = _list_state(bitgen)
    key = state["state"]["key"]
    rng = np.random.Generator(bitgen)
    words = np.empty((B, half + users * n), dtype=np.uint64)
    noise = np.empty((B, antennas, n))
    for j in range(B):
        key[1] = start + j
        bitgen.state = state
        words[j] = bitgen.random_raw(words.shape[1])
        rng.standard_normal(out=noise[j])
    symbols, refused = _lemire_symbols(words[:, :half], ens.p, width)
    cubes = ((words[:, half:] >> 11) * 2.0 ** -53).reshape(B, users, n)
    for j in np.flatnonzero(refused):
        key[1] = start + j
        bitgen.state = state
        symbols[j] = rng.integers(0, ens.p, size=width, dtype=np.int64)
        rng.random(out=cubes[j])
        rng.standard_normal(out=noise[j])
    ends = np.cumsum(widths)
    messages = [symbols[:, end - w:end] for w, end in zip(widths, ends)]
    return messages, cubes, noise


def _dither_step(ens: NestedLatticeEnsemble, coarse, lam, dither):
    """Channel inputs (lam + dither) mod the user's coarse lattice, and the
    shifted points: the codewords moved by the coarse point that step
    absorbed, the coset representatives the decoder recovers."""
    moved = lam + dither
    absorbed = _nearest(ens, coarse, moved)
    return moved - absorbed, lam - absorbed


def _encode_users(ens: NestedLatticeEnsemble, users: list, messages: list, dithers):
    """The encoders of users (0-based) that share one coarse lattice, on
    their B x (k_F,l - k_C,l) message blocks and U x B x n dithers.  One
    quantizer call reduces the dithers and the codewords (the messages laid
    at each user's signal levels, lifted in one lattice.label_inverses
    call) mod that lattice, and one more makes the channel inputs and the
    shifted points (_dither_step).  Returns the reduced dithers, the
    codewords, the inputs and the shifted points, U x B x n each."""
    coarse = ("C", users[0] + 1)
    labels = [lattice.zero_padded_labels(ens, u + 1, m) for u, m in zip(users, messages)]
    points = lattice.label_inverses(ens, np.concatenate(labels)).reshape(dithers.shape)
    dithers, lam = _mod_rows(ens, coarse, np.stack([dithers, points]))
    return (dithers, lam, *_dither_step(ens, coarse, lam, dithers))


def _check_cosets(ens: NestedLatticeEnsemble, labels, messages) -> None:
    """Each user's shifted-point labels (B x k per user) hold its messages at
    its signal levels and zeros past them."""
    for u, (lab, msg) in enumerate(zip(labels, messages)):
        if not lattice.cosets_contain(ens, u + 1, lab, msg).all():
            raise AssertionError(f"user {u + 1}'s shifted point left its message coset")


def _encode_block(ens: NestedLatticeEnsemble, A: np.ndarray, messages: list,
                  cubes: np.ndarray) -> tuple:
    """Dithers and encoding of a block: each user's dithers (its cubes
    scaled by gamma, mod its coarse lattice), the channel inputs X
    (B x L x n), each user's codewords and shifted points (B x n), and the
    true labels (B x M x k) of the rows of A.  The users of each coarse
    lattice are encoded together (_encode_users), and one labeling call
    takes every user's shifted points."""
    B, users, n = cubes.shape[0], ens.num_users, ens.n
    X = np.empty((B, users, n))
    dithers, codewords, shifted = (np.empty((users, B, n)) for _ in range(3))
    groups = {}
    for u, (kc, _) in enumerate(ens.levels):
        groups.setdefault(kc, []).append(u)
    for group in groups.values():
        dither, lam, x, point = _encode_users(
            ens, group, [messages[u] for u in group], cubes[:, group].swapaxes(0, 1) * ens.gamma)
        dithers[group], codewords[group], shifted[group] = dither, lam, point
        X[:, group] = x.swapaxes(0, 1)
    labels = _labels(ens, shifted)
    _check_cosets(ens, labels, messages)
    return (X, list(dithers), list(codewords), list(shifted),
            lattice.label_combinations(ens, A, labels.swapaxes(0, 1)))


def _recover_real(ens: NestedLatticeEnsemble, ytilde, mu, dithers, a) -> np.ndarray:
    """The real combinations a^T X of a block (B x n, or C x B x n for C
    noise levels), rebuilt from their mod-coarse residues mu and the
    equalized ytilde."""
    chi = _mod_rows(ens, "C", mu + _dither_sum(a, dithers))
    return _nearest(ens, "C", ytilde - chi) + chi


def _labels(ens: NestedLatticeEnsemble, points) -> np.ndarray:
    """lattice.linear_labels on the points along the last axis, whatever its
    leading axes: one call, ... x n points in, ... x k labels out."""
    return lattice.linear_labels(ens, points.reshape(-1, ens.n)).reshape(
        *points.shape[:-1], ens.k)


def _decode_block(config: TrialConfig, dithers: list, Y: list) -> tuple:
    """Decode a block of trials at each of a config's C noise levels.

    Y holds one received block (B x antennas x n) per level, in the config's
    order.  Each level is equalized on its own; the quantizing, mod-coarse,
    labeling and real-recovery steps then take the C levels' rows as one
    stacked (C B) x n block.  A parallel config also stacks its rows: one
    quantizer call per distinct fine table over the rows that target it,
    one mod-coarse call and one labeling call over all live rows.  The
    kernel answers each row on its own, so every level's outputs are
    bitwise those of a one-level, one-row config.

    Returns the decoded labels (C x B x M x k) and, for a successive config,
    per row of A: the recovered real combinations, the quantized reduced
    combinations nu and the combinations mu they give back after the Z_p
    cancellation is inverted (C x B x n each).  A parallel config returns
    None for the three lists.
    """
    ens, A, targets, equalizers = (config.ensemble, config.A, config.targets,
                                   config.level_equalizers)
    C, (B, _, n), M = len(Y), Y[0].shape, A.shape[0]
    decoded = np.zeros((C, B, M, ens.k), dtype=np.int64)
    if config.mode == "parallel":
        live = [m for m, target in enumerate(targets) if target is not None]
        t = np.empty((len(live), C, B, n))
        tables = {}
        for i, m in enumerate(live):
            dither = _dither_sum(A[m], dithers)
            for c, (level, Yc) in enumerate(zip(equalizers, Y)):
                t[i, c] = np.matmul(level[m], Yc) - dither
            tables.setdefault(ens.prefix_len(("F", targets[m])), []).append(i)
        for rows in tables.values():
            t[rows] = _nearest(ens, ("F", targets[live[rows[0]]]), t[rows])
        decoded[:, :, live] = np.moveaxis(_labels(ens, _mod_rows(ens, "C", t)), 0, 2)
        return decoded, None, None, None
    Lbar, Lbar_inv = config.cancellation
    reals, nus, mus = [], [], []
    for m, target in enumerate(targets):
        ytilde = np.empty((C, B, n))
        for c, (level, Yc) in enumerate(zip(equalizers, Y)):
            b, coeffs = level[m]
            y = np.matmul(b, Yc)
            for i in range(min(m, coeffs.size)):
                if coeffs[i] != 0.0:
                    y = y + float(coeffs[i]) * reals[i][c]
            ytilde[c] = y
        t = ytilde
        for i in range(m):
            if Lbar[m, i]:
                t = t + int(Lbar[m, i]) * mus[i]
        t = t - _dither_sum(A[m], dithers)
        if target is None:
            nu = np.zeros((C, B, n))
        else:
            nu = _mod_rows(ens, "C", _nearest(ens, ("F", target), t))
        nus.append(nu)
        acc = nu
        for i in range(m):
            if Lbar_inv[m, i]:
                acc = acc + int(Lbar_inv[m, i]) * nus[i]
        mu = _mod_rows(ens, "C", acc)
        mus.append(mu)
        decoded[:, :, m] = _labels(ens, mu)
        reals.append(_recover_real(ens, ytilde, mu, dithers, A[m]))
    return decoded, reals, nus, mus


def _real_success(ens: NestedLatticeEnsemble, A: np.ndarray, reals: list,
                  X: np.ndarray) -> np.ndarray:
    """C x B x M: whether each recovered real combination (C x B x n per
    row) equals A[m] @ X, by np.allclose's test on each trial.  A[m] @ X is
    computed once for all levels."""
    atol = 1e-6 * max(1.0, ens.gamma)
    ok = np.empty((*reals[0].shape[:2], A.shape[0]), dtype=bool)
    for m, real in enumerate(reals):
        exact = np.matmul(A[m], X)
        ok[:, :, m] = np.all(np.abs(real - exact) <= atol + 1e-5 * np.abs(exact), axis=-1)
    return ok


def _powers(X: np.ndarray) -> np.ndarray:
    # the stacked matmul takes the 1-D dot path, so each x @ x rounds as a
    # lone x @ x does; the mean power is printed in full
    return np.matmul(X[:, :, None, :], X[:, :, :, None])[:, :, 0, 0] / X.shape[2]


def _block_pass(config: TrialConfig, start: int, stop: int) -> TrialBlock:
    """Trials start .. stop - 1 of the config at each of its C noise levels:
    drawn, encoded, received as H X plus each level's noise and decoded, in
    one pass.  The equalizers are built (or a zero-power user refused)
    before anything is drawn."""
    ens, ch, A = config.ensemble, config.ch, config.A
    config.level_equalizers  # read for its refusal, before the draws
    messages, cubes, noise = _draw_block(ens, ch.num_antennas, config.master_seed,
                                         start, stop)
    X, dithers, codewords, shifted, truth = _encode_block(ens, A, messages, cubes)
    HX = np.matmul(ch.H, X)
    decoded, reals, _, _ = _decode_block(config, dithers,
                                         [HX + noise * s for s in config.levels])
    return TrialBlock(messages=messages, dithers=dithers, codewords=codewords,
                      shifted_points=shifted, inputs=X, powers=_powers(X),
                      true_labels=truth, decoded=decoded, decoded_real=reals,
                      success=np.all(decoded == truth, axis=3),
                      real_success=None if reals is None else _real_success(ens, A, reals, X))


def run_block(config: TrialConfig, start: int, stop: int) -> TrialBlock:
    """Trials start .. stop - 1 of a one-level config, every intermediate
    kept."""
    _one_level(config)
    block = _block_pass(config, start, stop)
    return replace(block, decoded=block.decoded[0], decoded_real=_first(block.decoded_real),
                   success=block.success[0],
                   real_success=None if block.real_success is None else block.real_success[0])


# The per-point functions: one-row (B = 1) calls of the block stages.

def _rows(points) -> np.ndarray:
    """A point, or each point of a list, as a row of a block."""
    return np.atleast_2d(np.asarray(points, dtype=float))


def _first(blocks) -> list | None:
    """Row 0 of each block of a list; None stays None."""
    return None if blocks is None else [block[0] for block in blocks]


def encode(ens: NestedLatticeEnsemble, user: int, message, dither) -> tuple[np.ndarray, np.ndarray]:
    """Map a message to its lattice codeword and dithered channel input."""
    dither = _rows(dither)[None]
    # a dither that passes the check is its own reduction, bit for bit: a
    # nonzero coarse point would move it by far more than the tolerance
    reduced, lam, x, _ = _encode_users(ens, [user - 1], [_exact.int_row(message)], dither)
    if not np.allclose(reduced, dither, atol=1e-9):
        raise ValueError("dither must lie in the user's coarse Voronoi region")
    return lam[0, 0], x[0, 0]


def shifted_point(ens: NestedLatticeEnsemble, user: int, lam, dither) -> np.ndarray:
    """The coset representative the decoder actually recovers: the codeword
    shifted by the coarse point absorbed during dithering."""
    return _dither_step(ens, ("C", user), _rows(lam), _rows(dither))[1][0]


def true_combinations(ens: NestedLatticeEnsemble, A, shifted_points,
                      messages=None) -> list[np.ndarray]:
    """Ground-truth labels u_m of the integer combinations of shifted points."""
    labels = lattice.linear_labels(ens, _rows(shifted_points))
    if messages is not None:
        _check_cosets(ens, labels[:, None], map(_exact.int_row, messages))
    return list(lattice.label_combinations(ens, A, labels[None])[0])


def recover_real_combo(ens: NestedLatticeEnsemble, ytilde, mu, dithers, a) -> np.ndarray:
    """Rebuild the real combination a^T X from its mod-coarse residue.

    Exact whenever the effective noise of ytilde stays inside the coarsest
    Voronoi region; silently wrong otherwise (trial bookkeeping flags it).
    """
    a = _exact.int_matrix(a).ravel()
    return _recover_real(ens, _rows(ytilde), _rows(mu),
                         [_rows(d) for d in dithers], a)[0]


def _decode_point(ens: NestedLatticeEnsemble, Y, ch: ChannelInstance, A, dithers,
                  **fields):
    """One received Y (antennas x n) through _decode_block: the config the
    arguments make, and the stage's outputs at its one level."""
    config = TrialConfig(ensemble=ens, ch=ch, A=A, **fields)
    _one_level(config)
    decoded, reals, nus, mus = _decode_block(config, [_rows(d) for d in dithers],
                                             [_rows(Y)[None]])
    return config, (decoded[0], _first(reals), _first(nus), _first(mus))


def decode_parallel(ens: NestedLatticeEnsemble, Y, ch: ChannelInstance, A,
                    dithers, equalizers="optimal", noise_std: float = 1.0):
    """Independent per-row decoding; returns (labels, flags) where a False
    flag marks a row whose coefficients all vanish mod p."""
    config, (decoded, *_) = _decode_point(ens, Y, ch, A, dithers, mode="parallel",
                                          equalizers=equalizers, noise_std=noise_std)
    return list(decoded[0]), [target is not None for target in config.targets]


def decode_successive(ens: NestedLatticeEnsemble, Y, ch: ChannelInstance, A,
                      mapping, dithers, equalizers="optimal",
                      noise_std: float = 1.0, with_internals: bool = False):
    """Full successive chain: equalize with decoded real combinations,
    cancel algebraically over Z_p, quantize, then invert the cancellation.

    Returns (labels, real_combos, live_flags); with_internals adds a dict of
    intermediate quantities (reduced combinations, cancellation matrices).
    """
    config, (decoded, reals, nus, mus) = _decode_point(
        ens, Y, ch, A, dithers, mode="successive", mapping=mapping,
        equalizers=equalizers, noise_std=noise_std)
    out = (list(decoded[0]), _first(reals), [target is not None for target in config.targets])
    if with_internals:
        Lbar, Lbar_inv = config.cancellation
        return (*out, {"nu": _first(nus), "mu": _first(mus), "Lbar": Lbar, "Lbar_inv": Lbar_inv})
    return out


def run_single_trial(config: TrialConfig, index: int) -> TrialRecord:
    """Trial `index` of the config, every intermediate kept."""
    block = run_block(config, index, index + 1)
    return TrialRecord(
        messages=_first(block.messages), dithers=_first(block.dithers),
        codewords=_first(block.codewords), inputs=block.inputs[0],
        shifted_points=_first(block.shifted_points),
        true_labels=list(block.true_labels[0]), decoded_labels=list(block.decoded[0]),
        decoded_real=_first(block.decoded_real), success=block.success[0].tolist(),
        real_success=None if block.real_success is None else block.real_success[0].tolist())


def run_campaign(config: TrialConfig, trials: int, ci_level: float = 0.95) -> list[dict]:
    """One report per noise level of the config, in its order: run_trials
    at each level, sharing the draws, the encoding and the decoding passes.

    Trial i's draws depend only on (master_seed, i), and its dithers,
    channel inputs and true labels only on those draws, so each block of
    BLOCK_TRIALS trials is drawn and encoded once and decoded at all levels,
    in one _block_pass.  Each report equals the one run_trials gives for a
    config of its level alone.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError("trials must be an integer >= 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials = {trials}; desk scale caps a campaign at {MAX_TRIALS}")
    ens, levels = config.ensemble, config.levels
    errors = np.zeros((len(levels), config.A.shape[0]), dtype=np.int64)
    real_errors = np.zeros_like(errors)
    powers = np.empty((ens.num_users, trials))
    for start in range(0, trials, BLOCK_TRIALS):
        stop = min(trials, start + BLOCK_TRIALS)
        block = _block_pass(config, start, stop)
        powers[:, start:stop] = block.powers.T
        errors += np.count_nonzero(~block.success, axis=1)
        if block.real_success is not None:
            real_errors += np.count_nonzero(~block.real_success, axis=1)
    power = [float(np.mean(powers[u])) for u in range(ens.num_users)]
    return [_report(config.mode, s, trials, errors[c], real_errors[c], power, ci_level)
            for c, s in enumerate(levels)]


def _report(mode: str, noise_std: float, trials: int, errors, real_errors, power,
            ci_level: float) -> dict:
    combos = []
    for m, errs in enumerate(errors.tolist()):
        lo, hi = wilson_interval(errs, trials, ci_level)
        entry = {"combination_index": m + 1, "errors": errs, "trials": trials,
                 "rate_estimate": errs / trials, "ci_low": lo, "ci_high": hi}
        if mode == "successive":
            entry["real_errors"] = int(real_errors[m])
        combos.append(entry)
    return {"noise_std": noise_std, "trials": trials,
            "combinations": combos, "mean_power_per_user": list(power)}


def run_trials(config: TrialConfig, trials: int, ci_level: float = 0.95) -> dict:
    """Deterministic report of a one-level config: per-combination error
    counts and confidence intervals plus per-user empirical power.

    Trial i depends only on (master_seed, i), so the report is the same for
    any block size.  This is run_campaign's one report.
    """
    _one_level(config)
    return run_campaign(config, trials, ci_level)[0]
