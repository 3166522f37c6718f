"""Desk-scale nested lattice ensembles from length-n linear codes over Z_p.

A generator matrix G (k_F x n over Z_p) defines a chain of codes via its row
prefixes; lifting each code c -> (gamma/p) * (c + p Z^n) gives a chain of
nested lattices.  User l's coarse/fine pair is the prefix pair
(k_C,l, k_F,l).  Quantization searches all p^k codewords of the underlying
code, over the enumerated table for small codes and over an implicit tree
read from G for large ones.  That caps the usable sizes (enforced below) but
keeps everything exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _exact, _kernels, _zp
from ._kernels import CodeTable, nearest_codeword_point, nearest_codeword_points

MAX_N = 10
MAX_P = 13
MAX_KF = 6
# build_ensemble's draws of G before it gives up on a full-rank one
GENERATOR_DRAWS = 200
# Rows of the largest quantizer table, p^k_F.  nearest_points also sizes its
# slices by it, and by MAX_TRIE_NODES on tables the kernel searches as an
# implicit tree, to at least MIN_SLICE queries (see slice_length).
MAX_CODEWORDS = 20000
MAX_TRIE_NODES = 2 ** 20
MIN_SLICE = 4
# gamma lies in [p 2^-1022, 2^500].  At the low end gamma/p, the step of
# every lattice point's grid, is a normal float.  At the high end
# (gamma/2)^2 <= 2^998, so a sum of up to 2^24 squares of size gamma/2
# stays below 2^1022: a point of the cube [-gamma/2, gamma/2]^n has squared
# norm at most n (gamma/2)^2, the quantizer's search thresholds stay within
# a few times that, and a campaign's power total adds at most
# simulator.MAX_TRIALS (10^6) trial powers of at most (gamma/2)^2.
GAMMA_MAX = 2.0 ** 500


@dataclass
class NestedLatticeEnsemble:
    n: int
    p: int
    gamma: float
    levels: tuple[tuple[int, int], ...]  # (k_C,l , k_F,l) per user
    G: np.ndarray                        # k_F x n over Z_p
    _tables: dict = field(default_factory=dict, repr=False)
    # _zp.prefix_echelons of G: the RREF, pivots and transform of each
    # prefix, from one pass over G's rows
    _echelons: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.levels = _desk_levels(self.n, self.p, self.levels)
        _zp.require_prime(self.p)
        G = _exact.int_matrix(self.G) % self.p
        self.G = G
        low = self.p * 2.0 ** -1022
        if not low <= self.gamma <= GAMMA_MAX:  # False for NaN
            raise ValueError(f"gamma must be finite and positive, in [p 2^-1022, 2^500] = "
                             f"[{low:.6g}, {GAMMA_MAX:.6g}] for p = {self.p}")
        kf = self.k_F
        if self.p ** kf > MAX_CODEWORDS:
            raise ValueError(f"p^k_F = {self.p ** kf} exceeds {MAX_CODEWORDS}")
        if kf > self.n:
            raise ValueError("k_F must not exceed the blocklength")
        if G.shape != (kf, self.n):
            raise ValueError(f"G must be {kf} x {self.n}")
        for kc, kfl in self.levels:
            if not 0 <= kc <= kfl <= kf:
                raise ValueError("levels must satisfy 0 <= k_C,l <= k_F,l <= k_F")
        self._echelons = _zp.prefix_echelons(G, self.p)
        for k in self.required_prefixes():
            if k >= len(self._echelons):
                raise ValueError(f"prefix of {k} rows of G is rank deficient mod p")

    @property
    def num_users(self) -> int:
        return len(self.levels)

    # the level sizes are read once: every block of labels reads them again
    @functools.cached_property
    def k_C(self) -> int:
        return min(kc for kc, _ in self.levels)

    @functools.cached_property
    def k_F(self) -> int:
        return max(kf for _, kf in self.levels)

    @functools.cached_property
    def k(self) -> int:
        return self.k_F - self.k_C

    def required_prefixes(self) -> list[int]:
        sizes = {kc for kc, _ in self.levels} | {kf for _, kf in self.levels}
        return sorted(s for s in sizes if s > 0)

    def user_levels(self, user) -> tuple[int, int]:
        """(k_C,l, k_F,l) of user l (1-indexed), read by _exact's integer
        rule; ValueError unless l is one of the users 1..L."""
        user = _exact._as_int(user, "user indices")
        if not 1 <= user <= self.num_users:
            raise ValueError(f"user index {user} out of range")
        return self.levels[user - 1]

    def prefix_len(self, which) -> int:
        """Prefix size of the chain lattice named by `which`.

        "C"/"F" are the coarsest/finest lattices; ("C", l) and ("F", l) are
        user l's coarse and fine lattices (1-indexed).
        """
        if which == "C":
            return self.k_C
        if which == "F":
            return self.k_F
        kind, user = which
        kc, kf = self.user_levels(user)
        if kind == "C":
            return kc
        if kind == "F":
            return kf
        raise ValueError(f"unknown lattice id {which!r}")

    def codeword_shifts(self, prefix: int) -> np.ndarray:
        """All p^prefix codewords scaled by gamma/p (rows, float64).

        Row v runs over the message vectors in lexicographic order (the last
        symbol fastest) and holds (gamma/p) (v G[:prefix] mod p).  It is the
        float table of code_table(prefix), enumerated on first access; the
        quantizer reads it only on a one-row table.
        """
        return self.code_table(prefix).shifts

    def code_table(self, prefix: int) -> CodeTable:
        """The quantizer's table of the code of G[:prefix], made on the
        first call per prefix.  It holds the reduced row echelon form and
        pivot columns of G[:prefix] mod p, over which the kernel searches
        tables of _kernels.TRIE_MIN_ROWS rows or more as an implicit tree;
        its rows in message order are enumerated only when read: as cells
        by the direct gathers on smaller tables, or by codeword_shifts."""
        if prefix not in self._tables:
            self._tables[prefix] = CodeTable(
                self.G[:prefix], self.p, self.gamma, self._echelons[prefix][:2])
        return self._tables[prefix]

    @functools.cached_property
    def G_right_inverse(self) -> np.ndarray:
        """n x k_F right inverse R of G over Z_p: a codeword c = v G has
        message vector v = c R (unique, since G has full row rank), built by
        _zp.echelon_right_inverse from the echelon pass over G."""
        _, pivots, T = self._echelons[self.k_F]
        R = np.array(_zp.echelon_right_inverse(pivots, T, self.n),
                     dtype=np.int64).reshape(self.n, self.k_F)
        R.setflags(write=False)
        return R


def _desk_levels(n: int, p: int, levels) -> tuple[tuple[int, int], ...]:
    """levels as (k_C, k_F) int pairs, read by _exact's integer rule, once
    n, p and k_F are checked against the desk-scale caps: before any work
    that grows with them (the primality test of p, a draw of G)."""
    rows = _exact.int_rows(levels)
    if not (1 <= n <= MAX_N and p <= MAX_P and max(b for _, b in rows) <= MAX_KF):
        raise ValueError(
            f"desk scale caps: n <= {MAX_N}, p <= {MAX_P}, k_F <= {MAX_KF}")
    return tuple(map(tuple, rows))


def build_ensemble(n: int, p: int, gamma: float, levels, seed: int,
                   G=None) -> NestedLatticeEnsemble:
    """Draw G uniformly (seeded) until every needed prefix is full rank.

    An explicit G skips sampling but is still validated.
    """
    levels = _desk_levels(n, p, levels)
    kf = max(b for _, b in levels)
    if G is not None:
        return NestedLatticeEnsemble(n=n, p=p, gamma=gamma, levels=levels, G=G)
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(GENERATOR_DRAWS):
        cand = rng.integers(0, p, size=(kf, n), dtype=np.int64)
        try:
            return NestedLatticeEnsemble(n=n, p=p, gamma=gamma, levels=levels, G=cand)
        except ValueError as err:
            if "rank deficient" not in str(err):
                raise
    raise RuntimeError(f"no full-rank generator found in {GENERATOR_DRAWS} draws")


def nearest_point(ens: NestedLatticeEnsemble, which, x) -> np.ndarray:
    """Exact nearest lattice point (deterministic lexicographic tie-break)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != ens.n:
        raise ValueError(f"point must have dimension {ens.n}")
    table = ens.code_table(ens.prefix_len(which))
    return nearest_codeword_point(table, x, float(ens.gamma))


def slice_length(rows: int) -> int:
    """Queries per kernel call of nearest_points for a table of `rows` rows.

    Below _kernels.TRIE_MIN_ROWS rows the direct gathers' largest buffers
    are rows x queries floats, so a slice holds MAX_CODEWORDS // rows
    queries.
    From there on the tree search keeps at most `rows` nodes per query and
    level, each a few 8-byte array entries and its forced symbols, so a
    slice holds
    MAX_TRIE_NODES // rows queries: 62 on the 16807-row table.  There a
    decode-like query costs about 5 times less in 62-query slices than in
    4-query ones, and its search keeps about 50 nodes.  Both are at least
    MIN_SLICE.
    """
    budget = MAX_CODEWORDS if rows < _kernels.TRIE_MIN_ROWS else MAX_TRIE_NODES
    return max(MIN_SLICE, budget // rows)


def nearest_points(ens: NestedLatticeEnsemble, which, X) -> np.ndarray:
    """nearest_point for each row of a B x n block, bitwise equal per row.

    Queries go to the kernel in slices of slice_length(K) rows for a K-row
    table; a block of one slice is one kernel call, whose array is returned.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != ens.n:
        raise ValueError(f"points must be rows of dimension {ens.n}")
    table = ens.code_table(ens.prefix_len(which))
    step = slice_length(table.shape[0])
    if X.shape[0] <= step:
        return nearest_codeword_points(table, X, float(ens.gamma))
    out = np.empty_like(X)
    for i in range(0, X.shape[0], step):
        out[i:i + step] = nearest_codeword_points(table, X[i:i + step], float(ens.gamma))
    return out


def mod_lattice(ens: NestedLatticeEnsemble, which, x) -> np.ndarray:
    """Quantization error x - Q(x); always lands in the Voronoi region."""
    x = np.asarray(x, dtype=float).ravel()
    return x - nearest_point(ens, which, x)


def _field_coords(ens: NestedLatticeEnsemble, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    scaled = lam * ens.p / ens.gamma
    rounded = np.rint(scaled)
    # NaN and infinite coordinates fail too; past 2^53 every float is an
    # integer, so the grid test cannot tell (and the int64 cast overflows)
    with np.errstate(invalid="ignore"):
        on_grid = (np.all(np.abs(scaled - rounded) <= 1e-6)
                   and np.all(np.abs(rounded) < 2.0 ** 53))
    if not on_grid:
        raise ValueError("point is not on the gamma/p integer grid")
    return rounded.astype(np.int64) % ens.p


def linear_label(ens: NestedLatticeEnsemble, lam) -> np.ndarray:
    """Label in Z_p^k: the trailing k coordinates of the unique message vector
    whose codeword matches the point's mod-p reduction (linear_labels of the
    one point)."""
    return linear_labels(ens, np.reshape(lam, (1, -1)))[0]


def linear_labels(ens: NestedLatticeEnsemble, lams) -> np.ndarray:
    """linear_label for each row of a B x n block of points (B x k out).

    One integer product with the right inverse of G gives the message
    vectors; the product is checked to be a codeword, so a point off the
    finest lattice raises ValueError.
    """
    lams = np.asarray(lams)
    if lams.ndim != 2 or lams.shape[1] != ens.n:
        raise ValueError(f"points must be rows of dimension {ens.n}")
    c = _field_coords(ens, lams)
    v = (c @ ens.G_right_inverse) % ens.p
    if not np.array_equal((v @ ens.G) % ens.p, c):
        raise ValueError("point is not in the finest lattice of the ensemble")
    return v[:, ens.k_C:]




# Signal levels in a label.  User l's message fills the symbols between its
# coarse level k_C,l and fine level k_F,l of a label in Z_p^k (which starts
# at k_C); the symbols below are free, and those past k_F,l are zero exactly
# on the user's fine lattice.  The block functions below take B rows in and
# give B rows out; zero_padded_label, label_inverse, coset_contains and
# label_add are their one-row views.

def _label_rows(ens: NestedLatticeEnsemble, labels) -> np.ndarray:
    labels = _exact.int_matrix(labels) % ens.p
    if labels.shape[1] != ens.k:
        raise ValueError(f"label must have length {ens.k}")
    return labels


def _message_rows(ens: NestedLatticeEnsemble, user, messages) -> tuple[np.ndarray, slice]:
    """User `user`'s B messages and the symbols of a label that hold them."""
    kc, kf = ens.user_levels(user)
    messages = _exact.int_matrix(messages) % ens.p
    if messages.shape[1] != kf - kc:
        raise ValueError(f"message for user {user} must have length {kf - kc}")
    return messages, slice(kc - ens.k_C, kf - ens.k_C)


def zero_padded_labels(ens: NestedLatticeEnsemble, user, messages) -> np.ndarray:
    """Each row of a B x (k_F,l - k_C,l) block of messages laid at user
    `user`'s signal levels, zeros elsewhere (B x k)."""
    messages, at = _message_rows(ens, user, messages)
    out = np.zeros((messages.shape[0], ens.k), dtype=np.int64)
    out[:, at] = messages
    return out


def label_inverses(ens: NestedLatticeEnsemble, labels) -> np.ndarray:
    """The lattice point of each row w of a B x k block of labels (B x n):
    the lift (gamma/p) ([0_{k_C}, w] G mod p)."""
    c = (_label_rows(ens, labels) @ ens.G[ens.k_C:]) % ens.p
    return (ens.gamma / ens.p) * c.astype(np.float64)


def in_fine_lattice(ens: NestedLatticeEnsemble, user, labels) -> np.ndarray:
    """Per row of a B x k block of labels: are its symbols past user
    `user`'s k_F,l zero, so that its points lie in the user's fine lattice?"""
    return ~_label_rows(ens, labels)[:, ens.user_levels(user)[1] - ens.k_C:].any(axis=1)


def cosets_contain(ens: NestedLatticeEnsemble, user, candidates, messages) -> np.ndarray:
    """Per row: does the candidate label (B x k) sit in user `user`'s coset of
    its message?  The leading k_C,l - k_C symbols are free ("don't care"),
    the next must equal the message, and the trailing k_F - k_F,l must be 0."""
    messages, at = _message_rows(ens, user, messages)
    candidates = _label_rows(ens, candidates)
    want = candidates.copy()  # its free symbols kept
    want[:, at] = messages
    want[:, at.stop:] = 0
    return (candidates == want).all(axis=1)


def label_combinations(ens: NestedLatticeEnsemble, A, labels) -> np.ndarray:
    """The labels of the rows of A (M x L) mod p, over blocks of L labels:
    B x L x k in, B x M x k out."""
    A = _exact.int_matrix(A)
    labels = np.asarray(labels)
    if labels.ndim != 3 or labels.shape[1:] != (A.shape[1], ens.k):
        raise ValueError(f"labels must be blocks of L = {A.shape[1]} labels of length k = {ens.k}")
    if labels.dtype != np.int64:  # int_matrix passes int64 as it is
        B, L, k = labels.shape
        labels = _exact.int_matrix(labels.reshape(B * L, k)).reshape(B, L, k)
    return np.matmul(A % ens.p, labels) % ens.p


def zero_padded_label(ens: NestedLatticeEnsemble, user, message) -> np.ndarray:
    """Message embedded at user `user`'s signal levels (zeros elsewhere)."""
    return zero_padded_labels(ens, user, _exact.int_row(message))[0]


def label_inverse(ens: NestedLatticeEnsemble, w) -> np.ndarray:
    """Lattice point with the given label: lift of G^T [0_{k_C}; w]."""
    return label_inverses(ens, _exact.int_row(w))[0]


def coset_contains(ens: NestedLatticeEnsemble, user, candidate, message) -> bool:
    """Does the candidate label sit in user `user`'s coset of the message?"""
    return bool(cosets_contain(ens, user, _exact.int_row(candidate),
                               _exact.int_row(message))[0])


def label_add(ens: NestedLatticeEnsemble, labels, coeffs) -> np.ndarray:
    """Mod-p combination sum_l coeffs[l] * labels[l] of L labels (L x k)."""
    return label_combinations(ens, _exact.int_row(coeffs), _exact.int_matrix(labels)[None])[0, 0]
