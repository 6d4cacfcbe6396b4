"""Occupation basis of the fixed-up-arrow sectors on a periodic ring.

A basis state is the list of up-arrow positions on sites 1..N; the sector
with n up arrows has dimension C(N, n).  The basis ordering is
colexicographic on position lists (ascending occupation bitmask) and fixed
globally, so every matrix or coefficient dump is reproducible bit for bit.
This module is the one place that knows the state encoding: a sector holds
its states as position and bitmask arrays, ``site`` reads one site's bit of
every state, and ``ranks`` is the one route from states back to their
indices; ``toggled_ranks`` and ``swapped_ranks`` give the indices of the
states one site flip or one bond swap away, by one walk over the sites that
carries each state's running colex sums, and ``orbits`` the translation orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

import numpy as np

__all__ = ["SectorIndex", "enumerate_sector"]


@dataclass(frozen=True, eq=False)
class SectorIndex:
    """Colexicographically ordered basis of the n-up-arrow sector on N sites.

    The basis is held as arrays only, one row per state: ``positions`` (the
    (dim, n) up-arrow positions) and ``masks`` (the occupation bitmasks as
    (dim, ceil(N/64)) uint64 words, site i at bit (i - 1) % 64 of word
    (i - 1) // 64), whose bits ``site`` reads out one site at a time.
    Colex order is ascending occupation bitmask.
    """

    N: int
    n: int
    positions: np.ndarray = field(init=False, repr=False)
    masks: np.ndarray = field(init=False, repr=False)
    _colex_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        N, n = self.N, self.n
        dim = comb(N, n)
        # lex order read backwards, on sites mirrored by i -> N + 1 - i, is colex
        lex = np.fromiter(chain.from_iterable(combinations(range(1, N + 1), n)),
                          dtype=np.int64, count=dim * n).reshape(dim, n)
        positions = N + 1 - lex[::-1, ::-1]
        masks = np.zeros((dim, (N + 63) // 64), dtype=np.uint64)
        rows = np.arange(dim)
        for column in positions.T:  # index scratch of dim entries, not dim * n
            bit = column.astype(np.uint64) - 1  # site x is bit x - 1 of the row's words
            masks[rows, bit >> 6] |= np.uint64(1) << (bit & 63)
        # C(q, k) for k <= n + 2, clipped where no rank of sectors n and n +- 1 reaches;
        # toggled_ranks reads column j + 2 of every state, and keeps it where j < n
        cap = max(dim, comb(N, n + 1), comb(N, n - 1) if n else 0)
        table = [[min(comb(q, k), cap) for k in range(n + 3)] for q in range(N)]
        table = np.array(table, dtype=np.int64).reshape(N, n + 3)
        # read-only: consumers share one sector across blocks
        for name, value in (("positions", positions), ("masks", masks), ("_colex_table", table)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.positions.shape[0]

    def site(self, i: int) -> np.ndarray:
        """(dim,) bool: which states occupy site i, read off its bit of ``masks``."""
        word, bit = divmod(i - 1, 64)
        return (self.masks[:, word] & (1 << bit)).astype(bool)

    def ranks(self, positions: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of a (rows, n) array of increasing positions.

        Colex rank in the combinatorial number system: sum_k C(x_k - 1, k).
        """
        return self._colex_table[positions - 1, np.arange(1, self.n + 1)].sum(axis=1)

    def toggled_ranks(self) -> np.ndarray:
        """(N, dim) ranks of the states with one site toggled, row i - 1 for site i.

        An empty site i is filled, giving a state of sector n + 1; an occupied
        one is emptied, giving one of sector n - 1.  A walk over the sites
        keeps each state's count j of occupied sites passed and two colex
        sums: the terms of x_1..x_j plus those of x_(j+1)..x_n one index up
        (``fill``) or one down (``empty``).  Filling i gives
        fill + C(i - 1, j + 1), emptying i = x_(j+1) gives empty - C(i - 1, j),
        and passing it moves its term C(i - 1, j + 1) into the kept ones.
        """
        table, dim = self._colex_table, self.dim
        fill, empty, j = np.zeros((3, dim), dtype=np.int64)
        for k, x in enumerate(self.positions.T, 1):
            fill += table[x - 1, k + 1]
            empty += table[x - 1, k - 1]
        out = np.empty((self.N, dim), dtype=np.int64)
        for toggled, occupied, row in zip(out, map(self.site, range(1, self.N + 1)), table):
            below, here = row.take(j), row[1:].take(j)
            toggled[:] = np.where(occupied, empty - below, fill + here)
            fill += (here - row[2:].take(j)) * occupied
            empty += (here - below) * occupied
            j += occupied
        return out

    def swapped_ranks(self) -> np.ndarray:
        """(N, dim) ranks of the states with the arrows of sites i and i + 1 swapped.

        Row i - 1 is the bond (i, i + 1), site 1 following site N; where the
        two arrows agree the entry is dim.  A walk over the open bonds keeps
        the count j of occupied sites left of i: the moving particle keeps its
        index k = j + 1, so the rank moves by C(i, k) - C(i - 1, k) = C(i - 1, j),
        up when it moves right.  On the bond (N, 1) a particle moving 1 -> N
        lowers x_2..x_n's terms and adds C(N - 1, n); N -> 1 raises x_1..x_(n-1)'s.
        """
        N, n, dim, table = self.N, self.n, self.dim, self._colex_table
        states, j = np.arange(dim), np.zeros(dim, dtype=np.int64)
        first = left = self.site(1)
        out = np.full((N, dim), dim)
        for bond, right, row in zip(out, map(self.site, range(2, N + 1)), table):
            sign = np.subtract(left, right, dtype=np.int8)  # +1 hops right, -1 left, 0 no hop
            np.copyto(bond, states + sign * row.take(j), where=sign != 0)
            j += left
            left = right
        shift = np.where(first, -1, 1)
        # every term moves by shift; take back x_1 = 1's C(0, 0) or x_n = N's C(N - 1, n + 1)
        wrapped = np.where(first, table[N - 1, n] - 1, -table[N - 1, n + 1])
        for k, x in enumerate(self.positions.T, 1):
            wrapped += table[x - 1, k + shift]
        np.copyto(out[-1], wrapped, where=left != first)  # left is site N now
        return out

    def orbits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Translation orbits: the representatives, and each state's orbit, shift t and period p.

        T moves every arrow one site on, site N to site 1.  ``reps`` holds each
        orbit's lowest rank r, ascending; state s lies in orbit ``orbit[s]``,
        is T^t(r) for r = reps[orbit[s]] with t < p, and p divides N.  T is a
        rank permutation; following it N - 1 times visits each orbit N / p times.
        """
        N, dim = self.N, self.dim
        shifted, wraps = self.positions + 1, self.site(N)
        # only a last position N wraps, to 1: its row rolls by one and stays sorted
        shifted[wraps] = np.roll(self.positions[wraps], 1, axis=1) % N + 1
        step = self.ranks(shifted)
        states = image = rep = np.arange(dim)
        back, fixed = np.zeros(dim, dtype=np.int64), np.ones(dim, dtype=np.int64)
        for u in range(1, N):
            image = step[image]  # T^u(s)
            lower = image < rep
            rep = np.where(lower, image, rep)
            back[lower] = u  # rep = T^back(s)
            fixed += image == states
        period = N // fixed
        reps = np.flatnonzero(rep == states)
        return reps, np.searchsorted(reps, rep), -back % period, period


def enumerate_sector(N: int, n: int) -> SectorIndex:
    """Index all C(N, n) occupation vectors of the sector, in the global ordering."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if n < 0 or n > N:
        raise ValueError(f"particle count {n} outside 0..{N}")
    return SectorIndex(N, n)
