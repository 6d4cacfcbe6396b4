"""Occupation basis of the fixed-up-arrow sectors on a periodic ring.

A basis state is the list of up-arrow positions on sites 1..N; the sector
with n up arrows has dimension C(N, n).  The basis ordering is
colexicographic on position lists (ascending occupation bitmask) and fixed
globally, so every matrix or coefficient dump is reproducible bit for bit.
This module is the one place that knows the state encoding: a sector holds
its states as position, occupancy and bitmask arrays, and ``ranks`` is the
one route from states back to their indices.
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
    (dim, n) up-arrow positions), ``occupied`` (the (dim, N) occupancy
    table, column i-1 for site i) and ``masks`` (the occupation bitmasks as
    (dim, ceil(N/64)) uint64 words, lowest sites first, site i at bit i-1).
    Colex order is ascending occupation bitmask.
    """

    N: int
    n: int
    positions: np.ndarray = field(init=False, repr=False)
    occupied: np.ndarray = field(init=False, repr=False)
    masks: np.ndarray = field(init=False, repr=False)
    _colex_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        N, n = self.N, self.n
        dim = comb(N, n)
        # lex order read backwards, on sites mirrored by i -> N + 1 - i, is colex
        lex = np.fromiter(chain.from_iterable(combinations(range(1, N + 1), n)),
                          dtype=np.int64, count=dim * n).reshape(dim, n)
        positions = N + 1 - lex[::-1, ::-1]
        occupied = np.zeros((dim, N), dtype=bool)
        rows = np.arange(dim)
        for column in positions.T:  # index scratch of dim entries, not dim * n
            occupied[rows, column - 1] = True
        packed = np.packbits(occupied, axis=1, bitorder="little")
        masks = np.zeros((dim, 8 * ((N + 63) // 64)), dtype=np.uint8)
        masks[:, :packed.shape[1]] = packed
        table = [[min(comb(q, k), dim) for k in range(1, n + 1)] for q in range(N)]
        table = np.array(table, dtype=np.int64).reshape(N, n)
        # read-only: consumers share one sector across blocks
        for name, value in (("positions", positions), ("occupied", occupied),
                            ("masks", masks.view("<u8")), ("_colex_table", table)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.positions.shape[0]

    def ranks(self, positions: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of a (rows, n) array of increasing positions.

        Colex rank in the combinatorial number system: sum_k C(x_k - 1, k).
        Table entries above dim are clipped; no state of the sector uses them.
        """
        return self._colex_table[positions - 1, np.arange(self.n)].sum(axis=1)


def enumerate_sector(N: int, n: int) -> SectorIndex:
    """Index all C(N, n) occupation vectors of the sector, in the global ordering."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if n < 0 or n > N:
        raise ValueError(f"particle count {n} outside 0..{N}")
    return SectorIndex(N, n)
