"""Occupation basis of the fixed-up-arrow sectors on a periodic ring.

A basis state is the list of up-arrow positions on sites 1..N; the sector
with n up arrows has dimension C(N, n).  The basis ordering is
colexicographic on position lists and fixed globally, so every matrix or
coefficient dump is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = [
    "OccupationVector",
    "SectorIndex",
    "enumerate_sector",
    "interlaced",
    "mismatch_count",
    "arrow_flip",
]


@dataclass(frozen=True)
class OccupationVector:
    """Strictly increasing up-arrow positions in 1..ring_size."""

    positions: tuple[int, ...]
    ring_size: int

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        if self.ring_size < 1:
            raise ValueError("ring_size must be at least 1")
        if len(self.positions) > self.ring_size:
            raise ValueError("more up arrows than ring sites")
        prev = 0
        for p in self.positions:
            if p <= prev:
                raise ValueError("positions must be strictly increasing")
            prev = p
        if prev > self.ring_size:
            raise ValueError(f"position {prev} outside ring of size {self.ring_size}")

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def mask(self) -> int:
        """Bit i-1 set iff site i carries an up arrow."""
        m = 0
        for p in self.positions:
            m |= 1 << (p - 1)
        return m

    def spins(self) -> np.ndarray:
        """Spin pattern over sites 1..N: +1 on occupied sites, -1 elsewhere."""
        s = -np.ones(self.ring_size, dtype=np.int64)
        for p in self.positions:
            s[p - 1] = 1
        return s


def _chain(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    # a1 <= b1 <= a2 <= b2 <= ... <= an <= bn
    n = len(a)
    for k in range(n):
        if a[k] > b[k]:
            return False
        if k + 1 < n and b[k] > a[k + 1]:
            return False
    return True


def interlaced(x: OccupationVector, y: OccupationVector) -> bool:
    """Whether the two states admit the alternating inequality chain either way round.

    Equal states are interlaced (every inequality holds with equality).
    """
    if x.ring_size != y.ring_size:
        raise ValueError("ring size mismatch")
    if len(x) != len(y):
        return False
    return _chain(x.positions, y.positions) or _chain(y.positions, x.positions)


def mismatch_count(x: OccupationVector, y: OccupationVector) -> int:
    """Number of ring sites where the two spin patterns differ."""
    if x.ring_size != y.ring_size:
        raise ValueError("ring size mismatch")
    return (x.mask ^ y.mask).bit_count()


def arrow_flip(x: OccupationVector) -> OccupationVector:
    """Complement state: every arrow reversed."""
    present = set(x.positions)
    rest = tuple(p for p in range(1, x.ring_size + 1) if p not in present)
    return OccupationVector(rest, x.ring_size)


def _colex(limit: int, n: int):
    # yields n-subsets of {1..limit} ordered by their reversed tuples
    if n == 0:
        yield ()
        return
    for last in range(n, limit + 1):
        for head in _colex(last - 1, n - 1):
            yield head + (last,)


@dataclass(frozen=True, eq=False)
class SectorIndex:
    """Colexicographically ordered basis of the n-up-arrow sector on N sites."""

    N: int
    n: int
    states: tuple[OccupationVector, ...] = field(init=False, repr=False)
    _rank: dict = field(init=False, repr=False)
    _positions: np.ndarray = field(init=False, repr=False)
    _colex_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = tuple(
            OccupationVector(pos, self.N) for pos in _colex(self.N, self.n)
        )
        object.__setattr__(self, "states", states)
        object.__setattr__(
            self, "_rank", {s.positions: k for k, s in enumerate(states)}
        )
        pos = np.array([s.positions for s in states], dtype=np.int64)
        pos = pos.reshape(len(states), self.n)
        object.__setattr__(self, "_positions", pos)
        table = [[min(comb(q, k), len(states)) for k in range(1, self.n + 1)]
                 for q in range(self.N)]
        table = np.array(table, dtype=np.int64).reshape(self.N, self.n)
        object.__setattr__(self, "_colex_table", table)

    @property
    def dim(self) -> int:
        return len(self.states)

    def state_of(self, k: int) -> OccupationVector:
        return self.states[k]

    def index_of(self, x) -> int:
        key = x.positions if isinstance(x, OccupationVector) else tuple(x)
        return self._rank[key]

    def positions_matrix(self) -> np.ndarray:
        """(dim, n) array of up-arrow positions, one row per basis state."""
        return self._positions

    def ranks(self, positions: np.ndarray) -> np.ndarray:
        """Basis indices of the rows of a (rows, n) array of increasing positions.

        Colex rank in the combinatorial number system: sum_k C(x_k - 1, k).
        Table entries above dim are clipped; no state of the sector uses them.
        """
        return self._colex_table[positions - 1, np.arange(self.n)].sum(axis=1)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)


def enumerate_sector(N: int, n: int) -> SectorIndex:
    """Index all C(N, n) occupation vectors of the sector, in the global ordering."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if n < 0 or n > N:
        raise ValueError(f"particle count {n} outside 0..{N}")
    sector = SectorIndex(N, n)
    assert sector.dim == comb(N, n)
    return sector
