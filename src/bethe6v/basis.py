"""Occupation basis of the fixed-up-arrow sectors on a periodic ring.

A basis state is the list of up-arrow positions on sites 1..N; the sector
with n up arrows has dimension C(N, n).  The basis ordering is
colexicographic on position lists (ascending occupation bitmask) and fixed
globally, so every matrix or coefficient dump is reproducible bit for bit.
This module is the one place that knows the state encoding: a sector holds
its states as position, occupancy and bitmask arrays, and builds an
``OccupationVector`` only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import SectorMismatchError

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

    def state_of(self, k: int) -> OccupationVector:
        """The k-th basis state, built on demand."""
        return OccupationVector(tuple(self.positions[k].tolist()), self.N)

    def index_of(self, x) -> int:
        """Basis index of a state of this sector, given as a vector or positions."""
        if not isinstance(x, OccupationVector):
            x = OccupationVector(tuple(x), self.N)
        if (x.ring_size, len(x)) != (self.N, self.n):
            raise SectorMismatchError(
                f"state with {len(x)} up arrows on {x.ring_size} sites is not in "
                f"sector ({self.N},{self.n})"
            )
        return int(self.ranks(np.array([x.positions], dtype=np.int64))[0])

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


def checked_sector(N: int, n: int, sector: SectorIndex | None = None) -> SectorIndex:
    """The given sector after checking that it is (N, n), else a fresh enumeration."""
    if sector is None:
        return enumerate_sector(N, n)
    if (sector.N, sector.n) != (N, n):
        raise SectorMismatchError(
            f"sector ({sector.N},{sector.n}) given for a ({N},{n}) block"
        )
    return sector
