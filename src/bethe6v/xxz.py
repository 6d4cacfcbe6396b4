"""Periodic XXZ chain: sector blocks, the closed-form energy, commutation.

Site i of the chain contributes +delta/2 to the diagonal when the arrows at
i and i+1 agree and -delta/2 when they differ, plus an exchange hop of
weight 1 between states that differ by swapping those two arrows.  The
block is accumulated site by site, vectorized over the basis: the sector's
occupancy table gives the bond terms and its colex ranks the hop targets.
The aggregate diagonal formula (delta/2)(N - 2 * boundary count) is kept
for tests only.  The commutator with V uses the sparsity of H: at most
N + 1 nonzeros per row.
"""

from __future__ import annotations

import numpy as np

from . import caps
from .basis import SectorIndex, checked_sector
from .errors import SectorMismatchError
from .functions import MomentumSet
from .transfer import SectorMatrix

__all__ = [
    "build_hamiltonian_block",
    "energy_prediction",
    "commutator_norm",
]

_HV_ROWS = 32   # rows of HV per selection-matrix product
_TILE = 128     # square tiles compared against their transposes


def build_hamiltonian_block(N: int, n: int, delta: float,
                            sector: SectorIndex | None = None) -> SectorMatrix:
    """Sector block of the spin-chain Hamiltonian (exchange conserves n).

    A given sector is reused instead of enumerated again.
    """
    if N < 2:
        raise ValueError("chain needs N >= 2")
    sector = checked_sector(N, n, sector)
    dim = sector.dim
    caps.check_dim(dim)
    half_delta = 0.5 * float(delta)
    X, occupied = sector.positions, sector.occupied
    entries = np.zeros((dim, dim))
    diagonal = np.zeros(dim)
    for i in range(1, N + 1):
        j = i % N + 1
        agree = occupied[:, i - 1] == occupied[:, j - 1]
        diagonal += np.where(agree, half_delta, -half_delta)
        hop = np.flatnonzero(~agree)
        swapped = X[hop]
        swapped = np.where(swapped == i, j, np.where(swapped == j, i, swapped))
        # += rather than =: at N = 2 both bonds join the same pair of states
        entries[hop, sector.ranks(np.sort(swapped, axis=1))] += 1.0
    entries[np.diag_indices(dim)] += diagonal
    return SectorMatrix(N, n, dim, entries, sector, "hamiltonian")


def energy_prediction(m: MomentumSet, ring_size: int, delta: float) -> float:
    """Closed-form energy N*delta/2 - 2 sum_k (delta - cos p_k).

    Continuous through p = 0, so no branch split is needed here.
    """
    p = m.as_array()
    return float(ring_size * delta / 2.0 - 2.0 * np.sum(delta - np.cos(p)))


def commutator_norm(v: SectorMatrix, h: SectorMatrix) -> float:
    """Max absolute entry of VH - HV for two symmetric blocks of the same sector.

    H has at most N + 1 nonzeros per row (its diagonal and one hop per
    bond), so each chunk of rows of HV is a small selection matrix times the
    rows of V that the chunk touches: no dim^3 product.  Both blocks are
    symmetric, so VH = (HV)^T and the norm is the largest |HV - (HV)^T|,
    scanned tile by tile.  NaN propagates.
    """
    if (v.N, v.n) != (h.N, h.n):
        raise SectorMismatchError(
            f"blocks live in different sectors: ({v.N},{v.n}) vs ({h.N},{h.n})"
        )
    dim = v.dim
    rows, cols = np.nonzero(h.entries)
    vals = h.entries[rows, cols]
    starts = np.searchsorted(rows, np.arange(dim + 1))
    hv = np.empty_like(v.entries)
    for lo in range(0, dim, _HV_ROWS):
        hi = min(dim, lo + _HV_ROWS)
        s, e = starts[lo], starts[hi]
        touched, slot = np.unique(cols[s:e], return_inverse=True)
        select = np.zeros((hi - lo, touched.size))
        select[rows[s:e] - lo, slot] = vals[s:e]
        np.matmul(select, v.entries[touched], out=hv[lo:hi])
    worst = 0.0
    for lo in range(0, dim, _TILE):
        for lo2 in range(lo, dim, _TILE):
            upper = hv[lo:lo + _TILE, lo2:lo2 + _TILE]
            lower = hv[lo2:lo2 + _TILE, lo:lo + _TILE]
            worst = np.maximum(worst, np.max(np.abs(upper - lower.T)))
    return float(worst)
