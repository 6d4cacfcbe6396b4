"""Periodic XXZ chain: sector blocks and the closed-form energy.

Site i of the chain contributes +delta/2 to the diagonal when the arrows at
i and i+1 agree and -delta/2 when they differ, plus an exchange hop of
weight 1 between states that differ by swapping those two arrows.  The
block is accumulated site by site, vectorized over the basis: the sector's
occupancy table gives the bond terms and its colex ranks the hop targets.
"""

from __future__ import annotations

import numpy as np

from .basis import SectorIndex
from .functions import MomentumSet
from .transfer import SectorMatrix

__all__ = [
    "build_hamiltonian_block",
    "energy_prediction",
]


def build_hamiltonian_block(sector: SectorIndex, delta: float) -> SectorMatrix:
    """Sector block of the spin-chain Hamiltonian (exchange conserves n)."""
    N, dim = sector.N, sector.dim
    if N < 2:
        raise ValueError("chain needs N >= 2")
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
    return SectorMatrix(entries, sector, "hamiltonian")


def energy_prediction(m: MomentumSet, ring_size: int, delta: float) -> float:
    """Closed-form energy N*delta/2 - 2 sum_k (delta - cos p_k).

    Continuous through p = 0, so no branch split is needed here.
    """
    p = m.as_array()
    return float(ring_size * delta / 2.0 - 2.0 * np.sum(delta - np.cos(p)))
