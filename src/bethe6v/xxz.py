"""Periodic XXZ chain: the sector operator and the closed-form energy.

Site i of the chain contributes +delta/2 to the diagonal when the arrows at
i and i+1 agree and -delta/2 when they differ, plus an exchange hop of
weight 1 between states that differ by swapping those two arrows.
``hamiltonian_operator`` keeps the hop targets of every bond, read off the
sector's ``swapped_ranks``, and the diagonal (N - 2u) delta/2 of u hops, its
exact value rounded once: ``op @ x`` applies H, and ``op.rows`` scatters the
hops and the diagonal of any states into their rows, which fold into H's
momentum blocks and which ``dump-matrix`` writes, one chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import SectorIndex
from .errors import DomainError
from .functions import MomentumSet
from .oracle import _norm

__all__ = [
    "HamiltonianOperator",
    "hamiltonian_operator",
    "energy_prediction",
]


@dataclass(frozen=True, eq=False)
class HamiltonianOperator:
    """H on one sector: its diagonal and, per bond, each state's hop target.

    ``targets[i - 1, s]`` is the state that swapping the arrows of bond
    (i, i + 1) turns state s into, or dim where they agree (no hop).
    """

    basis: SectorIndex
    diagonal: np.ndarray = field(repr=False)
    targets: np.ndarray = field(repr=False)  # (N, dim)
    N = property(lambda self: self.basis.N)
    n = property(lambda self: self.basis.n)
    dim = property(lambda self: self.basis.dim)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        padded = np.concatenate([x, np.zeros_like(x[:1])])  # index dim reads a zero: no hop
        return (self.diagonal * x.T).T + padded[self.targets].sum(axis=0)

    def rows(self, states: np.ndarray) -> np.ndarray:
        """H's rows at the given states of its sector, (k, dim) for k states."""
        rows = np.zeros((states.size, self.dim))
        bonds, k = np.nonzero(self.targets[:, states] < self.dim)
        # add.at rather than +=: at N = 2 both bonds join the same pair of states
        np.add.at(rows, (k, self.targets[bonds, states[k]]), 1.0)
        rows[np.arange(states.size), states] += self.diagonal[states]
        return rows

    def frobenius(self) -> float:
        """||H||_F = hypot(||diagonal||, sqrt(hops)), each hop an entry of 1.

        At N = 2 both bonds join the same pair of states, so each of those
        entries is 2 and its square counts twice per hop.
        """
        hops = int(np.count_nonzero(self.targets < self.dim)) * (2 if self.N == 2 else 1)
        return math.hypot(_norm(self.diagonal), math.sqrt(hops))


def hamiltonian_operator(sector: SectorIndex, delta: float) -> HamiltonianOperator:
    """H on a sector (exchange conserves n), as its diagonal and per-bond hops."""
    if sector.N < 2:
        raise ValueError("chain needs N >= 2")
    targets = sector.swapped_ranks()
    hops = np.count_nonzero(targets < sector.dim, axis=0)
    with np.errstate(over="ignore"):  # an overflow is refused below
        diagonal = (sector.N - 2 * hops) * (0.5 * float(delta))
    if not np.isfinite(diagonal).all():
        raise DomainError(f"Hamiltonian diagonal overflows at delta = {delta!r}")
    return HamiltonianOperator(sector, diagonal, targets)


def energy_prediction(m: MomentumSet, ring_size: int, delta: float) -> float:
    """Closed-form energy N*delta/2 - 2 sum_k (delta - cos p_k).

    Continuous through p = 0, so no branch split is needed here.  delta is
    halved before N multiplies it, which is exact, so only an E that itself
    passes the double range overflows, and it raises ``DomainError``.
    """
    p = m.as_array()
    energy = float(ring_size * (delta / 2.0) - 2.0 * np.sum(delta - np.cos(p)))
    if not math.isfinite(energy):
        raise DomainError(f"predicted energy overflows at delta = {delta!r}")
    return energy
