"""Plane-wave eigenvector assembly and the transfer-eigenvalue formulas.

The candidate eigenvector on the n-particle sector has coefficients

    psi(x) = sum over permutations sigma of  A(sigma) * prod_k z_{sigma(k)}^{x_k}

with A(sigma) the signed product of the cached pair factors
e^{i p_k} S(p_k, p_l) / |S(p_k, p_l)|.  Every permutation takes each
unordered pair once and |S(y, x)| = |S(x, y)|, so dividing by the modulus
scales psi by the one positive constant 1 / prod_{k<l} |S(p_k, p_l)|;
without it the norm of psi spans tens of decades across c.  Production
evaluation is a dynamic program over subsets of momenta (Held-Karp style):
extending a partial permutation by one value multiplies its amplitude by a
factor that depends on the set already placed, not on its order, so the
n!-term sum costs O(2^n n) per coefficient.
The direct product form is kept as ``amplitude`` and serves as the test
oracle.

The predicted transfer eigenvalue has two branches: a product formula when
no momentum vanishes, and a derivative-corrected formula when one momentum
is (numerically) zero.  Branch selection is by the zero-momentum flag of the
MomentumSet, never by catching the singular-factor error.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import numpy as np

from . import caps
from .basis import SectorIndex
from .errors import CapExceededError, SectorMismatchError, SingularMomentumError
from .functions import (
    ZERO_MOMENTUM_TOL,
    L_factor,
    M_factor,
    MomentumSet,
    scattering_kernel,
    theta,
    theta_partial_1,
)

__all__ = [
    "AmplitudeEvaluator",
    "SpectralPrediction",
    "IdentityReport",
    "amplitude",
    "build_psi",
    "full_prediction",
    "eigenvalue_regular",
    "eigenvalue_singular",
    "transfer_eigenvalue",
    "bethe_residual",
    "identity_suite",
]


@dataclass(frozen=True, eq=False)
class SpectralPrediction:
    """Coefficients over a sector basis plus the predicted eigenvalues."""

    psi: np.ndarray
    lam: complex | None
    energy: float | None
    psi_norm: float
    singular: bool


class AmplitudeEvaluator:
    """Permutation amplitudes for a fixed momentum set.

    pair_factors[k, l] = e^{i p_k} S(p_k, p_l) / |S(p_k, p_l)|, of modulus 1.
    The amplitude of a permutation (a tuple over 0..n-1) is its signature
    times the product of pair_factors over ascending position pairs.
    """

    def __init__(self, momenta: MomentumSet):
        cap = caps.perm_cap()
        if momenta.n > cap:
            raise CapExceededError(
                f"{momenta.n} momenta exceed the subset-sum cap {cap}"
            )
        self.momenta = momenta
        self.n = momenta.n
        p = momenta.as_array()
        self.z = np.exp(1j * p)
        kernel = scattering_kernel(p[:, None], p[None, :], momenta.anisotropy)
        kernel = np.asarray(kernel).reshape(self.n, self.n)
        self.pair_factors = self.z[:, None] * (kernel / np.abs(kernel))


def _signature(sigma) -> int:
    inversions = 0
    n = len(sigma)
    for k in range(n):
        for l in range(k + 1, n):
            if sigma[k] > sigma[l]:
                inversions += 1
    return -1 if inversions & 1 else 1


def amplitude(sigma, ev: AmplitudeEvaluator) -> complex:
    """Direct product form of A(sigma); used as the oracle for the fast path."""
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(ev.n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{ev.n - 1}")
    amp = complex(_signature(sigma))
    B = ev.pair_factors
    for k in range(ev.n):
        for l in range(k + 1, ev.n):
            amp *= B[sigma[k], sigma[l]]
    return amp


def _subset_sum(ev: AmplitudeEvaluator, X: np.ndarray, zpow: np.ndarray) -> np.ndarray:
    """psi at every row of the (rows, n) position matrix X by a subset DP.

    F[S] sums A(sigma) prod_k z_{sigma(k)}^{x_k} over the orderings sigma of
    the value set S placed on the first |S| positions.  Appending value j
    after S multiplies by (-1)^{#{i in S: i > j}} prod_{i in S} B[i, j]
    (a factor fixed by S alone) and by z_j^{x_{|S|+1}}, so
    F[S | j] += F[S] * factor[S, j] * z_j^{x_{|S|+1}}.  Layers run by |S|,
    subsets by ascending bitmask and j ascending within each: a fixed
    accumulation order, so dumped vectors reproduce bit for bit.
    """
    n = ev.n
    B = ev.pair_factors
    # factor[S][j] for j not in S, built from factor[S without its top bit]
    factor = [np.ones(n, dtype=complex)]
    for S in range(1, 1 << n):
        i = S.bit_length() - 1
        row = factor[S & ~(1 << i)] * B[i]
        row[:i] = -row[:i]
        factor.append(row)
    layer = {0: np.ones(X.shape[0], dtype=complex)}
    for k in range(n):
        waves = zpow[:, X[:, k]]
        nxt = {}
        for S, F in layer.items():
            for j in range(n):
                if S >> j & 1:
                    continue
                term = F * (factor[S][j] * waves[j])
                T = S | 1 << j
                if T in nxt:
                    nxt[T] += term
                else:
                    nxt[T] = term
        layer = nxt
    return layer[(1 << n) - 1]


def build_psi(sector: SectorIndex, ev: AmplitudeEvaluator) -> SpectralPrediction:
    """Coefficient vector over the whole sector, in the canonical basis order."""
    if sector.n != ev.n:
        raise SectorMismatchError("sector particle number differs from momentum count")
    zpow = ev.z[:, None] ** np.arange(sector.N + 1)[None, :]
    coeffs = _subset_sum(ev, sector.positions, zpow)
    norm = float(np.linalg.norm(coeffs))
    return SpectralPrediction(
        psi=coeffs,
        lam=None,
        energy=None,
        psi_norm=norm,
        singular=ev.momenta.zero_index is not None,
    )


def eigenvalue_regular(m: MomentumSet) -> complex:
    """Product-formula eigenvalue; valid only when no momentum is near zero."""
    if m.zero_index is not None:
        raise SingularMomentumError(
            "zero momentum present; use eigenvalue_singular"
        )
    a = m.anisotropy
    z = np.exp(1j * m.as_array())
    return complex(np.prod(L_factor(z, a)) + np.prod(M_factor(z, a)))


def eigenvalue_singular(m: MomentumSet, ring_size: int) -> complex:
    """Derivative-corrected eigenvalue for a momentum set containing zero.

    The product formula diverges as any momentum approaches zero; the correct
    value keeps the derivative terms that would otherwise cancel:

        [2 + c^2 (N-1) + c^2 sum_{j != l} d1 theta(0, p_j)] * prod_{j != l} M(z_j).
    """
    if m.zero_index is None:
        raise ValueError("no zero momentum; use eigenvalue_regular")
    a = m.anisotropy
    others = np.array(
        [p for i, p in enumerate(m.momenta) if i != m.zero_index], dtype=float
    )
    if others.size and np.min(np.abs(others)) < ZERO_MOMENTUM_TOL:
        raise SingularMomentumError("more than one momentum is near zero")
    c2 = a.c * a.c
    bracket = 2.0 + c2 * (ring_size - 1)
    if others.size:
        bracket += c2 * float(np.sum(theta_partial_1(0.0, others, a)))
        tail = complex(np.prod(M_factor(np.exp(1j * others), a)))
    else:
        tail = 1.0 + 0.0j
    return bracket * tail


def transfer_eigenvalue(m: MomentumSet, ring_size: int) -> tuple[complex, bool]:
    """Predicted eigenvalue with the branch picked by the zero-momentum flag."""
    if m.zero_index is None:
        return eigenvalue_regular(m), False
    return eigenvalue_singular(m, ring_size), True


def bethe_residual(m: MomentumSet, ring_size: int) -> np.ndarray:
    """Exponential-form residuals exp(iNp_j) - (-1)^(n-1) exp(-i sum_k theta(p_j, p_k))."""
    p = m.as_array()
    n = m.n
    if n == 0:
        return np.zeros(0, dtype=complex)
    phases = np.asarray(theta(p[:, None], p[None, :], m.anisotropy))
    phases = phases.reshape(n, n).sum(axis=1)
    sign = -1.0 if n % 2 == 0 else 1.0
    return np.exp(1j * ring_size * p) - sign * np.exp(-1j * phases)


@dataclass(frozen=True)
class IdentityReport:
    """Worst relative deviations of the amplitude-ratio identities."""

    samples: int
    adjacent_max: float   # adjacent transposition vs. the scattering-phase ratio
    boundary_max: float   # first/last transposition vs. the N-th power phase
    cyclic_max: float     # cyclic shift vs. z^{-N} (needs solved momenta)


def identity_suite(m: MomentumSet, ring_size: int, samples: int = 20,
                   seed: int = 0) -> IdentityReport:
    """Probe the amplitude-ratio identities on random permutations.

    The adjacent-transposition ratio holds for any momenta; the cyclic and
    boundary ratios additionally assume the momenta solve the boundary
    equations, so call this on solver output.
    """
    ev = AmplitudeEvaluator(m)
    n = ev.n
    if n == 0:
        return IdentityReport(0, 0.0, 0.0, 0.0)
    p = m.as_array()
    a = m.anisotropy
    rng = random.Random(seed)
    adjacent = boundary = cyclic = 0.0
    for _ in range(samples):
        sigma = list(range(n))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        base = amplitude(sigma, ev)

        rotated = sigma[1:] + sigma[:1]
        expected = ev.z[sigma[0]] ** (-ring_size)
        cyclic = max(cyclic, abs(amplitude(rotated, ev) / base / expected - 1.0))

        if n >= 2:
            j = rng.randrange(n - 1)
            swapped = list(sigma)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            expected = -np.exp(1j * theta(p[sigma[j]], p[sigma[j + 1]], a))
            adjacent = max(
                adjacent, abs(amplitude(swapped, ev) / base / expected - 1.0)
            )

            ends = list(sigma)
            ends[0], ends[-1] = ends[-1], ends[0]
            first, last = sigma[0], sigma[-1]
            expected = -np.exp(1j * ring_size * (p[last] - p[first])) * np.exp(
                1j * theta(p[last], p[first], a)
            )
            boundary = max(
                boundary, abs(amplitude(ends, ev) / base / expected - 1.0)
            )
    return IdentityReport(samples, adjacent, boundary, cyclic)


def full_prediction(sector: SectorIndex, ev: AmplitudeEvaluator) -> SpectralPrediction:
    """psi plus both predicted eigenvalues (transfer and spin chain)."""
    from .xxz import energy_prediction

    base = build_psi(sector, ev)
    lam, singular = transfer_eigenvalue(ev.momenta, sector.N)
    energy = energy_prediction(ev.momenta, sector.N, ev.momenta.anisotropy.delta)
    assert singular == base.singular
    return dataclasses.replace(base, lam=lam, energy=energy)
