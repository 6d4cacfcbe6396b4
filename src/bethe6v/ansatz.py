"""Plane-wave eigenvector assembly and the transfer-eigenvalue formulas.

The candidate eigenvector on the n-particle sector has coefficients

    psi(x) = sum over permutations sigma of  A(sigma) * prod_k z_{sigma(k)}^{x_k}

with A(sigma) the signed product of the pair factors
e^{i p_k} S(p_k, p_l) / |S(p_k, p_l)| (``pair_factors``).  Every permutation takes each
unordered pair once and |S(y, x)| = |S(x, y)|, so dividing by the modulus
scales psi by the one positive constant 1 / prod_{k<l} |S(p_k, p_l)|;
without it the norm of psi spans tens of decades across c.  Production
evaluation is a dynamic program over subsets of momenta (Held-Karp style):
extending a partial permutation by one value multiplies its amplitude by a
factor that depends on the set already placed, not on its order, so the
n!-term sum costs O(2^n n) per coefficient.  ``build_psi`` runs it on one
representative per translation orbit, about dim / N rows, and fills in the
other states by translation covariance, which holds for momenta that solve
the Bethe equations.  The DP over every row, ``_subset_sum``, is the orbit
route's test oracle, and the direct product form ``amplitude`` is the DP's.

The predicted transfer eigenvalue has two branches: a product formula when
no momentum vanishes, and a derivative-corrected formula when one momentum
is (numerically) zero.  ``transfer_eigenvalue`` picks the branch by counting
the momenta below ZERO_MOMENTUM_TOL, never by catching the singular-factor
error.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

from .basis import SectorIndex
from .errors import DomainError, SectorMismatchError, SingularMomentumError
from .functions import (
    ZERO_MOMENTUM_TOL,
    L_factor,
    M_factor,
    MomentumSet,
    _phase_sums,
    scattering_kernel,
    theta,
    theta_partial_1,
)
from .oracle import _norm
from .xxz import energy_prediction

__all__ = [
    "SpectralPrediction",
    "IdentityReport",
    "pair_factors",
    "amplitude",
    "build_psi",
    "full_prediction",
    "transfer_eigenvalue",
    "bethe_residual",
    "identity_suite",
]

_CHUNK_ELEMENTS = 1 << 20  # scratch budget (complex entries) for one DP layer


@dataclass(frozen=True, eq=False)
class SpectralPrediction:
    """Coefficients over a sector basis plus the predicted eigenvalues."""

    psi: np.ndarray
    lam: complex
    energy: float
    psi_norm: float
    singular: bool


def pair_factors(m: MomentumSet) -> np.ndarray:
    """B[k, l] = e^{i p_k} S(p_k, p_l) / |S(p_k, p_l)|, of modulus 1.

    The amplitude of a permutation (a tuple over 0..n-1) is its signature
    times the product of B over ascending position pairs.
    """
    p = m.as_array()
    kernel = scattering_kernel(p[:, None], p[None, :], m.anisotropy)  # (n, n), also at n = 0
    return np.exp(1j * p)[:, None] * (kernel / np.abs(kernel))


def _signature(sigma) -> int:
    inversions = 0
    n = len(sigma)
    for k in range(n):
        for l in range(k + 1, n):
            if sigma[k] > sigma[l]:
                inversions += 1
    return -1 if inversions & 1 else 1


def amplitude(sigma, B: np.ndarray) -> complex:
    """Direct product form of A(sigma) from ``pair_factors`` B; the fast path's oracle."""
    n = len(B)
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{sigma} is not a permutation of 0..{n - 1}")
    amp = complex(_signature(sigma))
    for k in range(n):
        for l in range(k + 1, n):
            amp *= B[sigma[k], sigma[l]]
    return amp


def _subset_sum(B: np.ndarray, X: np.ndarray, zpow: np.ndarray) -> np.ndarray:
    """psi at every row of the (rows, n) position matrix X by a subset DP.

    F[S] sums A(sigma) prod_k z_{sigma(k)}^{x_k} over the orderings sigma of
    the value set S placed on the first |S| positions.  Appending value j
    after S multiplies by (-1)^{#{i in S: i > j}} prod_{i in S} B[i, j]
    (a factor fixed by S alone) and by z_j^{x_{|S|+1}}, so
    F[S | j] += F[S] * factor[S, j] * z_j^{x_{|S|+1}}.  Layers run by |S|,
    subsets by ascending bitmask and j ascending within each: a fixed
    accumulation order, so dumped vectors reproduce bit for bit.
    """
    n = len(B)
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


def build_psi(sector: SectorIndex, m: MomentumSet) -> np.ndarray:
    """Coefficient vector over the whole sector, in the canonical basis order.

    For momenta that solve the Bethe equations, summing the equations gives
    psi(T^t r) = e^{iPt} psi(r) with P = sum_j p_j (Sandvik, AIP Conf. Proc.
    1297, 135, 2010, section 4).  So the DP runs only on the orbit
    representatives, about dim / N rows, and every state takes its
    representative's value times that phase; other momenta do not get the
    permutation sum.  ``solve`` builds psi only from a converged,
    non-degenerate root.  The DP runs on chunks of rows, so its widest
    layer, C(n, n/2) vectors of one chunk's rows, holds about
    _CHUNK_ELEMENTS complex entries.
    """
    if sector.n != m.n:
        raise SectorMismatchError("sector particle number differs from momentum count")
    B = pair_factors(m)
    p = m.as_array()
    zpow = np.exp(1j * p)[:, None] ** np.arange(sector.N + 1)[None, :]
    reps, orbit, shift, _ = sector.orbits()
    X = sector.positions[reps]
    rows = max(1, _CHUNK_ELEMENTS // math.comb(m.n, m.n // 2))
    psi_reps = np.concatenate([_subset_sum(B, X[lo:lo + rows], zpow)
                               for lo in range(0, reps.size, rows)])
    return psi_reps[orbit] * np.exp(1j * p.sum() * shift)


def transfer_eigenvalue(m: MomentumSet, ring_size: int) -> tuple[complex, bool]:
    """Predicted transfer eigenvalue, and whether the zero-momentum branch gave it.

    With no momentum near zero it is the product formula
    prod_j L(z_j) + prod_j M(z_j).  That formula diverges as a momentum p_l
    approaches zero; the value there keeps the derivative terms that would
    otherwise cancel:

        [2 + c^2 (N-1) + c^2 sum_{j != l} d1 theta(0, p_j)] * prod_{j != l} M(z_j).

    A momentum counts as zero below ZERO_MOMENTUM_TOL; two or more such
    momenta raise ``SingularMomentumError``, and a value past the double
    range raises ``DomainError``.
    """
    a, p = m.anisotropy, m.as_array()
    zero = np.abs(p) < ZERO_MOMENTUM_TOL
    if np.count_nonzero(zero) > 1:
        raise SingularMomentumError("more than one momentum is near zero")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if singular := bool(zero.any()):
            others, c2 = p[~zero], a.c * a.c
            d1 = float(np.sum(theta_partial_1(0.0, others, a)))
            bracket = 2.0 + c2 * (ring_size - 1) + c2 * d1
            lam = bracket * complex(np.prod(M_factor(np.exp(1j * others), a)))
        else:
            z = np.exp(1j * p)
            lam = complex(np.prod(L_factor(z, a)) + np.prod(M_factor(z, a)))
    if not cmath.isfinite(lam):
        raise DomainError(f"predicted transfer eigenvalue overflows at c = {a.c!r}")
    return lam, singular


def bethe_residual(m: MomentumSet, ring_size: int) -> np.ndarray:
    """Exponential-form residuals exp(iNp_j) - (-1)^(n-1) exp(-i sum_k theta(p_j, p_k))."""
    p = m.as_array()
    n = m.n
    if n == 0:
        return np.zeros(0, dtype=complex)
    sign = -1.0 if n % 2 == 0 else 1.0
    with np.errstate():
        np.setbufsize(16)  # the least ufunc buffer (see the functions module)
        return np.exp(1j * ring_size * p) - sign * np.exp(-1j * _phase_sums(p, m.anisotropy))


@dataclass(frozen=True)
class IdentityReport:
    """Worst relative deviations of the amplitude-ratio identities."""

    samples: int
    adjacent_max: float   # adjacent transposition vs. the scattering-phase ratio
    boundary_max: float   # first/last transposition vs. the N-th power phase
    cyclic_max: float     # cyclic shift vs. z^{-N} (needs solved momenta)


def identity_suite(m: MomentumSet, ring_size: int, samples: int = 20) -> IdentityReport:
    """Probe the amplitude-ratio identities on random permutations.

    The adjacent-transposition ratio holds for any momenta; the cyclic and
    boundary ratios additionally assume the momenta solve the boundary
    equations, so call this on solver output.
    """
    n = m.n
    if n == 0:
        return IdentityReport(0, 0.0, 0.0, 0.0)
    B = pair_factors(m)
    p = m.as_array()
    z = np.exp(1j * p)
    a = m.anisotropy
    rng = random.Random(0)  # a fixed seed: reports repeat byte for byte
    adjacent = boundary = cyclic = 0.0
    for _ in range(samples):
        sigma = list(range(n))
        rng.shuffle(sigma)
        sigma = tuple(sigma)
        base = amplitude(sigma, B)

        rotated = sigma[1:] + sigma[:1]
        expected = z[sigma[0]] ** (-ring_size)
        cyclic = max(cyclic, abs(amplitude(rotated, B) / base / expected - 1.0))

        if n >= 2:
            j = rng.randrange(n - 1)
            swapped = list(sigma)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            expected = -np.exp(1j * theta(p[sigma[j]], p[sigma[j + 1]], a))
            adjacent = max(
                adjacent, abs(amplitude(swapped, B) / base / expected - 1.0)
            )

            ends = list(sigma)
            ends[0], ends[-1] = ends[-1], ends[0]
            first, last = sigma[0], sigma[-1]
            expected = -np.exp(1j * ring_size * (p[last] - p[first])) * np.exp(
                1j * theta(p[last], p[first], a)
            )
            boundary = max(
                boundary, abs(amplitude(ends, B) / base / expected - 1.0)
            )
    return IdentityReport(samples, adjacent, boundary, cyclic)


def full_prediction(sector: SectorIndex, m: MomentumSet) -> SpectralPrediction:
    """psi plus both predicted eigenvalues (transfer and spin chain)."""
    psi = build_psi(sector, m)
    lam, singular = transfer_eigenvalue(m, sector.N)
    energy = energy_prediction(m, sector.N, m.anisotropy.delta)
    return SpectralPrediction(psi, lam, energy, _norm(psi), singular)
