"""Anisotropy bookkeeping and the scattering-phase function stack.

The weight c fixes delta = (2 - c^2)/2 and the open momentum interval
D = (-pi + mu, pi - mu), where cos(mu) = -delta for delta in [-1, 1) and
mu = 0 for delta <= -1.  The scattering kernel

    S(x, y) = exp(-ix) + exp(iy) - 2*delta

has Re S = cos x + cos y - 2*delta > 0 throughout D x D, so the continuous
scattering phase with value 0 at the origin is obtained from principal
arguments with no winding correction.  Positivity is asserted at every
evaluation; a violation raises DomainError rather than returning a value
from an uncertified branch.

All functions broadcast over numpy arrays and return plain scalars for
scalar input.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DegenerateMomentaError, DomainError, SingularMomentumError

__all__ = [
    "Anisotropy",
    "MomentumSet",
    "scattering_kernel",
    "theta",
    "theta_partial_1",
    "L_factor",
    "M_factor",
    "ZERO_MOMENTUM_TOL",
    "DISTINCT_MOMENTUM_TOL",
]

ZERO_MOMENTUM_TOL = 1e-9      # |p| below this counts as the zero-momentum root
DISTINCT_MOMENTUM_TOL = 1e-7  # min pairwise |p_i - p_j| for a usable momentum set
_KERNEL_FLOOR = 1e-12


@dataclass(frozen=True)
class Anisotropy:
    """Derived spectral parameters of the isotropic six-vertex weight c > 0."""

    c: float
    delta: float = field(init=False)
    mu: float = field(init=False)
    domain_halfwidth: float = field(init=False)

    def __post_init__(self):
        c = float(self.c)
        if not c > 0.0:
            raise ValueError("c must be positive")
        object.__setattr__(self, "c", c)
        delta = (2.0 - c * c) / 2.0
        # cos(mu) = -delta with mu in [0, pi); at and below delta = -1 this pins mu = 0
        mu = math.acos(-delta) if delta >= -1.0 else 0.0
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "domain_halfwidth", math.pi - mu)

    def contains(self, p) -> bool:
        """Strict membership of momenta in the open interval D."""
        return bool(np.all(np.abs(p) < self.domain_halfwidth))


@dataclass(frozen=True)
class MomentumSet:
    """Distinct real momenta inside D, with the near-zero root flagged by index.

    The constructor hard-rejects momenta outside D and collisions closer than
    distinct_tol.  `relaxed` skips the distinctness check; it exists so that
    the vanishing of the predicted vector at coincident momenta can be
    exercised deliberately.
    """

    momenta: tuple[float, ...]
    anisotropy: Anisotropy
    zero_index: int | None = field(init=False)
    zero_tol: InitVar[float] = ZERO_MOMENTUM_TOL
    distinct_tol: InitVar[float] = DISTINCT_MOMENTUM_TOL
    enforce_distinct: InitVar[bool] = True

    def __post_init__(self, zero_tol, distinct_tol, enforce_distinct):
        momenta = tuple(float(p) for p in self.momenta)
        object.__setattr__(self, "momenta", momenta)
        hw = self.anisotropy.domain_halfwidth
        for p in momenta:
            if not abs(p) < hw:
                raise DomainError(f"momentum {p!r} outside the open interval (+-{hw})")
        if enforce_distinct:
            for i in range(len(momenta)):
                for j in range(i + 1, len(momenta)):
                    if abs(momenta[i] - momenta[j]) <= distinct_tol:
                        raise DegenerateMomentaError(
                            f"momenta {i} and {j} coincide within {distinct_tol}"
                        )
        zeros = [i for i, p in enumerate(momenta) if abs(p) < zero_tol]
        if enforce_distinct and len(zeros) > 1:
            raise DegenerateMomentaError("more than one near-zero momentum")
        zero_index = zeros[0] if len(zeros) == 1 else None
        object.__setattr__(self, "zero_index", zero_index)

    @classmethod
    def relaxed(cls, momenta, anisotropy, zero_tol: float = ZERO_MOMENTUM_TOL):
        return cls(momenta, anisotropy, zero_tol=zero_tol, enforce_distinct=False)

    @property
    def n(self) -> int:
        return len(self.momenta)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.momenta, dtype=float)


def _as_scalar(value):
    return value.item() if isinstance(value, np.ndarray) and value.ndim == 0 else value


def scattering_kernel(x, y, a: Anisotropy):
    """S(x, y) = exp(-ix) + exp(iy) - 2*delta; swapping arguments conjugates it."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    val = np.exp(-1j * x) + np.exp(1j * y) - 2.0 * a.delta
    return _as_scalar(val)


def _certified_kernel(x, y, a):
    """S(x, y), checked to lie in the right half-plane away from zero.

    Callers take S(y, x) as its conjugate: the two differ only in the sign
    of the imaginary part, and numpy computes them bit for bit conjugate.
    """
    s_xy = np.asarray(scattering_kernel(x, y, a))
    if np.any(s_xy.real <= 0.0):
        raise DomainError("scattering kernel left the right half-plane; branch uncertified")
    if np.any(np.abs(s_xy) < _KERNEL_FLOOR):
        raise DomainError("scattering kernel vanished; branch uncertified")
    return s_xy


def theta(x, y, a: Anisotropy):
    """Continuous scattering phase, zero at the origin.

    Defined by exp(-i*theta(x, y)) = exp(i(x-y)) * S(x, y) / S(y, x).  Since
    Re S > 0 on D x D the principal arguments already give the continuous
    branch, and S(y, x) = conj S(x, y) leaves one argument per pair:
    theta = -(x - y) - 2 arg S(x, y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    arg = np.angle(_certified_kernel(x, y, a))
    # subtracting arg twice rounds as -arg S(x, y) + arg S(y, x) did; + 0.0
    # keeps theta(x, x) at +0.0 rather than -0.0
    val = -(x - y) - arg - arg + 0.0
    return _as_scalar(val)


def theta_partial_1(x, y, a: Anisotropy):
    """Partial derivative of theta in its first argument, in closed form.

    Logarithmic differentiation of the defining relation gives

        d1 theta(x, y) = -1 + exp(-ix)/S(x, y) + exp(ix)/S(y, x),

    whose last two terms are complex conjugates: the value is
    -1 + 2 Re[exp(-ix)/S(x, y)], real exactly.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    half = (np.exp(-1j * x) / _certified_kernel(x, y, a)).real
    val = -1.0 + half + half
    return _as_scalar(val)


def L_factor(z, a: Anisotropy, zero_tol: float = ZERO_MOMENTUM_TOL):
    """Eigenvalue factor 1 + c^2 z / (1 - z); singular as z -> 1."""
    z = np.asarray(z, dtype=complex)
    one_minus = 1.0 - z
    if np.any(np.abs(one_minus) < zero_tol):
        raise SingularMomentumError(
            "z too close to 1; route through the zero-momentum eigenvalue path"
        )
    val = 1.0 + (a.c * a.c) * z / one_minus
    return _as_scalar(val)


def M_factor(z, a: Anisotropy, zero_tol: float = ZERO_MOMENTUM_TOL):
    """Eigenvalue factor 1 - c^2 / (1 - z); singular as z -> 1."""
    z = np.asarray(z, dtype=complex)
    one_minus = 1.0 - z
    if np.any(np.abs(one_minus) < zero_tol):
        raise SingularMomentumError(
            "z too close to 1; route through the zero-momentum eigenvalue path"
        )
    val = 1.0 - (a.c * a.c) / one_minus
    return _as_scalar(val)
