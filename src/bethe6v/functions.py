"""Anisotropy bookkeeping and the scattering-phase function stack.

The weight c fixes delta = (2 - c^2)/2 and the open momentum interval
D = (-pi + mu, pi - mu), where cos(mu) = -delta for delta in [-1, 1) and
mu = 0 for delta <= -1.  The scattering kernel

    S(x, y) = exp(-ix) + exp(iy) - 2*delta

has Re S = cos x + cos y - 2*delta > 0 throughout D x D, so the continuous
scattering phase with value 0 at the origin is obtained from principal
arguments with no winding correction.  theta and its partial certify every
kernel they use: since rounding is monotone, fl(fl(min cos x + min cos y)
- 2*delta) bounds every Re S from below in O(n) on an n x n grid, and only
when that bound falls below the kernel floor 1e-12 is each entry checked
(Re S > 0 and |S| >= 1e-12).  A violation, or a NaN from a non-finite
momentum, raises DomainError rather than returning a value from an
uncertified branch.

The solver's O(n^2) passes read S by blocks of whole rows instead:
`_kernel_blocks` writes each block, at most `_BLOCK_ELEMENTS` entries unless
one row is longer, into a scratch set from `_scratch` and certifies it by
its own rows' smallest cos x.  The passes compute theta or its partial in
place there, by the formulas of `theta` and `theta_partial_1` in the same
order, so every block equals those functions' rows bit for bit.

S has one form in every pass: its parts Re S = fl(fl(cos x + cos y) -
2*delta) and Im S = fl(-sin x + sin y), written by `_kernel` as two
contiguous real arrays, the public complex kernel's parts bit for bit.
theta comes from them by `_theta_from_parts` (numpy's arctan2 takes about
two thirds of the time on contiguous arrays that it takes on the strided
parts of a complex one), d1 theta by `_partial_from_parts` with real
arithmetic alone, and |S|, for the solver's rounding floor and the
per-entry check, is np.hypot of the parts.

`solver.solve` and `ansatz.bethe_residual` run their passes with numpy's
least ufunc buffer, 16 elements, set once per call inside np.errstate(),
which restores the caller's size.  A broadcast over rows of a few hundred
entries then runs row by row, about 4 times faster than through the
default buffer of 8192, and every value, sums included, stays bit for bit
the same.

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
    "grid_suite",
    "ZERO_MOMENTUM_TOL",
    "DISTINCT_MOMENTUM_TOL",
]

ZERO_MOMENTUM_TOL = 1e-9      # |p| below this counts as the zero-momentum root
DISTINCT_MOMENTUM_TOL = 1e-7  # min pairwise |p_i - p_j| for a usable momentum set
_KERNEL_FLOOR = 1e-12
_BLOCK_ELEMENTS = 1 << 16  # kernel entries per block of rows in an O(n^2) pass


@dataclass(frozen=True)
class Anisotropy:
    """Derived spectral parameters of the isotropic six-vertex weight c > 0.

    A c whose square overflows a double raises ``DomainError``: delta, the
    eigenvalue factors and every weight of V are made from c^2.
    """

    c: float
    delta: float = field(init=False)
    mu: float = field(init=False)
    domain_halfwidth: float = field(init=False)

    def __post_init__(self):
        c = float(self.c)
        if not c > 0.0:
            raise ValueError("c must be positive")
        if not math.isfinite(c * c):
            raise DomainError(f"transfer weight c^2 overflows at c = {c!r}")
        object.__setattr__(self, "c", c)
        delta = (2.0 - c * c) / 2.0
        # cos(mu) = -delta with mu in [0, pi); at and below delta = -1 this pins mu = 0
        mu = math.acos(-delta) if delta >= -1.0 else 0.0
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "domain_halfwidth", math.pi - mu)


@dataclass(frozen=True)
class MomentumSet:
    """Distinct real momenta inside D.

    The constructor hard-rejects momenta outside D and collisions closer than
    DISTINCT_MOMENTUM_TOL.  `relaxed` skips the distinctness check; it exists
    so that the vanishing of the predicted vector at coincident momenta can
    be exercised deliberately.
    """

    momenta: tuple[float, ...]
    anisotropy: Anisotropy
    enforce_distinct: InitVar[bool] = True

    def __post_init__(self, enforce_distinct):
        momenta = tuple(float(p) for p in self.momenta)
        object.__setattr__(self, "momenta", momenta)
        hw = self.anisotropy.domain_halfwidth
        for p in momenta:
            if not abs(p) < hw:
                raise DomainError(f"momentum {p!r} outside the open interval (+-{hw})")
        values = np.asarray(momenta, dtype=float)
        # two momenta coincide only if two neighbours in sorted order do
        if enforce_distinct and np.any(np.diff(np.sort(values)) <= DISTINCT_MOMENTUM_TOL):
            for i in range(values.size):  # name the first pair (i, j), i < j, in index order
                close = np.flatnonzero(np.abs(values[i + 1:] - values[i]) <= DISTINCT_MOMENTUM_TOL)
                if close.size:
                    raise DegenerateMomentaError(f"momenta {i} and {i + 1 + close[0]} coincide "
                                                 f"within {DISTINCT_MOMENTUM_TOL}")

    @classmethod
    def relaxed(cls, momenta, anisotropy):
        return cls(momenta, anisotropy, enforce_distinct=False)

    @property
    def n(self) -> int:
        return len(self.momenta)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.momenta, dtype=float)


def _as_scalar(value):
    return value.item() if isinstance(value, np.ndarray) and value.ndim == 0 else value


def _log_sum_exp(logs) -> float:
    """log sum_k exp(logs[k]), taken relative to the largest term."""
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _kernel(ex, ey, a, out):
    """The parts of S = ex + ey - 2*delta from ex = exp(-ix) and ey = exp(iy),
    written into out[0] and out[1] of a real array, and a lower bound on
    every Re S.

    Re S = fl(fl(cos x + cos y) - 2*delta) and Im S = fl(-sin x + sin y), from
    the cosines and sines of ex and ey: the parts of `scattering_kernel`'s
    complex S bit for bit, but contiguous.  Returns (Re S, Im S, bound).

    The bound costs O(len ex + len ey): rounding is monotone, so
    fl(fl(min cos x + min cos y) - 2*delta) is at most every Re S.  It is NaN
    when a cosine is.
    """
    two_delta = 2.0 * a.delta
    low = ex.real.min(initial=np.inf) + ey.real.min(initial=np.inf) - two_delta
    re = np.subtract(np.add(ex.real, ey.real, out=out[0, ...]), two_delta, out=out[0, ...])
    return re, np.add(ex.imag, ey.imag, out=out[1, ...]), low


def _exponentials(x, y):
    """exp(-ix) and exp(iy), the two terms S(x, y) adds."""
    return np.exp(-1j * np.asarray(x, dtype=float)), np.exp(1j * np.asarray(y, dtype=float))


def scattering_kernel(x, y, a: Anisotropy):
    """S(x, y) = exp(-ix) + exp(iy) - 2*delta; swapping arguments conjugates it."""
    return _as_scalar(np.add(*_exponentials(x, y)) - 2.0 * a.delta)


def _certified_kernel(ex, ey, a, out):
    """The parts of S from exp(-ix) and exp(iy) (`_kernel`), checked to lie in
    the right half-plane away from zero.

    A lower bound on Re S at or past the kernel floor certifies every entry
    at once; only below it is each entry checked, Re S > 0 and
    np.hypot(Re S, Im S) >= the floor, and a NaN fails that check.  Callers
    take S(y, x) as its conjugate: the two differ only in the sign of the
    imaginary part, which numpy computes bit for bit negated.
    """
    re, im, low = _kernel(ex, ey, a, out)
    if not low >= _KERNEL_FLOOR:
        if not np.all(re > 0.0):
            raise DomainError("scattering kernel left the right half-plane; branch uncertified")
        if np.any(np.hypot(re, im) < _KERNEL_FLOOR):
            raise DomainError("scattering kernel vanished; branch uncertified")
    return re, im


def _scratch(rows: int, n: int):
    """Buffers for a pass over rows x n kernel entries in blocks of whole rows:
    one (4, block rows, n) real array, 4 doubles per entry, whose block rows
    are as many as `_BLOCK_ELEMENTS` entries hold, at most the pass's but at
    least one.  Planes 0 and 1 take Re S and Im S, and 2 and 3 are free."""
    return np.empty((4, max(1, min(rows, _BLOCK_ELEMENTS // max(n, 1))), n))


def _kernel_blocks(x: np.ndarray, y: np.ndarray, a: Anisotropy, scratch=None):
    """Certified S(x_j, y_k) over consecutive blocks of rows j.

    Yields (rows, ex, re, im, u, v) for the rows x[rows], rows a slice: ex is
    their exp(-ix) as a column, re and im the parts of their kernel
    (`_kernel`), and u and v free buffers in the same shape, all four
    planes of the scratch set.  Every block overwrites the last.  Each block
    is certified on its own, by its rows' smallest cos x and the smallest
    cos y of all of y.
    """
    planes = _scratch(x.size, y.size) if scratch is None else scratch
    ex, ey = _exponentials(x[:, None], y)
    step = planes.shape[1]
    for start in range(0, x.size, step):
        block = ex[start:start + step]
        parts = planes[:, :len(block)]
        _certified_kernel(block, ey, a, parts)
        yield slice(start, start + len(block)), block, *parts


def _theta_from_parts(x, y, re, im):
    """theta(x, y) = -(x - y) - 2 arg S from the parts of S = S(x, y), written
    over them: arg S into im, and theta, returned, into re.  fl(y - x) is
    -(x - y) exactly, and subtracting arg twice rounds as
    -arg S(x, y) + arg S(y, x) did.  A zero may come out as -0.0."""
    arg = np.arctan2(im, re, out=im)  # np.angle(S), bit for bit
    return np.subtract(np.subtract(np.subtract(y, x, out=re), arg, out=re), arg, out=re)


def _partial_from_parts(ex, re, im, out, work):
    """d1 theta(x, y) = -1 + 2 (cos x Re S - sin x Im S) / (Re S^2 + Im S^2),
    that is -1 + 2 Re[exp(-ix) / S], from ex = exp(-ix) (its parts are cos x
    and -sin x) and the parts of S = S(x, y), into out as (-1 + q) + q.  re
    and work are overwritten; the certificate keeps |S|^2 >= 1e-24."""
    num = np.add(np.multiply(ex.real, re, out=out), np.multiply(ex.imag, im, out=work), out=out)
    with np.errstate(over="ignore"):  # past c ~ 1e77 |S|^2 is inf and the quotient its limit 0
        norm = np.add(np.square(re, out=re), np.square(im, out=work), out=re)
    half = np.divide(num, norm, out=re)
    return np.add(np.add(-1.0, half, out=out), half, out=out)


def theta(x, y, a: Anisotropy):
    """Continuous scattering phase, zero at the origin.

    Defined by exp(-i*theta(x, y)) = exp(i(x-y)) * S(x, y) / S(y, x).  Since
    Re S > 0 on D x D the principal arguments already give the continuous
    branch, and S(y, x) = conj S(x, y) leaves one argument per pair:
    theta = -(x - y) - 2 arg S(x, y).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast(x, y).shape
    parts = _certified_kernel(*_exponentials(x, y), a, np.empty((2, *shape)))
    return _as_scalar(np.add(_theta_from_parts(x, y, *parts), 0.0))  # theta(x, x) is +0.0


def _phase_sums(p: np.ndarray, a: Anisotropy, scratch=None) -> np.ndarray:
    """sum_k theta(p_j, p_k) for every j, by blocks of rows (`_kernel_blocks`).
    An odd p == -p[::-1] takes theta on the ceil(n/2) x n rows p[n//2:] alone:
    S(-x, -y) = conj S(x, y), so they certify every pair, and
    theta(-x, -y) = -theta(x, y) bit for bit makes row n-1-j's sum row j's
    reversed sum, negated.  Any other p takes all n x n pairs.  Its callers
    run it with numpy's least ufunc buffer (see the module docstring)."""
    n = p.size
    odd = np.array_equal(p, -p[::-1])
    x = p[n // 2:] if odd else p
    forward, backward = np.empty(x.size), np.empty(x.size)
    for rows, _, phases, arg, _, _ in _kernel_blocks(x, p, a, scratch):
        _theta_from_parts(x[rows, None], p, phases, arg).sum(axis=1, out=forward[rows])
        if odd:
            phases[:, ::-1].sum(axis=1, out=backward[rows])
    return np.concatenate((-backward[::-1], forward[n % 2:])) if odd else forward


def theta_partial_1(x, y, a: Anisotropy):
    """Partial derivative of theta in its first argument, in closed form.

    Logarithmic differentiation of the defining relation gives

        d1 theta(x, y) = -1 + exp(-ix)/S(x, y) + exp(ix)/S(y, x),

    whose last two terms are complex conjugates: the value is
    -1 + 2 Re[exp(-ix)/S(x, y)], real exactly, taken from the parts of S by
    `_partial_from_parts` as the solver's Jacobian takes it.
    """
    ex, ey = _exponentials(x, y)
    planes = np.empty((4, *np.broadcast(ex, ey).shape))
    re, im = _certified_kernel(ex, ey, a, planes)
    return _as_scalar(_partial_from_parts(ex, re, im, planes[2, ...], planes[3, ...]))


def _one_minus(z: np.ndarray) -> np.ndarray:
    """1 - z, refused at the eigenvalue factors' pole z -> 1."""
    one_minus = 1.0 - z
    if np.any(np.abs(one_minus) < ZERO_MOMENTUM_TOL):
        raise SingularMomentumError(
            "z too close to 1; route through the zero-momentum eigenvalue path"
        )
    return one_minus


def L_factor(z, a: Anisotropy):
    """Eigenvalue factor 1 + c^2 z / (1 - z); singular as z -> 1."""
    z = np.asarray(z, dtype=complex)
    return _as_scalar(1.0 + (a.c * a.c) * z / _one_minus(z))


def M_factor(z, a: Anisotropy):
    """Eigenvalue factor 1 - c^2 / (1 - z); singular as z -> 1."""
    return _as_scalar(1.0 - (a.c * a.c) / _one_minus(np.asarray(z, dtype=complex)))


def grid_suite(a: Anisotropy, grid: int):
    """Max deviations of the function-level identities on an interior grid."""
    hw = a.domain_halfwidth
    margin = hw / grid
    g = np.linspace(-hw + margin, hw - margin, grid)
    X, Y = np.meshgrid(g, g, indexing="ij")

    th = theta(X, Y, a)
    s_xy = scattering_kernel(X, Y, a)
    s_yx = scattering_kernel(Y, X, a)
    defining = float(
        np.max(np.abs(np.exp(-1j * th) - np.exp(1j * (X - Y)) * s_xy / s_yx))
    )
    antisym = float(np.max(np.abs(th + theta(Y, X, a))))

    nz = g[np.abs(g) > 1e-4]
    z = np.exp(1j * nz)
    c2 = a.c * a.c
    lm_sum = float(np.max(np.abs(L_factor(z, a) + M_factor(z, a) - (2.0 - c2))))

    ZX, ZY = np.meshgrid(z, z, indexing="ij")
    PX, PY = np.meshgrid(nz, nz, indexing="ij")
    ratio = (M_factor(ZX, a) * L_factor(ZY, a) - 1.0) / (
        M_factor(ZY, a) * L_factor(ZX, a) - 1.0
    )
    lm_phase = float(np.max(np.abs(np.exp(1j * theta(PX, PY, a)) - ratio)))

    zero_phase = float(
        np.max(np.abs(np.exp(1j * theta(0.0, nz, a)) + L_factor(z, a) / M_factor(z, a)))
    )

    # The difference oracle is compared on the interior 90% box: at the
    # closure corners the kernel vanishes (delta in [-1, 1)), the third
    # derivative blows up, and the h^2 truncation of the oracle itself
    # exceeds the gate.  The defining relation above still covers the full
    # grid, corners included.
    inner = g[np.abs(g) <= 0.9 * hw]
    step = max(1, inner.size // 11)
    fx, fy = np.meshgrid(inner[::step], inner[::step], indexing="ij")
    h = 1e-6
    fd = (theta(fx + h, fy, a) - theta(fx - h, fy, a)) / (2.0 * h)
    partial_fd = float(np.max(np.abs(theta_partial_1(fx, fy, a) - fd)))

    return {
        "defining_relation_max": defining,
        "antisymmetry_max": antisym,
        "lm_sum_max": lm_sum,
        "lm_phase_max": lm_phase,
        "zero_momentum_phase_max": zero_phase,
        "partial_fd_max": partial_fd,
    }
