"""Damped Newton solver for the logarithmic form of the boundary equations.

The unknown momenta solve

    N p_j = 2 pi I_j - sum_k theta(p_j, p_k),        j = 1..n,

for a chosen set of distinct quantum numbers I_j (integers when n is odd,
half-odd-integers when n is even).  The residual of the j-th equation is
F_j = N p_j - 2 pi I_j + sum_k theta(p_j, p_k); its Jacobian is analytic:
the k = j term theta(p_j, p_j) vanishes identically, so

    dF_j/dp_j = N + sum_{k != j} d1 theta(p_j, p_k),
    dF_j/dp_k = -d1 theta(p_k, p_j)                  for k != j.

A mirrored label set, values[j] = -values[n-1-j] (every ground state), has
an odd root p = (-q reversed, [0] for odd n, q), so Newton runs on the
n // 2 unknowns q alone, with every n x n quantity taken on the
ceil(n/2) x n block of rows p[n//2:].  Other label sets use all n.  One
builder, `_equations`, serves both: the full system is the folded one with
no mirrored columns.

Memory is O(h^2 + n * block) for h unknowns: the residual, the Jacobian
and the rounding floor read the kernel S by blocks of whole rows of at most
`functions._BLOCK_ELEMENTS` entries (`functions._kernel_blocks`), each
written in place into one scratch set of 4 doubles per entry that
`_equations` allocates once and every pass of the solve reuses.  Every
pass reads S as its real and imaginary parts, two contiguous real arrays,
and takes theta, d1 theta and |S| from them in real arithmetic.  Only the
h x h Jacobian, which `_equations` also allocates once and every step
overwrites, its LU copy in `np.linalg.solve` and O(n) vectors are whole.

A label set inside the half-filled sea (every |I_j| < N/4, as in every
ground state) starts at its continuum root (Yang and Yang 1966; see
`_initial_guess`), about 1e-5 from the root at N = 1024; any other set
starts at 2 pi I_j / N, shrunk into the domain.

Iterates are clamped strictly inside the momentum interval (the phase is
undefined outside) and each step is halved until the max-norm residual
decreases, aiming at 1e-12 within 200 steps.  A full step that does not
decrease it at an iterate already within the equations' rounding floor,
which grows with N and n past 1e-12, ends the iteration there, converged:
rounding explains the residual, and no halving or polish step is tried.  The
floor is computed only then, once per failed full step.  A trial that
rounds to the iterate bit for bit is not evaluated: every shorter step
rounds to it too, so the halvings walk down to 2^-20 on the iterate's
residual.  A step halved down to 2^-20 that still does not decrease the
residual ends the iteration at its best iterate, not converged: it is above
the floor, so the trial left the domain or no root is near.
Non-convergence is reported, never raised.  The domain is open (the phase
is undefined on its closure), so a label set whose root lies on the edge,
such as N = 6, I = 1 at c = 1 (2 pi / 6 = pi - mu), stalls against the
clamp and is reported non-converged by design.  The loop's last phase
polishes, since eigenvector residuals amplify root error by about the
spectral radius: once 1e-12 is met, up to three full steps with no line
search, each counted only if it lowers the residual; the first that does
not ends the solve.

`solve` returns the root and its counters only.  The Jacobian's condition
number, an n x n matrix and an O(n^3) inverse, is left to the report's
first read of ``jacobian_condition_estimate``, so a mirrored solve never
forms an n x n quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DegenerateMomentaError, DomainError
from .functions import (Anisotropy, MomentumSet, _kernel_blocks, _partial_from_parts, _phase_sums,
                        _scratch, _theta_from_parts)

__all__ = [
    "QuantumNumbers",
    "SolveReport",
    "ground_state_quantum_numbers",
    "log_equations",
    "solve",
]

_TOL = 1e-12                # Newton target for the max-norm residual
_MAX_ITER = 200             # iteration cap, polish steps included
_STEP_FLOOR = 2.0 ** -20    # smallest line-search step before the solve stops
_DOMAIN_MARGIN = 1e-12      # iterates stay this far inside the open interval


@dataclass(frozen=True)
class QuantumNumbers:
    """Distinct (half-)integer labels selecting one solution branch."""

    values: tuple[Fraction, ...]
    _floats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        n = len(values)
        # in lowest terms, equal labels have equal (numerator, denominator) and
        # 2v is an integer iff the denominator is 1 (2v even) or 2 (2v odd)
        terms = [(v.numerator, v.denominator) for v in values]
        if len(set(terms)) != n:
            raise ValueError("quantum numbers must be pairwise distinct")
        for v, (_, denominator) in zip(values, terms):
            if denominator > 2:
                raise ValueError(f"{v} is not an integer or half integer")
            if n % 2 == 1 and denominator != 1:
                raise ValueError(f"odd particle number needs integers, got {v}")
            if n % 2 == 0 and denominator != 2:
                raise ValueError(f"even particle number needs half integers, got {v}")
        floats = np.array([numerator for numerator, _ in terms], dtype=float) / (2 - n % 2)
        floats.flags.writeable = False
        object.__setattr__(self, "_floats", floats)

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        """The labels as floats, exactly (a read-only array)."""
        return self._floats


def ground_state_quantum_numbers(n: int) -> QuantumNumbers:
    """Symmetric choice I_j = j - (n+1)/2, j = 1..n.

    Contains 0 exactly when n is odd, which forces the zero-momentum root.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return QuantumNumbers(tuple(Fraction(2 * j - n - 1, 2) for j in range(1, n + 1)))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """The root and how the iteration got there.

    ``iterations`` counts Newton steps, a last one that failed included, and
    accepted polish steps;
    ``step_halvings`` counts every halving of the line search and
    ``polish_steps`` the accepted full steps after 1e-12 was met.
    ``jacobian_condition_estimate`` is the 1-norm condition number of
    `log_equations`' full n x n Jacobian at the momenta (1.0 at n = 0, inf
    where it cannot be formed or is singular); it is computed once, on its
    first read, from ``N`` and ``quantum_numbers``.
    """

    momenta: MomentumSet
    iterations: int
    final_residual: float
    converged: bool
    N: int
    quantum_numbers: QuantumNumbers
    degenerate: bool = False
    step_halvings: int = 0
    polish_steps: int = 0

    @cached_property
    def jacobian_condition_estimate(self) -> float:
        if self.quantum_numbers.n == 0:
            return 1.0
        _, jacobian = log_equations(self.N, self.quantum_numbers, self.momenta.anisotropy)
        try:
            return float(np.linalg.cond(jacobian(self.momenta.as_array()), 1))
        except (np.linalg.LinAlgError, DomainError):
            return math.inf


def log_equations(N: int, qn: QuantumNumbers, a: Anisotropy):
    """Residual and analytic-Jacobian callables for the logarithmic equations
    in all n unknowns: `_equations`' unfolded instance, the Jacobian of
    `SolveReport.jacobian_condition_estimate` (formed when that is read) and
    the full-system oracle.  Each Jacobian is a new C-order array, the
    caller's to keep, whose 1-norm column sums add row by row."""
    _, _, residual, jacobian, _ = _equations(N, qn, a, fold=False)
    return residual, lambda x: np.ascontiguousarray(jacobian(x))


def _initial_guess(N, qn, a):
    """The half-filled sea's continuum root when every |I_j| < N/4, else 2 pi I_j / N.

    In the thermodynamic limit the ground state fills the rapidity line with
    density 1/(2 cosh(pi v)) (Yang and Yang, Phys. Rev. 150, 321, 1966).  Its
    counting function tan(pi I / N) = tanh(pi v / 2) places label I_j at

        v_j = (2/pi) artanh(tan(pi I_j / N)),
        p_j = 2 arctan(tanh(mu v_j) / tan(mu / 2)),

    and its limit mu -> 0, p_j = 2 arctan(2 v_j), serves every delta <= -1,
    where mu = 0.  At delta = 0 the start is the root 2 pi I_j / N itself.
    A label set reaching past the sea, some |I_j| >= N/4, starts at the
    phase-free 2 pi I_j / N, shrunk to land inside the domain.
    """
    labels = qn.as_array()
    hw = a.domain_halfwidth
    if np.all(4.0 * np.abs(labels) < N):
        v = (2.0 / math.pi) * np.arctanh(np.tan(math.pi * labels / N))
        mu = a.mu
        p = 2.0 * np.arctan(2.0 * v if mu == 0.0 else np.tanh(mu * v) / math.tan(mu / 2.0))
    else:
        p = 2.0 * math.pi * labels / N
        p = p * min(1.0, (hw - 1e-3) / float(np.max(np.abs(p))))
    return np.clip(p, -hw + _DOMAIN_MARGIN, hw - _DOMAIN_MARGIN)


def _equations(N, qn, a, fold):
    """The logarithmic equations on their unknowns x = p[unknowns]: returns
    (unknowns, expand, residual, jacobian, floor), expand(x) being p.

    Folded, for a mirrored label set (values[j] = -values[n-1-j]), the
    equations are odd under p -> -p and x = q holds the upper n // 2 momenta:
    p = expand(q) = (-q reversed, [0.0] for odd n, q).  Every S(p_j, p_k) is
    then in the block of rows p[n//2:] or conjugate to one there, since
    S(-x, -y) = conj S(x, y), and theta(-x, -y) = -theta(x, y) bit for bit.
    Unfolded, x = p and there are no mirrored columns.  Either way the
    residual is F at expand(x) on all n rows, whose phase sums
    `functions._phase_sums` takes on the block p[n//2:] alone for odd p (see
    there for the rule).  With D = d1 theta(x, p), d1 theta(-x, -y) =
    d1 theta(x, y) and theta(p_j, p_j) = 0, the chain rule through
    p_{n-1-j} = -q_j gives the Jacobian on the h unknowns as

        J^T = D[:, mirror] - D[:, x] + diag(N + sum_k D[:, k]),

    x being the columns of the unknowns and mirror those of -x reversed,
    written one block of rows of D at a time and returned transposed.

    floor(x) is unit roundoff u times the largest sum of the magnitudes one
    F_j adds up, over the rows p[n//2:] folded and all rows unfolded:
    N|p_j|, 2 pi |I_j| and, for each k != j (theta(p_j, p_j) is exactly 0),
    |theta(p_j, p_k)| plus the error 2 u (2 + 2|delta|) / |S(p_j, p_k)| that
    theta's two arguments of S carry.  Both terms come from one kernel per
    block of rows.

    Every pass reads the kernel by blocks of rows into one scratch set, made
    here for the largest of them and reused by every call.  So is the h x h
    array of J^T: every call writes it whole and returns it transposed.
    """
    n = qn.n
    mirrored = n // 2 if fold else 0    # columns -x reversed, first in p
    h = mirrored if fold else n         # unknowns, the last h of p
    targets = 2.0 * math.pi * qn.as_array()
    scratch = _scratch(n - mirrored, n)
    jac_t = np.empty((h, h))

    def expand(x: np.ndarray) -> np.ndarray:  # with the zero momentum of odd folded n
        return np.concatenate((-x[:mirrored][::-1], np.zeros(n - h - mirrored), x))

    def residual(x: np.ndarray) -> np.ndarray:
        p = expand(x)
        return N * p - targets + _phase_sums(p, a, scratch)

    def jacobian(x: np.ndarray) -> np.ndarray:
        for block, ex, re, im, d1, work in _kernel_blocks(x, expand(x), a, scratch):
            d1 = _partial_from_parts(ex, re, im, d1, work)
            # -D[:, x] + D[:, mirror] rounds as D[:, mirror] - D[:, x]
            rows = np.negative(d1[:, n - h:], out=jac_t[block])
            rows[:, :mirrored] += d1[:, :mirrored][:, ::-1]
            jac_t.flat[block.start * (h + 1):block.stop * (h + 1):h + 1] += N + d1.sum(axis=1)
        return jac_t.T

    def floor(x: np.ndarray) -> float:
        p = expand(x)
        rows = p[mirrored:]
        sums = np.empty(rows.size)
        for block, _, terms, arg, arg_error, _ in _kernel_blocks(rows, p, a, scratch):
            modulus = np.hypot(terms, arg, out=arg_error)  # |S|, before theta overwrites the parts
            np.divide(4.0 * (1.0 + abs(a.delta)), modulus, out=arg_error)
            np.abs(_theta_from_parts(rows[block, None], p, terms, arg), out=terms)
            np.fill_diagonal(arg_error[:, mirrored + block.start:], 0.0)
            np.add(terms, arg_error, out=terms).sum(axis=1, out=sums[block])
        return 2.0 ** -53 * float(np.max(N * np.abs(rows) + np.abs(targets[mirrored:]) + sums))

    return slice(n - h, None), expand, residual, jacobian, floor


def _newton(x, residual, jacobian, floor, lo, hi):
    """Damped Newton from x; returns the best iterate, its residual, whether it
    is a root, and the counters (iterations, halvings, polish steps).  The
    loop's last phase, once 1e-12 is met, polishes with full steps alone."""
    f = residual(x)
    res = float(np.max(np.abs(f)))
    rows = slice(f.size - x.size, None)  # the unknowns' rows: F's last x.size
    iterations = halvings = polished = 0
    converged = res <= _TOL

    while iterations < _MAX_ITER and res > 0.0 and polished < 3:
        polish = converged
        try:
            step = np.linalg.solve(jacobian(x), -f[rows])
        except (np.linalg.LinAlgError, DomainError):
            iterations += not polish
            break
        alpha = 1.0
        while True:
            trial = np.clip(x + alpha * step, lo, hi)
            rounded = np.array_equal(trial, x)
            try:
                f_trial = f if rounded else residual(trial)
                res_trial = float(np.max(np.abs(f_trial)))
            except DomainError:
                res_trial = math.inf
            if res_trial < res or polish:
                break
            if alpha == 1.0 and res <= floor(x):
                # rounding explains the residual: x is a root, and no shorter
                # step is worth evaluating
                converged = True
                break
            if alpha <= _STEP_FLOOR:
                break
            alpha *= 0.5
            halvings += 1
        if not res_trial < res:
            # a failed polish step, a root within the floor, or a stall above it
            iterations += not polish
            break
        iterations += 1
        polished += polish
        x, f, res = trial, f_trial, res_trial
        converged = res <= _TOL

    return x, res, converged, (iterations, halvings, polished)


def solve(N: int, qn: QuantumNumbers, a: Anisotropy) -> SolveReport:
    """Damped Newton iteration on the logarithmic equations.

    A mirrored label set (values[j] = -values[n-1-j]) is solved on its
    n // 2 unknowns, folded, and any other set on all n (`_equations`).
    """
    n = qn.n
    if 2 * n > N:
        raise ValueError(f"need n <= N/2, got n = {n}, N = {N}")
    if n == 0:
        return SolveReport(MomentumSet((), a), 0, 0.0, True, N, qn)

    hw = a.domain_halfwidth
    labels = qn.as_array()
    unknowns, expand, residual, jacobian, floor = _equations(
        N, qn, a, fold=np.array_equal(labels, -labels[::-1]))
    with np.errstate():
        np.setbufsize(16)  # the least ufunc buffer (see the functions module)
        x, res, converged, (iterations, halvings, polished) = _newton(
            _initial_guess(N, qn, a)[unknowns], residual, jacobian, floor,
            -hw + _DOMAIN_MARGIN, hw - _DOMAIN_MARGIN)
    p = expand(x)

    degenerate = False
    try:
        momenta = MomentumSet(tuple(p), a)
    except DegenerateMomentaError:
        momenta = MomentumSet.relaxed(tuple(p), a)
        degenerate = True
    return SolveReport(momenta, iterations, res, converged, N, qn, degenerate, halvings, polished)
