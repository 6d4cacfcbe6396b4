"""Damped Newton solver for the logarithmic form of the boundary equations.

The unknown momenta solve

    N p_j = 2 pi I_j - sum_k theta(p_j, p_k),        j = 1..n,

for a chosen set of distinct quantum numbers I_j (integers when n is odd,
half-odd-integers when n is even).  The residual of the j-th equation is
F_j = N p_j - 2 pi I_j + sum_k theta(p_j, p_k); its Jacobian is analytic:
the k = j term theta(p_j, p_j) vanishes identically, so

    dF_j/dp_j = N + sum_{k != j} d1 theta(p_j, p_k),
    dF_j/dp_k = -d1 theta(p_k, p_j)                  for k != j.

A label set inside the half-filled sea (every |I_j| < N/4, as in every
ground state) starts at its continuum root (Yang and Yang 1966; see
`_initial_guess`), about 1e-5 from the root at N = 1024; any other set
starts at 2 pi I_j / N, shrunk into the domain.

Iterates are clamped strictly inside the momentum interval (the phase is
undefined outside) and each step is halved until the max-norm residual
decreases, aiming at 1e-12 within 200 steps.  A trial that rounds to the
iterate bit for bit is not evaluated: every shorter step rounds to it too,
so its halvings down to 2^-20 are counted without evaluation.  A step
halved down to 2^-20 that still does not decrease it ends the iteration at
its best iterate: a root iff its residual is within the equations' rounding
floor, which grows with N and n past 1e-12; else the trial left the domain
or no root is near.
Non-convergence is reported, never raised.  The domain is open (the phase
is undefined on its closure), so a label set whose root lies on the edge,
such as N = 6, I = 1 at c = 1 (2 pi / 6 = pi - mu), stalls against the
clamp and is reported non-converged by design.  Once 1e-12 is met a few more
full Newton steps polish the root toward machine precision: downstream
eigenvector residuals amplify root error by roughly the spectral radius, so
stopping right at 1e-12 would waste most of the available accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateMomentaError, DomainError
from .functions import Anisotropy, MomentumSet, scattering_kernel, theta, theta_partial_1

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

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(set(values)) != len(values):
            raise ValueError("quantum numbers must be pairwise distinct")
        n = len(values)
        for v in values:
            doubled = 2 * v
            if doubled.denominator != 1:
                raise ValueError(f"{v} is not an integer or half integer")
            if n % 2 == 1 and doubled.numerator % 2 != 0:
                raise ValueError(f"odd particle number needs integers, got {v}")
            if n % 2 == 0 and doubled.numerator % 2 != 1:
                raise ValueError(f"even particle number needs half integers, got {v}")

    @property
    def n(self) -> int:
        return len(self.values)


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

    ``iterations`` counts accepted steps, polish steps included;
    ``step_halvings`` counts every halving of the line search and
    ``polish_steps`` the accepted full steps after 1e-12 was met.
    """

    momenta: MomentumSet
    iterations: int
    final_residual: float
    converged: bool
    jacobian_condition_estimate: float
    degenerate: bool = False
    step_halvings: int = 0
    polish_steps: int = 0


def log_equations(N: int, qn: QuantumNumbers, a: Anisotropy):
    """Residual and analytic-Jacobian callables for the logarithmic equations."""
    targets = 2.0 * math.pi * np.array([float(v) for v in qn.values])
    n = qn.n

    def residual(p: np.ndarray) -> np.ndarray:
        phases = np.asarray(theta(p[:, None], p[None, :], a)).reshape(n, n)
        return N * p - targets + phases.sum(axis=1)

    def jacobian(p: np.ndarray) -> np.ndarray:
        d1 = np.asarray(theta_partial_1(p[:, None], p[None, :], a)).reshape(n, n)
        # C order: solve and cond round differently on the transposed layout
        jac = np.negative(d1.T, order="C")
        jac.flat[::n + 1] = N + d1.sum(axis=1) - d1.diagonal()
        return jac

    return residual, jacobian


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
    labels = np.array([float(v) for v in qn.values])
    hw = a.domain_halfwidth
    if np.all(4.0 * np.abs(labels) < N):
        v = (2.0 / math.pi) * np.arctanh(np.tan(math.pi * labels / N))
        mu = a.mu
        p = 2.0 * np.arctan(2.0 * v if mu == 0.0 else np.tanh(mu * v) / math.tan(mu / 2.0))
    else:
        p = 2.0 * math.pi * labels / N
        p = p * min(1.0, (hw - 1e-3) / float(np.max(np.abs(p))))
    return np.clip(p, -hw + _DOMAIN_MARGIN, hw - _DOMAIN_MARGIN)


def _rounding_floor(N, qn, a, p):
    """Unit roundoff u times the largest sum of the magnitudes one F_j adds up:
    N|p_j|, 2 pi |I_j| and, for each k != j (theta(p_j, p_j) is exactly 0),
    |theta(p_j, p_k)| plus the error 2 u (2 + 2|delta|) / |S(p_j, p_k)| that
    theta's two arguments of S carry.
    """
    x, y = p[:, None], p[None, :]
    arg_error = 4.0 * (1.0 + abs(a.delta)) / np.abs(scattering_kernel(x, y, a))
    np.fill_diagonal(arg_error, 0.0)
    rows = (N * np.abs(p) + 2.0 * math.pi * np.abs([float(v) for v in qn.values])
            + (np.abs(theta(x, y, a)) + arg_error).sum(axis=1))
    return 2.0 ** -53 * float(np.max(rows))


def solve(N: int, qn: QuantumNumbers, a: Anisotropy) -> SolveReport:
    """Damped Newton iteration on the logarithmic equations."""
    n = qn.n
    if 2 * n > N:
        raise ValueError(f"need n <= N/2, got n = {n}, N = {N}")
    if n == 0:
        return SolveReport(MomentumSet((), a), 0, 0.0, True, 1.0)

    residual, jacobian = log_equations(N, qn, a)
    hw = a.domain_halfwidth
    lo, hi = -hw + _DOMAIN_MARGIN, hw - _DOMAIN_MARGIN

    p = _initial_guess(N, qn, a)
    f = residual(p)
    res = float(np.max(np.abs(f)))
    iterations = halvings = polished = 0
    converged = res <= _TOL
    polish = 3

    while not converged and iterations < _MAX_ITER:
        iterations += 1
        try:
            step = np.linalg.solve(jacobian(p), -f)
        except (np.linalg.LinAlgError, DomainError):
            break
        alpha = 1.0
        while True:
            trial = np.clip(p + alpha * step, lo, hi)
            if np.array_equal(trial, p):
                # every shorter step rounds to p too: count its halvings down
                # to the floor without evaluating the iterate's residual again
                halvings += round(math.log2(alpha / _STEP_FLOOR))
                res_trial = res
                break
            try:
                f_trial = residual(trial)
                res_trial = float(np.max(np.abs(f_trial)))
            except DomainError:
                res_trial = math.inf
            if res_trial < res or alpha <= _STEP_FLOOR:
                break
            alpha *= 0.5
            halvings += 1
        if not res_trial < res:
            # stalled at the step floor (or off the domain): the best iterate
            # is a root iff rounding explains its residual; the full step just
            # tried failed, so polishing cannot lower it
            converged, polish = res <= _rounding_floor(N, qn, a, p), 0
            break
        p, f, res = trial, f_trial, res_trial
        converged = res <= _TOL

    while converged and res > 0.0 and polish > 0 and iterations < _MAX_ITER:
        polish -= 1
        try:
            trial = np.clip(p + np.linalg.solve(jacobian(p), -f), lo, hi)
            f_trial = residual(trial)
        except (np.linalg.LinAlgError, DomainError):
            break
        res_trial = float(np.max(np.abs(f_trial)))
        if res_trial >= res:
            break
        iterations += 1
        polished += 1
        p, f, res = trial, f_trial, res_trial

    try:
        cond = float(np.linalg.cond(jacobian(p), 1))
    except (np.linalg.LinAlgError, DomainError):
        cond = math.inf

    degenerate = False
    try:
        momenta = MomentumSet(tuple(p), a)
    except DegenerateMomentaError:
        momenta = MomentumSet.relaxed(tuple(p), a)
        degenerate = True
    return SolveReport(momenta, iterations, res, converged, cond, degenerate, halvings, polished)
