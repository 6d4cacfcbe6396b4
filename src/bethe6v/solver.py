"""Damped Newton solver for the logarithmic form of the boundary equations.

The unknown momenta solve

    N p_j = 2 pi I_j - sum_k theta(p_j, p_k),        j = 1..n,

for a chosen set of distinct quantum numbers I_j (integers when n is odd,
half-odd-integers when n is even).  The residual of the j-th equation is
F_j = N p_j - 2 pi I_j + sum_k theta(p_j, p_k); its Jacobian is analytic:
the k = j term theta(p_j, p_j) vanishes identically, so

    dF_j/dp_j = N + sum_{k != j} d1 theta(p_j, p_k),
    dF_j/dp_k = -d1 theta(p_k, p_j)                  for k != j.

Iterates are clamped strictly inside the momentum interval (the phase is
undefined outside) and each step is halved until the max-norm residual
decreases.  A step halved down to step_floor that still does not decrease
it ends the iteration: the residual has stalled at rounding level (or the
trial left the domain), no further step can help, and the solve returns
its best iterate as non-converged.  Non-convergence is reported, never
raised.  Once the residual tolerance is met a few more full Newton steps
polish the root toward machine precision: downstream eigenvector residuals
amplify root error by roughly the spectral radius, so stopping right at
the tolerance would waste most of the available accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateMomentaError, DomainError
from .functions import Anisotropy, MomentumSet, theta, theta_partial_1

__all__ = [
    "QuantumNumbers",
    "SolverConfig",
    "SolveReport",
    "ground_state_quantum_numbers",
    "log_equations",
    "solve",
]


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


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-12
    max_iter: int = 200
    initial_step: float = 1.0
    step_floor: float = 2.0 ** -20
    domain_margin: float = 1e-12

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True, eq=False)
class SolveReport:
    momenta: MomentumSet
    iterations: int
    final_residual: float
    converged: bool
    jacobian_condition_estimate: float
    degenerate: bool = False


def log_equations(N: int, qn: QuantumNumbers, a: Anisotropy):
    """Residual and analytic-Jacobian callables for the logarithmic equations."""
    targets = 2.0 * math.pi * np.array([float(v) for v in qn.values])
    n = qn.n

    def residual(p: np.ndarray) -> np.ndarray:
        phases = np.asarray(theta(p[:, None], p[None, :], a)).reshape(n, n)
        return N * p - targets + phases.sum(axis=1)

    def jacobian(p: np.ndarray) -> np.ndarray:
        d1 = np.asarray(theta_partial_1(p[:, None], p[None, :], a)).reshape(n, n)
        jac = -d1.T.copy()
        np.fill_diagonal(jac, 0.0)
        jac += np.diag(N + d1.sum(axis=1) - np.diag(d1))
        return jac

    return residual, jacobian


def _initial_guess(N, qn, a, margin):
    """Phase-free starting point 2 pi I_j / N, shrunk to land inside the domain."""
    p = 2.0 * math.pi * np.array([float(v) for v in qn.values]) / N
    pmax = float(np.max(np.abs(p)))
    if pmax > 0.0:
        p = p * min(1.0, (a.domain_halfwidth - 1e-3) / pmax)
    hw = a.domain_halfwidth
    return np.clip(p, -hw + margin, hw - margin)


def solve(N: int, qn: QuantumNumbers, a: Anisotropy,
          cfg: SolverConfig | None = None) -> SolveReport:
    """Damped Newton iteration on the logarithmic equations."""
    cfg = cfg or SolverConfig()
    n = qn.n
    if 2 * n > N:
        raise ValueError(f"need n <= N/2, got n = {n}, N = {N}")
    if n == 0:
        return SolveReport(MomentumSet((), a), 0, 0.0, True, 1.0)

    residual, jacobian = log_equations(N, qn, a)
    hw = a.domain_halfwidth
    lo, hi = -hw + cfg.domain_margin, hw - cfg.domain_margin

    p = _initial_guess(N, qn, a, cfg.domain_margin)
    f = residual(p)
    res = float(np.max(np.abs(f)))
    iterations = 0
    converged = res <= cfg.tol

    while not converged and iterations < cfg.max_iter:
        iterations += 1
        try:
            step = np.linalg.solve(jacobian(p), -f)
        except (np.linalg.LinAlgError, DomainError):
            break
        alpha = cfg.initial_step
        while True:
            trial = np.clip(p + alpha * step, lo, hi)
            try:
                f_trial = residual(trial)
                res_trial = float(np.max(np.abs(f_trial)))
            except DomainError:
                res_trial = math.inf
            if res_trial < res or alpha <= cfg.step_floor:
                break
            alpha *= 0.5
        if not res_trial < res:
            break  # stalled at step_floor (or off the domain): keep the best iterate
        p, f, res = trial, f_trial, res_trial
        converged = res <= cfg.tol

    polish = 3
    while converged and res > 0.0 and polish > 0 and iterations < cfg.max_iter:
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
        p, f, res = trial, f_trial, res_trial

    try:
        cond = float(np.linalg.cond(jacobian(p)))
    except (np.linalg.LinAlgError, DomainError):
        cond = math.inf

    degenerate = False
    try:
        momenta = MomentumSet(tuple(p), a)
    except DegenerateMomentaError:
        momenta = MomentumSet.relaxed(tuple(p), a)
        degenerate = True
    return SolveReport(momenta, iterations, res, converged, cond, degenerate)
