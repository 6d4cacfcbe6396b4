import math
from fractions import Fraction

import numpy as np
import pytest

from bethe6v import (
    Anisotropy,
    QuantumNumbers,
    SolverConfig,
    bethe_residual,
    ground_state_quantum_numbers,
    log_equations,
    solve,
)


class TestQuantumNumbers:
    def test_ground_state_presets(self):
        assert ground_state_quantum_numbers(1).values == (Fraction(0),)
        assert ground_state_quantum_numbers(2).values == (
            Fraction(-1, 2),
            Fraction(1, 2),
        )
        assert ground_state_quantum_numbers(3).values == (
            Fraction(-1),
            Fraction(0),
            Fraction(1),
        )

    def test_parity_validation(self):
        QuantumNumbers((Fraction(-1, 2), Fraction(1, 2)))  # even n: half integers
        QuantumNumbers((Fraction(0),))                      # odd n: integers
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(0), Fraction(1)))      # even n with integers
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(1, 2),))               # odd n with half integer
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(1, 3), Fraction(2, 3)))

    def test_distinctness(self):
        with pytest.raises(ValueError):
            QuantumNumbers((Fraction(0), Fraction(0), Fraction(1)))


class TestSolve:
    def test_zero_quantum_number_fixed_point(self):
        report = solve(6, ground_state_quantum_numbers(1), Anisotropy(1.0))
        assert report.converged
        assert report.iterations <= 1
        assert report.final_residual == 0.0
        assert report.momenta.momenta == (0.0,)
        assert report.momenta.zero_index == 0

    def test_single_momentum_is_linear(self):
        N = 12  # 2*pi/N must land inside the c = 1 domain
        report = solve(N, QuantumNumbers((Fraction(1),)), Anisotropy(1.0))
        assert report.converged
        assert abs(report.momenta.momenta[0] - 2.0 * math.pi / N) < 1e-15

    def test_ground_state_pair(self):
        N = 8
        a = Anisotropy(1.0)
        report = solve(N, ground_state_quantum_numbers(2), a)
        assert report.converged
        assert report.final_residual <= 1e-12
        assert not report.degenerate
        p1, p2 = report.momenta.momenta
        assert p2 > 0.0 and abs(p1 + p2) < 1e-10
        assert np.max(np.abs(bethe_residual(report.momenta, N))) < 1e-10

    def test_symmetric_triple_contains_zero(self):
        report = solve(8, ground_state_quantum_numbers(3), Anisotropy(0.5))
        assert report.converged
        p = np.array(report.momenta.momenta)
        assert report.momenta.zero_index == 1
        assert abs(p[0] + p[2]) < 1e-10

    def test_symmetry_preservation_across_c(self):
        for c in (0.5, 1.0, math.sqrt(2.0), 2.0):
            report = solve(12, ground_state_quantum_numbers(4), Anisotropy(c))
            assert report.converged, c
            p = np.array(report.momenta.momenta)
            assert np.max(np.abs(p + p[::-1])) < 1e-10

    def test_rejects_overfilled_sector(self):
        with pytest.raises(ValueError):
            solve(4, ground_state_quantum_numbers(3), Anisotropy(1.0))

    def test_empty_sector(self):
        report = solve(4, ground_state_quantum_numbers(0), Anisotropy(1.0))
        assert report.converged and report.momenta.n == 0

    def test_honest_non_convergence(self):
        # target momentum pi sits on the boundary: no solution inside the domain
        report = solve(2, QuantumNumbers((Fraction(1),)), Anisotropy(1.0))
        assert not report.converged
        assert report.final_residual > 0.0

    def test_stalled_line_search_stops(self):
        # tol below rounding: the residual stalls at a few ulps of N * max|p|
        report = solve(64, ground_state_quantum_numbers(32), Anisotropy(1.0),
                       SolverConfig(tol=1e-17))
        assert not report.converged
        assert report.iterations < 20
        assert math.isfinite(report.final_residual)
        assert report.final_residual <= 1e-12
        # the best iterate is kept: it is the default-tolerance root
        root = solve(64, ground_state_quantum_numbers(32), Anisotropy(1.0))
        assert root.converged
        p = np.array(report.momenta.momenta)
        assert np.max(np.abs(p - np.array(root.momenta.momenta))) < 1e-13

    def test_condition_estimate_reported(self):
        report = solve(8, ground_state_quantum_numbers(2), Anisotropy(1.0))
        assert math.isfinite(report.jacobian_condition_estimate)
        assert report.jacobian_condition_estimate >= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


class TestNewtonQuality:
    def test_quadratic_tail(self):
        # perturb a converged root; one full step must contract quadratically
        N, n = 8, 2
        a = Anisotropy(1.0)
        qn = ground_state_quantum_numbers(n)
        root = np.array(solve(N, qn, a).momenta.momenta)
        residual, jacobian = log_equations(N, qn, a)
        rng = np.random.default_rng(2)
        for _ in range(5):
            p0 = root + 1e-6 * rng.standard_normal(n)
            r0 = float(np.max(np.abs(residual(p0))))
            assert r0 < 1e-4
            p1 = p0 + np.linalg.solve(jacobian(p0), -residual(p0))
            r1 = float(np.max(np.abs(residual(p1))))
            assert r1 <= 1e3 * r0 ** 2

    def test_jacobian_matches_differences(self):
        N, n = 10, 3
        a = Anisotropy(2.0)
        qn = ground_state_quantum_numbers(n)
        residual, jacobian = log_equations(N, qn, a)
        p = np.array([-0.9, 0.05, 0.85])
        jac = jacobian(p)
        h = 1e-7
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd = (residual(p + e) - residual(p - e)) / (2.0 * h)
            assert np.max(np.abs(fd - jac[:, k])) < 1e-5

    def test_exponential_form_consistency(self):
        for c in (0.5, 1.0, 2.0):
            for (N, n) in ((8, 2), (10, 4), (12, 5)):
                report = solve(N, ground_state_quantum_numbers(n), Anisotropy(c))
                assert report.converged
                res = np.max(np.abs(bethe_residual(report.momenta, N)))
                assert res <= 1e-10
