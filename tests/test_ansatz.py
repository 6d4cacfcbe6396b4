import itertools
import math

import numpy as np
import pytest

from bethe6v import (
    AmplitudeEvaluator,
    Anisotropy,
    CapExceededError,
    MomentumSet,
    SectorMismatchError,
    SingularMomentumError,
    VertexWeights,
    amplitude,
    bethe_residual,
    build_psi,
    build_transfer_block,
    check_eigenpair,
    eigenvalue_regular,
    eigenvalue_singular,
    enumerate_sector,
    full_prediction,
    ground_state_quantum_numbers,
    identity_suite,
    solve,
    theta,
    transfer_eigenvalue,
)

from helpers import naive_psi_coefficient


def momentum_set(values, c=1.0):
    return MomentumSet(tuple(values), Anisotropy(c))


class TestAmplitudes:
    def test_pair_factor_table(self):
        m = momentum_set((-0.4, 0.2, 0.7))
        ev = AmplitudeEvaluator(m)
        a = m.anisotropy
        for k in range(3):
            for l in range(3):
                pk, pl = m.momenta[k], m.momenta[l]
                kernel = np.exp(-1j * pk) + np.exp(1j * pl) - 2.0 * a.delta
                expected = np.exp(1j * pk) * kernel / abs(kernel)
                assert ev.pair_factors[k, l] == pytest.approx(expected, rel=1e-15)

    def test_single_momentum_identity(self):
        ev = AmplitudeEvaluator(momentum_set((0.5,)))
        assert amplitude((0,), ev) == 1.0 + 0.0j

    def test_transposition_ratio_matches_phase(self):
        m = momentum_set((-0.45, 0.3))
        ev = AmplitudeEvaluator(m)
        ratio = amplitude((1, 0), ev) / amplitude((0, 1), ev)
        expected = -np.exp(1j * theta(m.momenta[0], m.momenta[1], m.anisotropy))
        assert ratio == pytest.approx(expected, rel=1e-13)

    def test_subset_sum_equals_direct(self):
        # build_psi against the direct permutation sum of amplitude(), n <= 5
        rng = np.random.default_rng(11)
        for c in (0.5, 1.0, 2.0):
            a = Anisotropy(c)
            for n, N in ((1, 5), (2, 6), (3, 7), (4, 8), (5, 10)):
                p = np.sort(rng.uniform(-0.9, 0.9, size=n)) * a.domain_halfwidth
                ev = AmplitudeEvaluator(MomentumSet(tuple(p), a))
                sector = enumerate_sector(N, n)
                X = sector.positions
                direct = np.zeros(sector.dim, dtype=complex)
                for sigma in itertools.permutations(range(n)):
                    waves = np.prod(ev.z[list(sigma)] ** X, axis=1)
                    direct += amplitude(sigma, ev) * waves
                fast = build_psi(sector, ev).psi
                scale = np.maximum(1.0, np.abs(direct))
                assert np.all(np.abs(fast - direct) <= 1e-12 * scale), (c, n)

    def test_invalid_permutation_rejected(self):
        ev = AmplitudeEvaluator(momentum_set((0.1, 0.4)))
        with pytest.raises(ValueError):
            amplitude((0, 0), ev)

    def test_factorial_cap(self, monkeypatch):
        monkeypatch.setenv("BETHE6V_PERM_CAP", "2")
        with pytest.raises(CapExceededError):
            AmplitudeEvaluator(momentum_set((0.1, 0.2, 0.3)))


class TestPsiCoefficient:
    def test_matches_naive_oracle(self):
        # build_psi rows against the permutation sum rebuilt from scratch
        rng = np.random.default_rng(5)
        for c in (0.5, 1.0, 2.0):
            a = Anisotropy(c)
            for n in (1, 2, 3, 4):
                p = np.sort(rng.uniform(-0.85, 0.85, size=n)) * a.domain_halfwidth
                ev = AmplitudeEvaluator(MomentumSet(tuple(p), a))
                # the library drops the common modulus prod_{k<l} |S(p_k, p_l)|
                modulus = math.prod(
                    abs(np.exp(-1j * p[k]) + np.exp(1j * p[l]) - 2.0 * a.delta)
                    for k in range(n) for l in range(k + 1, n)
                )
                sector = enumerate_sector(8, n)
                psi = build_psi(sector, ev).psi
                for k in rng.choice(sector.dim, size=min(sector.dim, 12), replace=False):
                    pos = sector.state_of(k).positions
                    ref = naive_psi_coefficient(pos, tuple(p), a.delta) / modulus
                    assert abs(psi[k] - ref) <= 1e-12 * max(1.0, abs(ref)), (c, n, pos)

    def test_single_plane_wave(self):
        ev = AmplitudeEvaluator(momentum_set((0.6,)))
        sector = enumerate_sector(8, 1)
        psi = build_psi(sector, ev).psi
        k = sector.index_of((3,))
        assert psi[k] == pytest.approx(np.exp(1j * 0.6 * 3), rel=1e-14)

    def test_particle_count_mismatch(self):
        ev = AmplitudeEvaluator(momentum_set((0.1, 0.5)))
        with pytest.raises(SectorMismatchError):
            build_psi(enumerate_sector(4, 1), ev)


class TestBuildPsi:
    def test_zero_momentum_gives_all_ones(self):
        m = momentum_set((0.0,))
        pred = build_psi(enumerate_sector(6, 1), AmplitudeEvaluator(m))
        assert np.allclose(pred.psi, np.ones(6), rtol=0, atol=1e-15)
        assert pred.singular is True

    def test_fourier_mode(self):
        N = 8
        m = momentum_set((2.0 * math.pi / N,))
        pred = build_psi(enumerate_sector(N, 1), AmplitudeEvaluator(m))
        expected = np.exp(1j * 2.0 * math.pi / N * np.arange(1, N + 1))
        assert np.allclose(pred.psi, expected, rtol=1e-14, atol=0)
        assert pred.psi_norm == pytest.approx(math.sqrt(N), rel=1e-14)
        assert pred.singular is False

    def test_coincident_momenta_collapse(self):
        # with two equal momenta every coefficient cancels
        for c, n in ((1.0, 2), (2.0, 3)):
            a = Anisotropy(c)
            values = (0.4, 0.4) if n == 2 else (0.5, 0.5, -0.3)
            m = MomentumSet.relaxed(values, a)
            ev = AmplitudeEvaluator(m)
            pred = build_psi(enumerate_sector(8, n), ev)
            scale = math.factorial(n) * float(np.max(np.abs(ev.pair_factors)))
            assert np.max(np.abs(pred.psi)) <= 1e-12 * scale


class TestEigenvalues:
    def test_empty_set(self):
        assert eigenvalue_regular(momentum_set(())) == 2.0 + 0.0j

    def test_single_nonzero_momentum(self):
        for c in (0.5, 1.0, 2.0):
            N = 16  # keeps 2*pi/N inside the narrow c = 0.5 domain
            m = momentum_set((2.0 * math.pi / N,), c)
            lam = eigenvalue_regular(m)
            assert lam == pytest.approx(2.0 - c * c, rel=1e-13)

    def test_single_zero_momentum(self):
        for c, N in ((0.5, 6), (1.0, 8), (2.0, 10)):
            m = momentum_set((0.0,), c)
            lam = eigenvalue_singular(m, N)
            assert lam == complex(2.0 + c * c * (N - 1))

    def test_branch_dispatch(self):
        m = momentum_set((0.0, 0.7))
        lam, singular = transfer_eigenvalue(m, 8)
        assert singular is True
        assert lam == eigenvalue_singular(m, 8)

    def test_near_zero_family_uses_regular_branch(self):
        # |p| = 1e-3 sits above the zero threshold: regular branch, no fallthrough
        m = momentum_set((1e-3, 0.7))
        lam, singular = transfer_eigenvalue(m, 8)
        assert singular is False
        assert np.isfinite(lam.real) and np.isfinite(lam.imag)
        assert lam == eigenvalue_regular(m)
        with pytest.raises(ValueError):
            eigenvalue_singular(m, 8)

    def test_regular_branch_refuses_zero(self):
        with pytest.raises(SingularMomentumError):
            eigenvalue_regular(momentum_set((0.0, 0.5)))


class TestBetheResidual:
    def test_free_single_momentum(self):
        N = 16  # 2*pi*k/N stays inside the c = 1 domain for k <= 2
        for k in (0, 1, 2):
            m = momentum_set((2.0 * math.pi * k / N,))
            res = bethe_residual(m, N)
            assert np.max(np.abs(res)) < 1e-13

    def test_perturbation_sensitivity(self):
        N = 8
        a = Anisotropy(1.0)
        rep = solve(N, ground_state_quantum_numbers(2), a)
        p = np.array(rep.momenta.momenta)
        shifted = MomentumSet(tuple(p + np.array([1e-3, 0.0])), a)
        size = float(np.max(np.abs(bethe_residual(shifted, N))))
        assert 0.1 * N * 1e-3 <= size <= 10.0 * N * 1e-3


class TestIdentitySuite:
    def test_solved_roots(self):
        a = Anisotropy(1.0)
        rep = solve(8, ground_state_quantum_numbers(2), a)
        suite = identity_suite(rep.momenta, 8, samples=25)
        assert suite.samples == 25
        assert suite.adjacent_max < 1e-10
        assert suite.boundary_max < 1e-9
        assert suite.cyclic_max < 1e-9

    def test_adjacent_holds_without_solving(self):
        # the adjacent-transposition ratio needs no boundary condition
        suite = identity_suite(momentum_set((-0.8, -0.1, 0.5)), 9, samples=10)
        assert suite.adjacent_max < 1e-12


class TestFullPrediction:
    def test_regular_eigenpair(self):
        N, n, c = 8, 2, 1.0
        a = Anisotropy(c)
        rep = solve(N, ground_state_quantum_numbers(n), a)
        sector = enumerate_sector(N, n)
        pred = full_prediction(sector, AmplitudeEvaluator(rep.momenta))
        blk = build_transfer_block(N, n, VertexWeights(c=c))
        assert check_eigenpair(blk, pred.psi, pred.lam) < 1e-9
        assert abs(pred.lam.imag) < 1e-9
        assert pred.psi_norm > 1e-6 * math.sqrt(sector.dim)

    def test_sector_mismatch(self):
        ev = AmplitudeEvaluator(momentum_set((0.1, 0.5)))
        with pytest.raises(SectorMismatchError):
            build_psi(enumerate_sector(8, 3), ev)
