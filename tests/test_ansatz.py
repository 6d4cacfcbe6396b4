import itertools
import math

import numpy as np
import pytest

from bethe6v import functions
from bethe6v import (
    Anisotropy,
    DomainError,
    L_factor,
    M_factor,
    MomentumSet,
    QuantumNumbers,
    SectorMismatchError,
    SingularMomentumError,
    amplitude,
    bethe_residual,
    build_psi,
    check_eigenpair,
    enumerate_sector,
    full_prediction,
    ground_state_quantum_numbers,
    identity_suite,
    pair_factors,
    solve,
    theta,
    theta_partial_1,
    transfer_eigenvalue,
)

from helpers import build_transfer_block, naive_psi_coefficient, psi_every_row


def momentum_set(values, c=1.0):
    return MomentumSet(tuple(values), Anisotropy(c))


class TestAmplitudes:
    def test_pair_factor_table(self):
        m = momentum_set((-0.4, 0.2, 0.7))
        B = pair_factors(m)
        a = m.anisotropy
        for k in range(3):
            for l in range(3):
                pk, pl = m.momenta[k], m.momenta[l]
                kernel = np.exp(-1j * pk) + np.exp(1j * pl) - 2.0 * a.delta
                expected = np.exp(1j * pk) * kernel / abs(kernel)
                assert B[k, l] == pytest.approx(expected, rel=1e-15)

    def test_single_momentum_identity(self):
        assert amplitude((0,), pair_factors(momentum_set((0.5,)))) == 1.0 + 0.0j

    def test_transposition_ratio_matches_phase(self):
        m = momentum_set((-0.45, 0.3))
        B = pair_factors(m)
        ratio = amplitude((1, 0), B) / amplitude((0, 1), B)
        expected = -np.exp(1j * theta(m.momenta[0], m.momenta[1], m.anisotropy))
        assert ratio == pytest.approx(expected, rel=1e-13)

    def test_subset_sum_equals_direct(self):
        # the every-row DP against the direct permutation sum of amplitude(), n <= 5;
        # random momenta are no Bethe roots, so build_psi's orbit route does not apply
        rng = np.random.default_rng(11)
        for c in (0.5, 1.0, 2.0):
            a = Anisotropy(c)
            for n, N in ((1, 5), (2, 6), (3, 7), (4, 8), (5, 10)):
                p = np.sort(rng.uniform(-0.9, 0.9, size=n)) * a.domain_halfwidth
                m = MomentumSet(tuple(p), a)
                B, z = pair_factors(m), np.exp(1j * m.as_array())
                sector = enumerate_sector(N, n)
                X = sector.positions
                direct = np.zeros(sector.dim, dtype=complex)
                for sigma in itertools.permutations(range(n)):
                    waves = np.prod(z[list(sigma)] ** X, axis=1)
                    direct += amplitude(sigma, B) * waves
                fast = psi_every_row(sector, m)
                scale = np.maximum(1.0, np.abs(direct))
                assert np.all(np.abs(fast - direct) <= 1e-12 * scale), (c, n)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            amplitude((0, 0), pair_factors(momentum_set((0.1, 0.4))))


class TestPsiCoefficient:
    def test_matches_naive_oracle(self):
        # every-row DP rows against the permutation sum rebuilt from scratch
        rng = np.random.default_rng(5)
        for c in (0.5, 1.0, 2.0):
            a = Anisotropy(c)
            for n in (1, 2, 3, 4):
                p = np.sort(rng.uniform(-0.85, 0.85, size=n)) * a.domain_halfwidth
                m = MomentumSet(tuple(p), a)
                # the library drops the common modulus prod_{k<l} |S(p_k, p_l)|
                modulus = math.prod(
                    abs(np.exp(-1j * p[k]) + np.exp(1j * p[l]) - 2.0 * a.delta)
                    for k in range(n) for l in range(k + 1, n)
                )
                sector = enumerate_sector(8, n)
                psi = psi_every_row(sector, m)
                for k in rng.choice(sector.dim, size=min(sector.dim, 12), replace=False):
                    pos = tuple(sector.positions[k].tolist())
                    ref = naive_psi_coefficient(pos, tuple(p), a.delta) / modulus
                    assert abs(psi[k] - ref) <= 1e-12 * max(1.0, abs(ref)), (c, n, pos)

    def test_single_plane_wave(self):
        sector = enumerate_sector(8, 1)
        psi = build_psi(sector, momentum_set((0.6,)))
        k = sector.ranks(np.array([[3]]))[0]
        assert psi[k] == pytest.approx(np.exp(1j * 0.6 * 3), rel=1e-14)

    def test_particle_count_mismatch(self):
        with pytest.raises(SectorMismatchError):
            build_psi(enumerate_sector(4, 1), momentum_set((0.1, 0.5)))


class TestBuildPsi:
    def test_zero_momentum_gives_all_ones(self):
        m = momentum_set((0.0,))
        pred = full_prediction(enumerate_sector(6, 1), m)
        assert np.allclose(pred.psi, np.ones(6), rtol=0, atol=1e-15)
        assert pred.singular is True

    def test_fourier_mode(self):
        N = 8
        m = momentum_set((2.0 * math.pi / N,))
        pred = full_prediction(enumerate_sector(N, 1), m)
        expected = np.exp(1j * 2.0 * math.pi / N * np.arange(1, N + 1))
        assert np.allclose(pred.psi, expected, rtol=1e-14, atol=0)
        assert pred.psi_norm == pytest.approx(math.sqrt(N), rel=1e-14)
        assert pred.singular is False

    def test_row_chunks_match_one_chunk(self, monkeypatch):
        # 7-row chunks, and one chunk of exactly dim rows, against the default
        rng = np.random.default_rng(3)
        for c in (0.5, 1.0, 2.0):
            a = Anisotropy(c)
            for N, n in ((7, 1), (9, 3), (10, 4), (11, 5), (12, 6)):
                p = np.sort(rng.uniform(-0.9, 0.9, size=n)) * a.domain_halfwidth
                m = MomentumSet(tuple(p), a)
                sector = enumerate_sector(N, n)
                whole = build_psi(sector, m)
                for rows, tol in ((7, 1e-15), (sector.dim, 0.0)):
                    monkeypatch.setattr("bethe6v.ansatz._CHUNK_ELEMENTS",
                                        rows * math.comb(n, n // 2))
                    chunked = build_psi(sector, m)
                    assert np.max(np.abs(chunked - whole)) <= tol * np.max(np.abs(whole))
                monkeypatch.undo()

    def test_coincident_momenta_collapse(self):
        # with two equal momenta every coefficient cancels
        for c, n in ((1.0, 2), (2.0, 3)):
            a = Anisotropy(c)
            values = (0.4, 0.4) if n == 2 else (0.5, 0.5, -0.3)
            m = MomentumSet.relaxed(values, a)
            psi = build_psi(enumerate_sector(8, n), m)
            scale = math.factorial(n) * float(np.max(np.abs(pair_factors(m))))
            assert np.max(np.abs(psi)) <= 1e-12 * scale


class TestOrbitRoute:
    """build_psi on orbit representatives against the every-row DP, on solved roots."""

    @staticmethod
    def assert_matches_every_row(N, qn, c):
        report = solve(N, qn, Anisotropy(c))
        assert report.converged and not report.degenerate, (N, qn, c)
        sector = enumerate_sector(N, qn.n)
        reference = psi_every_row(sector, report.momenta)
        error = np.max(np.abs(build_psi(sector, report.momenta) - reference))
        assert error <= 1e-12 * np.max(np.abs(reference)), (N, qn.n, c)
        return sector, report.momenta

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 2.5])
    def test_ground_labels(self, c):
        for N in range(2, 15):
            for n in range(N // 2 + 1):
                self.assert_matches_every_row(N, ground_state_quantum_numbers(n), c)

    @pytest.mark.parametrize("N, labels, c", [(10, (-2, 0, 1), 1.3),
                                              (12, (-1.5, -0.5, 0.5, 2.5), 2.0)])
    def test_nonzero_total_momentum(self, N, labels, c):
        # P = 2 pi sum(I) / N != 0 tells e^{+iPt} from e^{-iPt}
        _, m = self.assert_matches_every_row(N, QuantumNumbers(labels), c)
        assert abs(np.exp(1j * sum(m.momenta)) - 1.0) > 0.5

    @pytest.mark.parametrize("N, n", [(8, 4), (12, 4), (12, 6)])
    def test_short_period_orbits(self, N, n):
        sector, _ = self.assert_matches_every_row(N, ground_state_quantum_numbers(n), 1.0)
        assert np.any(sector.orbits()[3] < N)

    def test_single_particle(self):
        for N, label in ((7, 0), (7, 1), (9, -1)):
            self.assert_matches_every_row(N, QuantumNumbers((label,)), 1.0)


class TestEigenvalues:
    def test_empty_set(self):
        assert transfer_eigenvalue(momentum_set(()), 8) == (2.0 + 0.0j, False)

    def test_single_nonzero_momentum(self):
        for c in (0.5, 1.0, 2.0):
            N = 16  # keeps 2*pi/N inside the narrow c = 0.5 domain
            m = momentum_set((2.0 * math.pi / N,), c)
            lam, singular = transfer_eigenvalue(m, N)
            assert singular is False
            assert lam == pytest.approx(2.0 - c * c, rel=1e-13)

    def test_single_zero_momentum(self):
        for c, N in ((0.5, 6), (1.0, 8), (2.0, 10)):
            m = momentum_set((0.0,), c)
            assert transfer_eigenvalue(m, N) == (complex(2.0 + c * c * (N - 1)), True)

    def test_branch_dispatch(self):
        # the zero-momentum branch: [2 + c^2 (N-1) + c^2 d1 theta(0, p)] M(e^{ip})
        m = momentum_set((0.0, 0.7))
        lam, singular = transfer_eigenvalue(m, 8)
        assert singular is True
        a = m.anisotropy
        bracket = 2.0 + 7.0 + float(theta_partial_1(0.0, 0.7, a))
        assert lam == pytest.approx(bracket * M_factor(np.exp(0.7j), a), rel=1e-14)

    def test_near_zero_family_uses_regular_branch(self):
        # |p| = 1e-3 sits above the zero threshold: regular branch, no fallthrough
        m = momentum_set((1e-3, 0.7))
        lam, singular = transfer_eigenvalue(m, 8)
        assert singular is False
        assert np.isfinite(lam.real) and np.isfinite(lam.imag)
        z = np.exp(1j * m.as_array())
        a = m.anisotropy
        assert lam == np.prod(L_factor(z, a)) + np.prod(M_factor(z, a))

    def test_regular_branch_refuses_zero(self):
        # one zero takes the derivative branch; two below 1e-9, equal or not, have none
        assert transfer_eigenvalue(momentum_set((0.0, 0.5)), 8)[1] is True
        for values in ((0.0, 0.0), (0.0, 5e-10)):
            m = MomentumSet.relaxed(values, Anisotropy(1.0))
            with pytest.raises(SingularMomentumError, match="more than one momentum is near zero"):
                transfer_eigenvalue(m, 8)

    @pytest.mark.parametrize("values", [(-0.5, 0.5), (0.0, 0.5)], ids=["product", "zero"])
    def test_overflow_refused_on_either_branch(self, values):
        # at c = 1e100 each factor is about c^2, so two overflow a double
        with pytest.raises(DomainError, match="predicted transfer eigenvalue overflows"):
            transfer_eigenvalue(momentum_set(values, 1e100), 8)


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

    @staticmethod
    def _kernel_shapes(monkeypatch, m, N):
        """The shape of every S that bethe_residual(m, N) forms; its values
        are checked against the n x n formula, bit for bit."""
        p, n = m.as_array(), m.n
        phases = theta(p[:, None], p[None, :], m.anisotropy).sum(axis=1)
        expected = np.exp(1j * N * p) - (-1.0) ** (n - 1) * np.exp(-1j * phases)
        shapes, kernel = [], functions._kernel

        def recording(x, y, *rest):
            shapes.append(np.broadcast(np.asarray(x), np.asarray(y)).shape)
            return kernel(x, y, *rest)

        monkeypatch.setattr(functions, "_kernel", recording)
        assert np.array_equal(bethe_residual(m, N), expected)
        return shapes

    SIZES = [(7, 3), (7, 2), (12, 5), (12, 6), (64, 31), (64, 32), (201, 99), (201, 100)]

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("N, n", SIZES)
    def test_odd_root_takes_the_half_block(self, monkeypatch, N, n, c):
        # a ground-state root is odd, p == -p[::-1]: its phase sums take theta
        # on the ceil(n/2) x n block of rows p[n//2:] alone, bit for bit
        m = solve(N, ground_state_quantum_numbers(n), Anisotropy(c)).momenta
        p = m.as_array()
        assert np.array_equal(p, -p[::-1])
        assert self._kernel_shapes(monkeypatch, m, N) == [(n - n // 2, n)]

    @pytest.mark.parametrize("N, n", SIZES)
    def test_other_momenta_take_the_full_grid(self, monkeypatch, N, n):
        labels = QuantumNumbers(tuple(v + 1 for v in ground_state_quantum_numbers(n).values))
        m = solve(N, labels, Anisotropy(1.0)).momenta
        p = m.as_array()
        assert not np.array_equal(p, -p[::-1])
        assert self._kernel_shapes(monkeypatch, m, N) == [(n, n)]


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
        pred = full_prediction(sector, rep.momenta)
        blk = build_transfer_block(sector, a)
        residual, _ = check_eigenpair(blk, pred.psi, pred.lam)
        assert residual < 1e-9
        assert abs(pred.lam.imag) < 1e-9
        assert pred.psi_norm > 1e-6 * math.sqrt(sector.dim)

    def test_sector_mismatch(self):
        with pytest.raises(SectorMismatchError):
            build_psi(enumerate_sector(8, 3), momentum_set((0.1, 0.5)))
