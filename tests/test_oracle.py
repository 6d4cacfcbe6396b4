import math

import numpy as np
import pytest

from bethe6v import (
    Anisotropy,
    CapExceededError,
    SectorMatrix,
    VertexWeights,
    build_hamiltonian_block,
    build_transfer_block,
    check_eigenpair,
    dense_eigenvalues,
    dense_spectrum,
    energy_prediction,
    enumerate_sector,
    ground_state_quantum_numbers,
    match_eigenvalue,
    solve,
    trace_power,
)


def make_matrix(entries, kind="transfer"):
    entries = np.asarray(entries, dtype=float)
    dim = entries.shape[0]
    # n chosen so the sector dimension is irrelevant for these synthetic cases
    return SectorMatrix(dim, 1, dim, entries, enumerate_sector(dim, 1), kind)


class TestDenseSpectrum:
    def test_scalar_block(self):
        blk = build_transfer_block(3, 0, VertexWeights(c=1.1))
        spec = dense_spectrum(blk)
        assert spec.eigenvalues.tolist() == [2.0]

    def test_single_particle_closed_form(self):
        for c in (0.5, math.sqrt(2.0), 2.0):
            N = 7
            blk = build_transfer_block(N, 1, VertexWeights(c=c))
            spec = dense_spectrum(blk)
            expected = np.sort(np.array([2.0 - c * c] * (N - 1) + [2.0 + c * c * (N - 1)]))
            assert np.allclose(spec.eigenvalues, expected, rtol=0, atol=1e-12)
            # the degenerate level matches as a cluster of N-1 indices
            hits = match_eigenvalue(2.0 - c * c, spec.eigenvalues, 1e-10)
            assert len(hits) == N - 1

    def test_flip_symmetric_spectra(self):
        w = VertexWeights(c=1.7)
        for N in (5, 6):
            for n in range(N // 2 + 1):
                lo = dense_spectrum(build_transfer_block(N, n, w)).eigenvalues
                hi = dense_spectrum(build_transfer_block(N, N - n, w)).eigenvalues
                assert np.max(np.abs(lo - hi)) < 1e-10 * max(1.0, np.max(np.abs(lo)))

    def test_self_consistency_defects(self):
        blk = build_transfer_block(8, 3, VertexWeights(c=0.8))
        spec = dense_spectrum(blk)
        assert spec.orthonormality_defect < 1e-10 * blk.dim
        assert spec.reconstruction_defect < 1e-10

    def test_trace_consistency(self):
        blk = build_transfer_block(8, 4, VertexWeights(c=1.4))
        spec = dense_spectrum(blk)
        trace = float(np.trace(blk.entries))
        assert abs(np.sum(spec.eigenvalues) - trace) <= 1e-10 * abs(trace)

    def test_power_trace_cross_check(self):
        # sum over blocks of sum(lambda^M) ties the oracle to the trace identity
        N, M, c = 5, 3, 1.2
        w = VertexWeights(c=c)
        total = 0.0
        for n in range(N + 1):
            spec = dense_spectrum(build_transfer_block(N, n, w))
            total += float(np.sum(spec.eigenvalues ** M))
        reference = trace_power(N, M, w)
        assert abs(total - reference) <= 1e-9 * abs(reference)

    def test_rejects_asymmetric(self):
        bad = make_matrix([[1.0, 2.0], [2.0 + 1e-9, 1.0]])
        for route in (dense_spectrum, dense_eigenvalues):
            with pytest.raises(ValueError):
                route(bad)

    def test_dimension_cap(self, monkeypatch):
        blk = build_transfer_block(8, 4, VertexWeights(c=1.0))
        monkeypatch.setenv("BETHE6V_SPECTRUM_CAP", "10")
        with pytest.raises(CapExceededError):
            dense_spectrum(blk)
        with pytest.raises(CapExceededError):
            dense_eigenvalues(blk)


class TestDenseEigenvalues:
    BLOCKS = (
        (3, 0, 1.1), (7, 1, 0.5), (7, 1, math.sqrt(2.0)), (7, 1, 2.0), (5, 2, 1.7),
        (6, 3, 1.7), (8, 3, 0.8), (8, 4, 1.4), (5, 2, 1.2),
    )

    def test_matches_full_decomposition(self):
        for N, n, c in self.BLOCKS:
            blk = build_transfer_block(N, n, VertexWeights(c=c))
            full = dense_spectrum(blk).eigenvalues
            vals = dense_eigenvalues(blk)
            scale = max(1.0, float(np.max(np.abs(full))))
            assert np.max(np.abs(vals - full)) <= 1e-13 * scale, (N, n, c)


class TestCheckEigenpair:
    def test_exact_diagonal_pair(self):
        m = make_matrix(np.diag([1.0, 3.0, 7.0]))
        v = np.array([0.0, 1.0, 0.0])
        assert check_eigenpair(m, v, 3.0) < 1e-15

    def test_row_sum_eigenvector(self):
        c, N = 1.6, 6
        blk = build_transfer_block(N, 1, VertexWeights(c=c))
        ones = np.ones(N)
        assert check_eigenpair(blk, ones, 2.0 + c * c * (N - 1)) < 1e-12

    def test_random_vector_is_far(self):
        blk = build_transfer_block(6, 2, VertexWeights(c=1.0))
        rng = np.random.default_rng(0)
        v = rng.standard_normal(blk.dim)
        assert check_eigenpair(blk, v, 1.234) > 1e-3

    def test_zero_vector_rejected(self):
        m = make_matrix(np.eye(2))
        with pytest.raises(ValueError):
            check_eigenpair(m, np.zeros(2), 1.0)

    def test_dimension_mismatch_rejected(self):
        m = make_matrix(np.eye(2))
        with pytest.raises(ValueError):
            check_eigenpair(m, np.ones(3), 1.0)


class TestMatchEigenvalue:
    def test_no_match_outside_range(self):
        assert match_eigenvalue(10.0, np.array([1.0, 2.0]), 1e-8) == []

    def test_ascending_index_order(self):
        hits = match_eigenvalue(1.4, np.array([1.0, 1.5, 4.0]), 0.5)
        assert hits == [0, 1]

    def test_degenerate_level_index_independent_of_lapack_route(self):
        # (12, 6) at c = 50: the predicted energy sits in an exactly
        # degenerate pair, whose members eigvalsh and eigh can round in
        # opposite orders
        a = Anisotropy(50.0)
        momenta = solve(12, ground_state_quantum_numbers(6), a).momenta
        energy = energy_prediction(momenta, 12, a.delta)
        block = build_hamiltonian_block(12, 6, a.delta)
        by_values = match_eigenvalue(energy, dense_eigenvalues(block), 1e-8)
        by_pairs = match_eigenvalue(energy, dense_spectrum(block).eigenvalues, 1e-8)
        assert by_values == by_pairs == [922, 923]

    def test_relative_tolerance_for_large_values(self):
        eigenvalues = np.array([1e6, 2e6])
        assert match_eigenvalue(1e6 * (1.0 + 1e-9), eigenvalues, 1e-8) == [0]
