import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bethe6v import (
    Anisotropy,
    DomainError,
    check_eigenpair,
    commutator_probe,
    energy_prediction,
    enumerate_sector,
    ground_state_quantum_numbers,
    hamiltonian_operator,
    log_trace_power,
    match_eigenvalue,
    momentum_spectra,
    solve,
    transfer_operator,
)
from bethe6v.cli import _spectrum

from helpers import (SectorMatrix, build_hamiltonian_block, build_transfer_block, dense_eigenvalues,
                     free_fermion_spectra)


def make_matrix(entries):
    entries = np.asarray(entries, dtype=float)
    dim = entries.shape[0]
    # n chosen so the sector dimension is irrelevant for these synthetic cases
    return SectorMatrix(entries, enumerate_sector(dim, 1))


class TestDenseSpectrum:
    def test_scalar_block(self):
        blk = build_transfer_block(enumerate_sector(3, 0), Anisotropy(1.1))
        assert dense_eigenvalues(blk).tolist() == [2.0]

    def test_single_particle_closed_form(self):
        for c in (0.5, math.sqrt(2.0), 2.0):
            N = 7
            blk = build_transfer_block(enumerate_sector(N, 1), Anisotropy(c))
            eigenvalues = dense_eigenvalues(blk)
            expected = np.sort(np.array([2.0 - c * c] * (N - 1) + [2.0 + c * c * (N - 1)]))
            assert np.allclose(eigenvalues, expected, rtol=0, atol=1e-12)
            # the degenerate level matches as a cluster of N-1 indices
            hits = match_eigenvalue(2.0 - c * c, eigenvalues, 1e-10)
            assert len(hits) == N - 1

    def test_flip_symmetric_spectra(self):
        w = Anisotropy(1.7)
        for N in (5, 6):
            for n in range(N // 2 + 1):
                lo = dense_eigenvalues(build_transfer_block(enumerate_sector(N, n), w))
                hi = dense_eigenvalues(build_transfer_block(enumerate_sector(N, N - n), w))
                assert np.max(np.abs(lo - hi)) < 1e-10 * max(1.0, np.max(np.abs(lo)))

    def test_trace_consistency(self):
        blk = build_transfer_block(enumerate_sector(8, 4), Anisotropy(1.4))
        trace = float(np.trace(blk.entries))
        assert abs(np.sum(dense_eigenvalues(blk)) - trace) <= 1e-10 * abs(trace)

    def test_power_trace_cross_check(self):
        # sum over blocks of sum(lambda^M) ties the oracle to the trace identity
        N, M, c = 5, 3, 1.2
        w = Anisotropy(c)
        total = 0.0
        for n in range(N + 1):
            blk = build_transfer_block(enumerate_sector(N, n), w)
            total += float(np.sum(dense_eigenvalues(blk) ** M))
        reference = math.exp(log_trace_power(N, M, w))
        assert abs(total - reference) <= 1e-9 * abs(reference)

    def test_rejects_asymmetric(self):
        bad = make_matrix([[1.0, 2.0], [2.0 + 1e-9, 1.0]])
        with pytest.raises(ValueError):
            dense_eigenvalues(bad)

    @pytest.mark.parametrize("entry, value", [((0, 1), math.nan), ((0, 0), math.inf),
                                              ((2, 3), -math.inf)])
    def test_rejects_non_finite_entries(self, entry, value):
        blk = build_transfer_block(enumerate_sector(4, 2), Anisotropy(1.0))
        entries = blk.entries.copy()
        entries[entry] = value
        bad = make_matrix(entries)
        with pytest.raises(DomainError, match="overflow"):
            dense_eigenvalues(bad)


class TestMomentumSpectra:
    """The momentum-block spectra of V and H against the dense oracle.

    Both routes round like eps times the operator's norm, so the values are
    compared on the scale of the largest eigenvalue, max(1, max |lambda|).
    """

    @staticmethod
    def assert_matches_the_oracle(N, n, c):
        sector, a = enumerate_sector(N, n), Anisotropy(c)
        kinds = ["transfer"] + (["hamiltonian"] if N >= 2 else [])
        for kind in kinds:
            if kind == "transfer":
                op, block = transfer_operator(sector, a), build_transfer_block(sector, a)
            else:
                op = hamiltonian_operator(sector, a.delta)
                block = build_hamiltonian_block(sector, a.delta)
            dense, spectrum = dense_eigenvalues(block), _spectrum(op, c)
            assert spectrum.shape == (sector.dim,), (N, n, c, kind)
            scale = max(1.0, float(np.max(np.abs(dense))))
            assert np.max(np.abs(spectrum - dense)) <= 1e-12 * scale, (N, n, c, kind)

    @pytest.mark.parametrize("c", [0.3, 1.0, math.sqrt(2.0), 2.5, 7.0])
    def test_every_sector_up_to_twelve_sites(self, c):
        for N in range(1, 13):
            for n in range(N + 1):
                self.assert_matches_the_oracle(N, n, c)

    def test_closed_form_spectra_at_c_sqrt_2(self):
        # delta = 0: every n-subset of the allowed momenta gives one level of V and of H
        c = math.sqrt(2.0)
        for N in range(2, 13):
            for n in range(N + 1):
                sector, a = enumerate_sector(N, n), Anisotropy(c)
                v, e = free_fermion_spectra(N, n)
                ops = transfer_operator(sector, a), hamiltonian_operator(sector, a.delta)
                for op, closed in zip(ops, (v, e)):
                    spectrum = _spectrum(op, c)
                    scale = max(1.0, float(np.max(np.abs(spectrum))))
                    assert np.max(np.abs(spectrum - closed)) <= 1e-13 * scale, (N, n, op)

    def test_huge_weights(self):
        # V's entries reach c^6 = 1e180: the blocks are scaled by a power of two
        self.assert_matches_the_oracle(6, 3, 1e30)

    def test_all_zero_hamiltonian(self):
        # n = 0 has no hops, and delta = 1 - c^2 / 2 is 0 up to rounding at
        # c = sqrt(2) and exactly 0 when given: H is (about) 0, and no scale
        for N in (2, 5, 12):
            self.assert_matches_the_oracle(N, 0, math.sqrt(2.0))
            sector = enumerate_sector(N, 0)
            rows_of = hamiltonian_operator(sector, 0.0).rows
            spectra, weights, exponent = momentum_spectra(sector, rows_of)
            assert (spectra[weights > 0].tolist(), weights.sum(), exponent) == ([0.0], 1, 0)

    def test_weights_count_every_state(self):
        for N, n in ((2, 0), (2, 1), (6, 3), (9, 3), (12, 6)):
            sector, a = enumerate_sector(N, n), Anisotropy(1.3)
            for op in (transfer_operator(sector, a), hamiltonian_operator(sector, a.delta)):
                spectra, weights, _ = momentum_spectra(sector, op.rows)
                assert spectra.shape == weights.shape == (N // 2 + 1, sector.orbits()[0].size)
                assert int(weights.sum()) == sector.dim

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, value):
        sector = enumerate_sector(6, 2)
        rows_of = transfer_operator(sector, Anisotropy(1.0)).rows

        def poisoned(states):
            rows = rows_of(states)
            rows[0, 1] = value  # the first representative's row, at another state
            return rows

        with pytest.raises(DomainError, match="overflow"):
            momentum_spectra(sector, poisoned)


class TestDenseEigenvalues:
    BLOCKS = (
        (3, 0, 1.1), (7, 1, 0.5), (7, 1, math.sqrt(2.0)), (7, 1, 2.0), (5, 2, 1.7),
        (6, 3, 1.7), (8, 3, 0.8), (8, 4, 1.4), (5, 2, 1.2),
    )

    def test_matches_full_decomposition(self):
        for N, n, c in self.BLOCKS:
            blk = build_transfer_block(enumerate_sector(N, n), Anisotropy(c))
            full = np.linalg.eigh(blk.entries)[0]  # with eigenvectors
            vals = dense_eigenvalues(blk)
            scale = max(1.0, float(np.max(np.abs(full))))
            assert np.max(np.abs(vals - full)) <= 1e-13 * scale, (N, n, c)


class TestCheckEigenpair:
    def test_exact_diagonal_pair(self):
        m = make_matrix(np.diag([1.0, 3.0, 7.0]))
        v = np.array([0.0, 1.0, 0.0])
        residual, bracket = check_eigenpair(m, v, 3.0)
        assert residual < 1e-15
        assert bracket is None  # x is not strictly positive

    def test_row_sum_eigenvector(self):
        c, N = 1.6, 6
        blk = build_transfer_block(enumerate_sector(N, 1), Anisotropy(c))
        ones = np.ones(N)
        top = 2.0 + c * c * (N - 1)
        residual, (lo, hi) = check_eigenpair(blk, ones, top)
        assert residual < 1e-12
        assert lo == pytest.approx(top, rel=1e-15) and hi == pytest.approx(top, rel=1e-15)

    def test_random_vector_is_far(self):
        blk = build_transfer_block(enumerate_sector(6, 2), Anisotropy(1.0))
        rng = np.random.default_rng(0)
        v = rng.standard_normal(blk.dim)
        assert check_eigenpair(blk, v, 1.234)[0] > 1e-3

    def test_zero_vector_rejected(self):
        m = make_matrix(np.eye(2))
        with pytest.raises(ValueError):
            check_eigenpair(m, np.zeros(2), 1.0)

    def test_dimension_mismatch_rejected(self):
        m = make_matrix(np.eye(2))
        with pytest.raises(ValueError):
            check_eigenpair(m, np.ones(3), 1.0)

    def test_residual_bit_identical_to_plain_norm(self):
        blk = build_transfer_block(enumerate_sector(8, 3), Anisotropy(1.3))
        psi = np.exp(0.3j) * np.linspace(1.0, 2.0, blk.dim)
        A = blk.entries
        plain = float(np.linalg.norm(A @ psi.real + 1j * (A @ psi.imag) - 5.0 * psi)
                      / np.linalg.norm(psi))
        assert check_eigenpair(blk, psi, 5.0)[0] == plain

    def test_norm_repeats_across_blas_thread_counts(self):
        # no chunk is long enough for BLAS to split its sum over threads, which makes
        # np.linalg.norm of 20,000 entries differ in the last bit between 1 and 2 threads
        code = ("import numpy as np; from bethe6v.oracle import _norm; "
                "v = np.random.default_rng(5).standard_normal((2, 20000)); z = v[0] + 1j * v[1]; "
                "print(_norm(z).hex(), _norm(z.real).hex())")
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               timeout=60, check=True,
                               env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=t)).stdout
                for t in ("1", "2")]
        assert runs[0] == runs[1] and runs[0].count("0x") == 2

    def test_residual_has_no_overflowing_square(self):
        # every square of these entries overflows a double
        m = make_matrix(np.diag([1e200, 2e200]))
        residual, _ = check_eigenpair(m, np.array([1.0, 1.0]), 1e200)
        assert residual == pytest.approx(1e200 / math.sqrt(2.0), rel=1e-15)


class TestOperatorInterface:
    def test_checks_read_only_n_dim_matmul_and_frobenius(self):
        a, sector = Anisotropy(1.3), enumerate_sector(8, 3)
        blk, h = build_transfer_block(sector, a), build_hamiltonian_block(sector, a.delta)

        class Minimal:
            __slots__ = ()
            N, n, dim = 8, 3, blk.dim

            def __matmul__(self, x):
                return blk @ x

            def frobenius(self):
                return blk.frobenius()

        psi = np.exp(0.3j) * np.linspace(1.0, 2.0, blk.dim)
        assert check_eigenpair(Minimal(), psi, 5.0) == check_eigenpair(blk, psi, 5.0)
        assert commutator_probe(Minimal(), h) == commutator_probe(blk, h)


class TestCollatzWielandtBracket:
    """check_eigenpair's bracket holds the top eigenvalue for any positive x."""

    @pytest.mark.parametrize("kind", ["transfer", "hamiltonian"])
    def test_positive_vectors_bracket_the_top(self, kind):
        a, sector = Anisotropy(1.3), enumerate_sector(8, 3)
        blk = (build_transfer_block(sector, a) if kind == "transfer"
               else build_hamiltonian_block(sector, a.delta))
        top = dense_eigenvalues(blk)[-1]
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(0.5, 2.0, blk.dim)
            _, (lo, hi) = check_eigenpair(blk, x, top)
            assert lo <= top <= hi

    @pytest.mark.parametrize("phase", [0.0, 0.7, math.pi, -2.0])
    def test_global_phase_is_removed(self, phase):
        blk = build_transfer_block(enumerate_sector(8, 3), Anisotropy(0.8))
        values, vectors = np.linalg.eigh(blk.entries)
        ground = np.abs(vectors[:, -1])
        _, (lo, hi) = check_eigenpair(blk, np.exp(1j * phase) * ground, values[-1])
        assert lo <= hi
        assert hi - lo <= 1e-12 * values[-1]
        assert lo == pytest.approx(values[-1], rel=1e-12)

    def test_excited_eigenvector_has_no_bracket(self):
        # (Ax)_i / x_i = lambda for every eigenvector, so only positivity
        # makes the bracket a bound on the top level
        blk = build_transfer_block(enumerate_sector(8, 3), Anisotropy(0.8))
        values, vectors = np.linalg.eigh(blk.entries)
        residual, bracket = check_eigenpair(blk, vectors[:, -2], values[-2])
        assert residual < 1e-12
        assert bracket is None

    def test_vector_with_a_zero_entry_has_no_bracket(self):
        blk = build_transfer_block(enumerate_sector(6, 2), Anisotropy(1.0))
        x = np.ones(blk.dim)
        x[3] = 0.0
        assert check_eigenpair(blk, x, 1.0)[1] is None


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
        block = build_hamiltonian_block(enumerate_sector(12, 6), a.delta)
        by_values = match_eigenvalue(energy, dense_eigenvalues(block), 1e-8)
        by_pairs = match_eigenvalue(energy, np.linalg.eigh(block.entries)[0], 1e-8)
        assert by_values == by_pairs == [922, 923]

    def test_relative_tolerance_for_large_values(self):
        eigenvalues = np.array([1e6, 2e6])
        assert match_eigenvalue(1e6 * (1.0 + 1e-9), eigenvalues, 1e-8) == [0]
