import math

import numpy as np
import pytest

from bethe6v import (
    Anisotropy,
    DomainError,
    HamiltonianOperator,
    TransferOperator,
    enumerate_sector,
    log_polynomial,
    log_trace_power,
    partition_function_bruteforce,
    transfer_operator,
)
from bethe6v.oracle import _ROW_ELEMENTS, _norm

from helpers import (
    build_hamiltonian_block,
    build_transfer_block,
    build_transfer_block_by_configuration,
    dense_eigenvalues,
    enumerate_row_completions,
    enumerate_torus_counts,
    exact_trace_power,
    raw_torus_partition,
    run_cli,
    spins,
)


class TestTransferBlock:
    def test_two_site_block(self):
        blk = build_transfer_block(enumerate_sector(2, 1), Anisotropy(1.5))
        assert blk.entries.tolist() == [[2.0, 2.25], [2.25, 2.0]]

    def test_empty_sector_block(self):
        blk = build_transfer_block(enumerate_sector(3, 0), Anisotropy(0.7))
        assert blk.entries.tolist() == [[2.0]]

    def test_single_particle_structure(self):
        # every pair of one-particle states is interlaced with mismatch 2
        c = 1.3
        sector = enumerate_sector(4, 1)
        blk = build_transfer_block(sector, Anisotropy(c))
        expected = (2.0 - c * c) * np.eye(4) + c * c * np.ones((4, 4))
        assert np.allclose(blk.entries, expected, rtol=0, atol=1e-15)
        by_conf = build_transfer_block_by_configuration(sector, Anisotropy(c))
        assert np.array_equal(blk.entries, by_conf.entries)

    def test_symmetry_and_diagonal(self):
        for c in (0.5, math.sqrt(2.0), 2.0):
            blk = build_transfer_block(enumerate_sector(6, 3), Anisotropy(c))
            assert np.array_equal(blk.entries, blk.entries.T)
            assert np.all(np.diag(blk.entries) == 2.0)
            assert np.all(blk.entries >= 0.0)


class TestTransferOperator:
    """The row sweep against the bitmask block, its oracle at 1e-15 relative."""

    SECTORS = [(N, n) for N in range(1, 13) for n in range(N + 1)] + [(40, 2)]

    @pytest.mark.parametrize("c", [0.3, 1.0, 2.5])
    def test_sweep_matches_the_block(self, c):
        a = Anisotropy(c)
        rng = np.random.default_rng(5)
        for N, n in self.SECTORS:
            sector = enumerate_sector(N, n)
            block = build_transfer_block(sector, a).entries
            op = transfer_operator(sector, a)
            x = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
            ref = block @ x
            assert np.max(np.abs(op @ x - ref)) <= 1e-15 * np.max(np.abs(ref)), (N, n)
            # a real vector cancels more: its error is measured against |V| |x|
            real = x.real
            bound = 1e-15 * np.max(block @ np.abs(real))
            assert np.max(np.abs(op @ real - block @ real)) <= bound, (N, n)

    # the largest c whose c^10, the top weight at N = 10, n = 5, is refused by neither
    EDGE = 6.690699980388625e+30

    @pytest.mark.parametrize("c", [0.3, 1.3, 2.5, 123.4, EDGE])
    def test_sweep_on_unit_columns_is_the_rows(self, c):
        # both form c^P as the left-to-right product of its P factors of c
        a = Anisotropy(c)
        rng = np.random.default_rng(11)
        for N, n in [(N, n) for N in range(1, 11) for n in range(N + 1)] + [(70, 2)]:
            sector = enumerate_sector(N, n)
            states = np.arange(sector.dim) if N <= 10 else rng.choice(sector.dim, 40, replace=False)
            x = (np.arange(sector.dim)[:, None] == states).astype(float)
            op = transfer_operator(sector, a)
            assert np.array_equal((op @ x).T, op.rows(states)), (N, n)

    def test_edge_is_the_last_weight_both_accept(self):
        sector, above = enumerate_sector(10, 5), Anisotropy(math.nextafter(self.EDGE, math.inf))
        for build in (lambda: transfer_operator(sector, above),
                      lambda: TransferOperator(sector, above.c).rows(np.arange(1))):
            with pytest.raises(DomainError, match=r"transfer weight c\^10 overflows"):
                build()

    def test_applies_to_each_column_of_a_block_of_vectors(self):
        sector, a = enumerate_sector(9, 4), Anisotropy(1.7)
        op = transfer_operator(sector, a)
        x = np.random.default_rng(7).random((sector.dim, 5))
        got = op @ x
        for k in range(5):
            assert np.array_equal(got[:, k], op @ x[:, k]), k

    def test_polarized_sectors_are_exact(self):
        # no path leaves and returns: V is 2 on both one-state sectors
        for N in (1, 5, 40):
            for n in (0, N):
                op = transfer_operator(enumerate_sector(N, n), Anisotropy(1.7))
                assert (op @ np.array([0.3 - 0.1j])).tolist() == [0.6 - 0.2j]

    @pytest.mark.parametrize("N, n, c", [(8, 3, 1.3), (12, 6, 2.5), (40, 2, 0.3),
                                         (6, 3, 1e30), (10, 5, 1e30), (6, 1, 1e100)])
    def test_frobenius_matches_the_dense_norm(self, N, n, c):
        # at c = 1e30 and 1e100 the squares of V's largest entries overflow
        sector, a = enumerate_sector(N, n), Anisotropy(c)
        dense = _norm(build_transfer_block(sector, a).entries)
        assert transfer_operator(sector, a).frobenius() == pytest.approx(dense, rel=1e-13)

    def test_overflowing_weight_refused_as_by_the_block(self):
        sector, a = enumerate_sector(6, 3), Anisotropy(1e100)
        with pytest.raises(DomainError, match=r"transfer weight c\^6 overflows at c = 1e\+100"):
            transfer_operator(sector, a)

    def test_discarded_paths_may_overflow(self):
        # (6, 1) at c = 1e120: V's entries reach c^2 = 1e240, while a path
        # that never returns to its seed carries c^3 = 1e360
        sector, a = enumerate_sector(6, 1), Anisotropy(1e120)
        x = np.linspace(1.0, 2.0, sector.dim)
        ref = build_transfer_block(sector, a) @ x
        got = transfer_operator(sector, a) @ x
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestConfigurationOracle:
    def test_equality_all_small_sectors(self):
        # c = 1.3: powers of c round, so only the same product order agrees bit for bit
        for c in (0.5, math.sqrt(2.0), 2.0, 1.3):
            w = Anisotropy(c)
            for N in range(1, 8):
                for n in range(N + 1):
                    sector = enumerate_sector(N, n)
                    direct = build_transfer_block(sector, w).entries
                    by_conf = build_transfer_block_by_configuration(sector, w).entries
                    assert np.array_equal(direct, by_conf), (N, n, c)

    def test_multiword_ring_matches_pair_predicates(self):
        # N = 70 and 130 spread the occupation bitmasks over two and three
        # 64-bit words; the row completions weigh c^(2k) by the same
        # left-to-right products as the rows' table, so the two agree exactly
        a = Anisotropy(1.3)
        for N in (70, 130):
            blk = build_transfer_block(enumerate_sector(N, 2), a)
            positions = blk.basis.positions
            rng = np.random.default_rng(3)
            for i, j in rng.integers(0, blk.dim, size=(3000, 2)):
                sx, sy = spins(positions[i], N), spins(positions[j], N)
                expected = sum(enumerate_row_completions(sx, sy, a))
                assert blk.entries[i, j] == expected, (N, i, j)

    def test_diagonal_has_two_completions(self):
        w = Anisotropy(1.7)
        x = spins((1, 3), 5)
        weights = enumerate_row_completions(x, x, w)
        assert weights == [1.0, 1.0]

    def test_non_interlaced_has_no_completion(self):
        w = Anisotropy(1.7)
        assert enumerate_row_completions(spins((1, 2), 4), spins((3, 4), 4), w) == []

    def test_interlaced_pair_unique_completion(self):
        w = Anisotropy(1.7)
        weights = enumerate_row_completions(spins((1,), 2), spins((2,), 2), w)
        assert len(weights) == 1
        assert weights[0] == pytest.approx(1.7 ** 2, rel=1e-15)


class TestPartitionFunction:
    def test_smallest_torus_against_raw_enumeration(self):
        counts = partition_function_bruteforce(2, 2)
        assert counts == [16, 0, 0, 0, 2]  # Z = 16 + 2 c^4
        for c in (0.5, 1.0, 1.5):
            w = Anisotropy(c)
            log_z = log_polynomial(counts, c)
            assert math.exp(log_z) == pytest.approx(raw_torus_partition(2, 2, c), rel=1e-14)
            assert log_z == pytest.approx(log_trace_power(2, 2, w), rel=1e-13)

    def test_matches_trace_power(self):
        for (N, M) in ((2, 3), (3, 2), (3, 3)):
            w = Anisotropy(1.25)
            log_z = log_polynomial(partition_function_bruteforce(N, M), 1.25)
            assert abs(math.expm1(log_z - log_trace_power(N, M, w))) <= 1e-12

    def test_polarized_lower_bound(self):
        # the two fully polarized configurations have no c-vertex
        assert partition_function_bruteforce(3, 2)[0] >= 2

    def test_counts_every_configuration(self):
        # at c = 1 every ice-rule configuration weighs 1
        assert sum(partition_function_bruteforce(3, 2)) == raw_torus_partition(3, 2, 1.0)

    def test_rejects_degenerate_torus(self):
        with pytest.raises(ValueError):
            partition_function_bruteforce(1, 3)
        with pytest.raises(ValueError):
            partition_function_bruteforce(3, 1)

    def test_counts_equal_the_enumeration(self):
        for N in range(2, 8):
            for M in range(2, 8):
                if N * M <= 14:
                    assert partition_function_bruteforce(N, M) == enumerate_torus_counts(N, M)

    def test_transposed_torus(self):
        # the DP sweeps along the short side either way round
        counts = enumerate_torus_counts(7, 2)
        assert enumerate_torus_counts(2, 7) == counts
        assert partition_function_bruteforce(2, 7) == counts
        assert partition_function_bruteforce(7, 2) == counts

    def test_exact_at_the_int64_bound(self):
        # N*M + L + w = 62: the largest 2 x L torus admitted, and its transpose;
        # Tr V^20 on two sites is exact at integer c
        for N, M in ((2, 20), (20, 2)):
            counts = partition_function_bruteforce(N, M)
            for c in (1, 2):
                assert sum(n * c**k for k, n in enumerate(counts)) == exact_trace_power(2, 20, c)

    def test_refuses_int64_overflow_at_once(self):
        for N, M in ((2, 21), (7, 7), (10**6, 10**6)):
            with pytest.raises(DomainError, match="int64"):
                partition_function_bruteforce(N, M)


class TestLogPolynomial:
    def test_small_values(self):
        assert log_polynomial([1, 2], 3.0) == pytest.approx(math.log(7.0), rel=1e-15)
        assert log_polynomial([0, 0, 5], 0.5) == pytest.approx(math.log(1.25), rel=1e-15)

    def test_terms_past_the_double_range(self):
        # 16 + 2 c^4 at c = 1e100: c^4 alone overflows a double
        value = log_polynomial([16, 0, 0, 0, 2], 1e100)
        assert value == pytest.approx(math.log(2.0) + 400.0 * math.log(10.0), rel=1e-15)

    def test_counts_past_the_double_range(self):
        assert log_polynomial([10**400], 1.0) == pytest.approx(400 * math.log(10.0),
                                                             rel=1e-15)


class TestTracePower:
    def test_single_power_is_total_diagonal(self):
        # trace of V itself: 2 per basis state over all 2^N states
        assert log_trace_power(2, 1, Anisotropy(0.9)) == pytest.approx(math.log(8.0))
        assert log_trace_power(3, 1, Anisotropy(2.5)) == pytest.approx(math.log(16.0))

    def test_positive(self):
        # the two polarized states alone give Tr V^M >= 2 * 2^M
        assert log_trace_power(4, 3, Anisotropy(0.3)) > math.log(16.0)

    def test_squares_of_finite_entries_do_not_overflow(self):
        # entries reach c^2 = 1e200, so unscaled products would overflow
        value = log_trace_power(3, 5, Anisotropy(1e100))
        assert math.isfinite(value) and value > 5 * math.log(1e200)

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 7, 8, 12])
    def test_matches_dense_powers(self, M):
        a = Anisotropy(1.3)
        blocks = [build_transfer_block(enumerate_sector(5, n), a).entries for n in range(6)]
        total = sum(np.trace(np.linalg.matrix_power(block, M)) for block in blocks)
        assert log_trace_power(5, M, a) == pytest.approx(math.log(total), rel=1e-14)


class TestMomentumTrace:
    """log Tr(V^M) by momentum blocks against routes that never leave the full sector."""

    def test_arrow_reversal_keeps_the_spectrum(self):
        # the trace counts sector n < N/2 twice for sector N - n
        for N in range(1, 11):
            for n in range(N // 2 + 1):
                for c in (0.5, 1.3, 2.5):
                    a = Anisotropy(c)
                    low = dense_eigenvalues(build_transfer_block(enumerate_sector(N, n), a))
                    high = dense_eigenvalues(build_transfer_block(enumerate_sector(N, N - n), a))
                    assert np.allclose(low, high, rtol=0, atol=1e-13 * np.abs(low).max())

    @pytest.mark.parametrize("c", [0.5, 1.7, 3.0])
    def test_matches_full_sector_spectra(self, c):
        a = Anisotropy(c)
        for N in range(1, 11):
            spectra = [dense_eigenvalues(build_transfer_block(enumerate_sector(N, n), a))
                       for n in range(N + 1)]
            for M in (1, 2, 4, 7):
                total = sum(float(np.sum(lam ** M)) for lam in spectra)
                assert log_trace_power(N, M, a) == pytest.approx(math.log(total), rel=1e-12)

    @pytest.mark.parametrize("N, M", [(4, 400), (6, 300)])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_long_tori_against_exact_integer_powers(self, N, M, c):
        exact = exact_trace_power(N, M, c)
        assert abs(math.expm1(log_trace_power(N, M, Anisotropy(c)) - math.log(exact))) <= 1e-12

    @pytest.mark.parametrize("N, M, c", [(2, 3, 100.0), (4, 3, 100.0), (6, 1, 1e50),
                                         (6, 3, 1e50), (6, 5, 1e50), (8, 7, 100.0)])
    def test_odd_powers_whose_eigenvalues_cancel(self, N, M, c):
        # eigenvalues of both signs near max |lambda|: their sum keeps only
        # about eps max|lambda|^M, far below Tr V^M here, so the sweeps take it
        exact = exact_trace_power(N, M, c)
        assert abs(math.expm1(log_trace_power(N, M, Anisotropy(c)) - math.log(exact))) <= 1e-12

    @pytest.mark.parametrize("M", [2, 4, 12])
    def test_entries_near_the_double_range(self, M):
        # sector 3 of 6 has entries c^6 = 1e300: unscaled eigenvalues would
        # overflow, and Tr V^M >= lambda_max^M >= (1e300)^M for even M
        value = log_trace_power(6, M, Anisotropy(1e50))
        assert math.isfinite(value) and value > M * 300 * math.log(10.0)

    def test_weight_past_the_double_range_is_refused(self):
        # sector 4 of 8 has entries c^8 = 1e400
        with pytest.raises(DomainError):
            log_trace_power(8, 2, Anisotropy(1e50))


class TestMatrixDump:
    @staticmethod
    def dump(tmp_path, N, n, c, kind="transfer", suffix=".txt"):
        path = tmp_path / f"{kind}-{N}-{n}{suffix}"
        code, _ = run_cli(["dump-matrix", "--capital-n", str(N), "--n", str(n),
                           "--c", repr(c), "--kind", kind, "--out", str(path)])
        assert code == 0
        return path.read_text()

    def test_header_and_round_trip(self, tmp_path):
        blk = build_transfer_block(enumerate_sector(4, 2), Anisotropy(math.sqrt(2.0)))
        # plain text whatever the name: np.savetxt given the path would gzip it
        lines = self.dump(tmp_path, 4, 2, math.sqrt(2.0), suffix=".txt.gz").splitlines()
        assert lines[0] == "4 2 6 transfer"
        assert len(lines) == 1 + blk.dim
        parsed = np.array([[float(v) for v in row.split()] for row in lines[1:]])
        assert np.array_equal(parsed, blk.entries)

    def test_text_matches_writer(self, tmp_path):
        # an independent join of 17-digit entries; at c = sqrt(2) delta is -2.2e-16,
        # so the Hamiltonian's diagonal holds rounding-sized entries; the 924 rows
        # of (12, 6) are written in four chunks
        for N, n, c, kind in ((3, 1, 0.8, "transfer"), (6, 3, 1.3, "transfer"),
                              (6, 3, math.sqrt(2.0), "hamiltonian"), (5, 0, 2.5, "hamiltonian"),
                              (12, 6, 1.3, "transfer"), (12, 6, 1.3, "hamiltonian")):
            sector, a = enumerate_sector(N, n), Anisotropy(c)
            blk = (build_transfer_block(sector, a) if kind == "transfer"
                   else build_hamiltonian_block(sector, a.delta))
            rows = [" ".join(format(v, ".17g") for v in row) for row in blk.entries]
            expected = "\n".join([f"{N} {n} {blk.dim} {kind}"] + rows) + "\n"
            assert self.dump(tmp_path, N, n, c, kind) == expected, (N, n, c, kind)

    @pytest.mark.parametrize("kind", ["transfer", "hamiltonian"])
    def test_reads_one_chunk_of_rows_at_a_time(self, tmp_path, monkeypatch, kind):
        calls = []
        operator = TransferOperator if kind == "transfer" else HamiltonianOperator
        rows = operator.rows

        def recorded(op, states):
            calls.append(states.tolist())
            return rows(op, states)

        monkeypatch.setattr(operator, "rows", recorded)
        text = self.dump(tmp_path, 12, 6, 1.3, kind)
        assert len(text.splitlines()) == 1 + 924
        # every row once, in order, and no call past one chunk of rows
        assert len(calls) > 1
        assert sum(calls, []) == list(range(924))
        assert max(map(len, calls)) <= -(-_ROW_ELEMENTS // 924)
