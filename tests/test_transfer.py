import dataclasses
import math

import numpy as np
import pytest

from bethe6v import (
    CapExceededError,
    OccupationVector,
    VertexWeights,
    build_transfer_block,
    build_transfer_block_by_configuration,
    enumerate_row_completions,
    interlaced,
    matrix_text,
    mismatch_count,
    partition_function_bruteforce,
    trace_power,
    write_matrix,
)

from helpers import raw_torus_partition


class TestVertexWeights:
    def test_defaults(self):
        # c is the only weight; the other vertices weigh 1
        assert dataclasses.astuple(VertexWeights(c=1.5)) == (1.5,)

    def test_validation(self):
        with pytest.raises(ValueError):
            VertexWeights(c=0.0)
        with pytest.raises(TypeError):
            VertexWeights(c=1.0, a=2.0)


class TestTransferBlock:
    def test_two_site_block(self):
        blk = build_transfer_block(2, 1, VertexWeights(c=1.5))
        assert blk.entries.tolist() == [[2.0, 2.25], [2.25, 2.0]]

    def test_empty_sector_block(self):
        blk = build_transfer_block(3, 0, VertexWeights(c=0.7))
        assert blk.entries.tolist() == [[2.0]]

    def test_single_particle_structure(self):
        # every pair of one-particle states is interlaced with mismatch 2
        c = 1.3
        blk = build_transfer_block(4, 1, VertexWeights(c=c))
        expected = (2.0 - c * c) * np.eye(4) + c * c * np.ones((4, 4))
        assert np.allclose(blk.entries, expected, rtol=0, atol=1e-15)
        by_conf = build_transfer_block_by_configuration(4, 1, VertexWeights(c=c))
        assert np.array_equal(blk.entries, by_conf.entries)

    def test_symmetry_and_diagonal(self):
        for c in (0.5, math.sqrt(2.0), 2.0):
            blk = build_transfer_block(6, 3, VertexWeights(c=c))
            assert np.array_equal(blk.entries, blk.entries.T)
            assert np.all(np.diag(blk.entries) == 2.0)
            assert np.all(blk.entries >= 0.0)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("BETHE6V_DIM_CAP", "10")
        with pytest.raises(CapExceededError):
            build_transfer_block(8, 4, VertexWeights(c=1.0))


class TestConfigurationOracle:
    def test_equality_all_small_sectors(self):
        # c = 1.3: powers of c^2 round, so only the same products agree bit for bit
        for c in (0.5, math.sqrt(2.0), 2.0, 1.3):
            w = VertexWeights(c=c)
            for N in range(1, 8):
                for n in range(N + 1):
                    direct = build_transfer_block(N, n, w).entries
                    by_conf = build_transfer_block_by_configuration(N, n, w).entries
                    assert np.array_equal(direct, by_conf), (N, n, c)

    def test_multiword_ring_matches_pair_predicates(self):
        # N = 70 spreads the occupation bitmasks over two 64-bit words
        c = 1.3
        blk = build_transfer_block(70, 2, VertexWeights(c=c))
        states = blk.basis.states
        rng = np.random.default_rng(3)
        for i, j in rng.integers(0, blk.dim, size=(3000, 2)):
            x, y = states[i], states[j]
            if i == j:
                expected = 2.0
            elif interlaced(x, y):
                expected = (c * c) ** (mismatch_count(x, y) // 2)
            else:
                expected = 0.0
            assert blk.entries[i, j] == pytest.approx(expected, rel=1e-15), (x, y)

    def test_diagonal_has_two_completions(self):
        w = VertexWeights(c=1.7)
        x = OccupationVector((1, 3), 5)
        weights = enumerate_row_completions(x.spins(), x.spins(), w)
        assert weights == [1.0, 1.0]

    def test_non_interlaced_has_no_completion(self):
        w = VertexWeights(c=1.7)
        x = OccupationVector((1, 2), 4)
        y = OccupationVector((3, 4), 4)
        assert enumerate_row_completions(x.spins(), y.spins(), w) == []

    def test_interlaced_pair_unique_completion(self):
        w = VertexWeights(c=1.7)
        x = OccupationVector((1,), 2)
        y = OccupationVector((2,), 2)
        weights = enumerate_row_completions(x.spins(), y.spins(), w)
        assert len(weights) == 1
        assert weights[0] == pytest.approx(1.7 ** 2, rel=1e-15)


class TestPartitionFunction:
    def test_smallest_torus_against_raw_enumeration(self):
        for c in (0.5, 1.0, 1.5):
            w = VertexWeights(c=c)
            z = partition_function_bruteforce(2, 2, w)
            assert z == pytest.approx(raw_torus_partition(2, 2, c), rel=1e-14)
            assert z == pytest.approx(16.0 + 2.0 * c ** 4, rel=1e-14)
            assert z == pytest.approx(trace_power(2, 2, w), rel=1e-13)

    def test_matches_trace_power(self):
        for (N, M) in ((2, 3), (3, 2), (3, 3)):
            w = VertexWeights(c=1.25)
            z = partition_function_bruteforce(N, M, w)
            t = trace_power(N, M, w)
            assert abs(z - t) <= 1e-12 * t

    def test_polarized_lower_bound(self):
        # the two fully polarized configurations alone contribute weight 2
        assert partition_function_bruteforce(3, 2, VertexWeights(c=0.1)) >= 2.0

    def test_rejects_degenerate_torus(self):
        w = VertexWeights(c=1.0)
        with pytest.raises(ValueError):
            partition_function_bruteforce(1, 3, w)
        with pytest.raises(ValueError):
            partition_function_bruteforce(3, 1, w)

    def test_enumeration_cap(self):
        with pytest.raises(CapExceededError):
            partition_function_bruteforce(4, 4, VertexWeights(c=1.0), enum_cap=14)


class TestTracePower:
    def test_single_power_is_total_diagonal(self):
        # trace of V itself: 2 per basis state over all 2^N states
        assert trace_power(2, 1, VertexWeights(c=0.9)) == pytest.approx(8.0)
        assert trace_power(3, 1, VertexWeights(c=2.5)) == pytest.approx(16.0)

    def test_positive(self):
        assert trace_power(4, 3, VertexWeights(c=0.3)) > 0.0


class TestMatrixDump:
    def test_header_and_round_trip(self, tmp_path):
        blk = build_transfer_block(4, 2, VertexWeights(c=math.sqrt(2.0)))
        path = tmp_path / "block.txt"
        write_matrix(blk, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "4 2 6 transfer"
        assert len(lines) == 1 + blk.dim
        parsed = np.array([[float(v) for v in row.split()] for row in lines[1:]])
        assert np.array_equal(parsed, blk.entries)

    def test_text_matches_writer(self, tmp_path):
        blk = build_transfer_block(3, 1, VertexWeights(c=0.8))
        path = tmp_path / "b.txt"
        write_matrix(blk, path)
        assert path.read_text() == matrix_text(blk)
