import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bethe6v import (
    Anisotropy,
    MomentumSet,
    SectorMismatchError,
    check_eigenpair,
    commutator_probe,
    energy_prediction,
    enumerate_sector,
    full_prediction,
    ground_state_quantum_numbers,
    hamiltonian_operator,
    solve,
    transfer_operator,
)
from bethe6v.oracle import _norm

from helpers import build_hamiltonian_block, build_transfer_block, commutator_norm, spins


def full_space_hamiltonian(N, delta):
    """Independent construction over all 2^N spin tuples (test oracle).

    A diagonal entry is delta/2 times (like bonds - unlike bonds), taken
    exactly and rounded once.
    """
    states = list(itertools.product((1, -1), repeat=N))
    index = {s: k for k, s in enumerate(states)}
    H = np.zeros((2 ** N, 2 ** N))
    for s, row in index.items():
        like = 0
        for i in range(N):
            j = (i + 1) % N
            if s[i] == s[j]:
                like += 1
            else:
                flipped = list(s)
                flipped[i], flipped[j] = flipped[j], flipped[i]
                H[row, index[tuple(flipped)]] += 1.0
        H[row, row] = float(Fraction(delta) * (2 * like - N) / 2)
    return states, H


class TestOperatorShapes:
    """Both sweep operators against their dense blocks on one vector and on blocks of them."""

    @pytest.mark.parametrize("kind", ["transfer", "hamiltonian"])
    @pytest.mark.parametrize("columns", [None, 3, "dim"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_dense_block(self, kind, columns, dtype):
        # (6, 3) at delta = 0.3: 1 - c^2 / 2 = delta
        sector, a = enumerate_sector(6, 3), Anisotropy(math.sqrt(1.4))
        if kind == "transfer":
            op, block = transfer_operator(sector, a), build_transfer_block(sector, a)
        else:
            op, block = hamiltonian_operator(sector, 0.3), build_hamiltonian_block(sector, 0.3)
        shape = (sector.dim,) if columns is None else (
            sector.dim, sector.dim if columns == "dim" else columns)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(shape)
        if dtype is complex:
            x = x + 1j * rng.standard_normal(shape)
        got, ref = op @ x, block.entries @ x
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(block.entries) @ np.abs(x))


class TestHamiltonianBlock:
    def test_two_site_block(self):
        delta = 0.35
        blk = build_hamiltonian_block(enumerate_sector(2, 1), delta)
        assert np.allclose(
            blk.entries, [[-delta, 2.0], [2.0, -delta]], rtol=0, atol=1e-16
        )

    def test_polarized_sector_diagonal(self):
        for N in (3, 5, 8):
            blk = build_hamiltonian_block(enumerate_sector(N, 0), 0.7)
            assert blk.entries.tolist() == [[pytest.approx(N * 0.7 / 2.0)]]

    def test_alternating_state_diagonal(self):
        delta = 0.9
        sector = enumerate_sector(4, 2)
        blk = build_hamiltonian_block(sector, delta)
        k = sector.ranks(np.array([[1, 3]]))[0]
        assert blk.entries[k, k] == pytest.approx(-2.0 * delta, rel=1e-15)

    def test_aggregate_diagonal_formula(self):
        # site-by-site accumulation equals (delta/2)(N - 2 |boundary set|)
        delta = -0.6
        N, n = 7, 3
        sector = enumerate_sector(N, n)
        blk = build_hamiltonian_block(sector, delta)
        for k in range(sector.dim):
            s = spins(sector.positions[k], N)
            boundaries = int(np.sum(s != np.roll(s, -1)))
            expected = 0.5 * delta * (N - 2 * boundaries)
            assert blk.entries[k, k] == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_symmetry(self):
        blk = build_hamiltonian_block(enumerate_sector(8, 3), -1.2)
        assert np.array_equal(blk.entries, blk.entries.T)

    def test_matches_full_space_projection(self):
        for N, delta in ((4, 0.5), (6, -0.75), (10, 0.3)):
            states, H = full_space_hamiltonian(N, delta)
            for n in range(N + 1):
                sector = enumerate_sector(N, n)
                rows = [states.index(tuple(spins(x, N).tolist()))
                        for x in sector.positions]
                projected = H[np.ix_(rows, rows)]
                blk = build_hamiltonian_block(sector, delta)
                assert np.array_equal(projected, blk.entries), (N, n)
                # exchange preserves particle number: no coupling leaves the sector
                others = [r for r in range(2 ** N) if r not in rows]
                assert not np.any(H[np.ix_(rows, others)])

    def test_given_sector_reused(self):
        sector = enumerate_sector(8, 3)
        for build, arg in ((build_hamiltonian_block, 0.3),
                           (build_transfer_block, Anisotropy(1.3))):
            fresh = build(enumerate_sector(8, 3), arg)
            reused = build(sector, arg)
            assert reused.basis is sector
            assert np.array_equal(reused.entries, fresh.entries)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            build_hamiltonian_block(enumerate_sector(1, 0), 0.5)


class TestHamiltonianOperator:
    """The hop lists against the dense block that scatters them."""

    def test_hops_match_the_block(self):
        rng = np.random.default_rng(2)
        for N in range(2, 13):
            for n in range(N + 1):
                sector = enumerate_sector(N, n)
                block = build_hamiltonian_block(sector, -0.35).entries
                op = hamiltonian_operator(sector, -0.35)
                x = rng.standard_normal(sector.dim) + 1j * rng.standard_normal(sector.dim)
                ref = block.astype(complex) @ x
                scale = max(1.0, float(np.max(np.abs(ref))))
                assert np.max(np.abs(op @ x - ref)) <= 1e-15 * scale, (N, n)
                assert np.max(np.abs(op @ x.real - block @ x.real)) <= 1e-15 * scale, (N, n)

    @pytest.mark.parametrize("N, n", [(7, 3), (8, 3), (9, 1), (10, 4)])
    def test_diagonal_is_the_hop_count_rounded_once(self, N, n):
        # u hops: the entry (N - 2u) delta / 2 rounded once, from c = 0.1 to c = 1.09e154
        sector = enumerate_sector(N, n)
        for delta in (Anisotropy(0.1).delta, 0.3, -0.6, Anisotropy(1.09e154).delta):
            op = hamiltonian_operator(sector, delta)
            for k, x in enumerate(sector.positions):
                s = spins(x, N)
                u = int(np.sum(s != np.roll(s, -1)))
                assert op.diagonal[k] == float(Fraction(delta) * (N - 2 * u) / 2), (k, delta)

    @pytest.mark.parametrize("N, n, c", [(2, 1, 1.0), (5, 2, 0.8), (12, 6, 2.5),
                                         (6, 3, 1e30), (10, 5, 1e30), (6, 1, 1e100)])
    def test_frobenius_matches_the_dense_norm(self, N, n, c):
        # at c = 1e100, delta^2 overflows; at N = 2 both bonds join one pair of states
        sector, delta = enumerate_sector(N, n), Anisotropy(c).delta
        dense = _norm(build_hamiltonian_block(sector, delta).entries)
        assert hamiltonian_operator(sector, delta).frobenius() == pytest.approx(dense, rel=1e-14)

    def test_probe_on_operators_matches_the_blocks(self):
        for c in (0.5, 1.3):
            a = Anisotropy(c)
            for N, n in ((6, 3), (8, 3), (10, 4)):
                sector = enumerate_sector(N, n)
                for delta in (a.delta, a.delta + 0.1):
                    blocks = commutator_probe(build_transfer_block(sector, a),
                                              build_hamiltonian_block(sector, delta))
                    ops = commutator_probe(transfer_operator(sector, a),
                                           hamiltonian_operator(sector, delta))
                    if delta == a.delta:
                        assert ops <= 1e-15 and blocks <= 1e-15, (c, N, n)
                    else:
                        assert ops == pytest.approx(blocks, rel=1e-10), (c, N, n)


class TestEnergyPrediction:
    def test_polarized(self):
        m = MomentumSet((), Anisotropy(1.0))
        assert energy_prediction(m, 6, 0.5) == pytest.approx(6 * 0.5 / 2.0)

    def test_single_zero_momentum(self):
        delta = 0.5
        m = MomentumSet((0.0,), Anisotropy(1.0))
        expected = 8 * delta / 2.0 - 2.0 * (delta - 1.0)
        assert energy_prediction(m, 8, delta) == pytest.approx(expected, rel=1e-15)

    def test_permutation_invariance(self):
        a = Anisotropy(1.0)
        m1 = MomentumSet((-0.7, 0.2, 0.9), a)
        m2 = MomentumSet((0.9, -0.7, 0.2), a)
        assert energy_prediction(m1, 10, a.delta) == pytest.approx(
            energy_prediction(m2, 10, a.delta), rel=1e-15
        )

    def test_eigenpair_residual(self):
        N, n, c = 8, 2, 1.0
        a = Anisotropy(c)
        report = solve(N, ground_state_quantum_numbers(n), a)
        sector = enumerate_sector(N, n)
        pred = full_prediction(sector, report.momenta)
        blk = build_hamiltonian_block(sector, a.delta)
        residual, _ = check_eigenpair(blk, pred.psi, pred.energy)
        assert residual < 1e-9


# the production probe and its dense-product oracle, each with the floor a
# visibly noncommuting pair clears
COMMUTATOR_ROUTES = ((commutator_probe, 1e-11), (commutator_norm, 1e-3))


class TestCommutation:
    def test_commutes_with_matching_delta(self):
        for c in (0.5, 1.0, math.sqrt(2.0), 2.0):
            a = Anisotropy(c)
            for N in (4, 6):
                for n in range(N + 1):
                    sector = enumerate_sector(N, n)
                    v = build_transfer_block(sector, a)
                    h = build_hamiltonian_block(sector, a.delta)
                    for route, _ in COMMUTATOR_ROUTES:
                        assert route(v, h) < 1e-12, (route.__name__, c, N, n)

    def test_scalar_sector_commutes_exactly(self):
        sector = enumerate_sector(5, 0)
        v = build_transfer_block(sector, Anisotropy(1.3))
        for delta in (Anisotropy(1.3).delta, 0.0):  # delta = 0: H is the zero block
            h = build_hamiltonian_block(sector, delta)
            for route, _ in COMMUTATOR_ROUTES:
                assert route(v, h) == 0.0, (route.__name__, delta)

    def test_negative_control_mismatched_delta(self):
        # n = 1 blocks commute with any circulant, so probe n >= 2
        a = Anisotropy(1.0)
        for (N, n) in ((4, 2), (6, 2), (6, 3)):
            sector = enumerate_sector(N, n)
            v = build_transfer_block(sector, a)
            h = build_hamiltonian_block(sector, a.delta + 0.1)
            for route, floor in COMMUTATOR_ROUTES:
                assert route(v, h) >= floor, (route.__name__, N, n)

    def test_matches_dense_products(self):
        # the probe's gate verdict against the dense oracle's, for matching
        # delta (round-off only) and a mismatched control
        for c in (0.5, 1.3, 2.0):
            a = Anisotropy(c)
            for N in (5, 7, 8):
                for n in range(N + 1):
                    sector = enumerate_sector(N, n)
                    v = build_transfer_block(sector, a)
                    for delta in (a.delta, a.delta + 0.1):
                        h = build_hamiltonian_block(sector, delta)
                        probe, dense = commutator_probe(v, h), commutator_norm(v, h)
                        assert (probe <= 1e-12) == (dense <= 1e-10), (c, N, n, delta)

    def test_probe_is_seeded_and_scale_free(self):
        sector = enumerate_sector(8, 3)
        v = build_transfer_block(sector, Anisotropy(1.3))
        h = build_hamiltonian_block(sector, Anisotropy(1.3).delta + 0.1)
        value = commutator_probe(v, h)
        assert commutator_probe(v, h) == value
        scaled = dataclasses.replace(v, entries=1e6 * v.entries)
        assert commutator_probe(scaled, h) == pytest.approx(value, rel=1e-12)
        # past 1e154 the Frobenius squares would overflow; power-of-two scaling is exact
        huge = dataclasses.replace(v, entries=2.0**600 * v.entries)
        assert commutator_probe(huge, h) == value

    def test_probe_past_the_double_range_in_row_chunks(self):
        # the 924 rows of (12, 6) span four row chunks of the rescued norm
        a = Anisotropy(1.3)
        sector = enumerate_sector(12, 6)
        v = build_transfer_block(sector, a)
        h = build_hamiltonian_block(sector, a.delta)
        huge = dataclasses.replace(v, entries=2.0**600 * v.entries)
        assert commutator_probe(huge, h) == pytest.approx(commutator_probe(v, h), rel=1e-12)

    def test_sector_mismatch_rejected(self):
        v = build_transfer_block(enumerate_sector(6, 2), Anisotropy(1.0))
        for N, n in ((6, 3), (7, 2)):  # another n, another N
            h = build_hamiltonian_block(enumerate_sector(N, n), 0.5)
            for route, _ in COMMUTATOR_ROUTES:
                with pytest.raises(SectorMismatchError):
                    route(v, h)
