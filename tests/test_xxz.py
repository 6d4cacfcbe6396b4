import itertools
import math

import numpy as np
import pytest

from bethe6v import (
    AmplitudeEvaluator,
    Anisotropy,
    MomentumSet,
    SectorMismatchError,
    VertexWeights,
    build_hamiltonian_block,
    build_transfer_block,
    check_eigenpair,
    commutator_norm,
    energy_prediction,
    enumerate_sector,
    full_prediction,
    ground_state_quantum_numbers,
    solve,
)


def full_space_hamiltonian(N, delta):
    """Independent construction over all 2^N spin tuples (test oracle)."""
    states = list(itertools.product((1, -1), repeat=N))
    index = {s: k for k, s in enumerate(states)}
    H = np.zeros((2 ** N, 2 ** N))
    for s, row in index.items():
        for i in range(N):
            j = (i + 1) % N
            if s[i] == s[j]:
                H[row, row] += 0.5 * delta
            else:
                H[row, row] -= 0.5 * delta
                flipped = list(s)
                flipped[i], flipped[j] = flipped[j], flipped[i]
                H[row, index[tuple(flipped)]] += 1.0
    return states, H


class TestHamiltonianBlock:
    def test_two_site_block(self):
        delta = 0.35
        blk = build_hamiltonian_block(2, 1, delta)
        assert np.allclose(
            blk.entries, [[-delta, 2.0], [2.0, -delta]], rtol=0, atol=1e-16
        )

    def test_polarized_sector_diagonal(self):
        for N in (3, 5, 8):
            blk = build_hamiltonian_block(N, 0, 0.7)
            assert blk.entries.tolist() == [[pytest.approx(N * 0.7 / 2.0)]]

    def test_alternating_state_diagonal(self):
        delta = 0.9
        sector = enumerate_sector(4, 2)
        blk = build_hamiltonian_block(4, 2, delta)
        k = sector.index_of((1, 3))
        assert blk.entries[k, k] == pytest.approx(-2.0 * delta, rel=1e-15)

    def test_aggregate_diagonal_formula(self):
        # site-by-site accumulation equals (delta/2)(N - 2 |boundary set|)
        delta = -0.6
        N, n = 7, 3
        sector = enumerate_sector(N, n)
        blk = build_hamiltonian_block(N, n, delta)
        for k in range(sector.dim):
            spins = sector.state_of(k).spins()
            boundaries = int(np.sum(spins != np.roll(spins, -1)))
            expected = 0.5 * delta * (N - 2 * boundaries)
            assert blk.entries[k, k] == pytest.approx(expected, rel=1e-13, abs=1e-15)

    def test_symmetry(self):
        blk = build_hamiltonian_block(8, 3, -1.2)
        assert np.array_equal(blk.entries, blk.entries.T)

    def test_matches_full_space_projection(self):
        for N, delta in ((4, 0.5), (6, -0.75), (10, 0.3)):
            states, H = full_space_hamiltonian(N, delta)
            for n in range(N + 1):
                sector = enumerate_sector(N, n)
                rows = [states.index(tuple(sector.state_of(k).spins().tolist()))
                        for k in range(sector.dim)]
                projected = H[np.ix_(rows, rows)]
                blk = build_hamiltonian_block(N, n, delta)
                assert np.array_equal(projected, blk.entries), (N, n)
                # exchange preserves particle number: no coupling leaves the sector
                others = [r for r in range(2 ** N) if r not in rows]
                assert not np.any(H[np.ix_(rows, others)])

    def test_given_sector_reused(self):
        sector = enumerate_sector(8, 3)
        for build, arg in ((build_hamiltonian_block, 0.3),
                           (build_transfer_block, VertexWeights(c=1.3))):
            fresh = build(8, 3, arg)
            reused = build(8, 3, arg, sector=sector)
            assert reused.basis is sector
            assert np.array_equal(reused.entries, fresh.entries)
            with pytest.raises(SectorMismatchError):
                build(8, 2, arg, sector=sector)
            with pytest.raises(SectorMismatchError):
                build(9, 3, arg, sector=sector)

    def test_rejects_short_chain(self):
        with pytest.raises(ValueError):
            build_hamiltonian_block(1, 0, 0.5)


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
        pred = full_prediction(sector, AmplitudeEvaluator(report.momenta))
        blk = build_hamiltonian_block(N, n, a.delta)
        assert check_eigenpair(blk, pred.psi, pred.energy) < 1e-9


class TestCommutation:
    def test_commutes_with_matching_delta(self):
        for c in (0.5, 1.0, math.sqrt(2.0), 2.0):
            a = Anisotropy(c)
            for N in (4, 6):
                for n in range(N + 1):
                    v = build_transfer_block(N, n, VertexWeights(c=c))
                    h = build_hamiltonian_block(N, n, a.delta)
                    assert commutator_norm(v, h) < 1e-12

    def test_scalar_sector_commutes_exactly(self):
        v = build_transfer_block(5, 0, VertexWeights(c=1.3))
        h = build_hamiltonian_block(5, 0, Anisotropy(1.3).delta)
        assert commutator_norm(v, h) == 0.0

    def test_negative_control_mismatched_delta(self):
        # n = 1 blocks commute with any circulant, so probe n >= 2
        a = Anisotropy(1.0)
        for (N, n) in ((4, 2), (6, 2), (6, 3)):
            v = build_transfer_block(N, n, VertexWeights(c=1.0))
            h = build_hamiltonian_block(N, n, a.delta + 0.1)
            assert commutator_norm(v, h) >= 1e-3, (N, n)

    def test_matches_dense_products(self):
        # the sparse route against max|V@H - H@V| from dense products,
        # for matching delta (round-off only) and a mismatched control
        for c in (0.5, 1.3, 2.0):
            a = Anisotropy(c)
            for N in (5, 7, 8):
                for n in range(N + 1):
                    v = build_transfer_block(N, n, VertexWeights(c=c))
                    for delta in (a.delta, a.delta + 0.1):
                        h = build_hamiltonian_block(N, n, delta)
                        dense = float(np.max(np.abs(
                            v.entries @ h.entries - h.entries @ v.entries)))
                        fast = commutator_norm(v, h)
                        assert abs(fast - dense) <= 1e-12 * max(1.0, dense), (c, N, n)
                        if n == 0:
                            assert fast == 0.0

    def test_sector_mismatch_rejected(self):
        v = build_transfer_block(6, 2, VertexWeights(c=1.0))
        h = build_hamiltonian_block(6, 3, 0.5)
        with pytest.raises(SectorMismatchError):
            commutator_norm(v, h)
