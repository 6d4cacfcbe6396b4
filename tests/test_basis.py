import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe6v import Anisotropy, enumerate_sector

from helpers import enumerate_row_completions, spins


def states(sector):
    return [tuple(row) for row in sector.positions.tolist()]


def completions(x, y, N, c=2.0):
    """Row-completion weights between two position sets on an N-site ring."""
    return enumerate_row_completions(spins(x, N), spins(y, N), Anisotropy(c))


class TestEnumerate:
    def test_two_sites_one_particle(self):
        sector = enumerate_sector(2, 1)
        assert states(sector) == [(1,), (2,)]
        assert sector.dim == 2

    def test_empty_sector(self):
        sector = enumerate_sector(4, 0)
        assert states(sector) == [()]
        assert sector.dim == 1

    def test_binomial_count(self):
        assert enumerate_sector(4, 2).dim == 6

    def test_colex_order(self):
        sector = enumerate_sector(4, 2)
        assert states(sector) == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        ]
        # reference: every n-subset, sorted by its reversed tuple
        for N in range(1, 11):
            for n in range(N + 1):
                subsets = itertools.combinations(range(1, N + 1), n)
                reference = sorted(subsets, key=lambda t: t[::-1])
                assert states(enumerate_sector(N, n)) == reference, (N, n)

    def test_vectorized_ranks(self):
        for N, n in ((1, 0), (5, 0), (6, 3), (9, 4), (12, 11), (20, 10),
                     (70, 2), (130, 2)):
            sector = enumerate_sector(N, n)
            ranks = sector.ranks(sector.positions)
            assert np.array_equal(ranks, np.arange(sector.dim)), (N, n)

    def test_mask_and_spins(self):
        sector = enumerate_sector(4, 2)
        k = states(sector).index((1, 3))
        assert sector.masks[k].tolist() == [0b0101]
        assert spins(sector.positions[k], 4).tolist() == [1, -1, 1, -1]

    def test_encodings_agree_with_states(self):
        # every site's occupancy and the multiword masks against the position rows
        for N, n in ((7, 3), (64, 2), (70, 2), (130, 2)):
            sector = enumerate_sector(N, n)
            words = sector.masks.shape[1]
            assert sector.masks.dtype == np.uint64 and words == (N + 63) // 64
            occupied = np.stack([sector.site(i) for i in range(1, N + 1)], axis=1)
            assert occupied.dtype == bool
            for k in range(sector.dim):
                positions = sector.positions[k].tolist()
                mask = sum(int(w) << (64 * i) for i, w in enumerate(sector.masks[k]))
                assert mask == sum(1 << (p - 1) for p in positions), (N, n, k)
                assert np.array_equal(np.where(occupied[k], 1, -1),
                                      spins(positions, N)), (N, n, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_sector(3, 4)
        with pytest.raises(ValueError):
            enumerate_sector(0, 0)
        with pytest.raises(ValueError):
            enumerate_sector(3, -1)

    def test_round_trip_all_small_sectors(self):
        for N in range(1, 7):
            for n in range(N + 1):
                sector = enumerate_sector(N, n)
                assert sector.dim == math.comb(N, n)
                for k in range(sector.dim):
                    row = sector.positions[k:k + 1]
                    assert sector.ranks(row).tolist() == [k]
                    sites = [i for i in range(1, N + 1) if sector.site(i)[k]]
                    assert sites == row[0].tolist()


# The interlacing rule as the row completions realise it: x and y are
# interlaced iff some completion exists, and then its weight is c^P with P
# the number of sites where they differ (c = 2 makes P readable).
class TestNeighbourRanks:
    """Colex arithmetic against the ranks of the neighbouring sectors."""

    # (30, 2) clips C(29, 4) = 23751 to 4060 in the colex table: no rank may read it
    SECTORS = ([(N, n) for N in range(1, 10) for n in range(N + 1)]
               + [(20, 2), (20, 18), (30, 2), (30, 28)])

    def test_toggled_ranks(self):
        for N, n in self.SECTORS:
            sector = enumerate_sector(N, n)
            toggled = sector.toggled_ranks()
            neighbours = {k: enumerate_sector(N, k) for k in (n - 1, n + 1) if 0 <= k <= N}
            for site in range(1, N + 1):
                for s, state in enumerate(states(sector)):
                    other = sorted(set(state) ^ {site})
                    expected = neighbours[len(other)].ranks(np.array([other], dtype=np.int64))
                    assert toggled[site - 1, s] == expected[0], (N, n, state, site)

    def test_swapped_ranks(self):
        for N, n in self.SECTORS:
            if N < 2:
                continue
            sector = enumerate_sector(N, n)
            swapped = sector.swapped_ranks()
            for site in range(1, N + 1):
                bond = {site, site % N + 1}
                for s, state in enumerate(states(sector)):
                    if len(set(state) & bond) != 1:
                        assert swapped[site - 1, s] == sector.dim, (N, n, state, site)
                    else:
                        other = np.array([sorted(set(state) ^ bond)])
                        assert swapped[site - 1, s] == sector.ranks(other)[0], (N, n, state)

    @pytest.mark.parametrize("N, n", [(16, 8), (30, 2)])
    @pytest.mark.parametrize("table", ["toggled_ranks", "swapped_ranks"])
    def test_tables_hold_little_past_their_result(self, N, n, table):
        # the walk keeps O(dim) scratch beside its (N, dim) int64 result; the
        # wrap bond of swapped_ranks is a colex sum, with no (dim, n) temporary
        bound = 2 if table == "swapped_ranks" else 3
        sector = enumerate_sector(N, n)
        tracemalloc.start()
        try:
            result = getattr(sector, table)()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.shape == (N, sector.dim) and result.dtype == np.int64
        assert peak <= bound * result.nbytes, (peak, result.nbytes)


class TestOrbits:
    """The translation-orbit table against the positions it is read from."""

    SECTORS = [(N, n) for N in range(1, 17) for n in range(N + 1)] + [(70, 2), (70, 68)]

    def test_orbit_table(self):
        for N, n in self.SECTORS:
            sector = enumerate_sector(N, n)
            reps, orbit, shift, period = sector.orbits()
            rep = reps[orbit]
            # every state is its representative moved on by its shift
            moved = np.sort((sector.positions[rep] + shift[:, None] - 1) % N + 1, axis=1)
            assert np.array_equal(moved, sector.positions), (N, n)
            assert np.all(N % period == 0) and np.all((0 <= shift) & (shift < period)), (N, n)
            # the representatives ascend, each is its own and the lowest of its orbit
            assert np.all(np.diff(reps) > 0), (N, n)
            assert np.array_equal(rep[reps], reps) and np.all(rep <= np.arange(sector.dim))
            assert np.array_equal(period, period[rep]), (N, n)
            # an orbit holds exactly p states, and the orbits cover the sector
            assert np.array_equal(np.bincount(rep)[reps], period[reps]), (N, n)
            assert period[reps].sum() == sector.dim, (N, n)

    def test_period_is_the_smallest_shift_back(self):
        for N, n in ((6, 2), (6, 3), (8, 4), (9, 3), (12, 6)):
            sector = enumerate_sector(N, n)
            *_, period = sector.orbits()
            for s, state in enumerate(states(sector)):
                back = [t for t in range(1, N + 1)
                        if sorted((x - 1 + t) % N + 1 for x in state) == list(state)]
                assert period[s] == back[0], (N, n, state)


class TestInterlaced:
    def test_examples(self):
        assert completions((1, 3), (2, 4), 4) == [2.0 ** 4]
        assert completions((1, 2), (1, 2), 4) == [1.0, 1.0]
        assert completions((1, 2), (3, 4), 4) == []

    def test_different_lengths(self):
        # the ice rule conserves the up-arrow count from row to row
        assert completions((1,), (1, 2), 4) == []


class TestMismatch:
    def test_examples(self):
        assert completions((1, 2), (1, 3), 4) == [2.0 ** 2]
        assert completions((2,), (2,), 3) == [1.0, 1.0]
        assert completions((1,), (2,), 2) == [2.0 ** 2]


@st.composite
def sector_state(draw, max_n=10):
    N = draw(st.integers(1, max_n))
    n = draw(st.integers(0, N))
    positions = draw(
        st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True)
    )
    return N, sorted(positions)


@st.composite
def state_pair(draw, max_n=10):
    N = draw(st.integers(1, max_n))
    mk = lambda: sorted(
        draw(st.lists(st.integers(1, N), min_size=0, max_size=N, unique=True))
    )
    return N, mk(), mk()


@settings(deadline=None)
@given(sector_state())
def test_index_round_trip(state):
    N, positions = state
    sector = enumerate_sector(N, len(positions))
    k = sector.ranks(np.array([positions], dtype=np.int64))[0]
    assert sector.positions[k].tolist() == positions


@settings(deadline=None)
@given(state_pair())
def test_pairwise_symmetries(pair):
    N, x, y = pair
    forward = completions(x, y, N)
    assert sorted(forward) == sorted(completions(y, x, N))
    if len(x) != len(y):
        assert forward == []
    # an even number of mismatched sites: every weight is an even power of c
    assert all(math.log2(w) % 2 == 0 for w in forward)


@settings(deadline=None)
@given(sector_state())
def test_self_relations(state):
    N, positions = state
    assert completions(positions, positions, N) == [1.0, 1.0]
