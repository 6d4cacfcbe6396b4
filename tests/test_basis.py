import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethe6v import (
    OccupationVector,
    arrow_flip,
    enumerate_sector,
    interlaced,
    mismatch_count,
)


def ov(positions, N):
    return OccupationVector(tuple(positions), N)


class TestEnumerate:
    def test_two_sites_one_particle(self):
        sector = enumerate_sector(2, 1)
        assert [s.positions for s in sector] == [(1,), (2,)]
        assert sector.dim == 2

    def test_empty_sector(self):
        sector = enumerate_sector(4, 0)
        assert [s.positions for s in sector] == [()]
        assert sector.dim == 1

    def test_binomial_count(self):
        assert enumerate_sector(4, 2).dim == 6

    def test_colex_order(self):
        sector = enumerate_sector(4, 2)
        assert [s.positions for s in sector] == [
            (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        ]

    def test_vectorized_ranks(self):
        for N, n in ((1, 0), (5, 0), (6, 3), (9, 4), (12, 11), (70, 2)):
            sector = enumerate_sector(N, n)
            ranks = sector.ranks(sector.positions_matrix())
            assert ranks.tolist() == list(range(sector.dim))

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
                for k, state in enumerate(sector):
                    assert sector.index_of(state) == k
                    assert sector.state_of(k) is state


class TestOccupationVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ov((2, 1), 4)           # not increasing
        with pytest.raises(ValueError):
            ov((1, 1), 4)           # repeated
        with pytest.raises(ValueError):
            ov((0, 1), 4)           # below range
        with pytest.raises(ValueError):
            ov((5,), 4)             # above range
        with pytest.raises(ValueError):
            ov((), 0)               # empty ring

    def test_mask_and_spins(self):
        x = ov((1, 3), 4)
        assert x.mask == 0b0101
        assert x.spins().tolist() == [1, -1, 1, -1]


class TestInterlaced:
    def test_examples(self):
        assert interlaced(ov((1, 3), 4), ov((2, 4), 4)) is True
        assert interlaced(ov((1, 2), 4), ov((1, 2), 4)) is True
        assert interlaced(ov((1, 2), 4), ov((3, 4), 4)) is False

    def test_different_lengths(self):
        assert interlaced(ov((1,), 4), ov((1, 2), 4)) is False

    def test_ring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interlaced(ov((1,), 4), ov((1,), 5))


class TestMismatch:
    def test_examples(self):
        assert mismatch_count(ov((1, 3), 4), ov((2, 4), 4)) == 4
        assert mismatch_count(ov((1, 2), 4), ov((1, 2), 4)) == 0
        assert mismatch_count(ov((1,), 2), ov((2,), 2)) == 2


class TestFlip:
    def test_examples(self):
        assert arrow_flip(ov((1, 3), 4)).positions == (2, 4)
        assert arrow_flip(ov((), 3)).positions == (1, 2, 3)
        assert arrow_flip(ov((1, 2, 3), 3)).positions == ()


@st.composite
def sector_state(draw, max_n=10):
    N = draw(st.integers(1, max_n))
    n = draw(st.integers(0, N))
    positions = draw(
        st.lists(st.integers(1, N), min_size=n, max_size=n, unique=True)
    )
    return ov(sorted(positions), N)


@st.composite
def state_pair(draw, max_n=10):
    N = draw(st.integers(1, max_n))
    mk = lambda: sorted(
        draw(st.lists(st.integers(1, N), min_size=0, max_size=N, unique=True))
    )
    return ov(mk(), N), ov(mk(), N)


@settings(deadline=None)
@given(sector_state())
def test_index_round_trip(x):
    sector = enumerate_sector(x.ring_size, len(x))
    assert sector.state_of(sector.index_of(x)).positions == x.positions


@settings(deadline=None)
@given(sector_state())
def test_flip_involution(x):
    assert arrow_flip(arrow_flip(x)).positions == x.positions
    assert len(arrow_flip(x)) == x.ring_size - len(x)


@settings(deadline=None)
@given(state_pair())
def test_pairwise_symmetries(pair):
    x, y = pair
    assert mismatch_count(x, y) == mismatch_count(y, x)
    assert interlaced(x, y) == interlaced(y, x)
    if len(x) == len(y):
        assert mismatch_count(x, y) % 2 == 0


@settings(deadline=None)
@given(sector_state())
def test_self_relations(x):
    assert interlaced(x, x) is True
    assert mismatch_count(x, x) == 0
