"""Six-vertex transfer matrix on a sector, read two ways, and the torus partition function.

``TransferOperator`` is V on one sector.  ``op @ x`` applies it without
forming it: a row sweep over the sites, the paper's definition of V read
site by site, whose index tables are built on first use.  ``op.rows``
gives its rows at any states in closed form (2 on the diagonal, c^P between
distinct states whose positions interlace, x1 <= y1 <= x2 <= ... <= yn
either way round, with P the number of sites where they differ, 0
otherwise) off occupation bitmasks; the orbit representatives' rows fold
into the momentum blocks whose spectra give ``log_trace_power`` its sum of
lambda^M, and ``dump-matrix`` writes every row, one chunk at a time.
``partition_function_bruteforce`` counts the torus configurations by their
number of c-vertices, an exact polynomial in c whose log must match
``log_trace_power``.  The test oracle of single entries, the ice-rule
completions of one row, lives with the tests.

The vertex weights are a = b = 1 and the ``Anisotropy``'s c.  Every power
of c is the sweep's product, one factor of c at a time from the left, so
the rows, the sweep and the row completions agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import SectorIndex, enumerate_sector
from .errors import DomainError
from .functions import Anisotropy, _log_sum_exp
from .oracle import _row_chunks, momentum_spectra

__all__ = [
    "TransferOperator",
    "transfer_operator",
    "partition_function_bruteforce",
    "log_polynomial",
    "log_trace_power",
]

_CANCELLATION = 8.0  # largest sum |w lambda^M| / sum w lambda^M the spectra are summed at


def _weights(sector: SectorIndex, c: float) -> list[float]:
    """V's entries on a sector: [2, c^2, c^4, ..., c^(2 top)], top = min(n, N - n).

    c^(2k) is the left-to-right product of its 2k factors of c, the order
    in which the sweep multiplies a path's c-vertices, so the rows and the
    sweep agree bit for bit.  A last entry past the double range raises
    ``DomainError``.
    """
    top = min(sector.n, sector.N - sector.n)
    power, weights = 1.0, [2.0]
    for _ in range(top):
        power = power * c * c
        weights.append(power)
    if not math.isfinite(power):
        raise DomainError(f"transfer weight c^{2 * top} overflows at c = {c!r}")
    return weights


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """V on one sector: a row sweep with no dim^2 array, and its rows at any states.

    The wrap-around arrow h0 is fixed and the sites are swept in order.  At
    each site the vertex weights mix two states, (h = +, site empty) and
    (h = -, site occupied, every other site the same), by [[1, c], [c, 1]];
    every other state passes with weight 1.  The seed h0 = + carries the
    vector between sectors n (h = +) and n + 1 (h = -), the seed h0 = -
    between n (h = -) and n - 1 (h = +), and Vx is the sum of what each
    channel returns to its seed.  The sweep state is one array
    [seed + in n | seed - in n | seed + in n + 1 | seed - in n - 1], and
    ``maps[i]``, built on first use, holds for every state of sector n the
    index of its entry that site i + 1 mixes (row 0) and of its partner's
    (row 1): one gather and one scatter per site for both channels.
    """

    basis: SectorIndex
    c: float
    N = property(lambda self: self.basis.N)
    n = property(lambda self: self.basis.n)
    dim = property(lambda self: self.basis.dim)
    # the sweep state's length, 2 dim + C(N, n + 1) + C(N, n - 1) by Vandermonde
    size = property(lambda self: math.comb(self.N + 2, self.n + 1))

    @cached_property
    def maps(self) -> np.ndarray:
        """(N, 2, dim) indices into the sweep state."""
        sector, dim, up = self.basis, self.dim, math.comb(self.N, self.n + 1)
        maps = np.empty((self.N, 2, dim), dtype=np.int64)
        # maps[i - 1, 0]: each state's entry in the sector-n block of the seed that
        # site i mixes it in, chosen by its bit at i; maps[i - 1, 1]: its partner's,
        # the state with that site toggled, in the block of sector n + 1 or n - 1
        for i, entries in enumerate(maps, 1):
            np.multiply(sector.site(i), [[dim], [up]], out=entries)
        maps[:, 0] += np.arange(dim)
        maps[:, 1] += sector.toggled_ranks()
        maps[:, 1] += 2 * dim
        return maps

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        dim = self.dim
        z = np.zeros((self.size,) + x.shape[1:], dtype=np.result_type(x, float))
        z[:dim] = z[dim:2 * dim] = x
        # a path the sweep discards may carry one more factor of c than any
        # entry of V, so it may overflow; no kept path reads it
        with np.errstate(over="ignore"):
            for site in self.maps:
                pair = z[site]
                z[site] = pair + self.c * pair[::-1]
        return z[:dim] + z[dim:2 * dim]

    @cached_property
    def _prefix(self) -> np.ndarray:  # each state's prefix_xor(mask), built on first use
        return _prefix_xor(self.basis.masks)

    def rows(self, states: np.ndarray) -> np.ndarray:
        """V's rows at the given states of its sector, (k, dim) for k states.

        With d = mx ^ my the sites where two states' bitmasks differ,
        x1 <= y1 <= x2 <= ... <= yn holds iff x owns the 1st, 3rd, ... set bit of
        d from site 1: mx & d == d & prefix_xor(d), and prefix_xor(d) = Px ^ Py
        from the per-state table ``_prefix``; the other order is the same test
        for y.  The entry c^popcount(d) comes from ``_weights``' table, whose
        first entry is the diagonal's 2 (d = 0).  A weight past the double
        range raises ``DomainError`` here, before any row is formed.
        """
        cpow, masks, prefix = np.array(_weights(self.basis, self.c)), self.basis.masks, self._prefix
        x_first, y_first, popcount = True, True, 0
        for w in range(masks.shape[1]):
            d = masks[states, w, None] ^ masks[:, w]
            # bits where x disagrees with the alternation pattern of d
            u = (masks[states, w] ^ prefix[states, w])[:, None] ^ prefix[:, w]
            u &= d
            x_first = x_first & (u == 0)
            y_first = y_first & (u == d)
            # uint8: popcount(d) <= 2 min(n, N - n), past 255 only from C(256, 128) states on
            popcount = popcount + np.bitwise_count(d)
            del d, u  # free the pair arrays before the weights are gathered
        weights = cpow[popcount >> 1]
        weights[~(x_first | y_first)] = 0.0
        return weights

    def frobenius(self) -> float:
        """||V||_F from the number of entries of each weight.

        Two distinct states interlace across 2k sites in 2 C(N, 2k)
        C(N - 2k, n - k) ordered ways: the 2k sites alternate between them,
        starting with either, and the n - k sites they share lie anywhere
        else.  Such an entry is c^(2k), and the dim diagonal entries are 2,
        so ||V||_F^2 = 4 dim + sum_k 2 C(N, 2k) C(N - 2k, n - k) c^(4k),
        summed by ``log_polynomial`` so that no term need fit a double.
        """
        N, n = self.N, self.n
        counts = [0] * (4 * min(n, N - n) + 1)
        counts[0] = 4 * self.dim
        for k in range(1, min(n, N - n) + 1):
            counts[4 * k] = 2 * math.comb(N, 2 * k) * math.comb(N - 2 * k, n - k)
        with np.errstate(over="ignore"):  # inf past the double range
            return float(np.exp(0.5 * log_polynomial(counts, self.c)))


def transfer_operator(sector: SectorIndex, a: Anisotropy) -> TransferOperator:
    """V on a sector; refuses a weight past the double range, as its rows do."""
    _weights(sector, a.c)
    return TransferOperator(sector, a.c)


def _prefix_xor(words: np.ndarray) -> np.ndarray:
    """Bitwise prefix parity of multiword masks: bit s is the XOR of bits 0..s."""
    out = words.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        out ^= out << np.uint64(shift)
    parity = np.bitwise_count(words) & 1
    below = (np.cumsum(parity, axis=1) - parity) & 1
    out[below == 1] ^= ~np.uint64(0)
    return out


# the six ice-rule vertices (hl, vb, hr, vt, c), an arrow's bit 1 pointing
# right or up: hl + vb = hr + vt, and c = 1 on the two with vb != vt
_VERTICES = ((1, 1, 1, 1, 0), (0, 0, 0, 0, 0), (1, 0, 1, 0, 0), (0, 1, 0, 1, 0),
             (1, 0, 0, 1, 1), (0, 1, 1, 0, 1))


def partition_function_bruteforce(N: int, M: int) -> list[int]:
    """Ice-rule torus configurations counted by their number k of c-vertices.

    Z = sum_k counts[k] c^k is then exact in c.  An integer DP places one
    vertex at a time along L = max(N, M) rows of width w = min(N, M): the
    transposed torus has the same counts, as hl + vb = hr + vt is symmetric
    and gives hr - hl = vb - vt, so c-vertices stay c-vertices.
    F[b, cut, h0, h, k] counts partial configurations by bottom profile, cut
    of vertical arrows, row seed, horizontal arrow and c-vertices; each
    vertex adds one slice per ice-rule vertex on a view of its bit of the
    cut, a row keeps h == h0 and the torus cut == b.  A count is at most
    2^(N M + L + w): the b and h0 choices, then at most two vertices per
    (hl, vb); past int64 it raises ``DomainError`` before any allocation, and
    N < 2 or M < 2 (self-loop edges) ``ValueError``.
    """
    if N < 2 or M < 2:
        raise ValueError("torus enumeration needs N >= 2 and M >= 2")
    w, L, K = min(N, M), max(N, M), N * M + 1
    if N * M + L + w > 62:
        raise DomainError(f"torus counts on {N} x {M} may exceed int64")
    closed = np.zeros((B := 1 << w, B, K), dtype=np.int64)  # F summed over h0 = h at a row's end
    closed[:, :, 0] = np.eye(B, dtype=np.int64)
    for _ in range(L):
        F = np.zeros((B, B, 2, 2, K), dtype=np.int64)
        F[:, :, 0, 0] = F[:, :, 1, 1] = closed
        for i in range(w):
            G, F = F.reshape(B, B >> (i + 1), 2, 1 << i, 2, 2, K), np.zeros_like(F)
            view = F.reshape(G.shape)
            for hl, vb, hr, vt, dk in _VERTICES:
                view[:, :, vt, :, :, hr, dk:] += G[:, :, vb, :, :, hl, :K - dk]
        closed = F[:, :, 0, 0] + F[:, :, 1, 1]
    return np.trace(closed).tolist()


def log_polynomial(counts, x: float) -> float:
    """log sum_k counts[k] x^k, no term overflowing, for counts >= 0 not all 0 and x > 0."""
    return _log_sum_exp([math.log(n) + k * math.log(x) for k, n in enumerate(counts) if n])


def _sector_log_trace(sector: SectorIndex, a: Anisotropy, M: int) -> float:
    """log Tr(V^M) on one sector: sum w lambda^M over its momentum blocks, or sweeps.

    Odd M may cancel below what eigenvalues resolve (eps max |lambda|); past
    ``_CANCELLATION`` the trace is sum_r p_r <x_r, V x_r> with
    x_r = V^(M // 2) e_r by nonnegative sweeps.
    """
    V = transfer_operator(sector, a)
    spectra, weights, exponent = momentum_spectra(sector, V.rows)
    spectra, weights = spectra[weights > 0], weights[weights > 0]
    largest = float(np.abs(spectra).max())
    terms = weights * (spectra / largest) ** M
    total = float(terms.sum())
    if total > 0.0 and float(np.abs(terms).sum()) <= _CANCELLATION * total:
        return M * (exponent * math.log(2.0) + math.log(largest)) + math.log(total)
    reps, _, _, period = sector.orbits()
    logs, dim = [], sector.dim
    for chunk in _row_chunks(reps.size, dim):
        cols = reps[chunk]
        x, scale = (np.arange(dim)[:, None] == cols).astype(float), np.zeros(cols.size)
        for _ in range(M // 2):
            x = V @ x
            scale += np.log(high := x.max(axis=0))
            x /= high
        inner = np.sum(x * (V @ x if M % 2 else x), axis=0)
        logs.extend(2.0 * scale + np.log(period[cols] * inner))
    return _log_sum_exp(logs)


def log_trace_power(N: int, M: int, a: Anisotropy) -> float:
    """log Tr(V^M), the log torus partition function, summed over sectors.

    Arrow reversal maps sector n onto N - n with the same V (a = b), so
    n < N/2 counts twice.  A weight or sum past the double range raises
    ``DomainError``.
    """
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    value = _log_sum_exp([_sector_log_trace(enumerate_sector(N, n), a, M)
                          + math.log(2 - (2 * n == N)) for n in range(N // 2 + 1)])
    if not math.isfinite(value):
        raise DomainError(f"log Tr V^{M} on N = {N} is {value!r}")
    return value
