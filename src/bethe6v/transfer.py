"""Six-vertex transfer-matrix blocks and the torus partition function.

Three independent routes are provided on purpose:

* ``build_transfer_block``: the closed-form entries (2 on the diagonal,
  c^P for distinct interlaced pairs with P the spin-mismatch count, 0
  otherwise), with interlacing and P read off occupation bitmasks;
* ``build_transfer_block_by_configuration``: the same block rebuilt by
  enumerating ice-rule horizontal-arrow completions on one lattice row and
  summing their vertex weights;
* ``partition_function_bruteforce``: the torus partition function summed
  over all arrow configurations, which must match the blockwise
  ``trace_power``.

Powers of c are computed by repeated squaring so the first two routes agree
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import caps
from .basis import SectorIndex, checked_sector, enumerate_sector
from .errors import CapExceededError

__all__ = [
    "VertexWeights",
    "SectorMatrix",
    "build_transfer_block",
    "build_transfer_block_by_configuration",
    "enumerate_row_completions",
    "partition_function_bruteforce",
    "trace_power",
    "matrix_text",
    "write_matrix",
]

_CHUNK_ELEMENTS = 1 << 18  # scratch budget (pairs) for the bitmask pair tests


@dataclass(frozen=True)
class VertexWeights:
    """Isotropic six-vertex weights: c > 0, every other vertex weighs 1."""

    c: float

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError("c must be positive")


def _int_power(base: float, k: int) -> float:
    """base**k for integer k >= 0 by repeated squaring (no libm pow drift)."""
    if k < 0:
        raise ValueError("negative exponent")
    result = 1.0
    sq = float(base)
    while k:
        if k & 1:
            result *= sq
        sq *= sq
        k >>= 1
    return result


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """Dense symmetric block of an operator restricted to one sector."""

    N: int
    n: int
    dim: int
    entries: np.ndarray
    basis: SectorIndex
    kind: str  # "transfer" | "hamiltonian"


def _prefix_xor(words: np.ndarray) -> np.ndarray:
    """Bitwise prefix parity of multiword masks: bit s is the XOR of bits 0..s."""
    out = words.copy()
    for shift in (1, 2, 4, 8, 16, 32):
        out ^= out << np.uint64(shift)
    parity = np.bitwise_count(words) & 1
    below = (np.cumsum(parity, axis=1) - parity) & 1
    out[below == 1] ^= ~np.uint64(0)
    return out


def build_transfer_block(N: int, n: int, weights: VertexWeights,
                         sector: SectorIndex | None = None) -> SectorMatrix:
    """Sector block of the transfer matrix from the closed-form entry rule.

    Pairs are tested on the sector's occupation bitmasks (``sector.masks``,
    64-bit words, lowest sites first).  With d = mx ^ my the sites
    where two states differ, x1 <= y1 <= x2 <= ... <= yn holds iff x owns
    the 1st, 3rd, 5th, ... set bit of d counting from site 1, i.e.
    mx & d == d & prefix_xor(d); the other order is the same test for y.
    prefix_xor is linear, so prefix_xor(d) = Px ^ Py from per-state tables.
    The entry c^popcount(d) is read from the repeated-squaring table of
    powers of c^2, as the configuration route's weights are.  A given
    sector is reused instead of enumerated again.
    """
    sector = checked_sector(N, n, sector)
    dim = sector.dim
    caps.check_dim(dim)

    c2 = weights.c * weights.c
    cpow = np.array([_int_power(c2, k) for k in range(n + 1)])

    masks = sector.masks
    prefix = _prefix_xor(masks)
    masks_prefix = masks ^ prefix

    entries = np.zeros((dim, dim))
    chunk = max(1, _CHUNK_ELEMENTS // dim)
    for lo in range(0, dim, chunk):
        hi = min(dim, lo + chunk)
        # the rule is symmetric: test columns from lo on, mirror the rest
        x_first, y_first, popcount = True, True, 0
        for w in range(masks.shape[1]):
            d = masks[lo:hi, w, None] ^ masks[None, lo:, w]
            # bits where x disagrees with the alternation pattern of d
            u = (masks_prefix[lo:hi, w, None] ^ prefix[None, lo:, w]) & d
            x_first = x_first & (u == 0)
            y_first = y_first & (u == d)
            # uint8: popcount(d) <= 2n, and no storable sector has n >= 128
            popcount = popcount + np.bitwise_count(d)
        block = np.where(x_first | y_first, cpow[popcount >> 1], 0.0)
        entries[lo:hi, lo:] = block
        entries[lo:, lo:hi] = block.T
    np.fill_diagonal(entries, 2.0)
    return SectorMatrix(N, n, dim, entries, sector, "transfer")


def enumerate_row_completions(sx: np.ndarray, sy: np.ndarray,
                              weights: VertexWeights) -> list[float]:
    """Weights of all ice-rule horizontal-arrow completions of one lattice row.

    sx and sy are the +-1 vertical-arrow patterns below and above the row.
    Candidate horizontal assignments are explored from each seed value of the
    wrap-around edge; the ice rule at site i forces h_i = h_{i-1} + sx_i - sy_i
    and prunes anything leaving {-1, +1} or failing to close the ring.
    """
    ring = len(sx)
    out = []
    for seed in (1, -1):
        h = seed
        nc = 0
        ok = True
        for i in range(ring):
            vx = int(sx[i])
            vy = int(sy[i])
            h_next = h + vx - vy
            if h_next != 1 and h_next != -1:
                ok = False
                break
            if vx != vy:
                nc += 1  # a c vertex; the other four weigh 1
            h = h_next
        if ok and h == seed:
            out.append(_int_power(weights.c, nc))
    return out


def build_transfer_block_by_configuration(N: int, n: int,
                                          weights: VertexWeights) -> SectorMatrix:
    """Sector block rebuilt by explicit arrow-configuration enumeration.

    The +-1 spin patterns are read off the sector's occupancy table.
    """
    sector = enumerate_sector(N, n)
    dim = sector.dim
    caps.check_dim(dim)
    spins = np.where(sector.occupied, 1, -1)
    entries = np.zeros((dim, dim))
    for i, sx in enumerate(spins):
        for j, sy in enumerate(spins):
            entries[i, j] = sum(enumerate_row_completions(sx, sy, weights))
    return SectorMatrix(N, n, dim, entries, sector, "transfer")


def partition_function_bruteforce(N: int, M: int, weights: VertexWeights,
                                  enum_cap=None) -> float:
    """Torus partition function by exhaustive arrow enumeration with pruning.

    Edges are assigned row-major (horizontal then vertical at each vertex);
    as soon as the four edges of a vertex are fixed the ice rule is checked
    and the branch pruned on violation.  Tori with N < 2 or M < 2 degenerate
    to self-loop edges and are rejected.
    """
    if N < 2 or M < 2:
        raise ValueError("torus enumeration needs N >= 2 and M >= 2")
    cap = caps.enum_cap(enum_cap)
    if N * M > cap:
        raise CapExceededError(f"N*M = {N * M} exceeds enumeration cap {cap}")

    def h_id(i, j):
        return 2 * ((j % M) * N + (i % N))

    def v_id(i, j):
        return 2 * ((j % M) * N + (i % N)) + 1

    n_edges = 2 * N * M
    # per vertex: (left horizontal, bottom vertical, right horizontal, top vertical)
    vertex_edges = []
    for j in range(M):
        for i in range(N):
            vertex_edges.append((h_id(i - 1, j), v_id(i, j - 1), h_id(i, j), v_id(i, j)))
    closes_at = [[] for _ in range(n_edges)]
    for vtx, edges in enumerate(vertex_edges):
        closes_at[max(edges)].append(vtx)

    c = weights.c
    omega = [0] * n_edges
    total = 0.0

    def vertex_weight(vtx):
        hl, vb, hr, vt = vertex_edges[vtx]
        if omega[hl] + omega[vb] - omega[hr] - omega[vt] != 0:
            return None
        return c if omega[vb] != omega[vt] else 1.0

    def assign(k, weight):
        nonlocal total
        if k == n_edges:
            total += weight
            return
        for val in (1, -1):
            omega[k] = val
            w = weight
            for vtx in closes_at[k]:
                factor = vertex_weight(vtx)
                if factor is None:
                    w = None
                    break
                w *= factor
            if w is not None:
                assign(k + 1, w)

    assign(0, 1.0)
    return total


def trace_power(N: int, M: int, weights: VertexWeights) -> float:
    """Trace of the M-th transfer-matrix power, summed blockwise over sectors."""
    if N < 1 or M < 1:
        raise ValueError("need N >= 1 and M >= 1")
    total = 0.0
    for n in range(N + 1):
        block = build_transfer_block(N, n, weights).entries
        power = block
        for _ in range(M - 1):
            power = power @ block
        total += float(np.trace(power))
    return total


def matrix_text(m: SectorMatrix) -> str:
    """Plain-text dump: header "N n dim kind", then rows of 17-digit entries."""
    lines = [f"{m.N} {m.n} {m.dim} {m.kind}"]
    for row in m.entries:
        lines.append(" ".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def write_matrix(m: SectorMatrix, path) -> None:
    Path(path).write_text(matrix_text(m))
