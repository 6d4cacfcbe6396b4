"""Shared test utilities: CLI driver, dense sector blocks and independent brute-force oracles.

The oracles here deliberately avoid the library's fast paths: the naive
coefficient sum rebuilds every amplitude from its definition, the raw torus
enumerator loops over every one of the 2^(2NM) arrow assignments with no
pruning, and the pruned one walks the arrow assignments edge by edge
instead of the library's vertex-by-vertex count.  They exist to check the
production code, so they must not share its shortcuts.  The dense blocks of
V and H are the library's rows of every state, stacked, and the dense solver
kernels form whole theta and d1 theta grids where the solver reads blocks of
rows.
"""

from __future__ import annotations

import io
import itertools
import math
from contextlib import redirect_stdout
from dataclasses import dataclass

import numpy as np

from bethe6v import (
    Anisotropy,
    DomainError,
    SectorIndex,
    SectorMismatchError,
    enumerate_sector,
    hamiltonian_operator,
    scattering_kernel,
    theta,
    theta_partial_1,
    transfer_operator,
)
from bethe6v.ansatz import _subset_sum, pair_factors
from bethe6v.cli import main
from bethe6v.oracle import _norm, _row_chunks


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue()


@dataclass(frozen=True, eq=False)
class SectorMatrix:
    """Dense symmetric block of an operator restricted to one sector."""

    entries: np.ndarray
    basis: SectorIndex
    N = property(lambda self: self.basis.N)
    n = property(lambda self: self.basis.n)
    dim = property(lambda self: self.basis.dim)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        A = self.entries
        if np.iscomplexobj(x):  # A @ complex(x) would first copy A to complex
            return A @ x.real + 1j * (A @ x.imag)
        return A @ x

    def frobenius(self) -> float:
        return _norm(self.entries)


def _stack_rows(sector, rows_of):
    entries = np.empty((sector.dim, sector.dim))
    for rows in _row_chunks(sector.dim, sector.dim):
        entries[rows] = rows_of(rows)
    return SectorMatrix(entries, sector)


def build_transfer_block(sector, a):
    """V's dense sector block: the operator's rows at every state."""
    return _stack_rows(sector, transfer_operator(sector, a).rows)


def build_hamiltonian_block(sector, delta):
    """H's dense sector block: the operator's rows at every state."""
    return _stack_rows(sector, hamiltonian_operator(sector, delta).rows)


def parse_report(text):
    """Report lines back into a dict of strings."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def naive_amplitude(sigma, momenta, delta):
    """A(sigma) from first principles: explicit signature and kernel products."""
    n = len(sigma)
    sign = 1
    for k in range(n):
        for l in range(k + 1, n):
            if sigma[k] > sigma[l]:
                sign = -sign
    amp = complex(sign)
    for k in range(n):
        for l in range(k + 1, n):
            pk, pl = momenta[sigma[k]], momenta[sigma[l]]
            kernel = np.exp(-1j * pk) + np.exp(1j * pl) - 2.0 * delta
            amp *= np.exp(1j * pk) * kernel
    return amp


def naive_psi_coefficient(positions, momenta, delta):
    """Permutation sum with no caching and no incremental updates."""
    n = len(momenta)
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        term = naive_amplitude(sigma, momenta, delta)
        for k, x in enumerate(positions):
            term *= np.exp(1j * momenta[sigma[k]] * x)
        total += term
    return total


def psi_every_row(sector, m):
    """The subset-sum DP at every row of the sector: the permutation sum for any momenta.

    ``build_psi`` runs the same DP on the translation-orbit representatives
    only, which equals this when the momenta solve the Bethe equations.
    """
    zpow = np.exp(1j * m.as_array())[:, None] ** np.arange(sector.N + 1)[None, :]
    return _subset_sum(pair_factors(m), sector.positions, zpow)


def spins(positions, N):
    """Spin row of a state: +1 on its occupied sites 1..N, -1 elsewhere."""
    s = -np.ones(N, dtype=np.int64)
    s[np.asarray(positions, dtype=np.int64) - 1] = 1
    return s


def raw_torus_partition(N, M, c):
    """Partition function by unpruned enumeration of all 2^(2NM) assignments.

    Horribly slow by design; keep N*M tiny.  Edge omega[(i, j, o)] with
    o = 0 the rightward edge from (i, j) and o = 1 the upward edge.
    """
    edges = [(i, j, o) for j in range(M) for i in range(N) for o in (0, 1)]
    total = 0.0
    for bits in itertools.product((1, -1), repeat=len(edges)):
        omega = dict(zip(edges, bits))
        weight = 1.0
        for j in range(M):
            for i in range(N):
                h_in = omega[((i - 1) % N, j, 0)]
                v_in = omega[(i, (j - 1) % M, 1)]
                h_out = omega[(i, j, 0)]
                v_out = omega[(i, j, 1)]
                if h_in + v_in != h_out + v_out:
                    weight = 0.0
                    break
                if v_in != v_out:
                    weight *= c
            if weight == 0.0:
                break
        total += weight
    return total


def enumerate_torus_counts(N, M):
    """Ice-rule torus configurations counted by their number k of c-vertices.

    Z = sum_k counts[k] c^k is then exact in c.  Edges are assigned
    row-major (horizontal then vertical at each vertex); as soon as the four
    edges of a vertex are fixed the ice rule is checked and the branch
    pruned on violation.  Tori with N < 2 or M < 2 degenerate to self-loop
    edges and are rejected.
    """
    if N < 2 or M < 2:
        raise ValueError("torus enumeration needs N >= 2 and M >= 2")

    def h_id(i, j):
        return 2 * ((j % M) * N + (i % N))

    def v_id(i, j):
        return 2 * ((j % M) * N + (i % N)) + 1

    n_edges = 2 * N * M
    # each vertex's (left horizontal, bottom vertical, right horizontal, top
    # vertical) edges, listed under the last of them to be assigned
    closes_at = [[] for _ in range(n_edges)]
    for j in range(M):
        for i in range(N):
            edges = (h_id(i - 1, j), v_id(i, j - 1), h_id(i, j), v_id(i, j))
            closes_at[max(edges)].append(edges)

    omega = [0] * n_edges
    counts = [0] * (N * M + 1)

    def assign(k, nc):
        if k == n_edges:
            counts[nc] += 1
            return
        for val in (1, -1):
            omega[k] = val
            m = nc
            for hl, vb, hr, vt in closes_at[k]:
                if omega[hl] + omega[vb] != omega[hr] + omega[vt]:
                    break  # off the ice rule
                m += omega[vb] != omega[vt]  # a c-vertex; the other four weigh 1
            else:
                assign(k + 1, m)

    assign(0, 0)
    return counts


def _both_kernels(x, y, a):
    """S(x, y) and S(y, x), each evaluated from its own exponentials."""
    s_xy = np.exp(-1j * x) + np.exp(1j * y) - 2.0 * a.delta
    s_yx = np.exp(-1j * y) + np.exp(1j * x) - 2.0 * a.delta
    return s_xy, s_yx


def two_kernel_theta(x, y, a):
    """theta = -(x - y) - arg S(x, y) + arg S(y, x), both kernels built."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s_xy, s_yx = _both_kernels(x, y, a)
    return -(x - y) - np.angle(s_xy) + np.angle(s_yx)


def two_kernel_theta_partial_1(x, y, a):
    """Complex d1 theta = -1 + exp(-ix)/S(x, y) + exp(ix)/S(y, x), both kernels built."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    s_xy, s_yx = _both_kernels(x, y, a)
    return -1.0 + np.exp(-1j * x) / s_xy + np.exp(1j * x) / s_yx


def dense_phase_sums(p, a):
    """sum_k theta(p_j, p_k) from one theta grid: the ceil(n/2) x n rows
    p[n//2:] of an odd p, row n-1-j being row j's reversed sum negated, and
    all n x n pairs of any other p."""
    n = p.size
    if not np.array_equal(p, -p[::-1]):
        return theta(p[:, None], p[None, :], a).sum(axis=1)
    phases = theta(p[n // 2:, None], p[None, :], a)
    return np.concatenate((-phases[:, ::-1].sum(axis=1)[::-1], phases.sum(axis=1)[n % 2:]))


def dense_log_jacobian(N, p, a):
    """The full n x n Jacobian from one n x n d1 theta grid, in C order."""
    n = p.size
    d1 = np.asarray(theta_partial_1(p[:, None], p[None, :], a)).reshape(n, n)
    jac = np.negative(d1.T, order="C")
    jac.flat[::n + 1] = N + d1.sum(axis=1) - d1.diagonal()
    return jac


def dense_mirror_jacobian(N, q, n, a):
    """The folded h x h Jacobian of a mirrored label set at its unknowns q,
    from one h x n d1 theta grid, in Fortran order, as the solver's Jacobians:
    the transpose of a C-order J^T."""
    h = n // 2
    p = np.concatenate((-q[::-1], np.zeros(n % 2), q))
    d1 = np.asarray(theta_partial_1(q[:, None], p[None, :], a)).reshape(h, n)
    jac = d1[:, :h][:, ::-1] - d1[:, n - h:]
    jac.flat[::h + 1] += N + d1.sum(axis=1)
    return jac.T


def dense_rounding_floor(N, qn, a, p, start=0):
    """The solver's rounding floor from a whole kernel grid and a whole theta
    grid, each of the rows p[start:]; |S| is np.hypot of the kernel's parts."""
    x, y = p[start:, None], p[None, :]
    s = scattering_kernel(x, y, a)
    arg_error = 4.0 * (1.0 + abs(a.delta)) / np.hypot(s.real, s.imag)
    np.fill_diagonal(arg_error[:, start:], 0.0)
    rows = (N * np.abs(p[start:]) + 2.0 * math.pi * np.abs(qn.as_array()[start:])
            + (np.abs(theta(x, y, a)) + arg_error).sum(axis=1))
    return 2.0 ** -53 * float(np.max(rows))


def dense_eigenvalues(m):
    """Ascending spectrum of a symmetric dense block, once its finiteness and symmetry pass.

    The oracle of the momentum-block spectra: one ``eigvalsh`` of the whole
    dim x dim block, with no use of the translation symmetry.
    """
    A = m.entries
    if not np.all(np.isfinite(A)):
        raise DomainError("block entries overflow to inf or NaN; no dense spectrum")
    asym = float(np.max(np.abs(A - A.T)))
    if not asym <= 1e-12:
        raise ValueError(f"matrix asymmetry {asym:g} exceeds 1e-12")
    return np.linalg.eigvalsh(A)


def enumerate_row_completions(sx, sy, a):
    """Weights of all ice-rule horizontal-arrow completions of one lattice row.

    sx and sy are the +-1 vertical-arrow patterns below and above the row.
    Candidate horizontal assignments are explored from each seed value of the
    wrap-around edge; the ice rule at site i forces h_i = h_{i-1} + sx_i - sy_i
    and prunes anything leaving {-1, +1} or failing to close the ring.  A
    completion with nc c-vertices weighs c^nc, the left-to-right product of
    its nc factors of c: the order in which the sweep and the rows form it,
    so that a block rebuilt from completions matches ``build_transfer_block``
    bit for bit.
    """
    out = []
    for seed in (1, -1):
        h, nc = seed, 0
        for vx, vy in zip(map(int, sx), map(int, sy)):
            h += vx - vy
            if h != 1 and h != -1:
                break
            nc += vx != vy  # a c vertex; the other four weigh 1
        else:
            if h == seed:
                out.append(math.prod([a.c] * nc))
    return out


def build_transfer_block_by_configuration(sector, a):
    """V's sector block rebuilt entry by entry from ``enumerate_row_completions``.

    The +-1 spin patterns are built from the sector's position rows by
    ``spins``, so no encoding of the library's is read.
    """
    dim = sector.dim
    rows = [spins(x, sector.N) for x in sector.positions]
    entries = np.zeros((dim, dim))
    for i, sx in enumerate(rows):
        for j, sy in enumerate(rows):
            entries[i, j] = sum(enumerate_row_completions(sx, sy, a))
    return SectorMatrix(entries, sector)


def exact_trace_power(N, M, c):
    """Tr V^M as a Python int, from every sector block's integer entries raised exactly.

    Only for c whose block entries are all integers (c = 1, 2, ... or any
    c past 2^53, where every double is one); the powers are taken with
    Python ints, so nothing rounds.
    """
    total = 0
    for n in range(N + 1):
        entries = build_transfer_block(enumerate_sector(N, n), Anisotropy(c)).entries
        block = np.array([[int(v) for v in row] for row in entries], dtype=object)
        assert np.all(block == entries), "entries must be integers"
        total += int(np.trace(np.linalg.matrix_power(block, M)))
    return total


def commutator_norm(v, h):
    """Max absolute entry of VH - HV from two dense products (the probe's oracle)."""
    if (v.N, v.n) != (h.N, h.n):
        raise SectorMismatchError(f"blocks of sectors ({v.N},{v.n}) and ({h.N},{h.n})")
    return float(np.max(np.abs(v.entries @ h.entries - h.entries @ v.entries)))
