"""Shared test utilities: CLI driver and independent brute-force oracles.

The oracles here deliberately avoid the library's fast paths: the naive
coefficient sum rebuilds every amplitude from scratch, and the raw torus
enumerator loops over every one of the 2^(2NM) arrow assignments with no
pruning.  They exist to check the production code, so they must not share
its shortcuts.
"""

from __future__ import annotations

import io
import itertools
from contextlib import redirect_stdout

import numpy as np

from bethe6v.cli import main


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buffer.getvalue()


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
