#!/usr/bin/env python3
"""Digest of the solver's output over a grid of label sets, for bit-parity checks.

For every ring size N, every particle number n in {1, 2, 3, N//2 - 1, N//2}
that fits (1 <= n <= N/2) and every c, the grid solves the ground state and,
for n >= 2, its edge excitation (the top label raised by one), whose labels
are not mirrored.  Each solve adds to one sha256 its roots, iterations,
step halvings, polish steps, converged and degenerate flags, final
residual, exponential-form `bethe_residual` (or the message of the
DomainError it raised) and, for N <= 40, the Jacobian's condition estimate.
The script prints the number of solves and the digest: two checkouts whose
solver rounds alike print the same line.  The digest also depends on the
BLAS thread count, since the LU solve of each Newton step rounds
differently with it, so compare two checkouts only under the same
OPENBLAS_NUM_THREADS (or its unset default) on the same machine.

Example:
    python scripts/solver_parity.py --ring-sizes 2-12,64 --c-values 0.5,1.0
"""

import argparse
import hashlib
import struct

from bethe6v import (Anisotropy, DomainError, QuantumNumbers, bethe_residual,
                     ground_state_quantum_numbers, solve)

RING_SIZES = "2-41,64,65,128,135,201,256,512"
C_VALUES = "0.1,0.5,1.0,1.5,2.5,5.0"
COND_MAX_N = 40  # the condition estimate forms an n x n Jacobian and its inverse


def ring_sizes(spec):
    """Comma-separated sizes and inclusive ranges lo-hi."""
    sizes = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        sizes.extend(range(int(lo), int(hi or lo) + 1))
    return sizes


def label_sets(N):
    for n in sorted({n for n in (1, 2, 3, N // 2 - 1, N // 2) if 1 <= n <= N // 2}):
        ground = ground_state_quantum_numbers(n)
        yield ground
        if n >= 2:
            yield QuantumNumbers(ground.values[:-1] + (ground.values[-1] + 1,))


def digest(report, N):
    """The bytes of one solve's fields, in a fixed order."""
    parts = [report.momenta.as_array().tobytes(),
             struct.pack("<3q2?d", report.iterations, report.step_halvings, report.polish_steps,
                         report.converged, report.degenerate, report.final_residual)]
    try:
        parts.append(bethe_residual(report.momenta, N).tobytes())
    except DomainError as exc:  # an edge root's kernel is uncertified: the error is the datum
        parts.append(str(exc).encode())
    if N <= COND_MAX_N:
        parts.append(struct.pack("<d", report.jacobian_condition_estimate))
    return b"".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring-sizes", default=RING_SIZES,
                        help="comma-separated ring sizes N and ranges lo-hi")
    parser.add_argument("--c-values", default=C_VALUES)
    args = parser.parse_args()
    c_values = [float(v) for v in args.c_values.split(",")]

    sha, solves = hashlib.sha256(), 0
    for N in ring_sizes(args.ring_sizes):
        for qn in label_sets(N):
            for c in c_values:
                sha.update(digest(solve(N, qn, Anisotropy(c)), N))
                solves += 1
    print(f"solves {solves} sha256 {sha.hexdigest()}")


if __name__ == "__main__":
    main()
