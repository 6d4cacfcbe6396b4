#!/usr/bin/env python3
"""Torus partition function: brute-force configuration count against log Tr(V^M).

The count is exact: an integer DP places the vertices one at a time along
the torus's shorter side (transposing the torus keeps the ice rule and the
c-vertices) and counts the configurations by their number of c-vertices.
The grid holds every torus with N, M >= 2 and N*M <= --max-cells.  Each
torus's trace is checked against the memory budget (8 * BETHE6V_DIM_CAP^2
bytes), and its count refused where it could pass int64
(N*M + max(N, M) + min(N, M) > 62), before either is computed; the first
torus refused stops the scan with an error and exit code 2, and a malformed
BETHE6V_DIM_CAP with exit code 1, as the CLI does.

Example:
    python scripts/partition_scan.py --max-cells 12 --c-values 0.5,1.0,2.0
"""

import argparse
import math
import sys
import time

from bethe6v import (Anisotropy, CapExceededError, DomainError, caps, log_polynomial,
                    log_trace_power, partition_function_bruteforce)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-cells", type=int, default=12,
                        help="largest N*M torus in the grid")
    parser.add_argument("--c-values", default="0.5,1.0,2.0")
    args = parser.parse_args()
    c_values = [float(v) for v in args.c_values.split(",")]
    try:
        caps.dim_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    pairs = [
        (N, M)
        for N in range(2, args.max_cells // 2 + 1)
        for M in range(2, args.max_cells // N + 1)
    ]
    print(f"{'N':>3} {'M':>3} {'c':>6} {'log Z (enumerated)':>20} "
          f"{'log Tr V^M':>20} {'rel diff':>10} {'time':>7}")
    for N, M in pairs:
        try:
            caps.check_partition(N)
            t0 = time.perf_counter()
            counts = partition_function_bruteforce(N, M)  # refuses counts past int64
        except (CapExceededError, DomainError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - t0
        for c in c_values:
            a = Anisotropy(c)
            log_z, log_t = log_polynomial(counts, c), log_trace_power(N, M, a)
            print(f"{N:>3} {M:>3} {c:>6.3g} {log_z:>20.14f} {log_t:>20.14f} "
                  f"{abs(math.expm1(log_z - log_t)):>10.1e} {elapsed:>6.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
