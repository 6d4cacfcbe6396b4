#!/usr/bin/env python3
"""Scan ground-state predictions over (N, n, c) and confront each one with
the dense sector spectrum.

Example:
    python scripts/ground_state_scan.py --ring-sizes 6,8,10 --c-values 0.5,1.0,2.0
"""

import argparse
import time

import numpy as np

from bethe6v import (
    AmplitudeEvaluator,
    Anisotropy,
    VertexWeights,
    bethe_residual,
    build_hamiltonian_block,
    build_transfer_block,
    check_eigenpair,
    dense_spectrum,
    enumerate_sector,
    full_prediction,
    ground_state_quantum_numbers,
    solve,
)


def scan_case(N, n, c):
    a = Anisotropy(c)
    report = solve(N, ground_state_quantum_numbers(n), a)
    if not report.converged:
        return dict(N=N, n=n, c=c, converged=False)
    sector = enumerate_sector(N, n)
    pred = full_prediction(sector, AmplitudeEvaluator(report.momenta))
    v_block = build_transfer_block(N, n, VertexWeights(c=c), sector=sector)
    h_block = build_hamiltonian_block(N, n, a.delta, sector=sector)
    spectrum = dense_spectrum(v_block)
    return dict(
        N=N, n=n, c=c, converged=True,
        singular=pred.singular,
        lam=pred.lam.real,
        energy=pred.energy,
        be=float(np.max(np.abs(bethe_residual(report.momenta, N)))),
        v_res=check_eigenpair(v_block, pred.psi, pred.lam),
        h_res=check_eigenpair(h_block, pred.psi, pred.energy),
        top_gap=abs(pred.lam.real - spectrum.eigenvalues[-1]),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring-sizes", default="6,8,10,12",
                        help="comma-separated even ring sizes")
    parser.add_argument("--c-values", default="0.5,1.0,1.4142135623730951,2.0")
    args = parser.parse_args()
    ring_sizes = [int(v) for v in args.ring_sizes.split(",")]
    c_values = [float(v) for v in args.c_values.split(",")]

    header = (f"{'N':>3} {'n':>3} {'c':>8} {'sing':>5} {'lambda':>14} "
              f"{'energy':>12} {'BE':>9} {'V res':>9} {'H res':>9} {'top gap':>9}")
    print(header)
    print("-" * len(header))
    t0 = time.perf_counter()
    for c in c_values:
        for N in ring_sizes:
            for n in range(1, N // 2 + 1):
                row = scan_case(N, n, c)
                if not row["converged"]:
                    print(f"{N:>3} {n:>3} {c:>8.4f}  -- solver did not converge --")
                    continue
                print(
                    f"{N:>3} {n:>3} {c:>8.4f} {str(row['singular'])[:5]:>5} "
                    f"{row['lam']:>14.8f} {row['energy']:>12.8f} "
                    f"{row['be']:>9.1e} {row['v_res']:>9.1e} "
                    f"{row['h_res']:>9.1e} {row['top_gap']:>9.1e}"
                )
    print(f"\ntotal {time.perf_counter() - t0:.1f}s")
    print("top gap: |lambda - largest dense eigenvalue|; the symmetric quantum "
          "numbers target the leading level of each sector")


if __name__ == "__main__":
    main()
