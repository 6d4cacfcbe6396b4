#!/usr/bin/env python3
"""Scan ground-state predictions over (N, n, c) and confront each one with
the sector spectrum and its Perron–Frobenius certificate.

Each converged case applies V and H as sweeps, as ``solve`` does, for the
residuals and the bracket, and takes V's top level from its momentum
blocks; no dim^2 block is built.  Before its sector is built, the plan of
``solve``'s ``block`` route (the solve's arrays and the momentum blocks) is
checked against the memory budget every command shares,
8 * BETHE6V_DIM_CAP^2 bytes; a case past it stops the scan with an error
and exit code 2, and a malformed BETHE6V_DIM_CAP with exit code 1, as the
CLI does.

Example:
    python scripts/ground_state_scan.py --ring-sizes 6,8,10 --c-values 0.5,1.0,2.0
"""

import argparse
import math
import sys
import time

import numpy as np

from bethe6v import (
    Anisotropy,
    CapExceededError,
    bethe_residual,
    caps,
    check_eigenpair,
    enumerate_sector,
    full_prediction,
    ground_state_quantum_numbers,
    hamiltonian_operator,
    momentum_spectra,
    solve,
    transfer_operator,
)


def scan_case(N, n, c):
    a = Anisotropy(c)
    report = solve(N, ground_state_quantum_numbers(n), a)
    if not report.converged:
        return dict(N=N, n=n, c=c, converged=False)
    caps.check_sector("solve", N, n, blocks=True)
    sector = enumerate_sector(N, n)
    pred = full_prediction(sector, report.momenta)
    v_op = transfer_operator(sector, a)
    spectra, weights, exponent = momentum_spectra(sector, v_op.rows)
    top = math.ldexp(float(spectra[weights > 0].max()), exponent)
    v_res, bracket = check_eigenpair(v_op, pred.psi, pred.lam)
    h_res, _ = check_eigenpair(hamiltonian_operator(sector, a.delta), pred.psi, pred.energy)
    lam = pred.lam.real
    width = float("nan")
    if bracket:  # widened to lambda, relative to its scale, as solve gates it
        width = (max(bracket[1], lam) - min(bracket[0], lam)) / max(1.0, abs(lam))
    return dict(
        N=N, n=n, c=c, converged=True,
        singular=pred.singular,
        lam=lam,
        energy=pred.energy,
        be=float(np.max(np.abs(bethe_residual(report.momenta, N)))),
        v_res=v_res,
        h_res=h_res,
        top_gap=abs(lam - top),
        cw_width=width,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ring-sizes", default="6,8,10,12",
                        help="comma-separated even ring sizes")
    parser.add_argument("--c-values", default="0.5,1.0,1.4142135623730951,2.0")
    args = parser.parse_args()
    ring_sizes = [int(v) for v in args.ring_sizes.split(",")]
    c_values = [float(v) for v in args.c_values.split(",")]
    try:
        caps.dim_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    header = (f"{'N':>3} {'n':>3} {'c':>8} {'sing':>5} {'lambda':>14} "
              f"{'energy':>12} {'BE':>9} {'V res':>9} {'H res':>9} {'top gap':>9} "
              f"{'CW width':>9}")
    print(header)
    print("-" * len(header))
    t0 = time.perf_counter()
    for c in c_values:
        for N in ring_sizes:
            for n in range(1, N // 2 + 1):
                try:
                    row = scan_case(N, n, c)
                except CapExceededError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                if not row["converged"]:
                    print(f"{N:>3} {n:>3} {c:>8.4f}  -- solver did not converge --")
                    continue
                print(
                    f"{N:>3} {n:>3} {c:>8.4f} {str(row['singular'])[:5]:>5} "
                    f"{row['lam']:>14.8f} {row['energy']:>12.8f} "
                    f"{row['be']:>9.1e} {row['v_res']:>9.1e} "
                    f"{row['h_res']:>9.1e} {row['top_gap']:>9.1e} "
                    f"{row['cw_width']:>9.1e}"
                )
    print(f"\ntotal {time.perf_counter() - t0:.1f}s")
    print("top gap: |lambda - largest eigenvalue of V|; the symmetric quantum "
          "numbers target the leading level of each sector")
    print("CW width: V's Collatz–Wielandt bracket on psi widened to lambda, over "
          "max(1, |lambda|); nan when psi is not positive after its phase. Within "
          "1e-8 it certifies lambda as the top without the spectrum")
    return 0


if __name__ == "__main__":
    sys.exit(main())
