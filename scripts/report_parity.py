#!/usr/bin/env python3
"""Digest of the command-line reports over a grid of runs, for byte-parity checks.

Each run calls ``bethe6v.cli.main`` in this process and adds to one sha256
its argv, its exit code, its stderr (an ``error:`` line, and the category
and text of every warning raised, with no source path), and every report
line except the ``timing.*`` ones, which differ between identical runs; a
``dump-matrix`` run also adds the file it wrote.  For every ring size N up
to --max-n and every c the grid runs:

* ``solve`` of the ground state at every n <= N/2 and, for n >= 2, of its
  edge excitation (the top label raised by one);
* ``spectrum`` of both kinds at every n, and ``dump-matrix`` of both kinds
  at every n while N <= 7;
* ``partition`` of every N x M torus with M <= --max-n, with
  ``--bruteforce`` where N M <= 16;
* ``verify-identities`` on the function grid alone and on the (8, 3)
  ground state;

and then a fixed list of long tori and of odd-M tori whose spectra cancel,
so that the trace falls back to sweeps.  The script prints the number of
runs and the digest: two checkouts whose reports agree print the same
line.  Eigenvalues and norms round with the BLAS thread count, so compare
two checkouts only under the same OPENBLAS_NUM_THREADS (or its unset
default) on the same machine.  To take another checkout's digest, point
PYTHONPATH at its ``src``.

Example:
    PYTHONPATH=src python scripts/report_parity.py --max-n 8 --c-values 0.5,1.3
"""

import argparse
import contextlib
import hashlib
import io
import os
import tempfile
import warnings

from bethe6v import ground_state_quantum_numbers
from bethe6v.cli import main as cli_main

MAX_N = 10
C_VALUES = "0.5,1.0,1.3,2.5"  # at 1.3, delta / 2 has a long mantissa: how H rounds shows
DUMP_MAX_N = 7
BRUTEFORCE_CELLS = 16
TORI = ((4, 400, 1.0), (8, 200, 3.0), (10, 5, 5.0), (10, 7, 5.0), (12, 13, 3.0))
OUT = "matrix.txt"  # dump-matrix writes here, in a scratch working directory


def edge_labels(n):
    """The ground state's labels with the top one raised by one."""
    values = ground_state_quantum_numbers(n).values
    return "--quantum-numbers=" + ",".join(map(str, values[:-1] + (values[-1] + 1,)))


def runs(max_n, c_values):
    """Every argv of the grid, in a fixed order."""
    for N in range(1, max_n + 1):
        for c in c_values:
            for n in range(N + 1):
                sector = ["--capital-n", str(N), "--n", str(n), "--c", repr(c)]
                if N >= 2 and 2 * n <= N:
                    yield ["solve", *sector]
                    if n >= 2:
                        yield ["solve", *sector, edge_labels(n)]
                for kind in ("transfer", "hamiltonian"):
                    yield ["spectrum", *sector, "--kind", kind]
                    if N <= DUMP_MAX_N:
                        yield ["dump-matrix", *sector, "--kind", kind, "--out", OUT]
            for M in range(1, max_n + 1):
                torus = ["partition", "--capital-n", str(N), "--m", str(M), "--c", repr(c)]
                yield torus + (["--bruteforce"] if N * M <= BRUTEFORCE_CELLS else [])
    for c in c_values:
        yield ["verify-identities", "--c", repr(c), "--grid", "10"]
        yield ["verify-identities", "--c", repr(c), "--grid", "10",
               "--capital-n", "8", "--n", "3", "--samples", "5"]
    for N, M, c in TORI:
        yield ["partition", "--capital-n", str(N), "--m", str(M), "--c", repr(c)]


def record(argv) -> bytes:
    """One run's argv, exit code, stderr, untimed report lines and written file."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("timing.")]
    parts = [repr(argv), repr(code), err.getvalue(), *lines,
             *(f"{w.category.__name__}: {w.message}" for w in caught)]
    if argv[0] == "dump-matrix" and os.path.exists(OUT):
        with open(OUT) as handle:
            parts.append(handle.read())
        os.remove(OUT)
    return "\n".join(parts).encode() + b"\0"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=MAX_N, help="largest ring size N")
    parser.add_argument("--c-values", default=C_VALUES)
    args = parser.parse_args()
    c_values = [float(v) for v in args.c_values.split(",")]

    sha, count, home = hashlib.sha256(), 0, os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv in runs(args.max_n, c_values):
                sha.update(record(argv))
                count += 1
        finally:
            os.chdir(home)
    print(f"runs {count} sha256 {sha.hexdigest()}")


if __name__ == "__main__":
    main()
