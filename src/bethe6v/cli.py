"""Command-line interface with machine-readable structured-text reports.

Subcommands:

* ``solve``: solve the logarithmic equations, build the predicted
  eigenvector and both eigenvalues, verify everything against dense blocks;
* ``partition``: transfer-trace partition function, optionally checked
  against brute-force torus enumeration;
* ``verify-identities``: grid suite for the function-level identities plus,
  when a sector is given, the amplitude-ratio identities on solved roots;
* ``spectrum``: dense sector spectrum with optional matrix dump and CSV;
* ``dump-matrix``: write a sector block in the plain-text matrix format.

Reports are emitted as "key: value" lines; every float carries 17
significant digits.  Identical flags reproduce byte-identical reports apart
from the timing lines.  Exit codes: 0 success, 1 invalid usage, 2 solver
non-convergence, a resource cap or a numeric-range limit (``DomainError``,
``LinAlgError``), 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import caps
from .ansatz import (
    AmplitudeEvaluator,
    bethe_residual,
    full_prediction,
    identity_suite,
)
from .basis import enumerate_sector
from .errors import CapExceededError, DomainError
from .functions import Anisotropy, grid_suite
from .oracle import check_eigenpair, dense_eigenvalues, dense_spectrum, match_eigenvalue
from .solver import QuantumNumbers, SolverConfig, ground_state_quantum_numbers, solve
from .transfer import (
    VertexWeights,
    build_transfer_block,
    partition_function_bruteforce,
    trace_power,
    write_matrix,
)
from .xxz import build_hamiltonian_block, commutator_norm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFICATION = 3

BETHE_RESIDUAL_TOL = 1e-10
EIGENPAIR_TOL = 1e-9
IMAG_TOL = 1e-9
MATCH_TOL = 1e-8
GRID_IDENTITY_TOL = 1e-11
FD_TOL = 1e-6
SOLVED_IDENTITY_TOL = 1e-9
PARTITION_TOL = 1e-12
PSI_TRIVIALITY_FACTOR = 1e-6


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _clock(since: float = 0.0) -> float:
    """Wall-clock seconds elapsed since an earlier reading of this clock."""
    return time.perf_counter() - since


class Report:
    """Ordered "key: value" lines, floats at 17 significant digits.

    The report is opened when the run starts: `stage` adds the wall time of
    a block as a timing.<stage> line, and `main` adds the whole run's as
    timing.seconds.
    """

    def __init__(self, command: str):
        self.opened = _clock()
        self.lines: list[str] = []
        self.add("command", command)

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key}: {_fmt(value)}")

    def add_complex(self, key: str, value: complex) -> None:
        self.add(f"{key}.re", float(value.real))
        self.add(f"{key}.im", float(value.imag))

    @contextlib.contextmanager
    def stage(self, name: str):
        """Add the enclosed block's wall time as timing.<name>, unless it raises."""
        start = _clock()
        yield
        self.add(f"timing.{name}", _clock(start))

    def emit(self, stream=None) -> None:
        stream = stream or sys.stdout
        stream.write("\n".join(self.lines) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_quantum_numbers(text: str) -> QuantumNumbers:
    values = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    return QuantumNumbers(values)


def _write_psi(path: str, psi: np.ndarray) -> None:
    with open(path, "w") as handle:
        for k, value in enumerate(psi):
            handle.write(
                f"{k} {format(value.real, '.17g')} {format(value.imag, '.17g')}\n"
            )


def _verdict(rep: Report, failures: list[str]) -> int:
    """Report the failed checks, if any, and return the matching exit code."""
    rep.add("verification.passed", not failures)
    if failures:
        rep.add("verification.failures", ",".join(failures))
    return EXIT_VERIFICATION if failures else EXIT_OK


def _cmd_solve(args) -> tuple[Report, int]:
    a = Anisotropy(args.c)
    N, n = args.N, args.n
    if n < 0 or 2 * n > N:
        raise ValueError(f"need 0 <= n <= N/2, got n = {n}, N = {N}")
    try:
        qn = (
            _parse_quantum_numbers(args.quantum_numbers)
            if args.quantum_numbers
            else ground_state_quantum_numbers(n)
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad quantum numbers: {exc}") from exc
    if qn.n != n:
        raise ValueError(f"expected {n} quantum numbers, got {qn.n}")
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter)

    rep = Report("solve")
    rep.add("param.N", N)
    rep.add("param.n", n)
    rep.add("param.c", args.c)
    rep.add("param.quantum_numbers", ",".join(str(v) for v in qn.values))
    rep.add("param.tol", cfg.tol)
    rep.add("param.max_iter", cfg.max_iter)
    rep.add("anisotropy.delta", a.delta)
    rep.add("anisotropy.mu", a.mu)

    with rep.stage("solve"):
        report = solve(N, qn, a, cfg)
    rep.add("solver.converged", report.converged)
    rep.add("solver.iterations", report.iterations)
    rep.add("solver.final_residual", report.final_residual)
    rep.add("solver.jacobian_condition_estimate", report.jacobian_condition_estimate)
    rep.add("solver.degenerate", report.degenerate)
    for k, p in enumerate(report.momenta.momenta):
        rep.add(f"momentum.{k}", p)
    if not report.converged or report.degenerate:
        return rep, EXIT_RESOURCE

    failures: list[str] = []
    m = report.momenta
    sector = enumerate_sector(N, n)
    with rep.stage("psi"):
        prediction = full_prediction(sector, AmplitudeEvaluator(m))
    lam, energy = prediction.lam, prediction.energy
    rep.add("prediction.singular", prediction.singular)
    rep.add_complex("prediction.lambda", lam)
    rep.add("prediction.energy", energy)
    rep.add("prediction.psi_norm", prediction.psi_norm)

    nontrivial = prediction.psi_norm > PSI_TRIVIALITY_FACTOR * math.sqrt(sector.dim)
    rep.add("psi.nontrivial", nontrivial)
    if not nontrivial:
        failures.append("psi_trivial")

    be = float(np.max(np.abs(bethe_residual(m, N)))) if n else 0.0
    rep.add("residual.bethe_max", be)
    if not be <= BETHE_RESIDUAL_TOL:
        failures.append("bethe_residual")
    if not abs(lam.imag) <= IMAG_TOL * max(1.0, abs(lam)):
        failures.append("lambda_imaginary")

    block_checks = sector.dim <= caps.dim_cap()
    rep.add("checks.blocks", "full" if block_checks else "skipped-dimension-cap")
    if block_checks and nontrivial:
        with rep.stage("v"):
            v_block = build_transfer_block(N, n, VertexWeights(c=args.c), sector=sector)
        with rep.stage("h"):
            h_block = build_hamiltonian_block(N, n, a.delta, sector=sector)
        with rep.stage("residuals"):
            rv = check_eigenpair(v_block, prediction.psi, lam)
            rh = check_eigenpair(h_block, prediction.psi, energy)
        with rep.stage("commutator"):
            comm = commutator_norm(v_block, h_block)
        rep.add("residual.transfer_eigenpair", rv)
        rep.add("residual.xxz_eigenpair", rh)
        rep.add("residual.commutator_max", comm)
        # relative to the eigenvalue's scale, as the imaginary-part gate is
        if not rv <= EIGENPAIR_TOL * max(1.0, abs(lam)):
            failures.append("transfer_eigenpair")
        if not rh <= EIGENPAIR_TOL * max(1.0, abs(energy)):
            failures.append("xxz_eigenpair")

        if sector.dim <= caps.spectrum_cap():
            with rep.stage("spectrum"):
                spectra = (("transfer", lam.real, dense_eigenvalues(v_block)),
                           ("xxz", energy, dense_eigenvalues(h_block)))
            for kind, value, eigenvalues in spectra:
                hits = match_eigenvalue(value, eigenvalues, MATCH_TOL)
                rep.add(f"oracle.{kind}_match_count", len(hits))
                rep.add(f"oracle.{kind}_match_index", hits[0] if hits else -1)
                if not hits:
                    failures.append(f"{kind}_spectrum_match")

    if args.dump_psi:
        _write_psi(args.dump_psi, prediction.psi)
        rep.add("dump.psi_path", args.dump_psi)
    return rep, _verdict(rep, failures)


def _cmd_partition(args) -> tuple[Report, int]:
    weights = VertexWeights(c=args.c)
    if args.N < 1 or args.m < 1:
        raise ValueError("need N >= 1 and M >= 1")
    if args.bruteforce and (args.N < 2 or args.m < 2):
        raise ValueError("brute-force enumeration needs N >= 2 and M >= 2")
    rep = Report("partition")
    rep.add("param.N", args.N)
    rep.add("param.M", args.m)
    rep.add("param.c", args.c)
    trace = trace_power(args.N, args.m, weights)
    rep.add("partition.trace_power", trace)
    if not args.bruteforce:
        return rep, EXIT_OK
    z = partition_function_bruteforce(args.N, args.m, weights)
    disc = abs(trace - z) / trace
    rep.add("partition.bruteforce", z)
    rep.add("partition.relative_discrepancy", disc)
    passed = disc <= PARTITION_TOL  # false on NaN
    rep.add("verification.passed", passed)
    return rep, EXIT_OK if passed else EXIT_VERIFICATION


def _cmd_verify_identities(args) -> tuple[Report, int]:
    a = Anisotropy(args.c)
    if (args.N is None) != (args.n is None):
        raise ValueError("give both --capital-n and --n or neither")
    if args.N is not None and (args.n < 1 or 2 * args.n > args.N):
        raise ValueError(f"need 1 <= n <= N/2, got n = {args.n}, N = {args.N}")
    rep = Report("verify-identities")
    rep.add("param.c", args.c)
    rep.add("param.grid", args.grid)
    rep.add("anisotropy.delta", a.delta)
    rep.add("anisotropy.mu", a.mu)

    failures = []
    for key, value in grid_suite(a, args.grid).items():
        rep.add(f"identity.{key}", value)
        tol = FD_TOL if key == "partial_fd_max" else GRID_IDENTITY_TOL
        if not value <= tol:
            failures.append(key)

    if args.N is not None:
        N, n = args.N, args.n
        rep.add("param.N", N)
        rep.add("param.n", n)
        report = solve(N, ground_state_quantum_numbers(n), a)
        rep.add("solver.converged", report.converged)
        rep.add("solver.final_residual", report.final_residual)
        if not report.converged:
            return rep, EXIT_RESOURCE
        suite = identity_suite(report.momenta, N, samples=args.samples)
        for name, value in (
            ("adjacent", suite.adjacent_max),
            ("boundary", suite.boundary_max),
            ("cyclic", suite.cyclic_max),
        ):
            rep.add(f"identity.{name}_max", value)
            if not value <= SOLVED_IDENTITY_TOL:
                failures.append(f"{name}_ratio")
    return rep, _verdict(rep, failures)


def _sector_block(args, command: str):
    """Validate the sector flags, open the report and build the requested block."""
    a = Anisotropy(args.c)
    if args.n < 0 or args.n > args.N:
        raise ValueError("need 0 <= n <= N")
    rep = Report(command)
    if args.kind == "transfer":
        block = build_transfer_block(args.N, args.n, VertexWeights(c=args.c))
    else:
        block = build_hamiltonian_block(args.N, args.n, a.delta)
    rep.add("param.N", args.N)
    rep.add("param.n", args.n)
    rep.add("param.c", args.c)
    rep.add("param.kind", args.kind)
    return rep, block


def _cmd_spectrum(args) -> tuple[Report, int]:
    rep, block = _sector_block(args, "spectrum")
    spec = dense_spectrum(block)
    rep.add("spectrum.dim", block.dim)
    rep.add("spectrum.orthonormality_defect", spec.orthonormality_defect)
    rep.add("spectrum.reconstruction_defect", spec.reconstruction_defect)
    for k, value in enumerate(spec.eigenvalues):
        rep.add(f"eigenvalue.{k}", float(value))
    if args.dump_matrix:
        write_matrix(block, args.dump_matrix)
        rep.add("dump.matrix_path", args.dump_matrix)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write("index,eigenvalue\n")
            for k, value in enumerate(spec.eigenvalues):
                handle.write(f"{k},{format(float(value), '.17g')}\n")
        rep.add("dump.csv_path", args.csv)
    return rep, EXIT_OK


def _cmd_dump_matrix(args) -> tuple[Report, int]:
    rep, block = _sector_block(args, "dump-matrix")
    write_matrix(block, args.out)
    rep.add("dump.dim", block.dim)
    rep.add("dump.path", args.out)
    return rep, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bethe6v", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    # the sector flags of solve, spectrum and dump-matrix
    sector = argparse.ArgumentParser(add_help=False)
    sector.add_argument("--capital-n", dest="N", type=int, required=True,
                        help="ring size N")
    sector.add_argument("--n", dest="n", type=int, required=True,
                        help="up-arrow count n (solve needs n <= N/2)")
    sector.add_argument("--c", type=float, required=True, help="vertex weight c > 0")

    p_solve = sub.add_parser("solve", parents=[sector],
                             help="solve, predict, and verify one sector case")
    p_solve.add_argument("--quantum-numbers", default=None,
                         help="comma-separated rationals; values starting with a "
                              "minus need the = form: --quantum-numbers=-1/2,1/2")
    p_solve.add_argument("--tol", type=float, default=1e-12)
    p_solve.add_argument("--max-iter", type=int, default=200)
    p_solve.add_argument("--dump-psi", default=None, metavar="PATH",
                         help='write coefficients as "index real imag" lines')
    p_solve.set_defaults(func=_cmd_solve)

    p_part = sub.add_parser("partition", help="partition function via Tr(V^M)")
    p_part.add_argument("--capital-n", dest="N", type=int, required=True)
    p_part.add_argument("--m", dest="m", type=int, required=True, help="torus height M")
    p_part.add_argument("--c", type=float, required=True)
    p_part.add_argument("--bruteforce", action="store_true",
                        help="also enumerate arrow configurations and compare")
    p_part.set_defaults(func=_cmd_partition)

    p_ver = sub.add_parser("verify-identities",
                           help="grid and solved-root identity checks")
    p_ver.add_argument("--c", type=float, required=True)
    p_ver.add_argument("--grid", type=int, default=50)
    p_ver.add_argument("--capital-n", dest="N", type=int, default=None)
    p_ver.add_argument("--n", dest="n", type=int, default=None)
    p_ver.add_argument("--samples", type=int, default=20)
    p_ver.set_defaults(func=_cmd_verify_identities)

    kinds = ("transfer", "hamiltonian")
    p_spec = sub.add_parser("spectrum", parents=[sector], help="dense sector spectrum")
    p_spec.add_argument("--kind", choices=kinds, default="transfer")
    p_spec.add_argument("--dump-matrix", default=None, metavar="PATH")
    p_spec.add_argument("--csv", default=None, metavar="PATH")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_dump = sub.add_parser("dump-matrix", parents=[sector],
                            help="write a sector block to a file")
    p_dump.add_argument("--kind", choices=kinds, default="transfer")
    p_dump.add_argument("--out", required=True, metavar="PATH")
    p_dump.set_defaults(func=_cmd_dump_matrix)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, print its report and timing.seconds, return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        rep, code = args.func(args)
    except (CapExceededError, DomainError, np.linalg.LinAlgError) as exc:
        # a resource cap, or a value outside the numeric range of the routes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # bad input and degenerate-momentum errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rep.add("timing.seconds", _clock(rep.opened))
    rep.emit()
    return code


def run() -> None:
    raise SystemExit(main())
