"""Command-line interface with machine-readable structured-text reports.

Subcommands:

* ``solve``: solve the logarithmic equations, build the predicted
  eigenvector and both eigenvalues, verify them against the sector
  operators and name their level by a Perron–Frobenius certificate or the
  sector spectrum;
* ``partition``: log partition function log Tr(V^M), optionally checked
  against brute-force torus enumeration;
* ``verify-identities``: grid suite for the function-level identities plus,
  when a sector is given, the amplitude-ratio identities on solved roots;
* ``spectrum``: sector eigenvalues, the union of the momentum blocks' spectra;
* ``dump-matrix``: write a sector block in the plain-text matrix format,
  one chunk of rows at a time.

Reports are emitted as "key: value" lines; every float carries 17
significant digits.  Identical flags reproduce byte-identical reports apart
from the timing lines.  Exit codes: 0 success, 1 invalid usage or an
unwritable output path, 2 solver non-convergence (a root on the edge of the
open momentum domain included), the memory budget (each command checks the
plan of what it will build before any work), exhausted memory or a
numeric-range limit (``DomainError``, ``LinAlgError``), 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import resource
import sys
import time
from fractions import Fraction

import numpy as np

from . import caps
from .ansatz import bethe_residual, full_prediction, identity_suite
from .basis import enumerate_sector
from .errors import CapExceededError, DomainError
from .functions import Anisotropy, grid_suite
from .oracle import (_row_chunks, check_eigenpair, commutator_probe, match_eigenvalue,
                     momentum_spectra)
from .solver import QuantumNumbers, ground_state_quantum_numbers, solve
from .transfer import (
    log_polynomial,
    log_trace_power,
    partition_function_bruteforce,
    transfer_operator,
)
from .xxz import hamiltonian_operator

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VERIFICATION = 3

BETHE_RESIDUAL_TOL = 1e-10
EIGENPAIR_TOL = 1e-9
COMMUTATOR_TOL = 1e-12
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
    a block as a timing.<stage> line, and `main` adds the process's peak
    resident set size as timing.peak_rss_bytes and the whole run's time as
    timing.seconds.
    """

    def __init__(self, command: str):
        self.opened = _clock()
        self.lines: list[str] = []
        self.add("command", command)

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key}: {_fmt(value)}")

    @contextlib.contextmanager
    def stage(self, name: str):
        """Add the enclosed block's wall time as timing.<name>, unless it raises."""
        start = _clock()
        yield
        self.add(f"timing.{name}", _clock(start))

    def emit(self) -> None:
        sys.stdout.write("\n".join(self.lines) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_quantum_numbers(text: str) -> QuantumNumbers:
    values = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    return QuantumNumbers(values)


def _verdict(rep: Report, failures: list[str]) -> int:
    """Report the failed checks, if any, and return the matching exit code."""
    rep.add("verification.passed", not failures)
    if failures:
        rep.add("verification.failures", ",".join(failures))
    return EXIT_VERIFICATION if failures else EXIT_OK


def _spectrum(op, c: float) -> np.ndarray:
    """Ascending spectrum of a sector operator, V or H at weight c: its momentum blocks' union."""
    spectra, weights, exponent = momentum_spectra(op.basis, op.rows)
    with np.errstate(over="ignore"):  # a value past the double range is refused below
        values = np.ldexp(np.sort(np.repeat(spectra.ravel(), weights.ravel())), exponent)
    if not np.isfinite(values).all():
        raise DomainError(f"sector spectrum overflows a double at c = {c!r}")
    return values


def _match_level(rep: Report, sector, c: float, checks) -> list[str]:
    """Name the levels of (kind, operator, value, bracket) checks on one route; return failures.

    ``certified`` when every bracket is finite and, widened to contain its
    value, within MATCH_TOL * max(1, |value|): each value is then the top
    level, dim - 1, and no eigensolver runs.  Else ``block`` where the
    momentum blocks fit the budget on top of the solve, each value named by
    its lowest hit in the ascending ``_spectrum``; else ``skipped:budget``.
    """
    widths = [max(b[1], value) - min(b[0], value) if b and all(map(math.isfinite, b))
              else math.inf for _, _, value, b in checks]
    if all(w <= MATCH_TOL * max(1.0, abs(check[2])) for w, check in zip(widths, checks)):
        rep.add("checks.route", "certified")
        for width, (kind, *_) in zip(widths, checks):
            rep.add(f"oracle.{kind}_match_index", sector.dim - 1)
            rep.add(f"oracle.{kind}_bracket_width", width)
        return []
    try:
        caps.check_sector("solve", sector.N, sector.n, blocks=True)
    except CapExceededError:
        rep.add("checks.route", "skipped:budget")
        return []
    rep.add("checks.route", "block")
    with rep.stage("spectrum"):
        spectra = [(kind, value, _spectrum(op, c)) for kind, op, value, _ in checks]
    failures = []
    for kind, value, eigenvalues in spectra:
        hits = match_eigenvalue(value, eigenvalues, MATCH_TOL)
        rep.add(f"oracle.{kind}_match_count", len(hits))
        rep.add(f"oracle.{kind}_match_index", hits[0] if hits else -1)
        if not hits:
            failures.append(f"{kind}_spectrum_match")
    return failures


def _cmd_solve(args) -> tuple[Report, int]:
    a = Anisotropy(args.c)
    N, n = args.N, args.n
    if N < 2 or n < 0 or 2 * n > N:  # H's chain needs a bond
        raise ValueError(f"need N >= 2 and 0 <= n <= N/2, got n = {n}, N = {N}")
    caps.check_sector("solve", N, n)  # before the n quantum numbers are even made
    try:
        qn = (_parse_quantum_numbers(args.quantum_numbers) if args.quantum_numbers
              else ground_state_quantum_numbers(n))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad quantum numbers: {exc}") from exc
    if qn.n != n:
        raise ValueError(f"expected {n} quantum numbers, got {qn.n}")

    rep = Report("solve")
    rep.add("param.N", N)
    rep.add("param.n", n)
    rep.add("param.c", args.c)
    rep.add("param.quantum_numbers", ",".join(str(v) for v in qn.values))
    rep.add("anisotropy.delta", a.delta)
    rep.add("anisotropy.mu", a.mu)

    with rep.stage("solve"):
        report = solve(N, qn, a)
        cond = report.jacobian_condition_estimate  # computed on first read, so timed here
    rep.add("solver.converged", report.converged)
    rep.add("solver.iterations", report.iterations)
    rep.add("solver.step_halvings", report.step_halvings)
    rep.add("solver.polish_steps", report.polish_steps)
    rep.add("solver.final_residual", report.final_residual)
    rep.add("solver.jacobian_condition_estimate", cond)
    rep.add("solver.degenerate", report.degenerate)
    for k, p in enumerate(report.momenta.momenta):
        rep.add(f"momentum.{k}", p)
    if not report.converged or report.degenerate:
        return rep, EXIT_RESOURCE

    failures: list[str] = []
    m = report.momenta
    sector = enumerate_sector(N, n)
    with rep.stage("psi"):
        prediction = full_prediction(sector, m)
    lam, energy = prediction.lam, prediction.energy
    rep.add("prediction.singular", prediction.singular)
    rep.add("prediction.lambda.re", float(lam.real))
    rep.add("prediction.lambda.im", float(lam.imag))
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

    if not nontrivial:
        rep.add("checks.route", "skipped:psi-trivial")
    else:
        with rep.stage("v"):
            v_op = transfer_operator(sector, a)
            v_op.maps  # the sweep's tables, built on first use: timed here
        with rep.stage("h"):
            h_op = hamiltonian_operator(sector, a.delta)
        with rep.stage("residuals"):
            rv, v_bracket = check_eigenpair(v_op, prediction.psi, lam)
            rh, h_bracket = check_eigenpair(h_op, prediction.psi, energy)
        with rep.stage("commutator"):
            comm = commutator_probe(v_op, h_op)
        rep.add("residual.transfer_eigenpair", rv)
        rep.add("residual.xxz_eigenpair", rh)
        rep.add("residual.commutator_probe", comm)
        # relative to the eigenvalue's scale, as the imaginary-part gate is
        if not rv <= EIGENPAIR_TOL * max(1.0, abs(lam)):
            failures.append("transfer_eigenpair")
        if not rh <= EIGENPAIR_TOL * max(1.0, abs(energy)):
            failures.append("xxz_eigenpair")
        if not comm <= COMMUTATOR_TOL:
            failures.append("commutator")
        failures += _match_level(rep, sector, a.c, (("transfer", v_op, lam.real, v_bracket),
                                                    ("xxz", h_op, energy, h_bracket)))

    if args.dump_psi:
        psi = prediction.psi
        with open(args.dump_psi, "w") as handle:  # a handle: savetxt gzips a path ending .gz
            np.savetxt(handle, np.column_stack([np.arange(len(psi)), psi.real, psi.imag]),
                       fmt=["%d", "%.17g", "%.17g"])
        rep.add("dump.psi_path", args.dump_psi)
    return rep, _verdict(rep, failures)


def _cmd_partition(args) -> tuple[Report, int]:
    a = Anisotropy(args.c)
    if args.N < 1 or args.m < 1:
        raise ValueError("need N >= 1 and M >= 1")
    caps.check_partition(args.N)
    rep = Report("partition")
    if args.bruteforce:  # the count goes first: it refuses a torus past int64 before the trace
        log_z = log_polynomial(partition_function_bruteforce(args.N, args.m), a.c)
    rep.add("param.N", args.N)
    rep.add("param.M", args.m)
    rep.add("param.c", args.c)
    log_trace = log_trace_power(args.N, args.m, a)
    rep.add("partition.log_trace_power", log_trace)
    if not args.bruteforce:
        return rep, EXIT_OK
    disc = abs(math.expm1(log_z - log_trace))  # |Z / Tr V^M - 1|
    rep.add("partition.log_bruteforce", log_z)
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
    if args.grid < 2 or args.samples < 1:  # fewer would check nothing, yet pass
        raise ValueError("need --grid >= 2 and --samples >= 1")
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
        for name, value in (("adjacent", suite.adjacent_max),
                            ("boundary", suite.boundary_max), ("cyclic", suite.cyclic_max)):
            rep.add(f"identity.{name}_max", value)
            if not value <= SOLVED_IDENTITY_TOL:
                failures.append(f"{name}_ratio")
    return rep, _verdict(rep, failures)


def _sector(args, command: str, **plan):
    """Validate the sector flags, check the budget on (N, n) and ``plan``, open the report,
    build the ``--kind`` operator; ``plan`` is ``caps.check_sector``'s blocks or dense."""
    a = Anisotropy(args.c)
    if args.N < 1 or not 0 <= args.n <= args.N:
        raise ValueError("need N >= 1 and 0 <= n <= N")
    caps.check_sector(command, args.N, args.n, **plan)
    rep = Report(command)
    for key in ("N", "n", "c", "kind"):
        rep.add(f"param.{key}", getattr(args, key))
    sector = enumerate_sector(args.N, args.n)
    return rep, (transfer_operator(sector, a) if args.kind == "transfer"
                 else hamiltonian_operator(sector, a.delta))


def _cmd_spectrum(args) -> tuple[Report, int]:
    rep, op = _sector(args, "spectrum", blocks=True)  # the plan of solve's block route
    eigenvalues = _spectrum(op, args.c)
    rep.add("spectrum.dim", op.dim)
    for k, value in enumerate(eigenvalues):
        rep.add(f"eigenvalue.{k}", float(value))
    return rep, EXIT_OK


def _cmd_dump_matrix(args) -> tuple[Report, int]:
    """Write the header "N n dim kind", then the block's rows, one chunk of rows at a time.

    The budget covers the sector and its operator, as ``spectrum`` plans
    them, and the dense block written; memory holds one chunk of it.  Every
    refusal (the budget, a weight or H's diagonal past the double range, H
    at N = 1) comes before the file is opened, but a run interrupted
    mid-write, by ``MemoryError`` say, can leave a partial file.
    """
    rep, op = _sector(args, "dump-matrix", dense=True)
    # a handle, since savetxt gzips a path ending .gz
    with open(args.out, "w") as handle:
        handle.write(f"{args.N} {args.n} {op.dim} {args.kind}\n")
        for rows in _row_chunks(op.dim, op.dim):
            np.savetxt(handle, op.rows(rows), fmt="%.17g")
    rep.add("dump.dim", op.dim)
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
    p_solve.add_argument("--dump-psi", default=None, metavar="PATH",
                         help='write coefficients as "index real imag" lines')
    p_solve.set_defaults(func=_cmd_solve)

    p_part = sub.add_parser("partition", help="log partition function log Tr(V^M)")
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
    p_spec = sub.add_parser("spectrum", parents=[sector], help="sector spectrum")
    p_spec.add_argument("--kind", choices=kinds, default="transfer")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_dump = sub.add_parser("dump-matrix", parents=[sector],
                            help="write a sector block to a file")
    p_dump.add_argument("--kind", choices=kinds, default="transfer")
    p_dump.add_argument("--out", required=True, metavar="PATH")
    p_dump.set_defaults(func=_cmd_dump_matrix)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, print its report and closing timing lines, return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        rep, code = args.func(args)
    except (CapExceededError, DomainError, np.linalg.LinAlgError) as exc:
        # the memory budget, or a value outside the numeric range of the routes
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:  # numpy's names the allocation; a bare one has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # bad input, degenerate momenta, unwritable paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # the process's peak so far; ru_maxrss counts KiB on Linux
    rep.add("timing.peak_rss_bytes", 1024 * resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    rep.add("timing.seconds", _clock(rep.opened))
    rep.emit()
    return code


def run() -> None:
    raise SystemExit(main())
