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
non-convergence or a resource cap, 3 verification failure.
"""

from __future__ import annotations

import argparse
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
from .errors import (
    CapExceededError,
    DegenerateMomentaError,
    DomainError,
    SingularMomentumError,
)
from .functions import (
    Anisotropy,
    L_factor,
    M_factor,
    scattering_kernel,
    theta,
    theta_partial_1,
)
from .oracle import check_eigenpair, dense_spectrum, match_eigenvalue
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
COMMUTATOR_TOL = 1e-10
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


class Report:
    """Ordered "key: value" lines, floats at 17 significant digits."""

    def __init__(self, command: str):
        self.lines: list[str] = []
        self.add("command", command)

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key}: {_fmt(value)}")

    def add_complex(self, key: str, value: complex) -> None:
        self.add(f"{key}.re", float(value.real))
        self.add(f"{key}.im", float(value.imag))

    def emit(self, stream=None) -> None:
        stream = stream or sys.stdout
        stream.write("\n".join(self.lines) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_quantum_numbers(text: str) -> QuantumNumbers:
    values = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    return QuantumNumbers(values)


def _write_psi(path: str, psi: np.ndarray) -> None:
    with open(path, "w") as handle:
        for k, value in enumerate(psi):
            handle.write(
                f"{k} {format(value.real, '.17g')} {format(value.imag, '.17g')}\n"
            )


def _cmd_solve(args) -> int:
    t0 = time.perf_counter()
    N, n = args.N, args.n
    if args.c is not None and args.c <= 0:
        return _usage_error("c must be positive")
    if n < 0 or 2 * n > N:
        return _usage_error(f"need 0 <= n <= N/2, got n = {n}, N = {N}")
    try:
        qn = (
            _parse_quantum_numbers(args.quantum_numbers)
            if args.quantum_numbers
            else ground_state_quantum_numbers(n)
        )
    except (ValueError, ZeroDivisionError) as exc:
        return _usage_error(f"bad quantum numbers: {exc}")
    if qn.n != n:
        return _usage_error(f"expected {n} quantum numbers, got {qn.n}")

    a = Anisotropy(args.c)
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

    report = solve(N, qn, a, cfg)
    rep.add("solver.converged", report.converged)
    rep.add("solver.iterations", report.iterations)
    rep.add("solver.final_residual", report.final_residual)
    rep.add("solver.jacobian_condition_estimate", report.jacobian_condition_estimate)
    rep.add("solver.degenerate", report.degenerate)
    for k, p in enumerate(report.momenta.momenta):
        rep.add(f"momentum.{k}", p)
    if not report.converged or report.degenerate:
        rep.add("timing.seconds", time.perf_counter() - t0)
        rep.emit()
        return EXIT_RESOURCE

    failures: list[str] = []
    m = report.momenta
    sector = enumerate_sector(N, n)
    prediction = full_prediction(sector, AmplitudeEvaluator(m))
    rep.add("prediction.singular", prediction.singular)
    rep.add_complex("prediction.lambda", prediction.lam)
    rep.add("prediction.energy", prediction.energy)
    rep.add("prediction.psi_norm", prediction.psi_norm)

    nontrivial = prediction.psi_norm > PSI_TRIVIALITY_FACTOR * math.sqrt(sector.dim)
    rep.add("psi.nontrivial", nontrivial)
    if not nontrivial:
        failures.append("psi_trivial")

    be = float(np.max(np.abs(bethe_residual(m, N)))) if n else 0.0
    rep.add("residual.bethe_max", be)
    if not be <= BETHE_RESIDUAL_TOL:
        failures.append("bethe_residual")
    if not abs(prediction.lam.imag) <= IMAG_TOL * max(1.0, abs(prediction.lam)):
        failures.append("lambda_imaginary")

    block_checks = sector.dim <= caps.dim_cap(None)
    rep.add("checks.blocks", "full" if block_checks else "skipped-dimension-cap")
    if block_checks and nontrivial:
        v_block = build_transfer_block(N, n, VertexWeights(c=args.c), sector=sector)
        h_block = build_hamiltonian_block(N, n, a.delta, sector=sector)
        rv = check_eigenpair(v_block, prediction.psi, prediction.lam)
        rh = check_eigenpair(h_block, prediction.psi, prediction.energy)
        comm = commutator_norm(v_block, h_block)
        rep.add("residual.transfer_eigenpair", rv)
        rep.add("residual.xxz_eigenpair", rh)
        rep.add("residual.commutator_max", comm)
        if not rv <= EIGENPAIR_TOL:
            failures.append("transfer_eigenpair")
        if not rh <= EIGENPAIR_TOL:
            failures.append("xxz_eigenpair")

        if sector.dim <= caps.spectrum_cap(None):
            spec_v = dense_spectrum(v_block)
            spec_h = dense_spectrum(h_block)
            v_hits = match_eigenvalue(prediction.lam.real, spec_v, MATCH_TOL)
            h_hits = match_eigenvalue(prediction.energy, spec_h, MATCH_TOL)
            rep.add("oracle.transfer_match_count", len(v_hits))
            rep.add(
                "oracle.transfer_match_index", v_hits[0] if v_hits else -1
            )
            rep.add("oracle.xxz_match_count", len(h_hits))
            rep.add("oracle.xxz_match_index", h_hits[0] if h_hits else -1)
            if not v_hits:
                failures.append("transfer_spectrum_match")
            if not h_hits:
                failures.append("xxz_spectrum_match")

    if args.dump_psi:
        _write_psi(args.dump_psi, prediction.psi)
        rep.add("dump.psi_path", args.dump_psi)

    rep.add("verification.passed", not failures)
    if failures:
        rep.add("verification.failures", ",".join(failures))
    rep.add("timing.seconds", time.perf_counter() - t0)
    rep.emit()
    return EXIT_VERIFICATION if failures else EXIT_OK


def _cmd_partition(args) -> int:
    t0 = time.perf_counter()
    if args.c <= 0:
        return _usage_error("c must be positive")
    if args.N < 1 or args.m < 1:
        return _usage_error("need N >= 1 and M >= 1")
    if args.bruteforce and (args.N < 2 or args.m < 2):
        return _usage_error("brute-force enumeration needs N >= 2 and M >= 2")
    weights = VertexWeights(c=args.c)
    rep = Report("partition")
    rep.add("param.N", args.N)
    rep.add("param.M", args.m)
    rep.add("param.c", args.c)
    trace = trace_power(args.N, args.m, weights)
    rep.add("partition.trace_power", trace)
    failures = []
    if args.bruteforce:
        z = partition_function_bruteforce(args.N, args.m, weights)
        disc = abs(trace - z) / trace
        rep.add("partition.bruteforce", z)
        rep.add("partition.relative_discrepancy", disc)
        if not disc <= PARTITION_TOL:
            failures.append("partition_discrepancy")
        rep.add("verification.passed", not failures)
    rep.add("timing.seconds", time.perf_counter() - t0)
    rep.emit()
    return EXIT_VERIFICATION if failures else EXIT_OK


def _grid_suite(a: Anisotropy, grid: int):
    """Max deviations of the function-level identities on an interior grid."""
    hw = a.domain_halfwidth
    margin = hw / grid
    g = np.linspace(-hw + margin, hw - margin, grid)
    X, Y = np.meshgrid(g, g, indexing="ij")

    th = theta(X, Y, a)
    s_xy = scattering_kernel(X, Y, a)
    s_yx = scattering_kernel(Y, X, a)
    defining = float(
        np.max(np.abs(np.exp(-1j * th) - np.exp(1j * (X - Y)) * s_xy / s_yx))
    )
    antisym = float(np.max(np.abs(th + theta(Y, X, a))))

    nz = g[np.abs(g) > 1e-4]
    z = np.exp(1j * nz)
    c2 = a.c * a.c
    lm_sum = float(np.max(np.abs(L_factor(z, a) + M_factor(z, a) - (2.0 - c2))))

    ZX, ZY = np.meshgrid(z, z, indexing="ij")
    PX, PY = np.meshgrid(nz, nz, indexing="ij")
    ratio = (M_factor(ZX, a) * L_factor(ZY, a) - 1.0) / (
        M_factor(ZY, a) * L_factor(ZX, a) - 1.0
    )
    lm_phase = float(np.max(np.abs(np.exp(1j * theta(PX, PY, a)) - ratio)))

    zero_phase = float(
        np.max(np.abs(np.exp(1j * theta(0.0, nz, a)) + L_factor(z, a) / M_factor(z, a)))
    )

    # The difference oracle is compared on the interior 90% box: at the
    # closure corners the kernel vanishes (delta in [-1, 1)), the third
    # derivative blows up, and the h^2 truncation of the oracle itself
    # exceeds the gate.  The defining relation above still covers the full
    # grid, corners included.
    inner = g[np.abs(g) <= 0.9 * hw]
    step = max(1, inner.size // 11)
    fx, fy = np.meshgrid(inner[::step], inner[::step], indexing="ij")
    h = 1e-6
    fd = (theta(fx + h, fy, a) - theta(fx - h, fy, a)) / (2.0 * h)
    partial_fd = float(np.max(np.abs(theta_partial_1(fx, fy, a) - fd)))

    return {
        "defining_relation_max": defining,
        "antisymmetry_max": antisym,
        "lm_sum_max": lm_sum,
        "lm_phase_max": lm_phase,
        "zero_momentum_phase_max": zero_phase,
        "partial_fd_max": partial_fd,
    }


def _cmd_verify_identities(args) -> int:
    t0 = time.perf_counter()
    if args.c <= 0:
        return _usage_error("c must be positive")
    if (args.N is None) != (args.n is None):
        return _usage_error("give both --capital-n and --n or neither")
    a = Anisotropy(args.c)
    rep = Report("verify-identities")
    rep.add("param.c", args.c)
    rep.add("param.grid", args.grid)
    rep.add("anisotropy.delta", a.delta)
    rep.add("anisotropy.mu", a.mu)

    failures = []
    results = _grid_suite(a, args.grid)
    for key, value in results.items():
        rep.add(f"identity.{key}", value)
        tol = FD_TOL if key == "partial_fd_max" else GRID_IDENTITY_TOL
        if not value <= tol:
            failures.append(key)

    if args.N is not None:
        N, n = args.N, args.n
        if n < 1 or 2 * n > N:
            return _usage_error(f"need 1 <= n <= N/2, got n = {n}, N = {N}")
        rep.add("param.N", N)
        rep.add("param.n", n)
        report = solve(N, ground_state_quantum_numbers(n), a)
        rep.add("solver.converged", report.converged)
        rep.add("solver.final_residual", report.final_residual)
        if not report.converged:
            rep.add("timing.seconds", time.perf_counter() - t0)
            rep.emit()
            return EXIT_RESOURCE
        suite = identity_suite(report.momenta, N, samples=args.samples)
        rep.add("identity.adjacent_max", suite.adjacent_max)
        rep.add("identity.boundary_max", suite.boundary_max)
        rep.add("identity.cyclic_max", suite.cyclic_max)
        for name, value in (
            ("adjacent", suite.adjacent_max),
            ("boundary", suite.boundary_max),
            ("cyclic", suite.cyclic_max),
        ):
            if not value <= SOLVED_IDENTITY_TOL:
                failures.append(f"{name}_ratio")

    rep.add("verification.passed", not failures)
    if failures:
        rep.add("verification.failures", ",".join(failures))
    rep.add("timing.seconds", time.perf_counter() - t0)
    rep.emit()
    return EXIT_VERIFICATION if failures else EXIT_OK


def _build_block(N, n, c, kind):
    if kind == "transfer":
        return build_transfer_block(N, n, VertexWeights(c=c))
    return build_hamiltonian_block(N, n, Anisotropy(c).delta)


def _cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    if args.c <= 0:
        return _usage_error("c must be positive")
    if args.n < 0 or args.n > args.N:
        return _usage_error("need 0 <= n <= N")
    block = _build_block(args.N, args.n, args.c, args.kind)
    spec = dense_spectrum(block)
    rep = Report("spectrum")
    rep.add("param.N", args.N)
    rep.add("param.n", args.n)
    rep.add("param.c", args.c)
    rep.add("param.kind", args.kind)
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
    rep.add("timing.seconds", time.perf_counter() - t0)
    rep.emit()
    return EXIT_OK


def _cmd_dump_matrix(args) -> int:
    t0 = time.perf_counter()
    if args.c <= 0:
        return _usage_error("c must be positive")
    if args.n < 0 or args.n > args.N:
        return _usage_error("need 0 <= n <= N")
    block = _build_block(args.N, args.n, args.c, args.kind)
    write_matrix(block, args.out)
    rep = Report("dump-matrix")
    rep.add("param.N", args.N)
    rep.add("param.n", args.n)
    rep.add("param.c", args.c)
    rep.add("param.kind", args.kind)
    rep.add("dump.dim", block.dim)
    rep.add("dump.path", args.out)
    rep.add("timing.seconds", time.perf_counter() - t0)
    rep.emit()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bethe6v", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve, predict, and verify one sector case")
    p_solve.add_argument("--capital-n", dest="N", type=int, required=True,
                         help="ring size N")
    p_solve.add_argument("--n", dest="n", type=int, required=True,
                         help="up-arrow count n (must satisfy n <= N/2)")
    p_solve.add_argument("--c", type=float, required=True, help="vertex weight c > 0")
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

    p_spec = sub.add_parser("spectrum", help="dense sector spectrum")
    p_spec.add_argument("--capital-n", dest="N", type=int, required=True)
    p_spec.add_argument("--n", dest="n", type=int, required=True)
    p_spec.add_argument("--c", type=float, required=True)
    p_spec.add_argument("--kind", choices=("transfer", "hamiltonian"),
                        default="transfer")
    p_spec.add_argument("--dump-matrix", default=None, metavar="PATH")
    p_spec.add_argument("--csv", default=None, metavar="PATH")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_dump = sub.add_parser("dump-matrix", help="write a sector block to a file")
    p_dump.add_argument("--capital-n", dest="N", type=int, required=True)
    p_dump.add_argument("--n", dest="n", type=int, required=True)
    p_dump.add_argument("--c", type=float, required=True)
    p_dump.add_argument("--kind", choices=("transfer", "hamiltonian"),
                        default="transfer")
    p_dump.add_argument("--out", required=True, metavar="PATH")
    p_dump.set_defaults(func=_cmd_dump_matrix)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, DegenerateMomentaError, SingularMomentumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    raise SystemExit(main())
