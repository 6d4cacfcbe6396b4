"""Workload definitions, case execution and the fail-closed case classifier.

Every workload is a closed loop: one caller runs its cases back to back.
The seed shuffles the case order in every workload and jitters c by up to
1% in the two sector workloads.  ``ring-ladder`` and ``torus`` keep c
exact, because their outcomes sit on sharp edges ((N, c) = (512, 0.5)
converges, (512, 0.505) does not).
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass

import numpy as np

C_JITTER = 0.01
SWEEP_C = (0.1, 0.5, 1.0, math.sqrt(2.0), 2.0, 2.5)
RING_N = (128, 256, 512, 1024)
RING_C = (0.5, 1.0, 1.5)
TORUS_C = (0.5, 1.0, 2.0, 3.0)
LONG_TORI = ((4, 100), (4, 400), (6, 300), (8, 200))

RING_RESIDUAL_TOL = 1e-10
RING_IMAG_TOL = 1e-9
LIEB_MIN_RATE = 3.0   # |log(Lambda)/N - log W| must shrink this much per doubling of N
LOG_W = 1.5 * math.log(4.0 / 3.0)   # Lieb's square-ice entropy, Phys. Rev. 162, 162 (1967)

# Failures the benchmark shows at the commit that introduced it, by case and
# reason.  A failure outside this table makes the run incorrect; a case
# leaving it shows up as a lower failed count.
KNOWN_FAILURES = {
    "sector-sweep": {
        f"solve N={N} n={n} c=0.1": {"exit_3", "psi_trivial"}
        for N, n in ((10, 5), (12, 5), (12, 6))
    },
    "ring-ladder": {"ring N=1024 c=0.5": {"nonconverged"}},
    "torus": {
        f"partition N={N} M={M} c={c:g}": {"nonfinite:partition.trace_power"}
        for c, tori in ((1.0, ((4, 400), (6, 300))),
                        (2.0, ((4, 400), (6, 300), (8, 200))),
                        (3.0, ((4, 400), (6, 300), (8, 200))))
        for N, M in tori
    },
}


@dataclass(frozen=True)
class Case:
    key: str            # workload-independent label from the nominal parameters
    kind: str           # "solve" | "partition" | "ring"
    params: dict        # the parameters actually run


def _jitter(rng, c):
    return c * (1.0 + rng.uniform(-C_JITTER, C_JITTER))


def _solve(N, n, c_nominal, c):
    return Case(f"solve N={N} n={n} c={c_nominal:g}", "solve", {"N": N, "n": n, "c": c})


def _partition(N, M, c, bruteforce):
    return Case(f"partition N={N} M={M} c={c:g}", "partition",
                {"N": N, "M": M, "c": c, "bruteforce": bruteforce})


def _ring(N, c):
    return Case(f"ring N={N} c={c:g}", "ring", {"N": N, "c": c})


def sector_large(rng):
    return [_solve(15, 7, 1.0, _jitter(rng, 1.0))]


def sector_sweep(rng):
    return [_solve(N, n, c, _jitter(rng, c))
            for N in (6, 8, 10, 12) for n in range(1, N // 2 + 1) for c in SWEEP_C]


def ring_ladder(rng):
    return [_ring(N, c) for N in RING_N for c in RING_C]


def torus(rng):
    cases = []
    for c in TORUS_C:
        cases += [_partition(N, M, c, True)
                  for N in range(2, 8) for M in range(2, 8) if N * M <= 14]
        cases += [_partition(N, N, c, False) for N in (8, 10, 12)]
        cases += [_partition(N, M, c, False) for N, M in LONG_TORI]
    return cases


WORKLOADS = {
    "sector-large": sector_large,
    "sector-sweep": sector_sweep,
    "ring-ladder": ring_ladder,
    "torus": torus,
}

# One case of the workload's own kind, run during set-up so that lazy
# initialisation (BLAS thread pools, the allocator growing to the workload's
# largest blocks) is not timed.
WARMUP = {
    "sector-large": _solve(12, 6, 1.0, 1.0),
    "sector-sweep": _solve(12, 6, 1.0, 1.0),
    "ring-ladder": _ring(1024, 1.0),
    "torus": _partition(12, 2, 1.0, False),
}


def make_cases(workload, rng):
    cases = WORKLOADS[workload](rng)
    rng.shuffle(cases)
    return cases


def parse_report(text: str) -> dict[str, str]:
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def classify_report(code: int, report: dict, needs_verification: bool) -> list[str]:
    """Failure reasons of one CLI case; an empty list means it passed.

    Fails closed: a nonzero exit, a missing or false ``verification.passed``
    where the command verifies, and any non-finite number fail the case.
    """
    reasons = []
    if code != 0:
        reasons.append(f"exit_{code}")
    listed = report.get("verification.failures")
    if listed:
        reasons += listed.split(",")
    elif needs_verification and report.get("verification.passed") != "true":
        reasons.append("verification_not_passed")
    for key, value in report.items():
        try:
            number = float(value)
        except ValueError:
            continue
        if not math.isfinite(number):
            reasons.append(f"nonfinite:{key}")
    return reasons


def cli_argv(case: Case) -> list[str]:
    p = case.params
    if case.kind == "solve":
        return ["solve", "--capital-n", str(p["N"]), "--n", str(p["n"]), "--c", repr(p["c"])]
    argv = ["partition", "--capital-n", str(p["N"]), "--m", str(p["M"]), "--c", repr(p["c"])]
    return argv + ["--bruteforce"] if p["bruteforce"] else argv


def run_cli_case(case: Case, bethe) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bethe.cli.main(cli_argv(case))
    report = parse_report(out.getvalue())
    needs = case.kind == "solve" or case.params["bruteforce"]
    return {"exit_code": code, "reasons": classify_report(code, report, needs),
            "report": report}


def run_ring_case(case: Case, bethe) -> dict:
    """Solver and function layers alone: solve, then Lambda, E and residuals."""
    N, c = case.params["N"], case.params["c"]
    a = bethe.functions.Anisotropy(c)
    rep = bethe.solver.solve(N, bethe.solver.ground_state_quantum_numbers(N // 2), a)
    lam, _ = bethe.ansatz.transfer_eigenvalue(rep.momenta, N)
    energy = bethe.xxz.energy_prediction(rep.momenta, N, a.delta)
    residual = float(np.max(np.abs(bethe.ansatz.bethe_residual(rep.momenta, N))))
    reasons = []
    if not rep.converged:
        reasons.append("nonconverged")
    if rep.degenerate:
        reasons.append("degenerate")
    if not residual <= RING_RESIDUAL_TOL:
        reasons.append("bethe_residual")
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        reasons.append("lambda_nonfinite")
    elif not abs(lam.imag) <= RING_IMAG_TOL * abs(lam):
        reasons.append("lambda_imaginary")
    if not math.isfinite(energy):
        reasons.append("energy_nonfinite")
    log_lambda = math.log(abs(lam)) / N if abs(lam) > 0 and math.isfinite(abs(lam)) else math.nan
    return {"exit_code": None, "reasons": reasons, "report": {
        "converged": rep.converged, "iterations": rep.iterations,
        "final_residual": rep.final_residual, "bethe_max": residual,
        "lambda_re": lam.real, "lambda_im": lam.imag, "energy": energy,
        "log_lambda_per_site": log_lambda}}


def check_lieb_rate(records) -> None:
    """At c = 1 the error against log W must shrink >= 3x per doubling of N.

    A shortfall, a non-finite error or a case with no Lambda (its run raised)
    fails the larger case of the pair.
    """
    by_n = {r["params"]["N"]: r for r in records
            if r["kind"] == "ring" and r["params"]["c"] == 1.0}
    for N in sorted(by_n):
        big = by_n.get(2 * N)
        if big is None:
            continue
        err_small = abs(by_n[N]["report"].get("log_lambda_per_site", math.nan) - LOG_W)
        err_big = abs(big["report"].get("log_lambda_per_site", math.nan) - LOG_W)
        big["report"]["lieb_error"] = err_big
        if not err_small >= LIEB_MIN_RATE * err_big:
            big["reasons"].append("lieb_rate")


def run_case(case: Case, bethe) -> dict:
    runner = run_ring_case if case.kind == "ring" else run_cli_case
    return runner(case, bethe)


def unexpected_failures(workload, records) -> list[dict]:
    known = KNOWN_FAILURES.get(workload, {})
    return [r for r in records
            if r["reasons"] and not set(r["reasons"]) <= known.get(r["key"], set())]
