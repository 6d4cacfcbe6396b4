"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [A*] PASS/FAIL line (run with -s to see them inline).
Solves and spectra are cached per (N, n, c) since several criteria share
the same ground-state sweep.
"""

import math
import time
from functools import lru_cache

import numpy as np

from bethe6v import (
    Anisotropy,
    MomentumSet,
    build_psi,
    check_eigenpair,
    enumerate_sector,
    full_prediction,
    grid_suite,
    ground_state_quantum_numbers,
    identity_suite,
    log_polynomial,
    log_trace_power,
    match_eigenvalue,
    pair_factors,
    partition_function_bruteforce,
    solve,
    transfer_eigenvalue,
)

from helpers import (
    build_hamiltonian_block,
    build_transfer_block,
    build_transfer_block_by_configuration,
    commutator_norm,
    dense_eigenvalues,
)

RING_SIZES = (6, 8, 10, 12)
C_VALUES = (0.5, 1.0, math.sqrt(2.0), 2.0)

SOLVER_TOL = 1e-12
EIGENPAIR_TOL = 1e-9
IMAG_TOL = 1e-9
MATCH_TOL = 1e-8
COMMUTATOR_TOL = 1e-10
PARTITION_TOL = 1e-12
GRID_TOL = 1e-11
FD_TOL = 1e-6
RATIO_TOL = 1e-9
FLIP_TOL = 1e-10


def sweep(parity):
    for N in RING_SIZES:
        for n in range(1, N // 2 + 1):
            if n % 2 == parity:
                for c in C_VALUES:
                    yield N, n, c


@lru_cache(maxsize=None)
def solved(N, n, c):
    return solve(N, ground_state_quantum_numbers(n), Anisotropy(c))


@lru_cache(maxsize=None)
def prediction(N, n, c):
    report = solved(N, n, c)
    assert report.converged
    return full_prediction(enumerate_sector(N, n), report.momenta)


@lru_cache(maxsize=None)
def transfer_verification(N, n, c):
    """Eigenpair residual and spectrum match, with the block built once."""
    pred = prediction(N, n, c)
    block = build_transfer_block(enumerate_sector(N, n), Anisotropy(c))
    residual, _ = check_eigenpair(block, pred.psi, pred.lam)
    hits = match_eigenvalue(pred.lam.real, dense_eigenvalues(block), MATCH_TOL)
    return residual, len(hits), pred


def emit(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")


def test_a1_regular_eigenpairs():
    t0 = time.perf_counter()
    failures = []
    worst_solver = worst_residual = worst_imag = 0.0
    for N, n, c in sweep(parity=0):
        report = solved(N, n, c)
        if not (report.converged and report.final_residual <= SOLVER_TOL):
            failures.append((N, n, c, "solver"))
            continue
        worst_solver = max(worst_solver, report.final_residual)
        residual, match_count, pred = transfer_verification(N, n, c)
        worst_residual = max(worst_residual, residual)
        imag = abs(pred.lam.imag)
        worst_imag = max(worst_imag, imag)
        if pred.singular:
            failures.append((N, n, c, "unexpected singular branch"))
        if residual > EIGENPAIR_TOL:
            failures.append((N, n, c, f"residual {residual:.2e}"))
        if imag > IMAG_TOL * max(1.0, abs(pred.lam)):
            failures.append((N, n, c, f"imag {imag:.2e}"))
        if match_count < 1:
            failures.append((N, n, c, "no spectrum match"))
    elapsed = time.perf_counter() - t0
    emit(
        "A1",
        not failures and elapsed < 120.0,
        f"regular eigenpairs: solver<={worst_solver:.1e} "
        f"residual<={worst_residual:.1e} imag<={worst_imag:.1e} ({elapsed:.1f}s)",
    )
    assert not failures, failures
    assert elapsed < 120.0


def test_a2_xxz_eigenpairs():
    failures = []
    worst = 0.0
    for N, n, c in sweep(parity=0):
        a = Anisotropy(c)
        pred = prediction(N, n, c)
        block = build_hamiltonian_block(enumerate_sector(N, n), a.delta)
        residual, _ = check_eigenpair(block, pred.psi, pred.energy)
        worst = max(worst, residual)
        if residual > EIGENPAIR_TOL:
            failures.append((N, n, c, residual))
    emit("A2", not failures, f"spin-chain eigenpairs: residual<={worst:.1e}")
    assert not failures, failures


def test_a3_singular_branch():
    failures = []
    worst_residual = 0.0
    for N, n, c in sweep(parity=1):
        report = solved(N, n, c)
        if not report.converged:
            failures.append((N, n, c, "solver"))
            continue
        residual, match_count, pred = transfer_verification(N, n, c)
        worst_residual = max(worst_residual, residual)
        if not pred.singular:
            failures.append((N, n, c, "singular flag missing"))
        if match_count < 1:
            failures.append((N, n, c, "no spectrum match"))
        if residual > EIGENPAIR_TOL:
            failures.append((N, n, c, f"residual {residual:.2e}"))
        if n == 1:
            lam, singular = transfer_eigenvalue(report.momenta, N)
            if not singular or lam != complex(2.0 + c * c * (N - 1)):
                failures.append((N, n, c, "n=1 collapse not exact"))
    emit("A3", not failures, f"singular branch: residual<={worst_residual:.1e}")
    assert not failures, failures


def test_a4_commutation():
    failures = []
    worst = 0.0
    for c in C_VALUES:
        a = Anisotropy(c)
        for N in range(2, 13):
            for n in range(N + 1):
                sector = enumerate_sector(N, n)
                norm = commutator_norm(build_transfer_block(sector, a),
                                       build_hamiltonian_block(sector, a.delta))
                worst = max(worst, norm)
                if norm > COMMUTATOR_TOL:
                    failures.append((N, n, c, norm))
    # negative control: wrong delta must produce a visibly nonzero commutator
    # (n = 1 blocks commute with any circulant, so the control probes n = 2)
    sector = enumerate_sector(6, 2)
    control = commutator_norm(
        build_transfer_block(sector, Anisotropy(1.0)),
        build_hamiltonian_block(sector, Anisotropy(1.0).delta + 0.1),
    )
    if control < 1e-3:
        failures.append(("control", control))
    emit("A4", not failures, f"commutation: max={worst:.1e} control={control:.1e}")
    assert not failures, failures


def test_a5_partition_function():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for N, M in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for c in (0.75, 1.5):
            w = Anisotropy(c)
            log_trace = log_trace_power(N, M, w)
            log_z = log_polynomial(partition_function_bruteforce(N, M), c)
            disc = abs(math.expm1(log_z - log_trace))  # |Z / Tr V^M - 1|
            worst = max(worst, disc)
            if disc > PARTITION_TOL:
                failures.append((N, M, c, disc))
    elapsed = time.perf_counter() - t0
    emit(
        "A5",
        not failures and elapsed < 30.0,
        f"partition function: discrepancy<={worst:.1e} ({elapsed:.1f}s)",
    )
    assert not failures, failures
    assert elapsed < 30.0


def test_a6_configuration_oracle_equality():
    failures = []
    for c in C_VALUES:
        w = Anisotropy(c)
        for N in range(1, 9):
            for n in range(N + 1):
                sector = enumerate_sector(N, n)
                direct = build_transfer_block(sector, w).entries
                by_conf = build_transfer_block_by_configuration(sector, w).entries
                if not np.array_equal(direct, by_conf):
                    failures.append((N, n, c))
    emit("A6", not failures, "entry rule equals configuration enumeration, exactly")
    assert not failures, failures


def test_a7_function_identities():
    failures = []
    worst = {}
    for c in (0.5, 1.0, math.sqrt(2.0), 2.0, 3.0):
        results = grid_suite(Anisotropy(c), 50)
        for key, value in results.items():
            worst[key] = max(worst.get(key, 0.0), value)
            tol = FD_TOL if key == "partial_fd_max" else GRID_TOL
            if value > tol:
                failures.append((c, key, value))
    detail = " ".join(f"{k.removesuffix('_max')}<={v:.1e}" for k, v in worst.items())
    emit("A7", not failures, f"function identities: {detail}")
    assert not failures, failures


def test_a8_amplitude_ratio_identities():
    failures = []
    worst = 0.0
    for N, n, c in sweep(parity=0):
        report = solved(N, n, c)
        suite = identity_suite(report.momenta, N, samples=20)
        top = max(suite.adjacent_max, suite.boundary_max, suite.cyclic_max)
        worst = max(worst, top)
        if top > RATIO_TOL:
            failures.append((N, n, c, top))
    emit("A8", not failures, f"ratio identities on solved roots: dev<={worst:.1e}")
    assert not failures, failures


def test_a9_degenerate_momenta_collapse():
    failures = []
    worst = 0.0
    for n, values in ((2, (0.4, 0.4)), (3, (0.5, 0.5, -0.3))):
        for c in (1.0, 2.0):
            m = MomentumSet.relaxed(values, Anisotropy(c))
            psi = build_psi(enumerate_sector(8, n), m)
            bound = 1e-12 * math.factorial(n) * float(np.max(np.abs(pair_factors(m))))
            peak = float(np.max(np.abs(psi)))
            worst = max(worst, peak / bound)
            if peak > bound:
                failures.append((n, c, peak, bound))
    emit("A9", not failures, f"coincident momenta collapse: peak/bound<={worst:.1e}")
    assert not failures, failures


def test_a10_flip_symmetric_spectra():
    failures = []
    worst = 0.0
    for c in (0.5, 2.0):
        w = Anisotropy(c)
        for N in range(2, 13):
            for n in range(N // 2 + 1):
                lo = dense_eigenvalues(build_transfer_block(enumerate_sector(N, n), w))
                hi = dense_eigenvalues(build_transfer_block(enumerate_sector(N, N - n), w))
                scale = max(1.0, float(np.max(np.abs(lo))))
                gap = float(np.max(np.abs(lo - hi))) / scale
                worst = max(worst, gap)
                if gap > FLIP_TOL:
                    failures.append((N, n, c, gap))
    emit("A10", not failures, f"flip-symmetric spectra: gap<={worst:.1e}")
    assert not failures, failures
