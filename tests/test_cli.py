import dataclasses
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bethe6v.cli
from bethe6v import (
    Anisotropy,
    HamiltonianOperator,
    SectorIndex,
    TransferOperator,
    build_psi,
    enumerate_sector,
    ground_state_quantum_numbers,
    identity_suite,
    log_polynomial,
    match_eigenvalue,
    momentum_spectra,
    partition_function_bruteforce,
    solve,
    transfer_operator,
)
from bethe6v.cli import MATCH_TOL

from helpers import (
    build_hamiltonian_block,
    build_transfer_block,
    dense_eigenvalues,
    dense_log_jacobian,
    parse_report,
    run_cli,
)


# a converged excited level of the (8, 2) sector at c = 1.2
EXCITED = ["solve", "--capital-n", "8", "--n", "2", "--c", "1.2",
           "--quantum-numbers=-3/2,3/2"]


def strip_timing(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("timing.")
    )


def refuse_sectors(monkeypatch):
    """Fail the test if the CLI enumerates a sector, reads an operator's rows or takes a trace.

    The torus count stays real: it refuses a torus past int64 before it allocates.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("sector allocated")

    for name in ("enumerate_sector", "log_trace_power"):
        monkeypatch.setattr(f"bethe6v.cli.{name}", refuse)
    for operator in (TransferOperator, HamiltonianOperator):
        monkeypatch.setattr(operator, "rows", refuse)


class TestSolveCommand:
    def test_regular_case(self):
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        assert code == 0
        rep = parse_report(out)
        assert rep["command"] == "solve"
        assert rep["solver.converged"] == "true"
        assert rep["prediction.singular"] == "false"
        assert rep["verification.passed"] == "true"
        assert float(rep["residual.transfer_eigenpair"]) < 1e-9
        assert float(rep["residual.xxz_eigenpair"]) < 1e-9
        assert float(rep["residual.bethe_max"]) < 1e-10
        assert float(rep["residual.commutator_probe"]) < 1e-12
        assert rep["checks.route"] == "certified"
        assert rep["oracle.transfer_match_index"] == str(math.comb(8, 2) - 1)

    def test_singular_case(self):
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "3", "--c", "1.0"])
        assert code == 0
        rep = parse_report(out)
        assert rep["prediction.singular"] == "true"
        assert rep["verification.passed"] == "true"

    def test_explicit_quantum_numbers(self):
        code, out = run_cli(
            ["solve", "--capital-n", "8", "--n", "2", "--c", "1.0",
             "--quantum-numbers=-1/2,1/2"]
        )
        assert code == 0
        assert parse_report(out)["param.quantum_numbers"] == "-1/2,1/2"

    @pytest.mark.parametrize("argv", [["solve", "--capital-n", "12", "--n", "5", "--c", "1.3"],
                                      EXCITED], ids=["ground", "labels"])
    def test_condition_estimate_is_the_full_jacobians(self, argv):
        code, out = run_cli(argv)
        assert code == 0
        rep = parse_report(out)
        N, n, a = int(rep["param.N"]), int(rep["param.n"]), Anisotropy(float(rep["param.c"]))
        p = np.array([float(rep[f"momentum.{k}"]) for k in range(n)])
        cond = float(np.linalg.cond(dense_log_jacobian(N, p, a), 1))
        assert rep["solver.jacobian_condition_estimate"] == format(cond, ".17g")

    def test_rejects_overfilled_sector(self):
        code, _ = run_cli(["solve", "--capital-n", "4", "--n", "3", "--c", "1.0"])
        assert code == 1

    def test_rejects_nonpositive_c(self):
        code, _ = run_cli(["solve", "--capital-n", "6", "--n", "1", "--c", "0"])
        assert code == 1

    def test_rejects_bad_quantum_numbers(self):
        code, _ = run_cli(
            ["solve", "--capital-n", "8", "--n", "2", "--c", "1.0",
             "--quantum-numbers", "0,1"]  # integers for even n: wrong parity
        )
        assert code == 1

    def test_unknown_flag(self):
        code, _ = run_cli(["solve", "--capital-n", "8", "--frobnicate"])
        assert code == 1

    def test_no_solver_knobs(self):
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        assert code == 0
        assert "param.tol" not in out and "param.max_iter" not in out
        for flag in ("--tol", "--max-iter"):
            code, _ = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0",
                               flag, "1"])
            assert code == 1, flag

    def test_root_on_domain_edge_exits_2(self):
        # 2 pi / 6 = pi - mu at c = 1: the root sits on the closure of the
        # open domain, where theta is undefined, so it counts as non-converged
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "1", "--c", "1",
                             "--quantum-numbers", "1"])
        assert code == 2
        assert parse_report(out)["solver.converged"] == "false"

    def test_non_convergence_exit_code(self):
        # the target momentum pi sits outside the open domain
        code, out = run_cli(
            ["solve", "--capital-n", "2", "--n", "1", "--c", "1.0",
             "--quantum-numbers", "1"]
        )
        assert code == 2
        assert parse_report(out)["solver.converged"] == "false"

    @pytest.mark.parametrize("c, reason", [
        ("1e-9", "scattering kernel left the right half-plane"),
        ("1e-6", "scattering kernel vanished"),
        ("1e100", "predicted transfer eigenvalue overflows"),  # lambda and V's c^6
    ], ids=["1e-9", "1e-6", "1e100"])
    def test_numeric_range_limit_exit_code(self, c, reason, capsys):
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "3", "--c", c])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {reason}")

    def test_overflowing_c_refused_where_it_is_made(self, capsys):
        # c^2 overflows a double: Anisotropy refuses it before any route
        # divides inf by inf, in-process and under -W error alike
        argv = ["solve", "--capital-n", "6", "--n", "3", "--c", "1e200"]
        line = "error: transfer weight c^2 overflows at c = 1e+200\n"
        code, out = run_cli(argv)
        assert (code, out, capsys.readouterr().err) == (2, "", line)
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "bethe6v", *argv],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line)

    def test_energy_halved_before_the_ring_size_multiplies_it(self):
        # N delta = -2e308 passes the double range, E = N (delta / 2) = -1e308 does not
        code, out = run_cli(["solve", "--capital-n", "4", "--n", "0", "--c", "1e154"])
        rep = parse_report(out)
        assert code == 0 and rep["verification.passed"] == "true"
        assert (rep["prediction.energy"], rep["residual.xxz_eigenpair"]) == ("-1e+308", "0")

    def test_energy_past_the_double_range_refused(self, capsys):
        # E = 6 delta / 2 = -2.5e308 itself overflows; no residual reads it
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "0", "--c", "1.3e154"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: predicted energy overflows at delta = -8.449999999999999e+307\n")

    @pytest.mark.parametrize("N, n, c", [
        pytest.param("6", "3", "1e-3", id="1e-3"),
        pytest.param("6", "3", "3e-4", id="3e-4"),
        pytest.param("6", "3", "1e20", id="1e20"),
        pytest.param("6", "3", "1e30", id="1e30"),
        # both blocks are finite, but V(Hx) unscaled would overflow
        pytest.param("10", "5", "1e30", id="10-5-1e30"),
    ])
    def test_numeric_range_ends_still_pass(self, N, n, c):
        code, out = run_cli(["solve", "--capital-n", N, "--n", n, "--c", c])
        assert code == 0
        assert parse_report(out)["verification.passed"] == "true"

    def test_sector_enumerated_once(self, monkeypatch):
        import bethe6v.basis

        calls = []
        enumerate_sector = bethe6v.basis.enumerate_sector

        def counting(N, n):
            calls.append((N, n))
            return enumerate_sector(N, n)

        for module in ("basis", "cli"):
            monkeypatch.setattr(f"bethe6v.{module}.enumerate_sector", counting)
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "3", "--c", "1.2"])
        assert code == 0
        assert parse_report(out)["checks.route"] == "certified"
        assert calls == [(8, 3)]

    @pytest.mark.parametrize("argv, counters", [
        # the root sits on the domain edge: every trial step is halved to 2^-20
        (["--capital-n", "6", "--n", "1", "--c", "1", "--quantum-numbers", "1"], ("20", "0")),
        (["--capital-n", "8", "--n", "2", "--c", "1.5"], ("0", "1")),
    ], ids=["halving", "polish"])
    def test_solver_counters(self, argv, counters):
        _, out = run_cli(["solve", *argv])
        rep = parse_report(out)
        assert (rep["solver.step_halvings"], rep["solver.polish_steps"]) == counters
        keys = list(rep)
        assert keys.index("solver.step_halvings") == keys.index("solver.iterations") + 1

    @pytest.mark.parametrize("N, n, size", [(40, 9, "875"), (24, 12, "5.19")],
                             ids=["40-9", "24-12"])
    def test_memory_budget_checked_before_the_solve(self, monkeypatch, capsys, N, n, size):
        # about 80 N C(N, n) bytes; (40, 9) would ask numpy for 18.3 GiB of positions
        refuse_sectors(monkeypatch)
        monkeypatch.setattr("bethe6v.cli.solve", lambda *args: pytest.fail("Newton solve ran"))
        monkeypatch.setattr("bethe6v.cli.ground_state_quantum_numbers",
                            lambda *args: pytest.fail("quantum numbers made"))
        code, out = run_cli(["solve", "--capital-n", str(N), "--n", str(n), "--c", "1.0"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == (
            f"error: solve at N = {N}, n = {n} needs about {size} GB, "
            "past the 3.2 GB budget of dense cap 20000\n")

    def test_single_site_refused_before_the_solve(self, monkeypatch, capsys):
        # the chain of one site has no bond for H: refused before any work
        refuse_sectors(monkeypatch)
        monkeypatch.setattr("bethe6v.cli.solve", lambda *args: pytest.fail("Newton solve ran"))
        code, out = run_cli(["solve", "--capital-n", "1", "--n", "0", "--c", "1.0"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: need N >= 2 and 0 <= n <= N/2, got n = 0, N = 1\n")

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 1.92 GiB for an array", "Unable to allocate 1.92 GiB for an array"),
        ("", "out of memory"),  # the interpreter's own MemoryError carries no text
    ], ids=["numpy", "bare"])
    def test_memory_exhaustion_exits_2(self, monkeypatch, capsys, message, line):
        def exhausted(*args):
            raise MemoryError(message)

        monkeypatch.setattr("bethe6v.cli.full_prediction", exhausted)
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_nan_residual_fails_closed(self, monkeypatch):
        monkeypatch.setattr("bethe6v.cli.check_eigenpair", lambda *args: (math.nan, None))
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        assert code == 3
        rep = parse_report(out)
        assert rep["verification.passed"] == "false"
        assert rep["verification.failures"].split(",")[:2] == [
            "transfer_eigenpair", "xxz_eigenpair"]

    @pytest.mark.parametrize("value", [1e-11, math.nan])
    def test_commutator_gate_fails_closed(self, monkeypatch, value):
        monkeypatch.setattr("bethe6v.cli.commutator_probe", lambda *args: value)
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        assert code == 3
        assert parse_report(out)["verification.failures"].split(",") == ["commutator"]

    def test_large_eigenvalue_gated_relative_to_its_scale(self):
        # lambda ~ 1.9e6: a residual of a few 1e-9 is a relative error of 1e-15
        code, out = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "3.3"])
        rep = parse_report(out)
        assert float(rep["prediction.lambda.re"]) > 1e6
        assert rep["checks.route"] == "certified"
        assert rep["oracle.transfer_match_index"] == "923"
        assert code == 0
        assert rep["verification.passed"] == "true"

    def test_perturbed_eigenvalue_still_fails(self, monkeypatch):
        import bethe6v.cli

        full_prediction = bethe6v.cli.full_prediction

        def perturbed(sector, m):
            pred = full_prediction(sector, m)
            return dataclasses.replace(pred, lam=pred.lam * (1.0 + 1e-8))

        monkeypatch.setattr("bethe6v.cli.full_prediction", perturbed)
        code, out = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "3.3"])
        assert code == 3
        assert "transfer_eigenpair" in parse_report(out)["verification.failures"].split(",")

    def test_spectrum_match_needs_no_eigenvectors(self, monkeypatch):
        # an excited level: psi changes sign, so the block route names it
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvectors computed")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        code, out = run_cli(EXCITED)
        rep = parse_report(out)
        assert code == 0
        assert rep["checks.route"] == "block"
        assert {k: v for k, v in rep.items() if k.startswith("oracle.")} == {
            "oracle.transfer_match_count": "1", "oracle.transfer_match_index": "20",
            "oracle.xxz_match_count": "1", "oracle.xxz_match_index": "22"}

    def test_stage_timings(self, monkeypatch):
        def stages(argv):
            _, out = run_cli(argv)
            rep = parse_report(out)
            timed = [k for k in rep if k.startswith("timing.")]
            assert all(float(rep[k]) >= 0.0 for k in timed)
            return [k.removeprefix("timing.") for k in timed]

        ground = ["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"]
        checked = ["solve", "psi", "v", "h", "residuals", "commutator"]
        closing = ["peak_rss_bytes", "seconds"]
        assert stages(ground) == checked + closing  # certified: no eigensolve
        assert stages(EXCITED) == checked + ["spectrum"] + closing
        monkeypatch.setenv("BETHE6V_DIM_CAP", "49")  # the solve fits, not its blocks
        assert stages(EXCITED) == checked + closing
        unconverged = ["solve", "--capital-n", "2", "--n", "1", "--c", "1.0",
                       "--quantum-numbers", "1"]
        assert stages(unconverged) == ["solve"] + closing

    def test_determinism_modulo_timing(self):
        argv = ["solve", "--capital-n", "6", "--n", "2", "--c", "0.5"]
        _, first = run_cli(argv)
        _, second = run_cli(argv)
        assert strip_timing(first) == strip_timing(second)

    def test_seventeen_digit_floats(self):
        _, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        rep = parse_report(out)
        lam = float(rep["prediction.lambda.re"])
        assert format(lam, ".17g") == rep["prediction.lambda.re"]

    def test_unwritable_psi_path_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "missing" / "psi.txt"
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "2", "--c", "1.0",
                             "--dump-psi", str(path)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{path}'\n")

    def test_psi_dump(self, tmp_path, monkeypatch):
        # plain text whatever the name: np.savetxt given the path would gzip it
        predictions, full_prediction = [], bethe6v.cli.full_prediction

        def recorded(*args):
            predictions.append(full_prediction(*args))
            return predictions[-1]

        monkeypatch.setattr("bethe6v.cli.full_prediction", recorded)
        path = tmp_path / "psi.txt.gz"
        code, _ = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "1.3",
                           "--dump-psi", str(path)])
        assert code == 0
        (psi,) = [prediction.psi for prediction in predictions]
        assert len(psi) == math.comb(12, 6)
        assert path.read_bytes() == "".join(
            f"{k} {z.real:.17g} {z.imag:.17g}\n" for k, z in enumerate(psi)).encode()


SWEEP_C = (0.1, 0.5, 1.0, math.sqrt(2.0), 2.0, 2.5)


def oracle_lines(out):
    return {k: v for k, v in parse_report(out).items() if k.startswith("oracle.")}


def force_block(monkeypatch):
    """Withhold every bracket, so solve takes the block route."""
    import bethe6v.cli

    check = bethe6v.cli.check_eigenpair
    monkeypatch.setattr("bethe6v.cli.check_eigenpair",
                        lambda *args: (check(*args)[0], None))


def dense_oracle_lines(rep):
    """The oracle.* lines a solve report would carry if the dense oracle named its levels."""
    N, n, c = int(rep["param.N"]), int(rep["param.n"]), float(rep["param.c"])
    sector, a = enumerate_sector(N, n), Anisotropy(c)
    out = {}
    for kind, value, block in (
            ("transfer", rep["prediction.lambda.re"], build_transfer_block(sector, a)),
            ("xxz", rep["prediction.energy"], build_hamiltonian_block(sector, a.delta))):
        hits = match_eigenvalue(float(value), dense_eigenvalues(block), MATCH_TOL)
        out[f"oracle.{kind}_match_count"] = str(len(hits))
        out[f"oracle.{kind}_match_index"] = str(hits[0] if hits else -1)
    return out


class TestSpectralRoute:
    def test_certified_index_is_the_dense_index_over_the_sweep_grid(self, monkeypatch):
        runs = [["solve", "--capital-n", str(N), "--n", str(n), "--c", repr(c)]
                for N in (6, 8, 10, 12) for n in range(1, N // 2 + 1) for c in SWEEP_C]
        certified = []
        for argv in runs:
            code, out = run_cli(argv)
            assert code == 0, argv
            assert parse_report(out)["checks.route"] == "certified", argv
            certified.append(oracle_lines(out))
        force_block(monkeypatch)
        for argv, lines in zip(runs, certified):
            code, out = run_cli(argv)
            block = oracle_lines(out)
            assert code == 0 and parse_report(out)["checks.route"] == "block", argv
            for kind in ("transfer", "xxz"):
                assert block[f"oracle.{kind}_match_count"] == "1", argv
                assert lines[f"oracle.{kind}_match_index"] == block[
                    f"oracle.{kind}_match_index"], argv
            assert block == dense_oracle_lines(parse_report(out)), argv

    def test_certified_run_calls_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        code, out = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "1.0"])
        assert code == 0
        assert parse_report(out)["checks.route"] == "certified"
        assert oracle_lines(out).keys() == {
            "oracle.transfer_match_index", "oracle.transfer_bracket_width",
            "oracle.xxz_match_index", "oracle.xxz_bracket_width"}

    def test_certified_run_builds_no_dense_block(self, monkeypatch):
        # V and H are applied as a row sweep and hop lists: a certified run
        # reads neither operator by rows, so it folds no momentum blocks
        def refuse(*args, **kwargs):
            raise AssertionError("operator rows read")

        for operator in (TransferOperator, HamiltonianOperator):
            monkeypatch.setattr(operator, "rows", refuse)
        code, out = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "1.0"])
        rep = parse_report(out)
        assert code == 0
        assert rep["checks.route"] == "certified"
        assert float(rep["residual.commutator_probe"]) < 1e-16
        with pytest.raises(AssertionError, match="operator rows read"):
            run_cli(EXCITED)  # the block route reads them
        monkeypatch.undo()
        code, out = run_cli(EXCITED)
        assert code == 0 and parse_report(out)["checks.route"] == "block"
        # a spectrum reads only the R orbit representatives' rows, each once,
        # never all dim of them
        reps = enumerate_sector(10, 5).orbits()[0].tolist()
        for kind, operator in (("transfer", TransferOperator),
                               ("hamiltonian", HamiltonianOperator)):
            calls, rows = [], operator.rows

            def recorded(op, states):
                calls.append(states.tolist())
                return rows(op, states)

            with monkeypatch.context() as m:
                m.setattr(operator, "rows", recorded)
                code, out = run_cli(["spectrum", "--capital-n", "10", "--n", "5", "--c", "1.3",
                                     "--kind", kind])
            assert code == 0 and parse_report(out)["spectrum.dim"] == "252"
            assert sum(calls, []) == reps
        force_block(monkeypatch)
        code, out = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "1.0"])
        assert code == 0 and parse_report(out)["checks.route"] == "block"

    def test_block_route_reads_the_verified_operators(self, monkeypatch):
        # the spectra are read off the V and H the residuals used: one of each per run
        calls = []
        for table in ("toggled_ranks", "swapped_ranks"):
            def counted(sector, table=table, walk=getattr(SectorIndex, table)):
                calls.append(table)
                return walk(sector)

            monkeypatch.setattr(SectorIndex, table, counted)
        code, out = run_cli(EXCITED)
        assert code == 0 and parse_report(out)["checks.route"] == "block"
        assert sorted(calls) == ["swapped_ranks", "toggled_ranks"]

    def test_certified_above_the_spectrum_cap(self):
        code, out = run_cli(["solve", "--capital-n", "15", "--n", "7", "--c", "1.0"])
        rep = parse_report(out)
        assert code == 0
        assert rep["checks.route"] == "certified"
        assert rep["oracle.transfer_match_index"] == rep["oracle.xxz_match_index"] == "6434"

    def test_block_route_above_4096_rows(self):
        # psi is not positive at c = 5: the 435 orbits' blocks name the top, 6434
        code, out = run_cli(["solve", "--capital-n", "15", "--n", "7", "--c", "5"])
        rep = parse_report(out)
        assert code == 0
        assert rep["checks.route"] == "block"
        assert rep["oracle.transfer_match_index"] == rep["oracle.xxz_match_index"] == "6434"
        assert rep["oracle.transfer_match_count"] == rep["oracle.xxz_match_count"] == "1"

    def test_excited_level_past_the_budget_is_skipped(self, monkeypatch, capsys):
        # (8, 2): the solve plans 80 N dim = 17920 bytes, its blocks 24 dim^2 / N = 2352
        # more; a dense cap of 49 leaves 19208, so the solve runs and its blocks do not
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setenv("BETHE6V_DIM_CAP", "49")
        code, out = run_cli(EXCITED)
        assert code == 0
        assert parse_report(out)["checks.route"] == "skipped:budget"
        assert oracle_lines(out) == {}
        monkeypatch.setenv("BETHE6V_DIM_CAP", "47")  # 17672 bytes: not even the solve
        assert run_cli(EXCITED) == (2, "")
        assert capsys.readouterr().err == ("error: solve at N = 8, n = 2 needs about "
                                           "1.79e-05 GB, past the 1.77e-05 GB budget of "
                                           "dense cap 47\n")

    def test_certified_past_the_dense_cap(self):
        # C(18, 9) = 48620 rows: no dense block could hold them, the sweeps do
        code, out = run_cli(["solve", "--capital-n", "18", "--n", "9", "--c", "1.0"])
        rep = parse_report(out)
        assert code == 0
        assert rep["checks.route"] == "certified"
        assert rep["oracle.transfer_match_index"] == rep["oracle.xxz_match_index"] == "48619"
        assert float(rep["residual.transfer_eigenpair"]) < 1e-9
        assert float(rep["residual.xxz_eigenpair"]) < 1e-9
        assert rep["verification.passed"] == "true"

    def test_trivial_psi_skips_every_block_check(self, monkeypatch):
        import bethe6v.cli

        full_prediction = bethe6v.cli.full_prediction
        monkeypatch.setattr("bethe6v.cli.full_prediction", lambda *args: dataclasses.replace(
            full_prediction(*args), psi_norm=0.0))
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        rep = parse_report(out)
        assert code == 3
        assert rep["checks.route"] == "skipped:psi-trivial"
        assert rep["verification.failures"] == "psi_trivial"

    def test_off_level_prediction_is_not_certified(self, monkeypatch):
        # 1e-7 off the top: the bracket around psi stays narrow, but widened to
        # the prediction it exceeds the 1e-8 match tolerance
        import bethe6v.cli

        full_prediction = bethe6v.cli.full_prediction
        monkeypatch.setattr("bethe6v.cli.full_prediction", lambda *args: dataclasses.replace(
            (pred := full_prediction(*args)), lam=pred.lam * (1.0 + 1e-7)))
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "3", "--c", "1.2"])
        rep = parse_report(out)
        assert code == 3
        assert rep["checks.route"] == "block"
        assert "transfer_spectrum_match" in rep["verification.failures"].split(",")

    @pytest.mark.parametrize("bracket", [(math.nan, math.nan), (0.0, math.inf),
                                         (-math.inf, 0.0), (math.nan, 0.0), (0.0, math.nan)])
    def test_non_finite_bracket_never_certifies(self, monkeypatch, bracket):
        import bethe6v.cli

        check = bethe6v.cli.check_eigenpair

        def broken(m, psi, value):
            # the true top, with one end of its bracket replaced
            residual, (lo, hi) = check(m, psi, value)
            return residual, (lo if bracket[0] == 0.0 else bracket[0],
                              hi if bracket[1] == 0.0 else bracket[1])

        monkeypatch.setattr("bethe6v.cli.check_eigenpair", broken)
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "3", "--c", "1.2"])
        assert code == 0
        assert parse_report(out)["checks.route"] == "block"

    def test_certified_index_is_exact_where_dense_names_a_cluster(self, monkeypatch):
        # (6, 3) at c = 50: H's top two levels, 3747.0024 and 3747.00240384,
        # lie within MATCH_TOL.  The Perron root is simple, so the certificate
        # names the top, 19; a spectrum match, by the momentum blocks or by the
        # dense oracle, names the cluster [18, 19] by 18.
        argv = ["solve", "--capital-n", "6", "--n", "3", "--c", "50"]
        code, out = run_cli(argv)
        assert code == 0
        assert parse_report(out)["checks.route"] == "certified"
        assert oracle_lines(out)["oracle.xxz_match_index"] == "19"
        force_block(monkeypatch)
        code, out = run_cli(argv)
        assert code == 0
        assert parse_report(out)["checks.route"] == "block"
        assert oracle_lines(out)["oracle.xxz_match_count"] == "2"
        assert oracle_lines(out)["oracle.xxz_match_index"] == "18"
        assert oracle_lines(out) == dense_oracle_lines(parse_report(out))

    @pytest.mark.parametrize("argv, indices", [
        (EXCITED, ("20", "22")),
        (["solve", "--capital-n", "13", "--n", "6", "--c", "10"], ("1715", "1715")),
        (["solve", "--capital-n", "6", "--n", "3", "--c", "1e30"], ("19", "18")),
    ], ids=["excited", "13-6-c10", "6-3-c1e30"])
    def test_block_index_is_the_dense_oracle_index(self, monkeypatch, argv, indices):
        force_block(monkeypatch)
        code, out = run_cli(argv)
        rep = parse_report(out)
        assert code == 0 and rep["checks.route"] == "block"
        assert (rep["oracle.transfer_match_index"], rep["oracle.xxz_match_index"]) == indices
        assert oracle_lines(out) == dense_oracle_lines(rep)

    def test_rounding_level_negative_psi_takes_the_block_route(self):
        # at c = 1e30 (lambda = 1e180) psi has entries of -1e-16 after its
        # phase, so no bracket exists; the overflow-safe norms still pass it
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "3", "--c", "1e30"])
        rep = parse_report(out)
        assert code == 0
        assert rep["checks.route"] == "block"
        assert float(rep["residual.transfer_eigenpair"]) < 1e-9 * 1e180


@pytest.mark.parametrize("argv", [
    ["solve", "--capital-n", "6", "--n", "2", "--c", "1"],
    ["partition", "--capital-n", "2", "--m", "2", "--c", "1", "--bruteforce"],
    ["verify-identities", "--c", "1", "--grid", "2"],
    ["spectrum", "--capital-n", "4", "--n", "1", "--c", "1"],
    ["dump-matrix", "--capital-n", "4", "--n", "1", "--c", "1", "--out", "/dev/null"],
])
def test_every_report_closes_with_peak_rss(argv):
    code, out = run_cli(argv)
    assert code == 0
    closing = out.splitlines()[-2:]
    key, _, value = closing[0].partition(": ")
    assert key == "timing.peak_rss_bytes" and int(value) > 0
    assert closing[1].startswith("timing.seconds: ")


class TestPartitionCommand:
    def test_bruteforce_check(self):
        code, out = run_cli(
            ["partition", "--capital-n", "2", "--m", "2", "--c", "1.5", "--bruteforce"]
        )
        assert code == 0
        rep = parse_report(out)
        assert float(rep["partition.relative_discrepancy"]) < 1e-12
        assert rep["verification.passed"] == "true"

    def test_three_by_three(self):
        code, out = run_cli(
            ["partition", "--capital-n", "3", "--m", "3", "--c", "1.0", "--bruteforce"]
        )
        assert code == 0
        assert float(parse_report(out)["partition.relative_discrepancy"]) < 1e-12

    def test_timing_covers_the_count(self, monkeypatch):
        count = bethe6v.cli.partition_function_bruteforce

        def slow(*args):
            time.sleep(0.2)
            return count(*args)

        monkeypatch.setattr("bethe6v.cli.partition_function_bruteforce", slow)
        code, out = run_cli(["partition", "--capital-n", "2", "--m", "2", "--c", "1.5",
                             "--bruteforce"])
        assert code == 0
        assert float(parse_report(out)["timing.seconds"]) >= 0.2

    def test_trace_only(self):
        code, out = run_cli(["partition", "--capital-n", "12", "--m", "2", "--c", "0.9"])
        assert code == 0
        rep = parse_report(out)
        assert "partition.log_trace_power" in rep
        assert "partition.log_bruteforce" not in rep

    @pytest.mark.parametrize("N, M, c", [(4, 400, "1"), (6, 300, "1"), (8, 200, "3")])
    def test_long_and_heavy_tori_stay_finite(self, N, M, c):
        # Tr V^M itself overflows a double here; its log does not
        code, out = run_cli(["partition", "--capital-n", str(N), "--m", str(M), "--c", c])
        assert code == 0
        assert math.isfinite(float(parse_report(out)["partition.log_trace_power"]))

    def test_discrepancy_gate(self, monkeypatch):
        # Z off by one part in 1e9 must fail the 1e-12 gate, and be reported as such
        monkeypatch.setattr("bethe6v.cli.log_polynomial",
                            lambda *args: log_polynomial(*args) + 1e-9)
        code, out = run_cli(
            ["partition", "--capital-n", "3", "--m", "3", "--c", "1.5", "--bruteforce"]
        )
        assert code == 3
        rep = parse_report(out)
        assert float(rep["partition.relative_discrepancy"]) == pytest.approx(1e-9, rel=1e-4)
        assert rep["verification.passed"] == "false"

    def test_bruteforce_past_the_double_range(self):
        # Z = 16 + 2 c^4 overflows a double; its log and the trace's do not
        code, out = run_cli(
            ["partition", "--capital-n", "2", "--m", "2", "--c", "1e100", "--bruteforce"]
        )
        assert code == 0
        rep = parse_report(out)
        assert float(rep["partition.log_bruteforce"]) == pytest.approx(
            math.log(2.0) + 400.0 * math.log(10.0), rel=1e-15)
        assert rep["verification.passed"] == "true"

    def test_nan_discrepancy_fails_closed(self, capsys):
        # c^2 overflows a double: V refuses its block, so no trace and no verdict
        code, out = run_cli(
            ["partition", "--capital-n", "2", "--m", "2", "--c", "1e200", "--bruteforce"]
        )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "error: transfer weight c^2 overflows at c = 1e+200\n"

    @pytest.mark.parametrize("N, M", [(4, 4), (2, 8), (8, 2)])
    def test_bruteforce_needs_no_enumeration_cap(self, N, M):
        # only the int64 bound limits the count: N*M + max + min <= 62 here
        code, out = run_cli(
            ["partition", "--capital-n", str(N), "--m", str(M), "--c", "1.3", "--bruteforce"]
        )
        assert code == 0
        assert parse_report(out)["verification.passed"] == "true"

    def test_int64_refusal_comes_before_the_trace(self, monkeypatch, capsys):
        monkeypatch.setattr("bethe6v.cli.log_trace_power", lambda *args: pytest.fail("traced"))
        code, out = run_cli(
            ["partition", "--capital-n", "16", "--m", "4", "--c", "1.0", "--bruteforce"]
        )
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "error: torus counts on 16 x 4 may exceed int64\n"

    def test_degenerate_torus_rejected(self, monkeypatch, capsys):
        monkeypatch.setattr("bethe6v.cli.log_trace_power", lambda *args: pytest.fail("traced"))
        for argv in (["--capital-n", "1", "--m", "3"], ["--capital-n", "3", "--m", "1"]):
            code, out = run_cli(["partition", *argv, "--c", "1.0", "--bruteforce"])
            assert (code, out) == (1, "")
            assert capsys.readouterr().err == "error: torus enumeration needs N >= 2 and M >= 2\n"


class TestVerifyIdentitiesCommand:
    def test_free_fermion_point(self):
        code, out = run_cli(["verify-identities", "--c", "1.4142135"])
        assert code == 0
        rep = parse_report(out)
        assert float(rep["identity.defining_relation_max"]) < 1e-11
        assert float(rep["identity.antisymmetry_max"]) < 1e-11
        assert float(rep["identity.lm_sum_max"]) < 1e-11
        assert float(rep["identity.partial_fd_max"]) < 1e-6

    def test_low_delta_branch(self):
        code, out = run_cli(["verify-identities", "--c", "2.5"])
        assert code == 0
        rep = parse_report(out)
        assert float(rep["anisotropy.mu"]) == 0.0
        assert rep["verification.passed"] == "true"

    def test_rejects_zero_c(self):
        code, _ = run_cli(["verify-identities", "--c", "0"])
        assert code == 1

    @pytest.mark.parametrize("flags", [
        ["--grid", "0"], ["--grid", "1"], ["--samples", "0"], ["--samples", "-3"]])
    def test_rejects_checks_of_nothing(self, capsys, flags):
        argv = ["verify-identities", "--c", "1", "--capital-n", "8", "--n", "2"]
        code, out = run_cli(argv + flags)
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_smallest_grid(self):
        code, out = run_cli(["verify-identities", "--c", "1", "--grid", "2"])
        assert code == 0
        assert parse_report(out)["verification.passed"] == "true"

    def test_solved_root_section(self):
        code, out = run_cli(
            ["verify-identities", "--c", "1.0", "--capital-n", "8", "--n", "2"]
        )
        assert code == 0
        rep = parse_report(out)
        assert float(rep["identity.cyclic_max"]) < 1e-9
        assert float(rep["identity.boundary_max"]) < 1e-9

    def test_solved_root_section_runs_no_subset_sum(self):
        # more momenta than the subset-sum cap: the ratio identities need no psi
        code, out = run_cli(["verify-identities", "--c", "1", "--capital-n", "24",
                             "--n", "10", "--grid", "5", "--samples", "3"])
        assert code == 0
        assert parse_report(out)["verification.passed"] == "true"


class TestSpectrumCommand:
    def test_report_and_dumps(self, tmp_path):
        sector = ["--capital-n", "6", "--n", "2", "--c", "1.0"]
        code, out = run_cli(["spectrum", *sector])
        assert code == 0
        rep = parse_report(out)
        dim = int(rep["spectrum.dim"])
        assert dim == math.comb(6, 2)
        assert all(f"eigenvalue.{k}" in rep for k in range(dim))
        assert not [k for k in rep if k.endswith("_defect")]
        matrix_path = tmp_path / "block.txt"
        assert run_cli(["dump-matrix", *sector, "--out", str(matrix_path)])[0] == 0
        header = matrix_path.read_text().splitlines()[0]
        assert header == "6 2 15 transfer"

    @pytest.mark.parametrize("flag", ["--dump-matrix", "--csv"])
    def test_dump_flags_are_gone(self, flag, tmp_path, capsys):
        # dump-matrix writes the block; the report already lists the eigenvalues
        path = tmp_path / "out.txt"
        code, out = run_cli(["spectrum", "--capital-n", "6", "--n", "2", "--c", "1.0",
                             flag, str(path)])
        assert code == 1
        assert out == "" and not path.exists()
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_hamiltonian_kind(self):
        code, out = run_cli(
            ["spectrum", "--capital-n", "4", "--n", "2", "--c", "1.0",
             "--kind", "hamiltonian"]
        )
        assert code == 0

    def test_eigenvalue_past_the_double_range_refused(self, capsys):
        # every entry of V fits at c = 1e154 (c^2 = 1e308), its top eigenvalue does not
        for N in ("3", "6"):
            code, out = run_cli(["spectrum", "--capital-n", N, "--n", "1", "--c", "1e154"])
            assert (code, out) == (2, "")
            assert capsys.readouterr().err == (
                "error: sector spectrum overflows a double at c = 1e+154\n")
        # the top eigenvalue 2 + 2 c^2 of (3, 1) still fits at c = 9e153, and H's do at 1e154
        code, out = run_cli(["spectrum", "--capital-n", "3", "--n", "1", "--c", "9e153"])
        assert code == 0 and parse_report(out)["eigenvalue.2"] == "1.62e+308"
        code, out = run_cli(["spectrum", "--capital-n", "3", "--n", "1", "--c", "1e154",
                             "--kind", "hamiltonian"])
        assert code == 0 and parse_report(out)["eigenvalue.2"] == "2.5e+307"

    def test_hamiltonian_diagonal_past_the_double_range_refused(self, capsys):
        # at c = 1.3e154 delta is -8.45e307, and three bonds of delta / 2 pass the range
        code, out = run_cli(["spectrum", "--capital-n", "6", "--n", "3", "--c", "1.3e154",
                             "--kind", "hamiltonian"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: Hamiltonian diagonal overflows at delta = -8.449999999999999e+307\n")

    def test_cap_exceeded(self, monkeypatch):
        # (6, 3): 80 N dim = 9600 bytes of sector and operator and momentum blocks of
        # 24 dim^2 / N = 1600; a dense cap of 37 leaves 10952, one of 38 leaves 11552
        argv = ["spectrum", "--capital-n", "6", "--n", "3", "--c", "1.0"]
        monkeypatch.setenv("BETHE6V_DIM_CAP", "37")
        assert run_cli(argv)[0] == 2
        monkeypatch.setenv("BETHE6V_DIM_CAP", "38")
        assert run_cli(argv)[0] == 0

    def test_budget_counts_momentum_blocks_not_rows(self, monkeypatch):
        # C(12, 6) = 924 rows, past a dense cap of 600, but the sector, operator and
        # blocks take about 2.6 MB of its 2.88 MB budget: the same spectrum as by default
        argv = ["spectrum", "--capital-n", "12", "--n", "6", "--c", "1.3"]
        code, default = run_cli(argv)
        assert code == 0 and parse_report(default)["spectrum.dim"] == "924"
        monkeypatch.setenv("BETHE6V_DIM_CAP", "600")
        code, out = run_cli(argv)
        assert code == 0
        assert strip_timing(out) == strip_timing(default)


class TestDumpMatrixCommand:
    def test_writes_block(self, tmp_path):
        path = tmp_path / "h.txt"
        code, out = run_cli(
            ["dump-matrix", "--capital-n", "5", "--n", "2", "--c", "0.8",
             "--kind", "hamiltonian", "--out", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "5 2 10 hamiltonian"
        parsed = np.array([[float(v) for v in row.split()] for row in lines[1:]])
        assert parsed.shape == (10, 10)
        assert np.array_equal(parsed, parsed.T)

    def test_unwritable_path_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "missing" / "v.txt"
        code, out = run_cli(["dump-matrix", "--capital-n", "6", "--n", "3", "--c", "1.0",
                             "--out", str(path)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{path}'\n")

    def test_overflowing_weight_refused(self, tmp_path, capsys):
        # c^6 overflows a double: no block, so no file of inf rows
        path = tmp_path / "v.txt"
        code, out = run_cli(["dump-matrix", "--capital-n", "6", "--n", "3", "--c", "1e100",
                             "--out", str(path)])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == "error: transfer weight c^6 overflows at c = 1e+100\n"
        assert not path.exists()
        # nor a header with no rows for the chain of one site, which has no bond
        code, out = run_cli(["dump-matrix", "--capital-n", "1", "--n", "0", "--c", "1.0",
                             "--kind", "hamiltonian", "--out", str(path)])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == "error: chain needs N >= 2\n"
        assert not path.exists()

    def test_overflowing_diagonal_refused(self, tmp_path, capsys):
        # (6, 0): one state, six bonds of delta / 2; -6.05e307 * 3 passes the range
        path = tmp_path / "h.txt"
        argv = ["dump-matrix", "--capital-n", "6", "--n", "0", "--kind", "hamiltonian",
                "--out", str(path)]
        assert run_cli(argv + ["--c", "1.1e154"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: Hamiltonian diagonal overflows at delta = -6.05e+307\n")
        assert not path.exists()
        # at c = 1.09e154 the sum still fits, formed in bond order as before
        assert run_cli(argv + ["--c", "1.09e154"])[0] == 0
        assert path.read_text() == "6 0 1 hamiltonian\n-1.7821500000000002e+308\n"


@pytest.mark.parametrize("argv", [
    ["partition", "--capital-n", "8", "--m", "8", "--c", "1.0"],
    ["partition", "--capital-n", "4", "--m", "3", "--c", "1.0", "--bruteforce"],
    ["spectrum", "--capital-n", "10", "--n", "5", "--c", "1.3"],
    ["dump-matrix", "--capital-n", "8", "--n", "4", "--c", "1.3", "--out", "/dev/null"],
], ids=["partition", "partition-bruteforce", "spectrum", "dump-matrix"])
def test_rows_alone_build_no_sweep_tables(argv, monkeypatch):
    # V's rows need no partner ranks; only its sweep reads toggled_ranks
    def refuse(*args):
        raise AssertionError("sweep tables built")

    monkeypatch.setattr(SectorIndex, "toggled_ranks", refuse)
    assert run_cli(argv)[0] == 0
    # an odd-M torus whose spectra cancel falls back to sweeps, and builds them then
    with pytest.raises(AssertionError, match="sweep tables built"):
        run_cli(["partition", "--capital-n", "10", "--m", "5", "--c", "5"])


@pytest.mark.parametrize("argv, message", [
    # the 4862 orbits of C(19, 9) = 92378 rows: momentum blocks of about 24 N R^2 bytes
    # on top of the sector and operator, 80 N dim bytes
    (["spectrum", "--capital-n", "19", "--n", "9"],
     "spectrum at N = 19, n = 9 needs about 10.9 GB, past the 3.2 GB budget of dense cap 20000"),
    # C(40, 9) states would take 18 GiB to enumerate
    (["spectrum", "--capital-n", "40", "--n", "9", "--kind", "hamiltonian"],
     "spectrum at N = 40, n = 9 needs about 4.49e+07 GB, past the 3.2 GB budget of "
     "dense cap 20000"),
    # blocks of 24 N bytes, but H's (N, dim) rank temporaries would take 5 GB each
    (["spectrum", "--capital-n", "25000", "--n", "1", "--kind", "hamiltonian"],
     "spectrum at N = 25000, n = 1 needs about 50 GB, past the 3.2 GB budget of "
     "dense cap 20000"),
    # the sector and operator, 80 N dim bytes, and the dense block written, 8 dim^2
    (["dump-matrix", "--capital-n", "40", "--n", "9", "--out", "/dev/null"],
     "dump-matrix at N = 40, n = 9 needs about 5.98e+08 GB, past the 3.2 GB budget of "
     "dense cap 20000"),
    # the widest sector's 4862 orbits: momentum blocks of about 24 N R^2 bytes
    (["partition", "--capital-n", "19", "--m", "2"],
     "partition at N = 19 needs about 10.8 GB, past the 3.2 GB budget of dense cap 20000"),
    # the count's own int64 bound, the only cap on --bruteforce, comes before the trace
    (["partition", "--capital-n", "15", "--m", "15", "--bruteforce"],
     "torus counts on 15 x 15 may exceed int64"),
], ids=["spectrum-budget", "spectrum-hamiltonian-budget", "spectrum-long-ring-budget",
        "dump-matrix-budget",
        "partition-dense-cap", "partition-enumeration-cap"])
def test_caps_checked_before_the_sector(argv, message, monkeypatch, capsys):
    refuse_sectors(monkeypatch)
    code, out = run_cli(argv + ["--c", "1.0"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_partition_budget_counts_momentum_blocks(monkeypatch, capsys):
    # C(17, 8) = 24310 rows, but its 1430 orbits' blocks take about 0.83 GB
    refuse_sectors(monkeypatch)
    with pytest.raises(AssertionError, match="sector allocated"):
        run_cli(["partition", "--capital-n", "17", "--m", "2", "--c", "1.0"])
    code, out = run_cli(["partition", "--capital-n", "20", "--m", "2", "--c", "1.0"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == (
        "error: partition at N = 20 needs about 41 GB, past the 3.2 GB budget of dense cap 20000\n")


@pytest.mark.parametrize("argv", [
    # C(20000, 10000) has 6018 digits, C(10^6, 5 10^5) takes seconds to form
    ["spectrum", "--capital-n", "20000", "--n", "10000"],
    ["partition", "--capital-n", "1000000", "--m", "1"],
    ["solve", "--capital-n", "20000", "--n", "10000"],
    ["dump-matrix", "--capital-n", "20000", "--n", "10000", "--out", "/dev/null"],
], ids=["spectrum", "partition", "solve", "dump-matrix"])
def test_huge_sectors_refused_by_their_bound(argv, monkeypatch, capsys):
    refuse_sectors(monkeypatch)
    start = time.perf_counter()
    code, out = run_cli(argv + ["--c", "1.0"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dump_matrix_plans_the_sector_it_reads(monkeypatch, capsys):
    # 3000 rows fit a dense cap of 3000, but H's (N, dim) rank tables do not: the
    # sector and operator take about 0.72 GB, as spectrum plans them, past 0.072 GB
    refuse_sectors(monkeypatch)
    monkeypatch.setenv("BETHE6V_DIM_CAP", "3000")
    code, out = run_cli(["dump-matrix", "--capital-n", "3000", "--n", "1", "--c", "1.3",
                         "--kind", "hamiltonian", "--out", "/dev/null"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "error: dump-matrix at N = 3000, n = 1 needs about 0.792 GB, past the 0.072 GB "
        "budget of dense cap 3000\n")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--capital-n", "6", "--n", "2"], "solve at N = 6, n = 2 needs about 7.2e-06"),
    (["spectrum", "--capital-n", "6", "--n", "3"],
     "spectrum at N = 6, n = 3 needs about 1.12e-05"),
    (["dump-matrix", "--capital-n", "6", "--n", "3", "--out", "/dev/null"],
     "dump-matrix at N = 6, n = 3 needs about 1.28e-05"),
    (["partition", "--capital-n", "6", "--m", "2"], "partition at N = 6 needs about 1.6e-06"),
], ids=["solve", "spectrum", "dump-matrix", "partition"])
def test_every_refusal_is_in_bytes(argv, message, monkeypatch, capsys):
    # one rule for every command: a dense cap of 5 leaves 200 bytes
    refuse_sectors(monkeypatch)
    monkeypatch.setenv("BETHE6V_DIM_CAP", "5")
    assert run_cli(argv + ["--c", "1.0"]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {message} GB, past the 2e-07 GB budget of dense cap 5\n")


@pytest.mark.parametrize("argv", [
    ["solve", "--capital-n", "6", "--n", "1"],
    ["partition", "--capital-n", "2", "--m", "2", "--bruteforce"],
    ["verify-identities"],
    ["spectrum", "--capital-n", "4", "--n", "1"],
    ["dump-matrix", "--capital-n", "4", "--n", "1", "--out", "/dev/null"],
])
def test_every_command_rejects_bad_c(argv, capsys):
    for c in ("0", "-1", "nan"):
        code, out = run_cli(argv + ["--c", c])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err == "error: c must be positive\n"


class TestEnvironmentCaps:
    def test_library_routes_are_uncapped(self, monkeypatch):
        # the commands own the caps; the routes compute what they are asked
        monkeypatch.setenv("BETHE6V_DIM_CAP", "1")
        a = Anisotropy(1.0)
        sector = enumerate_sector(6, 3)
        assert build_hamiltonian_block(sector, a.delta).dim == 20
        assert build_transfer_block(sector, a).dim == 20
        assert int(momentum_spectra(sector, transfer_operator(sector, a).rows)[1].sum()) == 20
        momenta = solve(6, ground_state_quantum_numbers(3), a).momenta
        assert np.all(np.isfinite(build_psi(sector, momenta)))
        assert identity_suite(momenta, 6, samples=2).samples == 2
        assert sum(partition_function_bruteforce(2, 2)) == 18

    @pytest.mark.parametrize("cap", ["0", "-20000"])
    def test_dim_cap_of_zero_or_below_refuses_every_command(self, cap, monkeypatch, capsys):
        # squared, -20000 would be the default budget; it leaves none
        refuse_sectors(monkeypatch)
        monkeypatch.setenv("BETHE6V_DIM_CAP", cap)
        for argv in (["solve", "--capital-n", "2", "--n", "0"],
                     ["partition", "--capital-n", "1", "--m", "1"],
                     ["spectrum", "--capital-n", "1", "--n", "0"],
                     ["dump-matrix", "--capital-n", "1", "--n", "0", "--out", "/dev/null"]):
            code, out = run_cli(argv + ["--c", "1.0"])
            assert (code, out) == (2, ""), argv
            assert capsys.readouterr().err.startswith("error: "), argv

    def test_readme_lists_every_cap(self):
        # one knob: caps.py alone reads the environment, src/ and scripts/ name
        # no BETHE6V_* variable but BETHE6V_DIM_CAP, and the README's table lists it
        root = Path(__file__).resolve().parent.parent
        sources = {path.name: path.read_text()
                   for path in [*root.glob("src/**/*.py"), *root.glob("scripts/*.py")]}
        named = {name for text in sources.values() for name in re.findall(r"BETHE6V_\w+", text)}
        readers = {name for name, text in sources.items() if re.search(r"environ|getenv", text)}
        readme = (root / "README.md").read_text()
        listed = re.findall(r"^\| `(BETHE6V_\w+)`", readme, flags=re.MULTILINE)
        assert (named, readers, listed) == ({"BETHE6V_DIM_CAP"}, {"caps.py"}, ["BETHE6V_DIM_CAP"])

    @pytest.mark.parametrize("argv", [
        ["solve", "--capital-n", "6", "--n", "2"],
        ["partition", "--capital-n", "2", "--m", "2"],
        ["spectrum", "--capital-n", "4", "--n", "1"],
        ["dump-matrix", "--capital-n", "4", "--n", "1", "--out", "/dev/null"],
    ], ids=["solve", "partition", "spectrum", "dump-matrix"])
    def test_malformed_dim_cap_is_named(self, argv, monkeypatch, capsys):
        refuse_sectors(monkeypatch)
        monkeypatch.setenv("BETHE6V_DIM_CAP", "abc")
        assert run_cli(argv + ["--c", "1.0"]) == (1, "")
        assert capsys.readouterr().err == "error: BETHE6V_DIM_CAP must be an integer, got 'abc'\n"

    def test_dim_cap_override(self, monkeypatch):
        monkeypatch.setenv("BETHE6V_DIM_CAP", "5")
        code, _ = run_cli(
            ["dump-matrix", "--capital-n", "6", "--n", "3", "--c", "1.0",
             "--out", "/dev/null"]
        )
        assert code == 2
