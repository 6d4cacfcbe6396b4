import dataclasses
import math

import numpy as np
import pytest

from helpers import parse_report, run_cli


def strip_timing(text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("timing.")
    )


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
        assert int(rep["oracle.transfer_match_count"]) >= 1

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

    def test_non_convergence_exit_code(self):
        # the target momentum pi sits outside the open domain
        code, out = run_cli(
            ["solve", "--capital-n", "2", "--n", "1", "--c", "1.0",
             "--quantum-numbers", "1"]
        )
        assert code == 2
        assert parse_report(out)["solver.converged"] == "false"

    @pytest.mark.parametrize("c", [
        "1e-9",  # the scattering kernel leaves the right half-plane
        "3e-4",  # the scattering kernel vanishes
        # V's entries overflow, so the dense eigensolver does not converge
        pytest.param("1e100", marks=pytest.mark.filterwarnings(
            "ignore:overflow encountered", "ignore:invalid value encountered")),
    ])
    def test_numeric_range_limit_exit_code(self, c, capsys):
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "3", "--c", c])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("c", ["1e-3", "1e20"])
    def test_numeric_range_ends_still_pass(self, c):
        code, out = run_cli(["solve", "--capital-n", "6", "--n", "3", "--c", c])
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
        assert parse_report(out)["checks.blocks"] == "full"
        assert calls == [(8, 3)]

    def test_nan_residual_fails_closed(self, monkeypatch):
        monkeypatch.setattr("bethe6v.cli.check_eigenpair", lambda *args: math.nan)
        code, out = run_cli(["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"])
        assert code == 3
        rep = parse_report(out)
        assert rep["verification.passed"] == "false"
        assert rep["verification.failures"].split(",")[:2] == [
            "transfer_eigenpair", "xxz_eigenpair"]

    def test_large_eigenvalue_gated_relative_to_its_scale(self):
        # lambda ~ 1.9e6: a residual of a few 1e-9 is a relative error of 1e-15
        code, out = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "3.3"])
        rep = parse_report(out)
        assert float(rep["prediction.lambda.re"]) > 1e6
        assert rep["oracle.transfer_match_count"] == "1"
        assert code == 0
        assert rep["verification.passed"] == "true"

    def test_perturbed_eigenvalue_still_fails(self, monkeypatch):
        import bethe6v.cli

        full_prediction = bethe6v.cli.full_prediction

        def perturbed(sector, ev):
            pred = full_prediction(sector, ev)
            return dataclasses.replace(pred, lam=pred.lam * (1.0 + 1e-8))

        monkeypatch.setattr("bethe6v.cli.full_prediction", perturbed)
        code, out = run_cli(["solve", "--capital-n", "12", "--n", "6", "--c", "3.3"])
        assert code == 3
        assert "transfer_eigenpair" in parse_report(out)["verification.failures"].split(",")

    def test_spectrum_match_needs_no_eigenvectors(self, monkeypatch):
        argv = ["solve", "--capital-n", "8", "--n", "3", "--c", "1.2"]
        _, before = run_cli(argv)

        def refuse(*args, **kwargs):
            raise AssertionError("eigenvectors computed")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for module in ("oracle", "cli"):
            monkeypatch.setattr(f"bethe6v.{module}.dense_spectrum", refuse)
        code, after = run_cli(argv)

        def oracle_lines(text):
            return {k: v for k, v in parse_report(text).items() if k.startswith("oracle.")}

        assert code == 0
        assert len(oracle_lines(after)) == 4
        assert oracle_lines(after) == oracle_lines(before)

    def test_stage_timings(self, monkeypatch):
        def stages(argv):
            _, out = run_cli(argv)
            rep = parse_report(out)
            timed = [k for k in rep if k.startswith("timing.")]
            assert all(float(rep[k]) >= 0.0 for k in timed)
            return [k.removeprefix("timing.") for k in timed]

        argv = ["solve", "--capital-n", "8", "--n", "2", "--c", "1.0"]
        assert stages(argv) == ["solve", "psi", "v", "h", "residuals", "commutator",
                                "spectrum", "seconds"]
        monkeypatch.setenv("BETHE6V_SPECTRUM_CAP", "5")
        assert stages(argv) == ["solve", "psi", "v", "h", "residuals", "commutator",
                                "seconds"]
        monkeypatch.setenv("BETHE6V_DIM_CAP", "5")
        assert stages(argv) == ["solve", "psi", "seconds"]
        unconverged = ["solve", "--capital-n", "2", "--n", "1", "--c", "1.0",
                       "--quantum-numbers", "1"]
        assert stages(unconverged) == ["solve", "seconds"]

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

    def test_psi_dump(self, tmp_path):
        path = tmp_path / "psi.txt"
        code, out = run_cli(
            ["solve", "--capital-n", "6", "--n", "2", "--c", "1.0",
             "--dump-psi", str(path)]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == math.comb(6, 2)
        idx, re_part, im_part = lines[3].split()
        assert idx == "3"
        float(re_part), float(im_part)


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

    def test_trace_only(self):
        code, out = run_cli(["partition", "--capital-n", "12", "--m", "2", "--c", "0.9"])
        assert code == 0
        rep = parse_report(out)
        assert "partition.trace_power" in rep
        assert "partition.bruteforce" not in rep

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_discrepancy_fails_closed(self):
        # Z and Tr V^M both overflow to inf: their relative difference is NaN
        code, out = run_cli(
            ["partition", "--capital-n", "2", "--m", "2", "--c", "1e200", "--bruteforce"]
        )
        assert code == 3
        rep = parse_report(out)
        assert rep["partition.relative_discrepancy"] == "nan"
        assert rep["verification.passed"] == "false"

    def test_enumeration_cap(self):
        code, _ = run_cli(
            ["partition", "--capital-n", "4", "--m", "4", "--c", "1.0", "--bruteforce"]
        )
        assert code == 2

    def test_degenerate_torus_rejected(self):
        code, _ = run_cli(
            ["partition", "--capital-n", "1", "--m", "3", "--c", "1.0", "--bruteforce"]
        )
        assert code == 1


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

    def test_solved_root_section(self):
        code, out = run_cli(
            ["verify-identities", "--c", "1.0", "--capital-n", "8", "--n", "2"]
        )
        assert code == 0
        rep = parse_report(out)
        assert float(rep["identity.cyclic_max"]) < 1e-9
        assert float(rep["identity.boundary_max"]) < 1e-9


class TestSpectrumCommand:
    def test_report_and_dumps(self, tmp_path):
        matrix_path = tmp_path / "block.txt"
        csv_path = tmp_path / "spec.csv"
        code, out = run_cli(
            ["spectrum", "--capital-n", "6", "--n", "2", "--c", "1.0",
             "--dump-matrix", str(matrix_path), "--csv", str(csv_path)]
        )
        assert code == 0
        rep = parse_report(out)
        dim = int(rep["spectrum.dim"])
        assert dim == math.comb(6, 2)
        assert all(f"eigenvalue.{k}" in rep for k in range(dim))
        header = matrix_path.read_text().splitlines()[0]
        assert header == "6 2 15 transfer"
        csv_lines = csv_path.read_text().splitlines()
        assert csv_lines[0] == "index,eigenvalue"
        assert len(csv_lines) == dim + 1

    def test_hamiltonian_kind(self):
        code, out = run_cli(
            ["spectrum", "--capital-n", "4", "--n", "2", "--c", "1.0",
             "--kind", "hamiltonian"]
        )
        assert code == 0

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setenv("BETHE6V_SPECTRUM_CAP", "3")
        code, _ = run_cli(["spectrum", "--capital-n", "6", "--n", "3", "--c", "1.0"])
        assert code == 2


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
    def test_dim_cap_override(self, monkeypatch):
        monkeypatch.setenv("BETHE6V_DIM_CAP", "5")
        code, _ = run_cli(
            ["dump-matrix", "--capital-n", "6", "--n", "3", "--c", "1.0",
             "--out", "/dev/null"]
        )
        assert code == 2

    def test_enum_cap_override(self, monkeypatch):
        monkeypatch.setenv("BETHE6V_ENUM_CAP", "20")
        code, out = run_cli(
            ["partition", "--capital-n", "4", "--m", "4", "--c", "1.0"]
        )
        # trace-only path ignores the enumeration cap; bruteforce honors it
        assert code == 0
        monkeypatch.setenv("BETHE6V_ENUM_CAP", "8")
        code, _ = run_cli(
            ["partition", "--capital-n", "3", "--m", "3", "--c", "1.0", "--bruteforce"]
        )
        assert code == 2
