"""Smoke runs of the scan scripts, which call the library routes directly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_ground_state_scan():
    proc = run_script("ground_state_scan.py", "--ring-sizes", "4,6", "--c-values", "1.0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[-2:] == ["CW", "width"]
    rows = lines[2:lines.index("")]
    assert len(rows) == 5  # n = 1, 2 at N = 4 and n = 1..3 at N = 6
    for row in rows:
        # every ground state is certified: its bracket is within solve's 1e-8
        assert float(row.split()[-1]) <= 1e-8, row


def test_partition_scan():
    # smallest grid: the single 2 x 2 torus at one c
    proc = run_script("partition_scan.py", "--max-cells", "4", "--c-values", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 2


def test_partition_scan_needs_no_enumeration_cap():
    # every torus up to 16 cells is counted and traced, 2 x 8 and 8 x 2 included
    proc = run_script("partition_scan.py", "--max-cells", "16", "--c-values", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 20  # header and 19 tori


def test_partition_scan_stops_where_counts_could_pass_int64():
    # 2 x 20 is the last torus of the first row counted exactly
    proc = run_script("partition_scan.py", "--max-cells", "42", "--c-values", "1.0")
    assert proc.returncode == 2
    assert len(proc.stdout.strip().splitlines()) == 20  # header, 2 x 2 .. 2 x 20
    assert proc.stderr == "error: torus counts on 2 x 21 may exceed int64\n"


def test_partition_scan_stops_at_the_memory_budget(monkeypatch):
    # a dense cap of 4 leaves 128 bytes: 24 N R^2 is 48 at N = 2, 72 at N = 3, 216 at N = 4
    monkeypatch.setenv("BETHE6V_DIM_CAP", "4")
    proc = run_script("partition_scan.py", "--max-cells", "8", "--c-values", "1.0")
    assert proc.returncode == 2
    assert len(proc.stdout.strip().splitlines()) == 5  # header, 2 x 2 .. 2 x 4, 3 x 2
    assert proc.stderr == ("error: partition at N = 4 needs about 2.16e-07 GB, "
                           "past the 1.28e-07 GB budget of dense cap 4\n")


def test_ground_state_scan_stops_at_a_cap(monkeypatch):
    # a solve and its blocks, 80 N dim + 24 dim^2 / N bytes: 1376 at (4, 1), 2136 at
    # (4, 2) and 3024 at (6, 1), past the 2888 a dense cap of 19 leaves
    monkeypatch.setenv("BETHE6V_DIM_CAP", "19")
    proc = run_script("ground_state_scan.py", "--ring-sizes", "4,6", "--c-values", "1")
    assert proc.returncode == 2
    assert len(proc.stdout.splitlines()) == 4  # header, rule, (4, 1) and (4, 2)
    assert proc.stderr == ("error: solve at N = 6, n = 1 needs about 3.02e-06 GB, "
                           "past the 2.89e-06 GB budget of dense cap 19\n")


def test_solver_parity_digest_is_reproducible():
    # ground states at N = 2..6 and the edge excitations of n = 2, 3: 13 solves
    runs = [run_script("solver_parity.py", "--ring-sizes", "2-6", "--c-values", "1.0")
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"solves 13 sha256 [0-9a-f]{64}\n", runs[0].stdout), runs[0].stdout
    assert runs[1].stdout == runs[0].stdout


def test_report_parity_digest_is_reproducible():
    # N = 1..4 at c = 1: 8 solves, 28 spectra, 28 dumps and 16 tori, then 2 identity
    # runs and the 5 fixed tori
    runs = [run_script("report_parity.py", "--max-n", "4", "--c-values", "1.0")
            for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"runs 87 sha256 [0-9a-f]{64}\n", runs[0].stdout), runs[0].stdout
    assert runs[1].stdout == runs[0].stdout


@pytest.mark.parametrize("name", ["ground_state_scan.py", "partition_scan.py"])
def test_scans_name_a_malformed_dim_cap(name, monkeypatch):
    monkeypatch.setenv("BETHE6V_DIM_CAP", "abc")
    proc = run_script(name)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: BETHE6V_DIM_CAP must be an integer, got 'abc'\n"
