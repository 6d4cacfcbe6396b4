"""Smoke runs of the scan scripts, which call the block builders directly."""

import os
import subprocess
import sys
from pathlib import Path

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
    assert proc.stdout.strip()


def test_partition_scan():
    # smallest grid: the single 2 x 2 torus at one c
    proc = run_script("partition_scan.py", "--max-cells", "4", "--c-values", "1.0")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 2
