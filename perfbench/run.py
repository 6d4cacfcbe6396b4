"""bethe6v benchmark: runs one workload in its own process and prints its metrics.

    python3 perfbench/run.py --workload sector-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root; bethe6v is imported from ``src/``.  Workloads
(see cases.py): ``sector-large``, ``sector-sweep``, ``ring-ladder``, ``torus``.

With ``--trace 0`` it prints the end-to-end metrics: set-up time (median of
several set-ups, each a fresh process), the wall time of a pass over all
cases, the median and tail case time, peak RSS of the workload process and
the failed fraction.  With ``--trace 1`` it prints per-layer metrics from
spans recorded around the calls into each bethe6v module, and the tracing
overhead.  Every line but the last is for people; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the gated ``metrics``.
Case records, run context and spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import cases
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "bethe6v"
RESULTS = HERE / "results"

SETUPS = 3            # set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0  # workload processes still running after this are killed
MIN_BEYOND = 10       # the tail percentile keeps at least this many cases above it
# Only setup_s, wall_s, case_p50_s and peak_rss_mb are gated (BENCHMARK.json):
# case_tail_s needs 20 cases and failed_frac is 0 on sector-large, so both are
# printed for people, and failures reach the JSON line as `failed`/`attempted`.


class BenchError(RuntimeError):
    pass


def tail_percentile(n: int):
    """Highest whole percentile p >= 50 with at least MIN_BEYOND of n cases
    beyond its nearest-rank value; None when n is too small."""
    p = 100 - math.ceil(100 * MIN_BEYOND / n) if n else 0
    return p if p >= 50 else None


def nearest_rank(values, p: int):
    """Value at percentile p by nearest rank, and how many values lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered) / 100)
    return ordered[rank - 1], len(ordered) - rank


def blas_threads() -> str:
    return str(min(2, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BETHE6V_")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = blas_threads()
    env["PYTHONPATH"] = str(PACKAGE.parent)
    return env


def run_worker(args, deadline: float, out: Path | None) -> float:
    """Start one workload process, wait for it, and return its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--out", str(out)] if out else ["--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"workload process failed (exit {code})")
    return setup


def src_lines() -> int:
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        with open(path) as handle:
            total += sum(1 for _ in handle)
    return total


def case_seconds(passes) -> list[float]:
    """Median time of each case over the passes, in case order."""
    per_case = {}
    for p in passes:
        for r in p["records"]:
            per_case.setdefault(r["key"], []).append(r["seconds"])
    return [statistics.median(v) for v in per_case.values()]


def end_to_end(setups, worker) -> tuple[dict, list[str]]:
    passes = worker["passes"]
    seconds = case_seconds(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "case_p50_s": (statistics.median(seconds), "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "case_p50_s": f"{len(seconds)} cases",
    }
    lines = [f"metric {name} {value:.6g} {unit} {notes.get(name, '')}".rstrip()
             for name, (value, unit) in metrics.items()]
    p = tail_percentile(len(seconds))
    if p is None:
        lines.append(f"metric case_tail_s omitted ({len(seconds)} cases; "
                     f"needs {math.ceil(100 * MIN_BEYOND / 50)})")
    else:
        value, beyond = nearest_rank(seconds, p)
        lines.append(f"metric case_tail_s {value:.6g} s p{p}, {beyond} of "
                     f"{len(seconds)} cases beyond")
    return metrics, lines


def per_layer(worker) -> tuple[dict, list[str]]:
    traced, untraced = worker["passes"]
    spans = [tracing.Span(**s) for s in worker["spans"]]
    metrics = tracing.layer_metrics(spans)
    metrics["trace.overhead_frac"] = (traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio")
    lines = [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"spans {len(spans)}; untraced wall {untraced['wall_s']:.6g} s, "
                 f"traced wall {traced['wall_s']:.6g} s")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: bethe6v sources not found at {PACKAGE}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_out = stem.with_suffix(".worker.json")
    try:
        setups = [] if args.trace else [run_worker(args, deadline, None)
                                        for _ in range(SETUPS - 1)]
        setups.append(run_worker(args, deadline, worker_out))
        with open(worker_out) as handle:
            worker = json.load(handle)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        worker_out.unlink(missing_ok=True)

    records = [dict(r, workload=args.workload, pass_index=i)
               for i, p in enumerate(worker["passes"]) for r in p["records"]]
    failed = [r for r in records if r["reasons"]]
    unexpected = cases.unexpected_failures(args.workload, records)
    context = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "nproc": os.cpu_count(),
               "affinity_cpus": len(os.sched_getaffinity(0)),
               "blas_threads": blas_threads(), "python": platform.python_version(),
               "numpy": worker["numpy"], "src_lines": src_lines()}
    metrics, lines = per_layer(worker) if args.trace else end_to_end(setups, worker)
    lines.append(f"metric failed_frac {len(failed) / len(records):.6g} ratio "
                 f"{len(failed)} failed / {len(records)} attempted")
    with open(stem.with_suffix(".json"), "w") as handle:
        json.dump({"context": context, "setups_s": setups, "records": records,
                   "spans": worker.get("spans", [])}, handle)

    print("context " + " ".join(f"{k}={v}" for k, v in context.items()))
    print(f"records {stem.with_suffix('.json').relative_to(ROOT)}")
    print("\n".join(lines))
    shown = collections.Counter(
        f"failure {r['key']}: {','.join(r['reasons'])} "
        f"({'unexpected' if r in unexpected else 'known'})" for r in failed)
    for line, count in shown.items():
        print(f"{line} x{count}")
    known = cases.KNOWN_FAILURES.get(args.workload, {})
    missing = sorted(set(known) - {r["key"] for r in failed})
    if missing:
        print(f"recorded failures now passing: {', '.join(missing)}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
