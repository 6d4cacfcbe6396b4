"""Workload process started by run.py: set-up, then timed passes over the cases.

Set-up is import, input generation and one warm-up case; the process then
prints ``ready`` so its parent can time it.  Without ``--trace`` it runs
passes over the cases until ``--seconds`` have elapsed (at least one pass).
With ``--trace`` it runs one traced pass, then one untraced pass, so both
walls come from the same process and inputs.  The traced pass goes first,
as the only pass of a long untraced run does; it also carries what is left
of the warm-up, so the overhead their ratio gives errs high.  Results go
to ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import resource
import sys
import time
import traceback
import types

import numpy as np

import cases
import tracing


def load_bethe():
    from bethe6v import ansatz, cli, functions, solver, xxz

    return types.SimpleNamespace(ansatz=ansatz, cli=cli, functions=functions,
                                 solver=solver, xxz=xxz)


def run_one(case, bethe, tracer=None) -> dict:
    if tracer is not None:
        tracer.case = case.key
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        outcome = cases.run_case(case, bethe)
    except Exception as exc:  # one broken case must not hide the others
        traceback.print_exc()
        outcome = {"exit_code": None, "reasons": [f"exception:{type(exc).__name__}"],
                   "report": {}}
    seconds, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    return {"key": case.key, "kind": case.kind, "params": case.params,
            "seconds": seconds, "cpu_seconds": cpu, **outcome}


def run_pass(case_list, bethe, tracer=None) -> dict:
    start = time.perf_counter()
    records = [run_one(case, bethe, tracer) for case in case_list]
    wall = time.perf_counter() - start
    cases.check_lieb_rate(records)
    return {"wall_s": wall, "records": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bethe = load_bethe()
    case_list = cases.make_cases(args.workload, random.Random(args.seed))
    warm = run_one(cases.WARMUP[args.workload], bethe)
    if warm["reasons"]:
        print(f"warm-up case failed: {warm['reasons']}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"numpy": np.__version__}
    if args.trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = run_pass(case_list, bethe, tracer)
        finally:
            uninstall()
        passes = [traced, run_pass(case_list, bethe)]
        result["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(case_list, bethe))
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
