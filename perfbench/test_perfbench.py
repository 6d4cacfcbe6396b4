"""Self-tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import cases
import run
import tracing

# bethe6v itself, for the test that traces real calls
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def span(name, start, end, parent=-1, counters=None):
    return tracing.Span(name, start, end, parent, "case", counters)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("ansatz.full_prediction", 1.0, 4.0, parent=0),
        span("ansatz.build_psi", 2.0, 3.5, parent=1),
        span("solver.solve", 5.0, 9.0, parent=0),
        span("functions.theta", 6.0, 6.5, parent=3),
        span("functions.theta", 7.0, 7.25, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 3.25, 0.5, 0.25])
    # layer self times partition the root span exactly
    metrics = tracing.layer_metrics(spans)
    total = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
    assert total == pytest.approx(10.0)
    assert metrics["ansatz.self_s"][0] == pytest.approx(3.0)
    assert metrics["solver.accept_ratio"][0] == 0.0  # no iteration counters given


def test_inclusive_seconds_counts_nested_same_layer_once():
    spans = [
        span("transfer.trace_power", 0.0, 4.0),
        span("transfer.build_transfer_block", 0.5, 1.5, parent=0),
        span("transfer.build_transfer_block", 5.0, 6.0),
    ]
    assert tracing.inclusive_seconds(spans, ["transfer.build_transfer_block"]) == 2.0
    both = ["transfer.trace_power", "transfer.build_transfer_block"]
    assert tracing.inclusive_seconds(spans, both) == 5.0


def test_tracer_records_parents_and_counters():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("functions.theta", lambda x: [x, x, x])
    outer = tracer.wrap("cli.main", lambda: inner(1) and inner(2))
    tracer.case = "k"
    outer()
    names = [(s.name, s.parent, s.case) for s in tracer.spans]
    assert names == [("cli.main", -1, "k"), ("functions.theta", 0, "k"),
                     ("functions.theta", 0, "k")]
    assert tracer.spans[1].counters == {"evals": 3}
    assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_install_sees_internal_calls_and_uninstalls():
    from bethe6v import ansatz, cli

    original = ansatz.build_psi
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.full_prediction is ansatz.full_prediction
        assert ansatz.full_prediction.__wrapped__ is not None
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", "--capital-n", "6", "--n", "2", "--c", "1.0"]) == 0
            assert cli.main(["partition", "--capital-n", "2", "--m", "2", "--c", "1.0"]) == 0
    finally:
        uninstall()
    assert ansatz.build_psi is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def parent_names(name):
        return {tracer.spans[s.parent].name for s in by_name[name]}

    assert "ansatz.full_prediction" in parent_names("ansatz.build_psi")
    assert "transfer.trace_power" in parent_names("transfer.build_transfer_block")
    assert "solver.solve" in parent_names("functions.theta")
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["cli.cases"][0] == 2
    assert metrics["ansatz.psi_terms"][0] == 2 * 15   # n! * C(6, 2)
    assert 0.0 < metrics["solver.accept_ratio"][0] <= 1.0


@pytest.mark.parametrize("n, p", [(108, 90), (84, 88), (20, 50), (19, None),
                                  (12, None), (1, None), (1000, 99)])
def test_tail_percentile_keeps_ten_cases_beyond(n, p):
    assert run.tail_percentile(n) == p
    if p is not None:
        _, beyond = run.nearest_rank(list(range(n)), p)
        assert beyond >= 10
        _, beyond_next = run.nearest_rank(list(range(n)), p + 1)
        assert beyond_next < 10 or p == 99


def test_nearest_rank_value():
    values = [float(v) for v in range(1, 109)]
    assert run.nearest_rank(values, 90) == (98.0, 10)


def test_classifier_fails_nan_trace_power_despite_passed_verification():
    report = cases.parse_report(
        "command: partition\npartition.trace_power: nan\n"
        "partition.bruteforce: 3.5\nverification.passed: true\n")
    assert cases.classify_report(0, report, True) == ["nonfinite:partition.trace_power"]


@pytest.mark.parametrize("code, text, needs, reasons", [
    (0, "verification.passed: true\nresidual: 1e-15\n", True, []),
    (0, "partition.trace_power: 12.0\n", False, []),
    (0, "partition.trace_power: 12.0\n", True, ["verification_not_passed"]),
    (0, "verification.passed: false\n", True, ["verification_not_passed"]),
    (3, "verification.passed: false\nverification.failures: psi_trivial\n", True,
     ["exit_3", "psi_trivial"]),
    (0, "verification.passed: true\nsolver.final_residual: inf\n", True,
     ["nonfinite:solver.final_residual"]),
])
def test_classifier_fails_closed(code, text, needs, reasons):
    assert cases.classify_report(code, cases.parse_report(text), needs) == reasons


def ring_record(N, log_lambda):
    return {"key": f"ring N={N} c=1", "kind": "ring", "params": {"N": N, "c": 1.0},
            "reasons": [], "report": {"log_lambda_per_site": log_lambda}}


def test_lieb_rate_fails_the_larger_case_of_a_slow_doubling():
    records = [ring_record(N, cases.LOG_W + err)
               for N, err in ((128, 3.2e-5), (256, 8e-6), (512, 4e-6), (1024, math.nan))]
    cases.check_lieb_rate(records)
    assert [r["reasons"] for r in records] == [[], [], ["lieb_rate"], ["lieb_rate"]]


def test_lieb_rate_fails_the_larger_case_next_to_a_raised_case():
    # a case that raised has report {} (worker.run_one); the check must not raise
    raised = dict(ring_record(256, 0.0), report={}, reasons=["exception:LinAlgError"])
    records = [ring_record(128, cases.LOG_W + 3.2e-5), raised,
               ring_record(512, cases.LOG_W + 2e-6)]
    cases.check_lieb_rate(records)
    assert [r["reasons"] for r in records] == [
        [], ["exception:LinAlgError", "lieb_rate"], ["lieb_rate"]]


def test_ring_case_fails_a_degenerate_solve():
    import dataclasses
    import types

    from bethe6v import ansatz, functions, solver, xxz

    def degenerate_solve(*args, **kwargs):
        return dataclasses.replace(solver.solve(*args, **kwargs), degenerate=True)

    bethe = types.SimpleNamespace(
        ansatz=ansatz, functions=functions, xxz=xxz,
        solver=types.SimpleNamespace(
            solve=degenerate_solve,
            ground_state_quantum_numbers=solver.ground_state_quantum_numbers))
    case = cases.Case("ring N=16 c=1", "ring", {"N": 16, "c": 1.0})
    assert cases.run_ring_case(case, bethe)["reasons"] == ["degenerate"]


def test_unexpected_failures_exclude_recorded_ones():
    known = {"key": "solve N=12 n=6 c=0.1", "reasons": ["exit_3", "psi_trivial"]}
    other_reason = {"key": "solve N=12 n=6 c=0.1", "reasons": ["exit_3", "xxz_eigenpair"]}
    new_case = {"key": "solve N=8 n=4 c=1", "reasons": ["exit_3"]}
    passed = {"key": "solve N=8 n=4 c=2", "reasons": []}
    records = [known, other_reason, new_case, passed]
    assert cases.unexpected_failures("sector-sweep", records) == [other_reason, new_case]


def test_workloads_have_the_documented_sizes():
    import random

    sizes = {w: len(cases.make_cases(w, random.Random(0))) for w in cases.WORKLOADS}
    assert sizes == {"sector-large": 1, "sector-sweep": 108, "ring-ladder": 12, "torus": 84}
    for workload, known in cases.KNOWN_FAILURES.items():
        keys = {c.key for c in cases.make_cases(workload, random.Random(0))}
        assert set(known) <= keys


def test_same_seed_same_inputs():
    import random

    first = cases.make_cases("sector-sweep", random.Random(7))
    assert first == cases.make_cases("sector-sweep", random.Random(7))
    assert first != cases.make_cases("sector-sweep", random.Random(8))
    for case in first:
        nominal = float(case.key.rsplit("c=", 1)[1])
        assert abs(case.params["c"] / nominal - 1.0) <= cases.C_JITTER + 1e-5


def test_printed_metrics_match_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    worker = {"passes": [{"wall_s": 1.0, "records": [{"key": "a", "seconds": 1.0}]}],
              "peak_rss_mb": 10.0}
    metrics, _ = run.end_to_end([0.5], worker)
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics)
    assert all(metrics[m["name"]][1] == m["unit"] for m in bench["end_to_end"])
    layer = tracing.layer_metrics([])
    assert {m["name"] for m in bench["per_layer"]} == set(layer) | {"trace.overhead_frac"}
    assert all(layer[m["name"]][1] == m["unit"] for m in bench["per_layer"]
               if m["name"] in layer)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(cases.WORKLOADS)
