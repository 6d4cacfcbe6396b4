"""Spans around the calls into each bethe6v layer, recorded from outside.

`install` wraps every public function of each layer module (the functions
named in its ``__all__``; ``cli`` has none, so its entry point ``main``) and
rebinds every reference to it in the loaded ``bethe6v.*`` namespaces, so
calls one layer makes into another are seen as nested spans.  Public classes
are left alone: rebinding a class name to a wrapper would break the
isinstance checks and classmethod calls the package makes on it.  Spans stay
in memory until the run ends; `layer_metrics` derives the per-layer figures.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("basis", "functions", "solver", "ansatz", "transfer", "xxz", "oracle", "cli")


def _elements(args, result):
    return {"evals": int(np.size(result))}


# Work counters taken from a call's arguments and result, after its span ends.
COUNTERS = {
    "ansatz.build_psi": lambda args, r: {"terms": math.factorial(args[1].n) * args[0].dim},
    "transfer.build_transfer_block": lambda args, r: {"entries": r.dim ** 2},
    "xxz.commutator_norm": lambda args, r: {"flops": 4 * args[0].dim ** 3},
    "oracle.dense_spectrum": lambda args, r: {"dim3": args[0].dim ** 3},
    "solver.solve": lambda args, r: {"iterations": r.iterations,
                                     "nonconverged": int(not r.converged)},
    "basis.enumerate_sector": lambda args, r: {"states": r.dim},
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the enclosing span, -1 at top level
    case: str | None
    counters: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; `case` tags every span opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.case = None
        self._open: list[int] = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        if count is None and name.startswith("functions."):
            count = _elements

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), 0.0,
                        self._open[-1] if self._open else -1, self.case)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if count is not None:
                span.counters = count(args, result)
            return result

        return traced


def public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None) or ["main"]
    return [name for name in names
            if inspect.isfunction(getattr(module, name, None))
            and getattr(module, name).__module__ == module.__name__]


def install(tracer: Tracer):
    """Wrap each layer's public functions; returns a callable that undoes it."""
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"bethe6v.{layer}"]
        for name in public_functions(module):
            fn = getattr(module, name)
            originals[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    rebound = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bethe6v" and not mod_name.startswith("bethe6v."):
            continue
        for attr, value in list(vars(module).items()):
            pair = originals.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(module, attr, pair[1])
                rebound.append((module, attr, value))

    def uninstall():
        for module, attr, value in rebound:
            setattr(module, attr, value)

    return uninstall


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Spans come from one thread, so the children of a span never overlap.
    """
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def inclusive_seconds(spans, names) -> float:
    """Time inside spans named in `names`, not counting one nested in another."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.seconds
    return total


def _under(spans, span, name) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced pass, as {name: (value, unit)}."""
    selfs = self_times(spans)

    def counter(name, key):
        return sum(s.counters[key] for s in spans if s.name == name and s.counters)

    def calls(prefix):
        return sum(1 for s in spans if s.name.startswith(prefix))

    def seconds(*names):
        return inclusive_seconds(spans, names)

    residual_evals = sum(1 for s in spans
                         if s.name == "functions.theta" and _under(spans, s, "solver.solve"))
    iterations = counter("solver.solve", "iterations")
    out = {
        "ansatz.psi_s": (seconds("ansatz.build_psi", "ansatz.psi_coefficient"), "s"),
        "ansatz.psi_terms": (counter("ansatz.build_psi", "terms"), "count"),
        "ansatz.eigenvalue_s": (seconds("ansatz.transfer_eigenvalue",
                                        "ansatz.eigenvalue_regular",
                                        "ansatz.eigenvalue_singular"), "s"),
        "transfer.block_s": (seconds("transfer.build_transfer_block",
                                     "transfer.build_transfer_block_by_configuration"), "s"),
        "transfer.block_entries": (counter("transfer.build_transfer_block", "entries"), "count"),
        "transfer.trace_s": (seconds("transfer.trace_power"), "s"),
        "transfer.enum_s": (seconds("transfer.partition_function_bruteforce"), "s"),
        "xxz.block_s": (seconds("xxz.build_hamiltonian_block"), "s"),
        "xxz.commutator_s": (seconds("xxz.commutator_norm"), "s"),
        "xxz.commutator_flops": (counter("xxz.commutator_norm", "flops"), "count"),
        "oracle.eigh_s": (seconds("oracle.dense_spectrum"), "s"),
        "oracle.eigh_dim3": (counter("oracle.dense_spectrum", "dim3"), "count"),
        "oracle.residual_s": (seconds("oracle.check_eigenpair"), "s"),
        "solver.calls": (calls("solver.solve"), "count"),
        "solver.iterations": (iterations, "count"),
        "solver.nonconverged": (counter("solver.solve", "nonconverged"), "count"),
        "solver.accept_ratio": (iterations / residual_evals if residual_evals else 0.0, "ratio"),
        "functions.calls": (calls("functions."), "count"),
        "functions.evals": (sum(s.counters["evals"] for s in spans
                                if s.layer == "functions" and s.counters), "count"),
        "basis.calls": (calls("basis."), "count"),
        "basis.states": (counter("basis.enumerate_sector", "states"), "count"),
        "cli.cases": (calls("cli.main"), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(t for s, t in zip(spans, selfs) if s.layer == layer), "s")
    return out
