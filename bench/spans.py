"""In-memory span tracer around kinex's public functions.

``Tracer.installed()`` replaces each traced function, in every loaded
``kinex`` module that holds a reference to it, by a wrapper that records
a span (name, start, end, parent). Nothing under ``src/`` changes; the
originals come back when the context exits. Functions are found by name
in whichever kinex module defines them, so moving one between modules
does not break the trace.

A span's self time is its duration minus the durations of its direct
children. Calls are sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

# span name -> name of the public kinex function it wraps
TRACED = {
    "exchange": "run_simulation",
    "metrics.gini": "gini",
    "metrics.kendall_tau": "kendall_tau",
    "metrics.histogram": "histogram",
    "metrics.gamma_fit": "gamma_fit",
    "sweep.run_sweep": "run_sweep",
    "fitting.fit_linear": "fit_linear",
    "empirical.load_countries": "load_countries",
    "empirical.fit_groups": "fit_groups",
    "cli.simulate": "cmd_simulate",
    "cli.sweep": "cmd_sweep",
    "cli.fit": "cmd_fit",
    "cli.empirical": "cmd_empirical",
    "cli.read_sweep_table": "read_sweep_table",
}


def _kinex_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "kinex" or name.startswith("kinex."))]


def _find_definition(func_name: str):
    for mod in _kinex_modules():
        obj = vars(mod).get(func_name)
        if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
            return obj
    raise LookupError(f"no kinex module defines {func_name}()")


class Tracer:
    """Records spans of one workload run; ``run_id`` is shared by all of them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.runs: list = []  # (params, snapshots) of every run_simulation call
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name: str, func):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append({"run": self.run_id, "id": span_id, "parent": parent,
                                   "name": name, "start_ns": start, "end_ns": end})
            if name == "exchange":
                self.runs.append((result.params, result.snapshots))
            return result

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}  # id(original) -> wrapper; the originals stay alive meanwhile
        for name, func_name in TRACED.items():
            func = _find_definition(func_name)
            wrappers[id(func)] = self._wrap(name, func)
        patched = []
        for mod in _kinex_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def layer_totals(self) -> dict:
        """{span name: {"calls": n, "self_s": seconds}} over all recorded spans."""
        child_ns = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
        totals = {name: {"calls": 0, "self_s": 0.0} for name in TRACED}
        for span in self.spans:
            entry = totals[span["name"]]
            entry["calls"] += 1
            entry["self_s"] += (span["end_ns"] - span["start_ns"] - child_ns[span["id"]]) / 1e9
        return totals
