"""Span tracing for the benchmark's traced run.

The program is not edited: ``installed`` replaces each traced function at
every name binding inside the ``gerryopt`` package (``from .model import x``
creates a second binding next to ``model.x``) with a wrapper that records a
span, and restores the originals on exit.  Spans stay in memory; the
benchmark writes them out when it ends.  Spans are sequential (one thread),
so a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class TraceError(RuntimeError):
    """A traced function or binding could not be found."""


def _on_linprog(tracer, args, kwargs, res):
    nit = getattr(res, "nit", None)
    if nit is None:
        tracer.missing.add("lp.highs_iterations")
    else:
        tracer.counters["lp.highs_iterations"] += int(nit)


def _on_ingest(tracer, args, kwargs, out):
    try:
        _records, report = out
        n_bad = len(report.bad_rows)
        counts = {
            "estimation.rows_read": report.n_input + n_bad,
            "estimation.rows_kept": report.n_kept,
            "estimation.bad_rows": n_bad,
            "estimation.dropped_uncontested": report.dropped_uncontested,
            "estimation.dropped_small": report.dropped_small,
            "estimation.dropped_degenerate": report.dropped_degenerate,
        }
    except (TypeError, ValueError, AttributeError):
        tracer.missing.update(("estimation.rows_read", "estimation.rows_kept", "estimation.bad_rows"))
        return
    for key, value in counts.items():
        tracer.counters[key] += int(value)


def _on_probit(tracer, args, kwargs, out):
    tracer.counters["estimation.probit_rows"] += len(out)


# (module, function, span name, result hook).  Span names are layer.function.
TARGETS = [
    ("gerryopt.lp", "linprog", "lp.highs", _on_linprog),
    ("gerryopt.lp", "build_lp", "lp.build_lp", None),
    ("gerryopt.lp", "solve_lp", "lp.solve_lp", None),
    ("gerryopt.lp", "extract_plan", "lp.extract_plan", None),
    ("gerryopt.lp", "sweep_gamma", "lp.sweep_gamma", None),
    ("gerryopt.verify", "refine_assignment", "verify.refine_assignment", None),
    ("gerryopt.verify", "decompose_pack_and_pair", "verify.decompose", None),
    ("gerryopt.verify", "classify_regime", "verify.classify", None),
    ("gerryopt.verify", "check_single_dipped", "verify.single_dipped", None),
    ("gerryopt.verify", "check_dual_support_optimality", "verify.dual_support", None),
    ("gerryopt.verify", "check_pap_condition", "verify.pap_scan", None),
    ("gerryopt.benchmarks", "optimize_cutoff", "benchmarks.optimize_cutoff", None),
    ("gerryopt.benchmarks", "perfect_info_value", "benchmarks.closed_forms", None),
    ("gerryopt.benchmarks", "no_aggregate_solution", "benchmarks.closed_forms", None),
    ("gerryopt.benchmarks", "no_idiosyncratic_value", "benchmarks.closed_forms", None),
    ("gerryopt.benchmarks", "matching_slices_plan", "benchmarks.closed_forms", None),
    ("gerryopt.model", "district_threshold", "model.district_threshold", None),
    ("gerryopt.model", "expected_seat_share", "model.expected_seat_share", None),
    ("gerryopt.estimation", "simulate_returns", "estimation.simulate", None),
    ("gerryopt.estimation", "ingest", "estimation.ingest", _on_ingest),
    ("gerryopt.estimation", "probit_transform", "estimation.probit", _on_probit),
    ("gerryopt.estimation", "estimate_gamma", "estimation.estimate_gamma", None),
    ("gerryopt.estimation", "descriptive_summaries", "estimation.descriptives", None),
]


class Tracer:
    """In-memory spans ``(id, parent, name, start, end)`` and named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.missing: set = set()
        self._stack: list = []

    def reset(self) -> None:
        self.spans, self.counters, self.missing = [], defaultdict(int), set()

    def call(self, name: str, fn, *args, hook=None, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)
        if hook is not None:
            hook(self, args, kwargs, out)
        return out

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hook=hook, **kwargs)

        return traced

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over the recorded spans."""
        child = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for sid, _parent, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child[sid]
        return out


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "gerryopt" or name.startswith("gerryopt.")]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every TARGETS function at every binding in the package."""
    patches = []
    try:
        for modname, attr, span, hook in TARGETS:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceError(f"{modname}.{attr} is gone; update perfbench/tracing.py TARGETS")
            wrapped = tracer.wrap(span, original, hook)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        patches.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(patches):
            setattr(mod, key, original)
