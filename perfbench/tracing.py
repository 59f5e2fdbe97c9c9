"""Span tracing around the public functions of each drlp layer.

A Tracer replaces every binding of the traced functions in the loaded
``drlp`` modules (``drlp.solver.advance_max`` as well as
``drlp.primitives.advance_max``, and the package namespace) with a wrapper
that records one span per call: name, start, end, parent span and the id
of the benchmark operation it belongs to.  Spans stay in memory until the
run ends.  ``ReluNetwork.flat_index`` is too hot to time and is only
counted.  Nothing under ``src/`` is changed; ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter, defaultdict

# layer -> (home module, public functions wrapped with a span)
FUNCTIONS = {
    "problems": ("drlp.problems", (
        "build_quantile_lasso", "build_clad", "build_lasso", "build_l1_first_layer",
        "build_from_lp", "build_random", "load_csv",
    )),
    "solver": ("drlp.solver", (
        "drlsimplex", "solve_quadratic", "initialize", "find_vertex", "choose_axis",
        "position_correction", "refresh_pseudoinverse", "certify_local_min", "axis_derivatives",
    )),
    "primitives": ("drlp.primitives", (
        "advance_max", "add_axis", "update_axis_new_region", "remove_pseudorow", "project",
        "argument_residuals",
    )),
    "network": ("drlp.network", (
        "evaluate", "gradient", "inner_products_all", "subjective_arguments", "oriented_normal",
        "critical_indices", "activation_pattern", "flip", "load_model",
    )),
    "bounds": ("drlp.bounds", ("count_regions_empirical", "improved_bound", "montufar_bound")),
    "cli": ("drlp.cli", ("main",)),
}

# (layer, home module, class, method) wrapped with a span
METHODS = (
    ("solver", "drlp.solver", "SolverState", "emit"),
    ("network", "drlp.network", "PairGroups", "secondary_flat_mask"),
)

# (layer, home module, class, method) counted without timing
COUNTED = (("network", "drlp.network", "ReluNetwork", "flat_index"),)

# solver entry points whose SolveOutcome feeds the phase counts
SOLVES = ("solver.drlsimplex", "solver.solve_quadratic")

# calls that each make one pass over the network's weights
SWEEPS = (
    "network.evaluate", "network.gradient", "network.inner_products_all",
    "network.subjective_arguments", "network.oriented_normal", "network.critical_indices",
    "network.activation_pattern", "primitives.advance_max",
)

OP = "op"


class Tracer:
    """Collects spans from wrapped drlp functions; install, run, uninstall."""

    def __init__(self):
        self.spans = []          # (name, start, end, span id, parent id, op id)
        self.solves = []         # (steps, Counter of trace phases) per solve
        self._count_cells = defaultdict(list)  # count-only methods: per-thread cells
        self._ids = iter(range(1, sys.maxsize))
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._op = None
        self._op_stack = ()
        self._restore = []

    def _next_id(self):
        with self._id_lock:
            return next(self._ids)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn):
        tracer = self
        is_solve = name in SOLVES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a span opened in a worker thread hangs off the innermost span open
            # in the operation's thread, which is waiting for the worker
            parent = stack[-1] if stack else (tracer._op_stack[-1] if tracer._op_stack else tracer._root)
            sid = tracer._next_id()
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((name, start, end, sid, parent, tracer._op))
            if is_solve:
                tracer.solves.append((out.steps, Counter(r.phase for r in out.trace)))
            return out

        return wrapper

    def _counter(self, name, fn):
        # one cell per thread, so the hot path needs no lock
        local, cells = threading.local(), self._count_cells[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                cell = local.cell
            except AttributeError:
                cell = local.cell = [0]
                cells.append(cell)
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name):
        return sum(cell[0] for cell in self._count_cells[name])

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "drlp" or n.startswith("drlp."))]
        for layer, (home, names) in FUNCTIONS.items():
            for fname in names:
                original = getattr(sys.modules[home], fname)
                wrapper = self._span(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for layer, home, cls_name, meth in METHODS + COUNTED:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[meth]
            make = self._counter if (layer, home, cls_name, meth) in COUNTED else self._span
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make(f"{layer}.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def op(self, op_id):
        """One benchmark operation, the root of the spans it causes."""
        sid = self._next_id()
        self._root, self._op, self._op_stack = sid, op_id, self._stack()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((OP, start, time.perf_counter(), sid, None, op_id))
            self._root = self._op = None
            self._op_stack = ()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_totals(spans):
    """Per span name: (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the part of it its children cover.
    """
    children = defaultdict(list)
    for _, s, e, _, parent, _ in spans:
        if parent is not None:
            children[parent].append((s, e))
    calls, incl, self_s = Counter(), Counter(), Counter()
    for name, s, e, sid, _, _ in spans:
        calls[name] += 1
        incl[name] += e - s
        self_s[name] += (e - s) - _covered(children.get(sid, ()), s, e)
    return calls, incl, self_s


def layer_metrics(tracer, ops, extra):
    """Per-layer metrics, normalized per traced operation (or per solve/step).

    extra carries what the benchmark itself knows: the samples drawn per
    region count and the trace records the CLI wrote.
    """
    calls, incl, self_s = span_totals(tracer.spans)
    ops = max(ops, 1)
    per_op = lambda v: v / ops  # noqa: E731
    solves = max(len(tracer.solves), 1)
    steps = sum(s for s, _ in tracer.solves)
    phases = Counter()
    for _, c in tracer.solves:
        phases.update(c)
    solve_s = sum(incl[n] for n in SOLVES)
    sweeps = sum(calls[n] for n in SWEEPS)

    def layer_self(layer):
        return per_op(sum(v for n, v in self_s.items() if n.startswith(layer + ".")))

    m = {
        "problems.build_s": (per_op(sum(v for n, v in self_s.items()
                                        if n.startswith("problems.build_"))), "s/op"),
        "problems.load_csv_s": (per_op(self_s["problems.load_csv"]), "s/op"),
        "solver.steps": (steps / solves, "steps/solve"),
        "solver.pivots": (phases["pivot"] / solves, "count/solve"),
        "solver.flips": (phases["flip"] / solves, "count/solve"),
        "solver.resyncs": (phases["resync"] / solves, "count/solve"),
        "solver.corrections": (phases["correct"] / solves, "count/solve"),
        "solver.ms_per_step": (1e3 * solve_s / max(steps, 1), "ms/step"),
        "solver.self_s": (layer_self("solver"), "s/op"),
    }
    for name in ("find_vertex", "choose_axis", "position_correction", "refresh_pseudoinverse", "emit"):
        m[f"solver.{name}_s"] = (per_op(self_s[f"solver.{name}"]), "s/op")
    for name in ("position_correction", "refresh_pseudoinverse", "emit"):
        m[f"solver.{name}.calls"] = (per_op(calls[f"solver.{name}"]), "calls/op")
    for name in ("advance_max", "add_axis", "update_axis_new_region", "remove_pseudorow",
                 "project", "argument_residuals"):
        m[f"primitives.{name}_s"] = (per_op(self_s[f"primitives.{name}"]), "s/op")
    m["primitives.advance_max.calls"] = (per_op(calls["primitives.advance_max"]), "calls/op")
    m["primitives.self_s"] = (layer_self("primitives"), "s/op")
    m["network.sweeps"] = (per_op(sweeps), "sweeps/op")
    m["network.sweeps_per_step"] = (sweeps / max(steps, 1), "sweeps/step")
    for name in ("evaluate", "gradient", "inner_products_all", "oriented_normal",
                 "subjective_arguments", "critical_indices", "flip", "secondary_flat_mask"):
        m[f"network.{name}_s"] = (per_op(self_s[f"network.{name}"]), "s/op")
    m["network.flat_index.calls"] = (per_op(tracer.count("network.flat_index")), "calls/op")
    m["network.secondary_flat_mask.calls"] = (per_op(calls["network.secondary_flat_mask"]), "calls/op")
    m["network.self_s"] = (layer_self("network"), "s/op")
    regions_s = incl["bounds.count_regions_empirical"]
    m["bounds.count_regions_empirical_s"] = (per_op(regions_s), "s/op")
    m["bounds.samples_per_s"] = (
        extra.get("samples", 0) * calls["bounds.count_regions_empirical"] / regions_s
        if regions_s > 0 else 0.0, "1/s")
    m["bounds.improved_bound_s"] = (per_op(self_s["bounds.improved_bound"]), "s/op")
    m["cli.main_s"] = (per_op(incl["cli.main"]), "s/op")
    m["cli.self_s"] = (per_op(self_s["cli.main"]), "s/op")
    m["cli.trace_records"] = (per_op(extra.get("trace_records", 0)), "records/op")
    return m
