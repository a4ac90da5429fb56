"""Span recorder that wraps ltvobs's cross-module calls at runtime.

Nothing in the package is edited: :func:`install` replaces each listed
function, in every ``ltvobs`` module namespace that binds it, with a
wrapper that records one span per call.  A span is (name, id, parent,
run, thread, start, end, thread CPU at start, thread CPU at end).  Spans
stay in memory in one flat ``array('d')`` (72 bytes each; one
``extend`` per span, which the interpreter lock keeps whole when the
sweep's pool threads record concurrently) and are written as gzipped JSONL
after the timed operations.

A thread whose span stack is empty (a pool thread started by
``detect --sweep``) takes the main thread's innermost open span as
parent, so the command that started the pool owns those spans.
"""

import gzip
import importlib
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>"
FUNCTIONS = [
    ("linalg", "mgs_qr"),
    ("linalg", "numerical_rank"),
    ("linalg", "orthogonal_projector_complement"),
    ("integrators", "projected_rk4_step"),
    ("integrators", "joint_rk4_step"),
    ("lyapunov", "estimate_spectrum"),
    ("lyapunov", "regularity_report"),
    ("observer", "detectability_report"),
    ("strong_obs", "build_stack"),
    ("strong_obs", "strong_observability_test"),
    ("hosm", "run_bank"),
    ("cascade", "run_cascade"),
    ("bibs", "triangularize"),
    ("bibs", "triangularize_error_system"),
    ("bibs", "general_bibs_certificate"),
    ("cli", "load_scenario"),
    ("cli", "cmd_spectrum"),
    ("cli", "cmd_detect"),
    ("cli", "cmd_check_so"),
    ("cli", "cmd_bibs"),
    ("cli", "cmd_reconstruct"),
]
# (module, class, method) wrapped on the class
METHODS = [
    ("strong_obs", "ReconstructionMap", "__init__"),
    ("strong_obs", "ErrorStackSampler", "reconstruct"),
]
# samples x channels differentiated by one run_bank call
COUNTS = {"hosm.run_bank": lambda bank: bank.stack.shape[0] * bank.channels}
FIELDS = 9


class Tracer:
    def __init__(self):
        self.names = []
        self.rows = array("d")
        self.counts = defaultdict(int)
        self.run = 0
        self._name_ids = {}
        self._ids = itertools.count(1)
        self._threads = itertools.count(0)
        self._local = threading.local()
        self._main = self._state()

    def _state(self):
        """This thread's (index, open-span stack)."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = (next(self._threads), [])
        return state

    def wrap(self, name, fn):
        """Return ``fn`` wrapped to record a span named ``name`` per call."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        count = COUNTS.get(name)
        rows, ids = self.rows, self._ids
        clock, cpu = time.perf_counter, time.thread_time
        main_stack = self._main[1]

        def wrapper(*args, **kwargs):
            thread, stack = self._state()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            span = next(ids)
            stack.append(span)
            c0 = cpu()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                rows.extend((name_id, span, parent, self.run, thread, t0, t1, c0, c1))
            if count is not None:
                self.counts[name] += count(result)
            return result

        return wrapper

    def spans(self):
        """Rows as tuples (name, id, parent, run, thread, start, end, c0, c1)."""
        rows = self.rows
        for i in range(0, len(rows), FIELDS):
            r = rows[i : i + FIELDS]
            yield (self.names[int(r[0])], int(r[1]), int(r[2]), int(r[3]),
                   int(r[4]), r[5], r[6], r[7], r[8])

    def write_jsonl(self, path):
        """Write one JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, span, parent, run, thread, t0, t1, c0, c1 in self.spans():
                fh.write(json.dumps({
                    "name": name, "id": span, "parent": parent, "run": run,
                    "thread": thread, "start": t0, "end": t1, "cpu_s": c1 - c0,
                }) + "\n")


def install(tracer):
    """Wrap the listed ltvobs functions and methods in place.

    A function is rebound in every traced ltvobs module that imported it
    by name, so calls between modules go through the wrapper.
    """
    names = {m for m, _ in FUNCTIONS} | {m for m, _, _ in METHODS} | {"expr"}
    modules = {m: importlib.import_module(f"ltvobs.{m}") for m in names}
    for mod_name, attr in FUNCTIONS:
        original = getattr(modules[mod_name], attr)
        wrapper = tracer.wrap(f"{mod_name}.{attr}", original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, attr in METHODS:
        cls = getattr(modules[mod_name], cls_name)
        setattr(cls, attr, tracer.wrap(f"{mod_name}.{cls_name}.{attr}", getattr(cls, attr)))

    # every evaluator a bind returns is wrapped, so each evaluation is a span
    matrix_expr = modules["expr"].MatrixExpr
    raw_bind = matrix_expr.bind

    def bind(self):
        return tracer.wrap("expr.eval", raw_bind(self))

    matrix_expr.bind = tracer.wrap("expr.bind", bind)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > reach:
            total += t1 - max(t0, reach)
            reach = t1
    return total


def span_totals(tracer):
    """Per span name: calls, total wall, self time, thread-CPU time."""
    children = defaultdict(list)
    spans = list(tracer.spans())
    for name, span, parent, _run, _thread, t0, t1, _c0, _c1 in spans:
        children[parent].append((t0, t1))
    totals = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
    for name, span, _parent, _run, _thread, t0, t1, c0, c1 in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["wall_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - _covered(children.get(span, ()))
        entry["cpu_s"] += c1 - c0
    return dict(totals)
