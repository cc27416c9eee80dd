"""Spans and counts recorded around calls into bellsim's layers.

The tracer wraps public functions from outside the package: it replaces a
module attribute with a wrapper that opens a span, calls the original and
closes the span.  Names bound with ``from .x import y`` are wrapped in the
importing namespace (``bellsim.cli.generate_streams``); names reached
through a module attribute are wrapped on that module
(``bellsim.rng.chunk_generator``, which ``streams`` calls as
``_rng.chunk_generator``).

A span is ``(id, name, start_ns, end_ns, parent, op, tag)``.  Spans are kept
in memory and written out when the run ends.  Clocks are
``time.perf_counter_ns``, which on Linux is CLOCK_MONOTONIC and therefore
comparable between the benchmark and the bellsim processes it starts.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Every entry is installed in every traced
# process; entries a workload never calls record nothing.
SPANNED = (
    ("bellsim.cli", "main", "cli.main"),
    ("bellsim.cli", "build_scenario", "scenarios.build_scenario"),
    ("bellsim.modelio", "load", "modelio.load"),
    ("bellsim.cli", "generate_streams", "streams.generate_streams"),
    ("bellsim.cli", "schedule_settings", "streams.schedule_settings"),
    ("bellsim.cli", "pair_coincidences", "streams.pair_coincidences"),
    ("bellsim.cli", "write_coincidence_csv", "streams.write_coincidence_csv"),
    ("bellsim.cli", "ingest_timetag_file", "streams.ingest_timetag_file"),
    ("bellsim.cli", "read_coincidence_csv", "streams.read_coincidence_csv"),
    ("bellsim.rng", "chunk_generator", "rng.chunk_generator"),
    ("bellsim.cli", "estimate_raw", "estimators.estimate_raw"),
    ("bellsim.cli", "estimate_postselected", "estimators.estimate_postselected"),
    ("bellsim.cli", "chsh", "estimators.chsh"),
    ("bellsim.cli", "no_signalling", "estimators.no_signalling"),
    ("bellsim.estimators", "chsh", "estimators.chsh"),
    ("bellsim.estimators", "no_signalling", "estimators.no_signalling"),
    ("bellsim.estimators", "correlation_set_from_exact", "estimators.correlation_set_from_exact"),
    ("bellsim.core", "enumerate_raw", "core.enumerate_raw"),
    ("bellsim.core", "enumerate_postselected", "core.enumerate_postselected"),
    ("bellsim.coupling", "coupling_feasibility", "coupling.coupling_feasibility"),
    ("bellsim.coupling", "solve_phase_one", "coupling.solve_phase_one"),
)

# Calls that are counted but get no span: validation is cheap and called
# from inside other spans; map_chunks only hands work to its pool.
COUNTED = (
    ("bellsim.core", "validate_model", "core.validate_model"),
    ("bellsim.rng", "map_chunks", "rng.map_chunks"),
)


class Tracer:
    """Records spans and counts for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed = []
        self._seen_records = set()

    # -- spans ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def record(self, name, start_ns, end_ns):
        """Add a finished top-level span; returns its id."""
        span_id = next(self._ids)
        self.spans.append((span_id, name, start_ns, end_ns, None, self.op, None))
        return span_id

    def call(self, name, fn, args, kwargs, tag=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op, tag))

    def adopt(self, parent, fn, args):
        """Run ``fn(*args)`` on a pool thread as a child of ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args)
        finally:
            stack.pop()

    # -- wrapping -------------------------------------------------------

    def install(self):
        for module_name, attr, name in SPANNED:
            self._wrap(module_name, attr, self._spanned(name, getattr(
                importlib.import_module(module_name), attr)))
        for module_name, attr, name in COUNTED:
            original = getattr(importlib.import_module(module_name), attr)
            self._wrap(module_name, attr, self._counted(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, module_name, attr, wrapper):
        module = importlib.import_module(module_name)
        self._installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, name, original):
        hook = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            tag = None
            if name == "coupling.solve_phase_one":
                tag = "exact" if kwargs.get("exact") else "float"
            result = self.call(name, original, args, kwargs, tag)
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counted(self, name, original):
        if name == "rng.map_chunks":
            def wrapper(fn, n, workers=1):
                self.counts["rng.map_chunks.calls"] += 1
                parent = self.current()
                return original(lambda *b: self.adopt(parent, fn, b), n, workers)
        else:
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return original(*args, **kwargs)
        wrapper.__wrapped__ = original
        return wrapper


def _after_pairing(tracer, args, result):
    stream_a, stream_b = args[0], args[1]
    tracer.counts["streams.clicks"] += len(stream_a) + len(stream_b)
    tracer.counts["streams.records"] += len(result.records)
    tracer.counts["streams.dropped"] += result.dropped_a + result.dropped_b
    tracer.counts["streams.unassigned"] += sum(
        1 for r in result.records if r.sp.x is None or r.sp.y is None)


def _after_estimate(tracer, args, _result):
    # Records estimated, each list counted once however often it is
    # estimated, so that dropping a duplicate pass shows as a gain.
    records = args[0]
    if id(records) not in tracer._seen_records:
        tracer._seen_records.add(id(records))
        tracer.counts["estimators.records"] += len(records)


def _after_coupling(tracer, _args, result):
    tracer.counts["coupling.decisions"] += 1
    tracer.counts["coupling.feasible"] += int(result.feasible)


_RESULT_HOOKS = {
    "streams.pair_coincidences": _after_pairing,
    "estimators.estimate_raw": _after_estimate,
    "estimators.estimate_postselected": _after_estimate,
    "coupling.coupling_feasibility": _after_coupling,
}


# --------------------------------------------------------------------------
# Aggregation


def _covered(start, end, intervals):
    """Length of [start, end) covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for s, e in sorted(intervals):
        s = max(s, cursor)
        e = min(e, end)
        if e > s:
            total += e - s
            cursor = e
    return total


def self_times(spans):
    """Per span name: (self seconds, inclusive seconds, calls).

    A span's self time is its duration minus the part of it covered by the
    union of its child spans.  Children running on two threads at once
    overlap; the union counts that time once for the parent, while each
    child keeps its full duration, so self times of parallel work may sum
    to slightly more than wall time.
    """
    children = defaultdict(list)
    for span_id, _name, start, end, parent, _op, _tag in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for span_id, name, start, end, _parent, _op, tag in spans:
        key = name if tag is None else f"{name}.{tag}"
        cover = _covered(start, end, children.get(span_id, ()))
        row = out[key]
        row[0] += (end - start - cover) / 1e9
        row[1] += (end - start) / 1e9
        row[2] += 1
    return {k: tuple(v) for k, v in out.items()}


def merge_child_spans(tracer, child_spans, parent):
    """Add spans recorded in a child process under ``parent``."""
    remap = {}
    for span_id, *_rest in child_spans:
        remap[span_id] = next(tracer._ids)
    for span_id, name, start, end, child_parent, _op, tag in child_spans:
        tracer.spans.append((remap[span_id], name, start, end,
                             remap.get(child_parent, parent), tracer.op, tag))
