"""Span recorder and the wrappers that time calls into each library layer.

Tracing is done from outside the library: each public function named in
``LAYERS`` is rebound, in every ``hyperwave`` module that holds a reference
to it, to a wrapper that records a span.  Rebinding module attributes also
catches names one module imported from another (``cli.hyper_forward``,
``nterm.sobolev_norm_hyper``) and calls a module makes to its own functions
(``seqnorms.gk_norm`` -> ``besov_hybrid_norm``), so spans nest as the calls
do.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import hyperwave.cli as cli
import hyperwave.transform1d as t1d
import numpy as np
from hyperwave.tensorbasis import CoeffVector

LAYERS = {
    "testfunctions": ("sample_function",),
    "transform1d": ("build_transform", "check_entry_decay"),
    "tensorbasis": ("hyper_forward", "hyper_inverse", "iso_from_hyper", "hyper_from_iso",
                    "iso_synthesize", "save_coeffs", "load_coeffs"),
    "seqnorms": ("besov_hybrid_norm", "besov_iso_norm", "sobolev_norm_hyper",
                 "sobolev_norm_iso"),
    "nterm": ("error_curve", "fit_rate", "jackson_bernstein_ratios"),
    "verify": ("check_biorthogonality", "check_transform_norms", "check_riesz",
               "check_embedding_chain", "check_kron_identity", "matrix_p_norm_bound",
               "operator_p_norm_estimate"),
}
SUITES = ("biorth", "decay", "lemma1", "lemma4", "kron", "riesz", "embedding")
COUNTS = ("tensorbasis.entries", "tensorbasis.file_bytes", "transform1d.cascade_ops",
          "nterm.support_len", "cli.csv_rows")
# Private 1-D cascades: wrapped only to count mask entries touched, never timed.
CASCADES = ("_analyze_array", "_synthesize_array")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int


class Recorder:
    """In-memory spans and work counts of one benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, counts: dict) -> None:
        """Add work counts; safe to call from the CLI's worker threads."""
        with self._lock:
            self.counts.update(counts)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    @contextmanager
    def adopt(self, parent: int | None):
        """Make ``parent`` the enclosing span of this thread's next spans."""
        old = self._stack()
        self._local.stack = [] if parent is None else [parent]
        try:
            yield
        finally:
            self._local.stack = old

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Per span name: summed self seconds and the number of spans.

    Self time is a span's duration minus the part of it its child spans
    cover; children running in parallel threads are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    seconds: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children[s.id]]
        seconds[s.name] += (s.end - s.start) - _union_length(c for c in clipped if c[0] < c[1])
        calls[s.name] += 1
    return dict(seconds), calls


def coverage(spans, root_id: int) -> float:
    """Share of span ``root_id`` covered by its direct children."""
    root = next(s for s in spans if s.id == root_id)
    kids = [(s.start, s.end) for s in spans if s.parent == root_id]
    return _union_length(kids) / (root.end - root.start)


def _nnz(x) -> int:
    if isinstance(x, CoeffVector):
        return x.num_entries
    if isinstance(x, np.ndarray):
        return int(np.count_nonzero(x))
    return 0


def _entries(args, result):
    return {"tensorbasis.entries": sum(_nnz(a) for a in args) + _nnz(result)}


def _save_bytes(args, result):
    return {**_entries(args, result), "tensorbasis.file_bytes": os.path.getsize(args[1])}


def _load_bytes(args, result):
    return {**_entries(args, result), "tensorbasis.file_bytes": os.path.getsize(args[0])}


def _support(args, result):
    return {"nterm.support_len": len(result.support)}


class Instrumentation:
    """Rebinds the traced functions to span-recording wrappers, reversibly."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._restore: list[tuple[object, str, object]] = []
        self._suites: dict | None = None
        self._cascade_cost: dict[tuple[str, int], int] = {}

    def _cost(self, spec, m) -> int:
        key = (spec.name, int(m))
        if key not in self._cascade_cost:
            self._cascade_cost[key] = t1d.cascade_cost(spec, int(m))
        return self._cascade_cost[key]

    def _timed(self, name, fn, count=None):
        rec = self.recorder

        def wrapper(*args, **kwargs):
            with rec.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                rec.add(count(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "hyperwave" and not modname.startswith("hyperwave."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        hooks = {
            "tensorbasis.save_coeffs": _save_bytes,
            "tensorbasis.load_coeffs": _load_bytes,
            "nterm.error_curve": _support,
            "transform1d.build_transform":
                lambda args, result: {"transform1d.cascade_ops": self._cost(args[0], args[1])},
        }
        for modname, names in LAYERS.items():
            module = sys.modules[f"hyperwave.{modname}"]
            for fname in names:
                key = f"{modname}.{fname}"
                count = hooks.get(key, _entries if modname == "tensorbasis" else None)
                original = getattr(module, fname)
                self._rebind(original, self._timed(key, original, count))

        for fname in CASCADES:
            original = getattr(t1d, fname)
            self._rebind(original, self._counted_cascade(original))

        self._suites = dict(cli.SUITES)
        for name, fn in self._suites.items():
            cli.SUITES[name] = self._timed(f"cli.suite.{name}", fn)

        rec = self.recorder
        mapper = cli._map_ordered

        def traced_map(fn, items):
            parent = rec.current()

            def child(item):
                with rec.adopt(parent):
                    return fn(item)

            return mapper(fn if parent is None else child, items)

        cli._map_ordered = traced_map
        self._restore.append((cli, "_map_ordered", mapper))

    def _counted_cascade(self, fn):
        rec = self.recorder

        def wrapper(spec, a, m):
            cols = a.shape[1] if np.ndim(a) == 2 else 1
            rec.add({"transform1d.cascade_ops": self._cost(spec, m) * cols})
            return fn(spec, a, m)

        return wrapper

    def remove(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        if self._suites is not None:
            cli.SUITES.clear()
            cli.SUITES.update(self._suites)
            self._suites = None


def layer_metric_names(cli_commands) -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for modname, fnames in LAYERS.items():
        for fname in fnames:
            names += [f"{modname}.{fname}.s", f"{modname}.{fname}.calls"]
    names += [f"cli.suite.{s}.s" for s in SUITES]
    names += [f"cli.{c}.s" for c in cli_commands]
    names += ["cli.import.s", *COUNTS, "trace.coverage", "trace.overhead_s"]
    return names
