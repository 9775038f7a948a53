"""Spans and counts for the traced benchmark run, recorded from outside the
library.

:func:`install` replaces each public function listed in :data:`TARGETS` by a
recording wrapper in every loaded module namespace that bound it, so calls
made through ``from .capacity import blahut_arimoto`` style imports are seen
too.  Spans (name, start, end, parent) and counts stay in memory until the
run ends; :meth:`Tracer.layer_metrics` then reduces them to per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - union_length(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


class Tracer:
    """In-memory span and count recorder; one per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def paused(self):
        """Calls on this thread inside the block are not recorded."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def wrap(self, name: str, fn, count=None, prepare=None):
        """A wrapper of ``fn`` recording a span ``name`` per call.

        ``prepare(args, kwargs)`` may rewrite the arguments before the call;
        ``count(result, args, kwargs)`` returns extra counts for the call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(self._local, "paused", False):
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            stack = self._stack()
            span = Span(name, time.perf_counter(), float("nan"),
                        stack[-1] if stack else -1)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            extra = count(result, args, kwargs) if count is not None else {}
            with self._lock:
                self.counts[f"{name}.calls"] += 1
                for key, value in extra.items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts, keyed by metric name."""
        out: dict[str, float] = dict(self.counts)
        for name in {t[2] for t in TARGETS}:
            out[f"{name}.self_s"] = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            out[f"{span.name}.self_s"] += own
        ba_calls = sum(1 for span in self.spans if span.name == "capacity.ba"
                       and span.parent >= 0
                       and self.spans[span.parent].name == "capacity.capacity_power")
        out["capacity.capacity_power.ba_calls"] = ba_calls
        out["cli.rows"] = out.pop("cli.write_csv.rows", 0)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
                       "counts": self.counts}, handle)


# -- what is traced -------------------------------------------------------------


def _rows(result, args, kwargs):
    return {"rows": result.shape[0]}


def _output_types(result, args, kwargs):
    from subblock.typeclass import composition_count
    ch = args[0]
    length = args[1].length if hasattr(args[1], "length") else args[1]
    return {"output_types": composition_count(ch.output_size, length)}


def _ba(result, args, kwargs):
    iterations = result[2]
    w = args[0] if args else kwargs["w"]
    return {"iterations": iterations, "entry_iterations": w.size * iterations}


def _secc(result, args, kwargs):
    ch, length = args[0], args[1]
    return {"iterations": result.iterations,
            "matrix_bytes": result.distribution.size * ch.output_size ** length * 8}


def _iterations(result, args, kwargs):
    return {"iterations": result.iterations}


def _materialize_rows(args, kwargs):
    # write_csv may receive a generator; count it without consuming it twice
    path, header, rows = args
    return (path, header, list(rows)), kwargs


def _csv_rows(result, args, kwargs):
    return {"rows": len(args[2])}


# (module, attribute, span name, count, prepare)
TARGETS = (
    ("subblock.typeclass", "materialize_type_class", "typeclass.materialize", _rows, None),
    ("subblock.typeclass", "enumerate_compositions", "typeclass.enumerate", None, None),
    ("subblock.typeclass", "feasible_compositions", "typeclass.enumerate", None, None),
    ("subblock.capacity", "cscc_composition_rate", "capacity.kernel", _output_types, None),
    ("subblock.secc", "secc_uniform_rate", "capacity.kernel", _output_types, None),
    ("subblock.capacity", "blahut_arimoto", "capacity.ba", _ba, None),
    ("subblock.capacity", "capacity_power", "capacity.capacity_power", None, None),
    ("subblock.secc", "secc_capacity", "secc.secc_capacity", _secc, None),
    ("subblock.exponent", "tilted_fixed_point", "exponent.tilted", _iterations, None),
    ("subblock.exponent", "sphere_packing", "exponent.sphere_packing", None, None),
    ("subblock.cli", "main", "cli", None, None),
    ("subblock.cli", "write_csv", "cli.write_csv", _csv_rows, _materialize_rows),
)


def install(tracer: Tracer) -> None:
    """Rebind every target, in every loaded module that holds it by name."""
    import importlib
    for module_name, attr, name, count, prepare in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(name, original, count, prepare)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(module, key, wrapper)
