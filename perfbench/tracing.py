"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds each listed public function of ``linfty`` to a
wrapper that records its call count, busy time and work counters.  A
module-level function is rebound in every ``linfty`` module that imported it
(``koszul_sign`` lives in ``graded`` but is called through ``multimap``,
``homotopy``, ``action`` and ``tensor``); a method is rebound on its class.
Only the traced run installs the wrappers, so the timed run measures the
program as shipped.

Self time is a call's duration minus the time covered by traced calls made
inside it, wrappers included, so the wrappers' own cost is charged to no
layer.  The hottest functions (``AGGREGATE``, up to 0.4 M calls a pass at
bound 4) keep only an aggregate count and busy time; every other call also
records a span ``(id, parent id, request, name, start, end)`` in memory,
written out by ``write_spans`` when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

AGGREGATE = "aggregate"
SPAN = "span"


def _lift_counts(words_in):
    def count(stat, args, result):
        stat["words_in"] += words_in(args["space"], args["bound"])
        stat["rows_out"] += len(result.rows)

    return count


def _zinbiel_words(space, bound):
    return sum(space.dim**n for n in range(1, bound + 1))


_canonical_cache: dict = {}


def _canonical_words(space, bound):
    key = (space.degrees, bound)
    if key not in _canonical_cache:
        _canonical_cache[key] = sum(1 for _ in space.canonical_words_up_to(bound))
    return _canonical_cache[key]


def _rows_out(stat, args, result):
    stat["rows_out"] += len(result.rows)


def _cells(stat, args, result):
    rows = args["rows"]
    stat["cells"] += len(rows) * len(rows[0]) if rows else 0


def _bytes_in(stat, args, result):
    stat["bytes_in"] += os.path.getsize(args["path"])


class _ColumnsBuilt:
    """``d1_columns`` caches its matrix; count each matrix once."""

    def __init__(self):
        self.seen: dict[int, object] = {}

    def __call__(self, stat, args, result):
        if id(result) not in self.seen:
            self.seen[id(result)] = result
            stat["columns"] += len(result)


def layers():
    """``(module, qualified name, kind, counter names, counter)`` per layer."""
    return [
        ("graded", "koszul_sign", AGGREGATE, (), None),
        ("graded", "permute", AGGREGATE, (), None),
        ("graded", "GradedSpace.normalize", AGGREGATE, (), None),
        ("multimap", "lift_zinbiel_coderivation", SPAN,
         ("words_in", "rows_out"), _lift_counts(_zinbiel_words)),
        ("multimap", "lift_symmetric_coderivation", SPAN,
         ("words_in", "rows_out"), _lift_counts(_canonical_words)),
        ("multimap", "lift_comorphism", SPAN, ("rows_out",), _rows_out),
        ("multimap", "TruncatedCoderivation.compose", SPAN, ("rows_out",), _rows_out),
        ("multimap", "commutator", SPAN, (), None),
        ("homotopy", "check_lie_infinity", SPAN, (), None),
        ("homotopy", "check_loday_infinity", SPAN, (), None),
        ("homotopy", "check_lie_morphism", SPAN, (), None),
        ("homotopy", "check_loday_morphism", SPAN, (), None),
        ("action", "check_action", SPAN, (), None),
        ("action", "check_coherence", SPAN, (), None),
        ("action", "theorem_crosscheck", SPAN, (), None),
        ("action", "HemiProduct.codifferential", SPAN, (), None),
        ("tensor", "check_embedding_explicit", SPAN, (), None),
        ("tensor", "check_embedding_mc", SPAN, (), None),
        ("tensor", "descendent", SPAN, (), None),
        ("tensor", "check_descendent_morphism", SPAN, (), None),
        ("tensor", "deformation_complex", SPAN, (), None),
        ("tensor", "DeformationComplex.d1_columns", SPAN, ("columns",), _ColumnsBuilt()),
        ("tensor", "cohomology_rank", SPAN, (), None),
        ("linalg", "rank", SPAN, ("cells",), _cells),
        ("fileformat", "parse_path", SPAN, ("bytes_in",), _bytes_in),
        ("fileformat", "serialize", SPAN, (), None),
        ("cli", "main", SPAN, (), None),
    ]


def metric_specs():
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    specs = []
    for module, qualname, _, counters, _ in layers():
        base = f"{module}.{qualname}"
        specs.append((f"{base}.calls", "count", "lower"))
        specs.append((f"{base}.self_s", "s", "lower"))
        for counter in counters:
            specs.append((f"{base}.{counter}", "count", "lower"))
        if "words_in" in counters:
            specs.append((f"{base}.rows_per_word", "ratio", "higher"))
    specs.append(("untraced_s", "s", "lower"))
    specs.append(("trace_overhead_s", "s", "lower"))
    return specs


# counters that must repeat exactly between two traced passes of one seed
WORK_COUNTERS = ("words_in", "rows_out", "cells", "columns")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # one frame per open traced call: [time covered by traced children, span id]
        self.stack: list[list] = [[0.0, None]]
        self.stats: dict[str, dict] = {}
        self.spans: list[tuple] = []
        # time spent in the wrappers themselves, outside the wrapped calls
        self.cost = [0.0]
        self.request = None
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, kind, counter):
        """A wrapper that reads the clock on entry, around the call, and on
        exit.  The caller's frame is charged the whole wrapper, so its self
        time excludes the wrapper's cost; the function's self time covers
        only the call; what lies between goes to ``cost``."""
        stat = self.stats[name]
        stack, spans, clock, cost = self.stack, self.spans, self.clock, self.cost

        if kind == AGGREGATE:
            def wrapper(*args, **kwargs):
                enter = clock()
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    stat["calls"] += 1
                    stat["self_s"] += end - start - frame[0]
                    leave = clock()
                    stack[-1][0] += leave - enter
                    cost[0] += leave - enter - (end - start)

            return wrapper

        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            enter = clock()
            span_id = len(spans)
            parent = stack[-1]
            spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += end - start - frame[0]
                spans[span_id] = (
                    span_id, parent[1], self.request, name,
                    start - self.origin, end - self.origin,
                )
            if counter is not None:
                counter(stat, signature.bind(*args, **kwargs).arguments, result)
            leave = clock()
            parent[0] += leave - enter
            cost[0] += leave - enter - (end - start)
            return result

        return wrapper

    def install(self) -> None:
        loaded = [
            mod for key, mod in sys.modules.items()
            if key == "linfty" or key.startswith("linfty.")
        ]
        for module, qualname, kind, counters, counter in layers():
            name = f"{module}.{qualname}"
            self.stats[name] = {"calls": 0, "self_s": 0.0, **{c: 0 for c in counters}}
            owner = importlib.import_module(f"linfty.{module}")
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, kind, counter)
            if outer:
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def work_counts(self) -> dict:
        """Counters that must repeat exactly for one seed."""
        out = {}
        for name, stat in self.stats.items():
            for key in WORK_COUNTERS:
                if key in stat:
                    out[f"{name}.{key}"] = stat[key]
        out["graded.koszul_sign.calls"] = self.stats["graded.koszul_sign"]["calls"]
        return out

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        values = {}
        for name, stat in self.stats.items():
            for key, value in stat.items():
                values[f"{name}.{key}"] = value
            if "words_in" in stat:
                words = stat["words_in"]
                values[f"{name}.rows_per_word"] = stat["rows_out"] / words if words else 0.0
        busy = sum(stat["self_s"] for stat in self.stats.values())
        values["untraced_s"] = traced_wall_s - busy - self.cost[0]
        values["trace_overhead_s"] = traced_wall_s - untraced_wall_s
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in metric_specs()
        }

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
