"""Span recording from outside the program.

The program has no clock on its request path, so the traced run times
it from here: the driver opens spans around its own calls into each
layer, and :func:`install` replaces a fixed table of *public* entry
points with timing wrappers.  Spans stay in memory until the run ends.
A span is ``(id, name, start_ns, end_ns, parent id, op id, tag)``; the
parent is whatever span was open in the same context when it started,
spans of one operation share the op id, and a layer's self time is its
spans' duration minus the part their child spans cover.

An entry point that no longer exists is listed in ``Tracer.missing``
and its metrics read 0 — a later refactor can remove a symbol without
breaking the benchmark.
"""

from __future__ import annotations

import contextvars
import dataclasses
import importlib
import inspect
import itertools
import json
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=-1)
_op: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=-1)

#: Server-side spans that start a new operation (the first thing a
#: request touches); later spans of the same asyncio task inherit it.
_OP_ROOTS = frozenset({"http.decode_request"})


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self.runtimes: list = []  # QueryRuntime instances created while installed
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        _op.set(op_id)

    def _begin(self, name: str) -> tuple:
        sid = next(self._ids)
        parent = _current.get()
        token = _current.set(sid)
        if name in _OP_ROOTS:
            _op.set(sid)
        return sid, parent, token, perf_counter_ns()

    def _end(self, name: str, begun: tuple, tagger, args, result) -> None:
        t1 = perf_counter_ns()
        sid, parent, token, t0 = begun
        _current.reset(token)
        # the tag is computed after the span closed, so taggers may do
        # work the span must not include
        tag = tagger(args, result) if tagger is not None else None
        self.spans.append((sid, name, t0, t1, parent, _op.get(), tag))

    def call(self, name: str, fn: Callable, args=(), kwargs=None, tagger=None):
        """Run ``fn`` inside a span."""
        begun = self._begin(name)
        result = None
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            self._end(name, begun, tagger, args, result)

    def wrap(self, name: str, fn: Callable, tagger=None) -> Callable:
        if inspect.iscoroutinefunction(fn):

            async def awrapper(*args, **kwargs):
                begun = self._begin(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._end(name, begun, tagger, args, None)

            return awrapper

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, tagger)

        return wrapper

    # ------------------------------------------------------------------
    def _wrap_plan(self, fn: Callable) -> Callable:
        """``QueryPlanner.plan`` runs synchronously inside ``submit``;
        the plan's ``execute`` later runs on a bridge thread that has no
        context.  Carry the submit span across so the core becomes its
        child — submit's self time is then the request's waiting."""
        tracer = self

        def plan(planner, request):
            submit_span, op = _current.get(), _op.get()
            result = tracer.call("service.plan", fn, (planner, request))
            execute = result.execute
            rtype = type(request).__name__

            def timed_execute(runtime):
                t_span, t_op = _current.set(submit_span), _op.set(op)
                try:
                    return tracer.call(
                        "service.core", execute, (runtime,), tagger=lambda a, r: rtype
                    )
                finally:
                    _current.reset(t_span)
                    _op.reset(t_op)

            return dataclasses.replace(result, execute=timed_execute)

        return plan

    def _wrap_runtime_init(self, fn: Callable) -> Callable:
        tracer = self

        def __init__(runtime, *args, **kwargs):
            fn(runtime, *args, **kwargs)
            tracer.runtimes.append(runtime)

        return __init__

    def install(self) -> None:
        """Replace every entry point of :data:`TARGETS` that still
        exists with its timing wrapper."""
        for name, module, path, tagger in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, leaf = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            if name == "service.plan":
                wrapped = self._wrap_plan(fn)
            elif name == "runtime.init":
                wrapped = self._wrap_runtime_init(fn)
            else:
                wrapped = self.wrap(name, fn, tagger)
            setattr(owner, leaf, wrapped)

    # ------------------------------------------------------------------
    def cache_counters(self) -> Dict[str, int]:
        return {
            "hits": sum(rt.cache.hits for rt in self.runtimes),
            "misses": sum(rt.cache.misses for rt in self.runtimes),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "missing": self.missing, "cache": self.cache_counters()},
                fh,
            )


def _tag_type_name(args, result):
    return type(args[1]).__name__  # (self, request)


def _tag_payload_type(args, result):
    payload = args[0]
    if not isinstance(payload, dict):
        return None
    if payload.get("type") == "evaluate" and "collect_matches" not in payload:
        return "wave"  # see targets.payloads
    return payload.get("type")


def _tag_result_type(args, result):
    # the encoded body's size, measured after the span closed
    return None if result is None else (result.get("type"), len(json.dumps(result)))


def _tag_decode_result(args, result):
    payload = args[0]
    if not isinstance(payload, dict):
        return None
    return (payload.get("type"), len(json.dumps(payload)))


def _tag_probe_points(args, result):
    return len(args[2])  # (self, stops, coords, psi, ...)


def _tag_batch_tasks(args, result):
    return len(args[1])  # (self, tasks, ...)


#: (span name, module, attribute path, tagger).  Module-level functions
#: are patched where callers look them up: ``server.py`` and
#: ``client.py`` call ``wire.<fn>``, ``shards.py`` and ``cellstring.py``
#: each hold their own binding of ``build_cellstring_index``.
TARGETS = (
    ("http.decode_request", "repro.service.http.wire", "decode_request", _tag_payload_type),
    ("http.encode_result", "repro.service.http.wire", "encode_result", _tag_result_type),
    ("http.client_decode", "repro.service.http.wire", "decode_result", _tag_decode_result),
    ("service.submit", "repro.service.service", "QueryService.submit", _tag_type_name),
    ("service.plan", "repro.service.planner", "QueryPlanner.plan", None),
    ("runtime.init", "repro.runtime.runtime", "QueryRuntime.__init__", None),
    ("runtime.probe_mask", "repro.runtime.runtime", "QueryRuntime.probe_mask", _tag_probe_points),
    ("runtime.stop_set", "repro.runtime.runtime", "QueryRuntime.stop_set", None),
    (
        "runtime.probe_masks_batch",
        "repro.runtime.runtime",
        "QueryRuntime.probe_masks_batch",
        _tag_batch_tasks,
    ),
    ("engine.batch_query", "repro.engine.batch", "BatchQueryEngine.query", None),
    ("engine.batch_query", "repro.engine.batch", "BatchQueryEngine.query_masked", None),
    ("engine.cellstring_build", "repro.engine.shards", "build_cellstring_index", None),
    ("engine.cellstring_build", "repro.engine.cellstring", "build_cellstring_index", None),
)


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------
class SpanTable:
    """Aggregates over a span list, per span name; times in
    milliseconds.  ``kind`` filters by the operation a span belongs to
    (``evaluate`` / ``wave`` / ``kmaxrrst`` / ``maxkcov``), known for
    server spans whose op started at ``http.decode_request``."""

    def __init__(self, spans: List[tuple]) -> None:
        spans = [tuple(s) for s in spans]
        child_ns: Dict[int, int] = defaultdict(int)
        self.op_kind: Dict[int, str] = {}
        for sid, name, t0, t1, parent, op_id, tag in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
            if name in _OP_ROOTS and tag is not None:
                self.op_kind[op_id] = tag
        # name -> [(duration ms, self ms, tag, op id)]
        self.by_name: Dict[str, List[tuple]] = defaultdict(list)
        for sid, name, t0, t1, _parent, op_id, tag in spans:
            dur = t1 - t0
            self.by_name[name].append(
                (dur / 1e6, max(dur - child_ns[sid], 0) / 1e6, tag, op_id)
            )

    def select(self, name: str, tag=None, kind: Optional[str] = None) -> List[tuple]:
        return [
            e
            for e in self.by_name.get(name, ())
            if (tag is None or _tag_head(e[2]) == tag)
            and (kind is None or self.op_kind.get(e[3], kind) == kind)
        ]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def total_ms(self, name: str) -> float:
        return sum(e[0] for e in self.by_name.get(name, ()))

    def self_ms(self, name: str) -> float:
        return sum(e[1] for e in self.by_name.get(name, ()))

    def durations(self, name: str, tag=None, kind: Optional[str] = None) -> List[float]:
        return [e[0] for e in self.select(name, tag, kind)]

    def selfs(self, name: str, tag=None, kind: Optional[str] = None) -> List[float]:
        return [e[1] for e in self.select(name, tag, kind)]

    def tags(self, name: str) -> list:
        return [e[2] for e in self.by_name.get(name, ()) if e[2] is not None]


def _tag_head(tag):
    return tag[0] if isinstance(tag, (tuple, list)) else tag
