"""Span tracing of the simulator's layers, installed from outside.

:func:`install` walks every module of each layer package under
``repro`` and replaces each public method of each class defined there
with a wrapper that opens a span around the call.  The simulator's own
code is not edited: the wrappers live only in the process that installed
them, so the untraced measurement runs the unmodified program.

What is wrapped: functions, static methods and class methods defined in
a class body whose names do not start with ``_``.  Properties (such as
the ``HeapObject`` column accessors, millions of calls per Giraph job)
are not wrapped, nor are generator functions and context managers, whose
call returns before their body runs.  Time spent in unwrapped code lands
in the self time of the nearest enclosing span.

A layer's *self time* is the summed duration of its spans minus the part
covered by their child spans; call counts are exact.  Spans are kept in
memory (the first :data:`SPAN_CAP` of them, with their parent ids) and
written as a Chrome trace when the run ends.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import time
from typing import Dict, List, Tuple

#: the layers, each a package (or module) under ``repro``
LAYERS: Tuple[str, ...] = (
    "runtime",
    "heap",
    "gc",
    "teraheap",
    "devices",
    "clock",
    "serdes",
    "frameworks.spark",
    "frameworks.giraph",
    "server",
    "faults",
)

#: spans kept for the trace artefact; later spans are counted, not kept
SPAN_CAP = 100_000

#: the synthetic root span around one job; its self time is host time
#: the job spent outside every wrapped call
ROOT_LAYER = "job"


class Site:
    """One wrapped function: where its calls and self time accumulate."""

    __slots__ = ("index", "layer", "name", "calls", "self_s")

    def __init__(self, index: int, layer: str, name: str):
        self.index = index
        self.layer = layer
        self.name = name
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Span stack, per-site aggregates and the kept span records."""

    def __init__(self) -> None:
        self.sites: List[Site] = []
        self.by_name: Dict[str, List[Site]] = {}
        #: open spans: [child seconds, span id]
        self.stack: List[list] = []
        #: kept spans: (id, parent id, site index, start, duration)
        self.spans: List[Tuple[int, int, int, float, float]] = []
        self.span_count = 0
        #: host seconds inside outermost collector ``major_gc`` calls
        self.major_gc_s = 0.0
        self._major_depth = 0
        self.origin = 0.0
        self.root = self.site(ROOT_LAYER, ROOT_LAYER)

    def site(self, layer: str, name: str) -> Site:
        site = Site(len(self.sites), layer, name)
        self.sites.append(site)
        self.by_name.setdefault(name, []).append(site)
        return site

    def calls(self, name: str) -> int:
        """Exact call count of the wrapped ``Class.method`` ``name``."""
        return sum(site.calls for site in self.by_name.get(name, ()))

    # ------------------------------------------------------------------
    def wrap(self, fn, site: Site, major_gc: bool = False):
        perf = time.perf_counter
        stack = self.stack
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside a job (set-up): not traced
                return fn(*args, **kwargs)
            sid = tracer.span_count
            tracer.span_count = sid + 1
            parent = stack[-1]
            frame = [0.0, sid]
            stack.append(frame)
            if major_gc:
                tracer._major_depth += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                site.calls += 1
                site.self_s += duration - frame[0]
                parent[0] += duration
                if major_gc:
                    tracer._major_depth -= 1
                    if tracer._major_depth == 0:
                        tracer.major_gc_s += duration
                if sid < SPAN_CAP:
                    spans.append((sid, parent[1], site.index, start, duration))

        return traced

    def run_root(self, fn):
        """Run ``fn()`` as the root span; returns ``(result, seconds)``."""
        sid = self.span_count
        self.span_count += 1
        frame = [0.0, sid]
        self.stack.append(frame)
        self.origin = start = time.perf_counter()
        try:
            result = fn()
        finally:
            duration = time.perf_counter() - start
            self.stack.pop()
            self.root.calls += 1
            self.root.self_s += duration - frame[0]
            self.spans.append((sid, -1, self.root.index, start, duration))
        return result, duration

    # ------------------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Self seconds and calls per layer (root included)."""
        table = {
            layer: {"self_s": 0.0, "calls": 0}
            for layer in (ROOT_LAYER,) + LAYERS
        }
        for site in self.sites:
            row = table[site.layer]
            row["self_s"] += site.self_s
            row["calls"] += site.calls
        return table

    def write_chrome_trace(self, path) -> None:
        """Kept spans as Chrome trace ``X`` events carrying parent ids."""
        events = []
        for sid, parent, index, start, duration in self.spans:
            site = self.sites[index]
            events.append(
                {
                    "name": site.name,
                    "cat": site.layer,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "args": {"id": sid, "parent": parent},
                }
            )
        payload = {
            "traceEvents": events,
            "otherData": {
                "spans_total": self.span_count,
                "spans_kept": len(events),
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _modules(package: str):
    module = importlib.import_module(f"repro.{package}")
    yield module
    if hasattr(module, "__path__"):
        for info in pkgutil.walk_packages(
            module.__path__, prefix=f"{module.__name__}."
        ):
            yield importlib.import_module(info.name)


def _wrappable(cls) -> bool:
    return not issubclass(cls, (enum.Enum, BaseException))


def _is_plain_function(fn) -> bool:
    return (
        inspect.isfunction(fn)
        and not inspect.isgeneratorfunction(fn)
        and not hasattr(fn, "__wrapped__")  # e.g. @contextmanager
    )


def install() -> Tracer:
    """Wrap every layer's public methods; returns the tracer."""
    tracer = Tracer()
    for layer in LAYERS:
        for module in _modules(layer):
            for cls in list(vars(module).values()):
                if not (
                    isinstance(cls, type)
                    and cls.__module__ == module.__name__
                    and _wrappable(cls)
                ):
                    continue
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    kind = None
                    if isinstance(value, (staticmethod, classmethod)):
                        kind = type(value)
                        value = value.__func__
                    if not _is_plain_function(value):
                        continue
                    name = f"{cls.__qualname__}.{attr}"
                    site = tracer.site(layer, name)
                    major = attr == "major_gc" and layer in ("gc", "teraheap")
                    wrapped = tracer.wrap(value, site, major_gc=major)
                    setattr(cls, attr, kind(wrapped) if kind else wrapped)
    return tracer
