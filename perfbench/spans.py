"""Benchmark-side span recorder for the traced run.

Nothing under ``src/`` is instrumented.  :class:`SpanRecorder` wraps
public entry points of the ``repro`` layers from the outside: it swaps
the module attribute (and every ``from ... import`` copy of it in other
loaded ``repro`` and ``perfbench`` modules) or the class attribute for a
timing wrapper, and :meth:`SpanRecorder.restore` puts the originals back.

Each span records its name, start, end, parent span and thread, plus
the ids (path, window) and counts its call carries.  Spans stay in
memory until :meth:`SpanRecorder.dump` writes them out at exit.  A
span's *self time* is its duration minus the time its child spans cover;
children run nested and sequentially on the parent's thread, so that
cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "SpanRecorder", "self_times", "layer_of", "span_cost",
           "maybe_span"]

#: Module-name prefixes whose imported copies of a function are swapped.
_PATCHED = ("repro", "perfbench")


class Span:
    """One timed call: ``[start, end]`` under ``parent`` (0 = root)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, sid: int, name: str, start: float, parent: int,
                 thread: int, attrs: Optional[dict] = None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "attrs": self.attrs}


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            covered[span.parent] += span.duration
    return {span.sid: span.duration - covered[span.sid] for span in spans}


def maybe_span(recorder: Optional["SpanRecorder"], name: str):
    """``recorder.span(name)``, or a no-op context when not tracing."""
    return nullcontext() if recorder is None else recorder.span(name)


def span_cost(calls: int = 20000, trials: int = 5) -> float:
    """Seconds one wrapped call adds over the bare call (median of trials).

    The wrapped no-op records a span and runs a ``describe`` as cheap as
    the one on the most numerous spans (``service.ingest``).
    """
    def noop(_a, _b):
        return None

    recorder = SpanRecorder()
    wrapped = recorder._wrapper(noop, "bench.calibrate",
                                lambda args, kwargs, result: args[1])
    costs = []
    for _ in range(trials):
        started = time.perf_counter()
        for _ in range(calls):
            noop(0, "path")
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped(0, "path")
        costs.append((time.perf_counter() - started - bare) / calls)
        recorder.spans.clear()
    return statistics.median(costs)


class SpanRecorder:
    """Collects spans in memory; wraps functions and methods with them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: Optional[dict] = None) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, self.clock(),
                    stack[-1].sid if stack else 0, threading.get_ident(),
                    attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Context manager form: ``with recorder.span("bench.op"): ...``."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrapping ---------------------------------------------------------
    def _wrapper(self, fn: Callable, name: str,
                 describe: Optional[Callable]) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return wrapped

    def wrap_function(self, module, attr: str, name: str,
                      describe: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` and every imported copy of it.

        ``from repro.x import f`` binds ``f`` in the importing module too,
        so every loaded ``repro`` or ``perfbench`` module whose attribute
        *is* the same function object gets the same wrapper.
        """
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, describe)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(_PATCHED):
                continue
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def wrap_method(self, cls, attr: str, name: str,
                    describe: Optional[Callable] = None) -> None:
        """Wrap a method, classmethod or staticmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper(raw.__func__, name, describe))
        else:
            wrapped = self._wrapper(raw, name, describe)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(span.to_dict()) + "\n")
