"""Context-local tracing: nested timed spans with a bounded ring buffer.

A :class:`Trace` is activated on a ``contextvars.ContextVar``; code
anywhere below (same task / thread context) opens spans with::

    with span("engine-compute"):
        ...

When no trace is active, :func:`span` returns a shared no-op handle
after a single ContextVar read — the instrumentation cost of an
untraced call is one function call, and spans only ever *observe* wall
time (``perf_counter``), never consume RNG, so traced and untraced runs
produce bit-identical numerics.

Two propagation caveats the serving layer works around explicitly:

* ``loop.run_in_executor`` does **not** propagate contextvars (unlike
  ``asyncio.to_thread``), so the scheduler activates a fresh collector
  trace inside the executor-thread callable and grafts the captured
  spans back into each awaiting request's trace;
* a span completed elsewhere (queue wait measured by the scheduler) is
  attached with
  :meth:`Trace.add_span`, which is thread-safe.

Span counts are capped per trace (``max_spans``) so a request that fans
out into thousands of engine calls (a converted DNN) cannot balloon the
ring buffer; overflow is counted in ``dropped``.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from collections import deque
from time import perf_counter

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_trace", default=None)


class Span:
    """One timed stage. ``start`` is a ``perf_counter`` timestamp."""

    __slots__ = ("name", "start", "duration", "children", "meta")

    def __init__(self, name: str, start: float, meta: dict | None = None):
        self.name = name
        self.start = start
        self.duration = 0.0
        self.children: list = []
        self.meta = meta or {}

    def to_dict(self, t0: float) -> dict:
        out = {"name": self.name,
               "start_ms": round((self.start - t0) * 1e3, 3),
               "duration_ms": round(self.duration * 1e3, 3)}
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.to_dict(t0) for c in self.children]
        return out


class Trace:
    """A per-request span tree, safe to record into from any thread."""

    def __init__(self, name: str, trace_id: str | None = None,
                 max_spans: int = 256):
        self.name = name
        self.trace_id = trace_id
        self.meta: dict = {}
        self.max_spans = int(max_spans)
        self.dropped = 0
        self.t0 = perf_counter()
        self._lock = threading.Lock()
        self._spans: list = []   # completed top-level spans
        self._stack: list = []   # open spans, innermost last
        self._n_spans = 0

    # ------------------------------------------------------------------
    def begin(self, name: str, **meta) -> Span:
        """Open a nested span; pair with :meth:`end`."""
        span_ = Span(name, perf_counter(), dict(meta) if meta else None)
        with self._lock:
            self._stack.append(span_)
        return span_

    def end(self, span_: Span) -> None:
        """Close an open span and attach it to its parent."""
        now = perf_counter()
        with self._lock:
            # Defensive unwinding: a span leaked by an exception between
            # begin/end is discarded rather than corrupting the stack.
            while self._stack and self._stack[-1] is not span_:
                self._stack.pop()
            if self._stack:
                self._stack.pop()
            span_.duration = now - span_.start
            self._attach(span_)

    def add_span(self, name: str, start: float, duration: float,
                 children=None, meta: dict | None = None) -> None:
        """Graft a span measured elsewhere under the current open span."""
        span_ = Span(name, start, dict(meta) if meta else None)
        span_.duration = duration
        if children:
            span_.children = list(children)
        with self._lock:
            self._attach(span_)

    def _attach(self, span_: Span) -> None:
        target = self._stack[-1].children if self._stack else self._spans
        if self._n_spans < self.max_spans:
            target.append(span_)
            self._n_spans += 1
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    def spans(self) -> list:
        """Completed top-level spans (shared objects, treat read-only)."""
        with self._lock:
            return list(self._spans)

    def to_dict(self) -> dict:
        with self._lock:
            spans = list(self._spans)
            dropped = self.dropped
        out = {"trace_id": self.trace_id, "name": self.name,
               "spans": [s.to_dict(self.t0) for s in spans]}
        if self.meta:
            out["meta"] = dict(self.meta)
        if dropped:
            out["dropped_spans"] = dropped
        return out


# ----------------------------------------------------------------------
# Context plumbing
# ----------------------------------------------------------------------
def current_trace() -> Trace | None:
    """The active trace of this context, or ``None``."""
    return _CURRENT.get()


def activate(trace: Trace):
    """Set the context's active trace; returns a token for deactivate."""
    return _CURRENT.set(trace)


def deactivate(token) -> None:
    _CURRENT.reset(token)


class _SpanHandle:
    __slots__ = ("_trace", "_span")

    def __init__(self, trace: Trace, span_: Span):
        self._trace = trace
        self._span = span_

    @property
    def span(self) -> Span:
        return self._span

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self._trace.end(self._span)


class _NoopSpan:
    __slots__ = ()
    span = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **meta):
    """Open a timed span on the active trace (no-op when none is active)."""
    trace = _CURRENT.get()
    if trace is None:
        return _NOOP
    return _SpanHandle(trace, trace.begin(name, **meta))


@contextlib.contextmanager
def start_trace(name: str, trace_id: str | None = None, buffer=None,
                max_spans: int = 256, **meta):
    """Activate a fresh :class:`Trace` for the duration of the block.

    On exit the trace is deactivated and, when ``buffer`` (a
    :class:`TraceBuffer`) is given, its rendered dict is appended.
    Yields the live :class:`Trace`.
    """
    trace = Trace(name, trace_id=trace_id, max_spans=max_spans)
    if meta:
        trace.meta.update(meta)
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)
        if buffer is not None:
            buffer.append(trace.to_dict())


class TraceBuffer:
    """Bounded, thread-safe ring buffer of rendered trace dicts."""

    def __init__(self, maxlen: int = 256):
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=int(maxlen))

    def append(self, trace_dict: dict) -> None:
        with self._lock:
            self._traces.append(trace_dict)

    def snapshot(self) -> list:
        """Oldest-first copy of the retained traces."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class SpanTimings:
    """Mergeable ``{stage: (count, total_seconds)}`` accumulator.

    Workers record local timings into one of these and fold them upward
    exactly like ``EngineStats.merge``: accumulation is lock-protected,
    and plain dict snapshots merge as well as instances.
    """

    __slots__ = ("_lock", "_data")

    def __init__(self):
        self._lock = threading.Lock()
        self._data: dict = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            entry = self._data.get(name)
            if entry is None:
                self._data[name] = [count, seconds]
            else:
                entry[0] += count
                entry[1] += seconds

    def merge(self, other) -> "SpanTimings":
        """Fold another accumulator (or its snapshot dict) into this one."""
        items = other.snapshot().items() if isinstance(other, SpanTimings) \
            else dict(other).items()
        with self._lock:
            for name, value in items:
                count = value["count"] if isinstance(value, dict) \
                    else value[0]
                total = value["total_s"] if isinstance(value, dict) \
                    else value[1]
                entry = self._data.get(name)
                if entry is None:
                    self._data[name] = [count, total]
                else:
                    entry[0] += count
                    entry[1] += total
        return self

    def snapshot(self) -> dict:
        with self._lock:
            return {name: {"count": entry[0], "total_s": entry[1]}
                    for name, entry in self._data.items()}

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._data)
