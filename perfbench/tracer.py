"""Spans recorded from outside the program, around calls into its layers.

:class:`Tracer` replaces a class, instance or module attribute with a
wrapper that records one span per call (name, start, end, parent span,
optional row count) and restores the original on :meth:`Tracer.restore`.
Nothing under ``src/`` is changed. Spans stay in memory; a workload
reads totals, counts and rows from them when its run ends.

Small statistics helpers shared by the workloads live here too.
"""

from __future__ import annotations

import statistics
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; one span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, perf_counter(), parent=stack[-1] if stack else None)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def span(self, name: str):
        """Context manager recording one span around a block."""
        tracer = self

        class _Block:
            def __enter__(self):
                self.span = tracer.begin(name)
                return self.span

            def __exit__(self, *exc):
                tracer.end(self.span)

        return _Block()

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, rows=None, after=None):
        """Time every call of ``owner.attr`` as span ``name``.

        ``rows(args, kwargs)`` gives the span's row count; ``after(span,
        result)`` may annotate the span from the return value. A missing
        attribute is skipped, so the benchmark keeps running against a
        program that renamed or removed an entry point; its metrics then
        read zero.
        """
        if not hasattr(owner, attr):
            return False
        # The owner's own entry (None when inherited), so restore puts
        # back exactly what was there.
        raw = vars(owner).get(attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            if rows is not None:
                span.rows = int(rows(args, kwargs))
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(span, result)
            return result

        wrapper.__wrapped__ = func
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def of(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.of(name))

    def count(self, name: str) -> int:
        return len(self.of(name))

    def rows(self, name: str) -> int:
        return sum(s.rows for s in self.of(name))

    def outermost_s(self, name: str) -> float:
        """Total time of ``name`` spans not nested in another ``name``."""
        total = 0.0
        for span in self.of(name):
            parent = span.parent
            while parent is not None and parent.name != name:
                parent = parent.parent
            if parent is None:
                total += span.duration
        return total

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * q // 100))
    return float(values[int(rank) - 1])
