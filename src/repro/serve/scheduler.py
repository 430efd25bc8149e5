"""Dynamic microbatching: coalesce concurrent requests into large batches.

The batched solve pipeline (PR 1) made one ``(64, rows)`` call ~80x cheaper
than 64 ``(1, rows)`` calls, but a serving front-end receives those 64
vectors as *independent concurrent requests*. The scheduler closes that gap:
requests queue per *key* — one key per (endpoint, programmed crossbar) or
(endpoint, prepared engine) — and a queue is flushed into a single batched
model call when either

* a request arrives while the key is idle (no batch in flight) and a
  worker is free: it flushes at once, as a *full* flush when it brings
  ``max_batch_rows`` or more and an *idle* flush otherwise, so a lone
  request never waits for peers that may not come, or
* a batch finishes — the key's own, or, when every worker is busy, any
  key's — while requests are queued (*completion* flush — continuous
  batching): arrivals during an in-flight batch, or while the workers
  serve other keys, accumulate and flush as one batch (up to
  ``max_batch_rows``) the moment a worker can run it, so the effective
  batch size adapts itself to the offered load. Keys waiting for a
  worker are served in arrival order. Under load every batch is a
  completion flush; idle keys pay no coalescing delay.

Per-key isolation is structural: a key's batches only ever contain rows for
that key, so a slow model cannot delay another model's flushes and results
can never be served across keys.

Backpressure: each key bounds its pending rows at ``max_queue_rows``;
beyond it ``submit`` raises :class:`QueueFullError`, which the HTTP layer
maps to 429. The bound is per key so one hot model saturating its queue
does not reject traffic for cold models.

Batch functions run on a small thread-pool executor (default one worker),
keeping the event loop free to accept requests while NumPy works. At most
one batch per key is in flight at any time — tile models, engine stats and
solver factorisations are not thread-safe — so ``max_workers > 1``
parallelises across *different* keys only, and is always safe.

Tracing: ``submit`` captures the caller's active :class:`~repro.obs.Trace`
with each queued request. When a batch flushes, every traced request gets
a ``queue-wait`` span (enqueue → flush) and a ``batch-execute`` span
(flush → result). Because ``run_in_executor`` does not propagate
contextvars, the executor callable activates a private collector trace
around ``batch_fn``; whatever spans the model records (engine-compute,
tile shards) are grafted as ``batch-execute`` children into *every*
request of the batch — the compute genuinely served them all.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.obs import Trace, activate, current_trace, deactivate
from repro.serve.metrics import ServeMetrics


class QueueFullError(ReproError, RuntimeError):
    """A per-key request queue is at capacity (backpressure)."""


class _KeyQueue:
    """Pending requests of one scheduling key."""

    __slots__ = ("items", "n_rows", "inflight", "waiting")

    def __init__(self):
        self.items = deque()     # (rows, batch_fn, future, trace, t_enq)
        self.n_rows = 0
        self.inflight = 0        # batches launched but not yet completed
        self.waiting = False     # listed in the scheduler's worker queue


class MicrobatchScheduler:
    """Per-key dynamic microbatching over batched NumPy model calls."""

    def __init__(self, *, max_batch_rows: int = 64,
                 max_queue_rows: int = 4096,
                 max_workers: int = 1,
                 metrics: ServeMetrics | None = None):
        if max_batch_rows < 1:
            raise ConfigError("max_batch_rows must be >= 1")
        if max_queue_rows < max_batch_rows:
            raise ConfigError("max_queue_rows must be >= max_batch_rows")
        if max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        self.max_batch_rows = int(max_batch_rows)
        self.max_queue_rows = int(max_queue_rows)
        self.max_workers = int(max_workers)
        self.metrics = metrics or ServeMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve-batch")
        self._queues: dict = {}
        self._inflight: set = set()
        self._running = 0          # launched batches not yet completed
        self._waiting = deque()    # keys with queued rows, awaiting a worker
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def queue_rows(self) -> int:
        """Total rows currently queued across all keys."""
        return sum(q.n_rows for q in self._queues.values())

    def queue_depths(self) -> dict:
        """Pending rows per key (diagnostic view for ``/metrics``)."""
        return {str(key): q.n_rows for key, q in self._queues.items()
                if q.n_rows}

    # ------------------------------------------------------------------
    async def submit(self, key, rows: np.ndarray, batch_fn) -> np.ndarray:
        """Queue ``rows`` (``(b, n)``) under ``key`` and await the result.

        ``batch_fn`` maps a stacked ``(B, n)`` array to a ``(B, m)`` array;
        all submitters of one key must pass an equivalent function (the
        registry guarantees this by deriving the key from the model
        identity). Returns this request's ``(b, m)`` slice of the batched
        result. Raises :class:`QueueFullError` when the key's queue is full.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        rows = np.atleast_2d(np.asarray(rows))
        n_rows = rows.shape[0]
        if n_rows > self.max_queue_rows:
            # Permanently too large — no amount of retrying can ever fit
            # it, so this must not look like transient backpressure.
            raise ConfigError(
                f"request of {n_rows} rows exceeds the queue capacity "
                f"({self.max_queue_rows}); split it into smaller batches")
        queue = self._queues.get(key)
        pending = queue.n_rows if queue is not None else 0
        if pending + n_rows > self.max_queue_rows:
            # Reject before registering anything: a bounced request on a
            # fresh key must not leave an empty queue entry behind.
            raise QueueFullError(
                f"queue for key {key!r} is full "
                f"({pending} rows pending, limit "
                f"{self.max_queue_rows}); retry later")
        if queue is None:
            queue = self._queues[key] = _KeyQueue()
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        trace = current_trace()
        if trace is not None:
            trace.meta["rows"] = trace.meta.get("rows", 0) + n_rows
        entry = (rows, batch_fn, future, trace, perf_counter())
        queue.items.append(entry)
        queue.n_rows += n_rows
        self.metrics.record_queue_delta(n_rows)
        try:
            # An idle key flushes at once if a worker is free. Otherwise
            # arrivals accumulate and flush the moment a worker can run
            # them (continuous batching).
            if queue.inflight == 0 and not queue.waiting:
                if self._running < self.max_workers:
                    self._drain_key(
                        key, queue,
                        "full" if queue.n_rows >= self.max_batch_rows
                        else "idle")
                else:
                    self._wait_for_worker(key, queue)
        except BaseException:
            self._rollback_submit(key, queue, entry, n_rows)
            raise
        return await future

    def _rollback_submit(self, key, queue: _KeyQueue, entry,
                         n_rows: int) -> None:
        """Undo one enqueue after a failed flush trigger.

        Keeps the ``queue_rows`` gauge truthful: the +delta recorded on
        enqueue is reversed iff the entry is still queued (an entry
        already taken into a batch had its delta reversed by the take).
        """
        # Identity scan, not ``in``: entries hold numpy arrays, whose
        # ``==`` is elementwise and would poison tuple comparison.
        for i, item in enumerate(queue.items):
            if item is entry:
                del queue.items[i]
                queue.n_rows -= n_rows
                self.metrics.record_queue_delta(-n_rows)
                break
        future = entry[2]
        if future.done() and not future.cancelled():
            # The failed drain may have parked the error on the future;
            # submit re-raises it directly, so mark it retrieved.
            future.exception()
        if not queue.items and queue.inflight == 0:
            self._queues.pop(key, None)

    # ------------------------------------------------------------------
    def _wait_for_worker(self, key, queue: _KeyQueue) -> None:
        queue.waiting = True
        self._waiting.append(key)

    def _dispatch_waiting(self) -> None:
        """Flush waiting keys, in arrival order, onto free workers."""
        while self._waiting and self._running < self.max_workers:
            key = self._waiting.popleft()
            queue = self._queues.get(key)
            if queue is None or not queue.waiting:
                continue   # the key's requests were withdrawn meanwhile
            queue.waiting = False
            self._drain_key(key, queue,
                            "drain" if self._closed else "completion")

    def _drain_key(self, key, queue: _KeyQueue, reason: str) -> None:
        """Launch the key's next batch, unless one is in flight.

        The batch takes the queued requests in order, partial tail
        included, up to ``max_batch_rows``; leftover rows (a request
        straddling the batch boundary keeps its rows together) flush when
        it completes. ``reason`` labels the flush in the metrics.
        """
        # At most ONE batch of a key is ever in flight: tile models, engine
        # stats and solver factorisations are not thread-safe, so with
        # ``max_workers > 1`` concurrent flushes of the same key would race
        # on shared state. Surplus batches launch from the completion
        # cascade instead; different keys still run in parallel.
        if not queue.items or queue.inflight:
            return
        batch, batch_rows = self._take_batch(queue)
        self.metrics.record_queue_delta(-batch_rows)
        try:
            self.metrics.record_batch(batch_rows, len(batch), reason)
            task = asyncio.get_running_loop().create_task(
                self._run_batch(key, queue, batch, batch_rows, reason))
        except BaseException as exc:
            # The rows already left the queue (and the gauge); the batch
            # can no longer run, so its futures must fail rather than
            # hang, and an emptied queue must not leak.
            for _, _, future, _, _ in batch:
                if not future.done():
                    future.set_exception(
                        exc if isinstance(exc, Exception)
                        else RuntimeError(f"batch launch failed: {exc}"))
            if not queue.items:
                self._queues.pop(key, None)
            raise
        queue.inflight += 1
        self._running += 1
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _take_batch(self, queue: _KeyQueue):
        """Pop whole requests greedily up to ``max_batch_rows``.

        Requests are never split across flushes — a batched result must be
        computed from one contiguous stacked call for the response to be a
        pure slice of it — so a single oversized request (rows >
        ``max_batch_rows``) forms a batch of its own.
        """
        batch = []
        batch_rows = 0
        while queue.items:
            rows = queue.items[0][0].shape[0]
            if batch and batch_rows + rows > self.max_batch_rows:
                break
            batch.append(queue.items.popleft())
            batch_rows += rows
        queue.n_rows -= batch_rows
        return batch, batch_rows

    async def _run_batch(self, key, queue: _KeyQueue, batch,
                         batch_rows: int, reason: str) -> None:
        batch_fn = batch[0][1]
        loop = asyncio.get_running_loop()
        t_flush = perf_counter()
        traced = False
        for _, _, _, trace, t_enq in batch:
            wait_s = t_flush - t_enq
            self.metrics.record_queue_wait(wait_s)
            if trace is not None:
                traced = True
                trace.add_span("queue-wait", t_enq, wait_s)
        collected: list = []
        if traced:
            # contextvars do not cross run_in_executor: activate a fresh
            # collector trace on the worker thread, and graft whatever the
            # model records (engine-compute, shards) into every request.
            def fn(stacked, _fn=batch_fn):
                collector = Trace("batch-execute", max_spans=64)
                token = activate(collector)
                try:
                    return _fn(stacked)
                finally:
                    deactivate(token)
                    collected.extend(collector.spans())
        else:
            fn = batch_fn
        try:
            try:
                # Stacking stays inside the guard: if it fails (e.g.
                # MemoryError) the futures must still resolve and the
                # inflight count must still drop.
                arrays = [rows for rows, _, _, _, _ in batch]
                stacked = arrays[0] if len(arrays) == 1 \
                    else np.concatenate(arrays)
                result = await loop.run_in_executor(self._executor, fn,
                                                    stacked)
                result = np.asarray(result)
                if result.shape[0] != batch_rows:
                    raise RuntimeError(
                        f"batch function returned {result.shape[0]} rows "
                        f"for a {batch_rows}-row batch")
            except Exception as exc:
                for _, _, future, _, _ in batch:
                    if not future.done():
                        future.set_exception(exc)
                return
            offset = 0
            for rows, _, future, _, _ in batch:
                n = rows.shape[0]
                if not future.done():
                    future.set_result(result[offset:offset + n])
                offset += n
        finally:
            t_done = perf_counter()
            self.metrics.record_batch_execute(t_done - t_flush)
            for _, _, _, trace, _ in batch:
                if trace is not None:
                    trace.add_span(
                        "batch-execute", t_flush, t_done - t_flush,
                        children=collected,
                        meta={"rows": batch_rows, "requests": len(batch),
                              "reason": reason})
            queue.inflight -= 1
            self._running -= 1
            if queue.items:
                # Requests that arrived (or were left over) while this
                # batch was computing have waited at least one batch's
                # latency: they flush at whatever size accumulated, after
                # the keys already waiting for a worker.
                self._wait_for_worker(key, queue)
            elif queue.inflight == 0:
                self._queues.pop(key, None)
            # During shutdown the cascade continues as "drain", so close()
            # empties every queue one batch at a time.
            self._dispatch_waiting()

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Flush every pending queue, await in-flight batches, shut down."""
        if self._closed:
            return
        self._closed = True
        self._dispatch_waiting()
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)
