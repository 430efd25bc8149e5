"""Serving metrics on top of the :mod:`repro.obs` registry.

One :class:`ServeMetrics` instance is shared between the asyncio event
loop (request accounting) and the scheduler's executor threads (batch
accounting). Every figure lives in an :class:`~repro.obs.MetricsRegistry`
instrument — the Prometheus ``/metrics`` exposition renders straight
from ``self.registry`` — while :meth:`snapshot` keeps producing the
established JSON object (with a new ``latency`` section) for the JSON
``/metrics`` surface and existing dashboards.

Hot-path discipline: children are resolved once (memoised per endpoint /
status / reason) so the per-event cost is a lock-guarded add, never a
name lookup.
"""

from __future__ import annotations

import threading

from repro.obs import MetricsRegistry

#: Batch-size buckets: powers of two up to the row cap, in rows.
BATCH_ROWS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, float("inf"))


class ServeMetrics:
    """Cumulative serving metrics for one server instance.

    Each server owns its registry by default so several servers booted in
    one test process never cross-pollute; pass a shared registry to
    aggregate.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        reg = self.registry
        self._requests = reg.counter(
            "repro_http_requests_total",
            "HTTP requests accepted, by endpoint.", labelnames=("endpoint",))
        self._responses = reg.counter(
            "repro_http_responses_total",
            "HTTP responses sent, by status code.", labelnames=("status",))
        self._rejected = reg.counter(
            "repro_http_rejected_total",
            "Requests rejected with 429 by queue backpressure.")
        self._http_seconds = reg.histogram(
            "repro_http_request_duration_seconds",
            "End-to-end request latency, by endpoint.",
            labelnames=("endpoint",))
        self._queue_wait_seconds = reg.histogram(
            "repro_queue_wait_seconds",
            "Time a request's rows waited in the microbatch queue.")
        self._batch_execute_seconds = reg.histogram(
            "repro_batch_execute_seconds",
            "Executor time per flushed batch (stack + compute + split).")
        self._batches = reg.counter(
            "repro_microbatch_batches_total",
            "Flushed microbatches, by flush reason.", labelnames=("reason",))
        self._batched_rows = reg.counter(
            "repro_microbatch_rows_total",
            "Rows executed through flushed microbatches.")
        self._batched_requests = reg.counter(
            "repro_microbatch_requests_total",
            "Requests coalesced into flushed microbatches.")
        self._batch_rows_hist = reg.histogram(
            "repro_microbatch_batch_rows",
            "Rows per flushed microbatch.", buckets=BATCH_ROWS_BUCKETS)
        self._queue_rows = reg.gauge(
            "repro_queue_rows", "Rows currently queued for batching.")
        self._queue_rows_peak = reg.gauge(
            "repro_queue_rows_peak", "High-water mark of queued rows.")
        # Model-level serving (uploaded networks / compiled programs).
        self._net_uploads = reg.counter(
            "repro_net_uploads_total",
            "Network uploads, by outcome (compiled/memory_hit/disk_hit).",
            labelnames=("outcome",))
        self._net_requests = reg.counter(
            "repro_net_predict_requests_total",
            "net_predict requests accepted.")
        self._net_rows = reg.counter(
            "repro_net_predict_rows_total",
            "Input rows (images) served through net_predict.")
        self._net_compile_seconds = reg.histogram(
            "repro_net_compile_seconds",
            "Server-side network compile time (rebuild + convert_to_mvm).")
        self._net_layer_execs = reg.counter(
            "repro_net_layer_executions_total",
            "Fused kernel calls: one per MVM layer per flushed net batch.")
        self._net_layer_rows = reg.histogram(
            "repro_net_layer_rows",
            "Rows per MVM-layer execution (cross-request coalescing shows "
            "as rows > 1).", buckets=BATCH_ROWS_BUCKETS)
        # Memoised label children (hot path: one dict hit, no kwargs).
        self._by_endpoint: dict = {}
        self._by_status: dict = {}
        self._by_reason: dict = {}
        self._by_net_outcome: dict = {}
        self._lat_by_endpoint: dict = {}
        # The queue gauge needs read-modify-write for the peak; small
        # dedicated lock rather than abusing an instrument's.
        self._queue_lock = threading.Lock()
        # Exact rows -> batches counts for the legacy JSON histogram.
        self._rows_exact: dict = {}
        self._rows_exact_lock = threading.Lock()

    # ------------------------------------------------------------------
    def record_request(self, endpoint: str) -> None:
        child = self._by_endpoint.get(endpoint)
        if child is None:
            child = self._by_endpoint[endpoint] = \
                self._requests.labels(endpoint=endpoint)
        child.inc()

    def record_response(self, status: int) -> None:
        child = self._by_status.get(status)
        if child is None:
            child = self._by_status[status] = \
                self._responses.labels(status=status)
        child.inc()
        if status == 429:
            self._rejected.inc()

    def observe_http(self, endpoint: str, duration_s: float) -> None:
        child = self._lat_by_endpoint.get(endpoint)
        if child is None:
            child = self._lat_by_endpoint[endpoint] = \
                self._http_seconds.labels(endpoint=endpoint)
        child.observe(duration_s)

    def record_queue_wait(self, duration_s: float) -> None:
        self._queue_wait_seconds.observe(duration_s)

    def record_batch_execute(self, duration_s: float) -> None:
        self._batch_execute_seconds.observe(duration_s)

    def record_batch(self, rows: int, requests: int, reason: str) -> None:
        child = self._by_reason.get(reason)
        if child is None:
            child = self._by_reason[reason] = \
                self._batches.labels(reason=reason)
        child.inc()
        self._batched_rows.inc(rows)
        self._batched_requests.inc(requests)
        self._batch_rows_hist.observe(rows)
        with self._rows_exact_lock:
            self._rows_exact[rows] = self._rows_exact.get(rows, 0) + 1

    def record_net_upload(self, outcome: str) -> None:
        child = self._by_net_outcome.get(outcome)
        if child is None:
            child = self._by_net_outcome[outcome] = \
                self._net_uploads.labels(outcome=outcome)
        child.inc()

    def record_net_compile(self, duration_s: float) -> None:
        self._net_compile_seconds.observe(duration_s)

    def record_net_predict(self, rows: int) -> None:
        self._net_requests.inc()
        self._net_rows.inc(rows)

    def record_net_layers(self, n_layers: int, rows: int) -> None:
        """Account one flushed net batch: ``n_layers`` fused kernel calls,
        each over ``rows`` stacked rows."""
        if n_layers <= 0:
            return
        self._net_layer_execs.inc(n_layers)
        for _ in range(n_layers):
            self._net_layer_rows.observe(rows)

    def record_queue_delta(self, delta_rows: int) -> None:
        with self._queue_lock:
            rows = self._queue_rows._default.value + delta_rows
            self._queue_rows.set(rows)
            if rows > self._queue_rows_peak._default.value:
                self._queue_rows_peak.set(rows)

    # ------------------------------------------------------------------
    @property
    def queue_rows(self) -> int:
        return self._queue_rows._default.value

    @property
    def queue_rows_peak(self) -> int:
        return self._queue_rows_peak._default.value

    # ------------------------------------------------------------------
    @staticmethod
    def _sum_family(family) -> dict:
        return {entry["labels"][family.labelnames[0]]: entry["value"]
                for entry in family.snapshot()["values"]}

    @staticmethod
    def _latency_summary(family) -> dict:
        agg = family.aggregate()
        return {"count": agg["count"],
                "p50_ms": round(agg["p50"] * 1e3, 3),
                "p95_ms": round(agg["p95"] * 1e3, 3),
                "p99_ms": round(agg["p99"] * 1e3, 3),
                "mean_ms": round(
                    agg["sum"] / agg["count"] * 1e3, 3)
                if agg["count"] else 0.0}

    def snapshot(self) -> dict:
        """The JSON ``/metrics`` object (legacy shape + ``latency``)."""
        requests = self._sum_family(self._requests)
        responses = self._sum_family(self._responses)
        reasons = self._sum_family(self._batches)
        batches = sum(reasons.values())
        rows = self._batched_rows._default.value
        batched_requests = self._batched_requests._default.value
        with self._rows_exact_lock:
            rows_exact = dict(self._rows_exact)
        layer_execs = self._net_layer_execs._default.value
        layer_rows_agg = self._net_layer_rows.aggregate()
        return {
            "requests": requests,
            "responses": responses,
            "rejected": self._rejected._default.value,
            "microbatch": {
                "batches": batches,
                "rows": rows,
                "requests": batched_requests,
                "mean_rows_per_batch": (rows / batches if batches else 0.0),
                "mean_requests_per_batch": (
                    batched_requests / batches if batches else 0.0),
                "rows_histogram": {
                    str(k): v for k, v in sorted(rows_exact.items())},
                "flush_reasons": reasons,
            },
            "queue": {
                "rows": self.queue_rows,
                "rows_peak": self.queue_rows_peak,
            },
            "net": {
                "uploads": self._sum_family(self._net_uploads),
                "requests": self._net_requests._default.value,
                "rows": self._net_rows._default.value,
                "layer_executions": layer_execs,
                "mean_layer_rows": (
                    layer_rows_agg["sum"] / layer_execs
                    if layer_execs else 0.0),
            },
            "latency": {
                "http": self._latency_summary(self._http_seconds),
                "queue_wait": self._latency_summary(
                    self._queue_wait_seconds),
                "batch_execute": self._latency_summary(
                    self._batch_execute_seconds),
            },
        }
