"""Observability over live HTTP: traces, Prometheus export, access logs.

Boots one real server (random port, background thread) with a tiny
fast-to-train GENIEx model and inspects the telemetry the serving stack
produces for real traffic: the nested span tree of a request, latency
histograms in both JSON and Prometheus text exposition, the trace debug
endpoint, the structured access log, and the queue-gauge rollback on
scheduler exception paths.
"""

import asyncio
import logging
import time

import numpy as np
import pytest

from repro.api.spec import EmulationSpec
from repro.core.zoo import GeniexZoo
from repro.obs.prometheus import CONTENT_TYPE
from repro.serve.client import ServeClient
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MicrobatchScheduler
from repro.serve.server import EmulationServer, ServerThread

SPEC = EmulationSpec.from_dict({
    "engine": "geniex", "xbar": {"rows": 4, "cols": 4},
    "emulator": {
        "sampling": {"n_g_matrices": 3, "n_v_per_g": 4, "seed": 0},
        "training": {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": 0}}})


class _RecordingHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    server = EmulationServer(ModelRegistry(zoo), max_batch_rows=16)
    with ServerThread(server) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            client.load_model(SPEC)
            weights = (np.random.default_rng(3)
                       .standard_normal((4, 4)) * 0.3)
            weights_key = client.register_weights(SPEC, weights)
            yield handle, weights_key


@pytest.fixture
def client(served):
    handle, _ = served
    with ServeClient("127.0.0.1", handle.port) as c:
        yield c


def _wait_idle(server, timeout_s=10.0):
    """Wait until ``server`` has no request in flight.

    The server logs a request after its response is written, so a client
    can hold the response before the access line exists."""
    deadline = time.monotonic() + timeout_s
    while server._inflight:
        assert time.monotonic() < deadline, "server never went idle"
        time.sleep(0.005)


def _span_index(spans, index=None):
    """Flatten a span tree into ``{name: span_dict}`` (last wins)."""
    if index is None:
        index = {}
    for s in spans:
        index[s["name"]] = s
        _span_index(s.get("children", []), index)
    return index


class TestRequestTracing:
    def test_matmul_trace_has_four_nested_stages(self, served, client):
        _, weights_key = served
        x = np.random.default_rng(5).standard_normal((3, 4))
        client.matmul(x, weights_key=weights_key)
        traces = [t for t in client.traces()
                  if t["name"] == "POST /v1/matmul"]
        assert traces, "matmul request left no trace"
        trace = traces[-1]
        assert trace["trace_id"].startswith("req-")
        assert trace["meta"]["status"] == 200
        assert trace["meta"]["rows"] == 3

        spans = _span_index(trace["spans"])
        for stage in ("http", "queue-wait", "batch-execute",
                      "engine-compute"):
            assert stage in spans, f"missing {stage} span"
        # Nesting: queue-wait and batch-execute under http, the engine
        # compute under batch-execute.
        http = spans["http"]
        child_names = [c["name"] for c in http["children"]]
        assert "queue-wait" in child_names
        assert "batch-execute" in child_names
        batch = spans["batch-execute"]
        assert "engine-compute" in [c["name"] for c in batch["children"]]

        # Durations must be consistent: queue-wait ends where
        # batch-execute starts, and both fit inside the http span
        # (0.1 ms slack for rounding).
        slack = 0.1
        assert spans["queue-wait"]["duration_ms"] \
            + batch["duration_ms"] <= http["duration_ms"] + slack
        assert spans["engine-compute"]["duration_ms"] \
            <= batch["duration_ms"] + slack
        assert abs(http["duration_ms"] - trace["meta"]["duration_ms"]) \
            <= slack

    def test_trace_buffer_is_bounded(self, served):
        handle, _ = served
        assert handle.server.traces._traces.maxlen == 256

    def test_tracing_can_be_disabled(self, tmp_path):
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        server = EmulationServer(ModelRegistry(zoo), tracing=False)
        with ServerThread(server) as handle:
            with ServeClient("127.0.0.1", handle.port) as c:
                assert c.health() == {"status": "ok"}
                assert c.traces() == []


class TestMetricsExport:
    def test_json_remains_the_default(self, client):
        client.health()
        metrics = client.metrics()
        for key in ("requests", "responses", "microbatch", "queue",
                    "latency", "registry"):
            assert key in metrics
        lat = metrics["latency"]["http"]
        assert lat["count"] >= 1
        assert 0.0 <= lat["p50_ms"] <= lat["p99_ms"]

    def test_prometheus_negotiated_by_accept_header(self, served, client):
        _, weights_key = served
        client.matmul(np.ones((2, 4)), weights_key=weights_key)
        text = client.prometheus_metrics()
        for family in (
            "repro_http_requests_total",
            "repro_http_responses_total",
            "repro_http_request_duration_seconds_bucket",
            "repro_http_request_duration_seconds_sum",
            "repro_http_request_duration_seconds_count",
            "repro_queue_wait_seconds_bucket",
            "repro_batch_execute_seconds_bucket",
            "repro_microbatch_rows_total",
            "repro_queue_rows",
            "repro_registry_cache_size",
            "repro_engine_events",
            "repro_zoo_requests_total",
        ):
            assert family in text, f"missing {family}"
        assert 'endpoint="POST /v1/matmul"' in text
        assert '_bucket{le="+Inf"}' in text
        assert text.endswith("\n")
        # TYPE lines are well-formed for every family.
        for line in text.splitlines():
            if line.startswith("# TYPE"):
                assert line.split()[-1] in ("counter", "gauge", "histogram")

    def test_prometheus_content_type(self, served):
        handle, _ = served
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=30)
        try:
            conn.request("GET", "/metrics",
                         headers={"Accept": "text/plain"})
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Content-Type") == CONTENT_TYPE
        finally:
            conn.close()

    def test_unknown_paths_share_latency_label(self, served, client):
        handle, _ = served
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                          timeout=30)
        try:
            conn.request("GET", "/scanned/by/bots")
            conn.getresponse().read()
        finally:
            conn.close()
        text = client.prometheus_metrics()
        assert 'endpoint="other"' in text
        assert "/scanned/by/bots" not in text


class TestAccessLog:
    def test_one_structured_line_per_request(self, served, client):
        handle, _ = served
        handler = _RecordingHandler()
        access = logging.getLogger("repro.serve.access")
        level = access.level
        # An earlier test's request may still be logging.
        _wait_idle(handle.server)
        access.addHandler(handler)
        access.setLevel(logging.INFO)
        try:
            client.health()
            _wait_idle(handle.server)
        finally:
            access.removeHandler(handler)
            access.setLevel(level)
        lines = [r.getMessage() for r in handler.records]
        assert len(lines) == 1
        line = lines[0]
        assert 'endpoint="GET /healthz"' in line
        assert "status=200" in line
        assert "rows=0" in line
        assert "id=" in line and "duration_ms=" in line


class TestQueueGaugeRollback:
    def test_queue_rows_rolls_back_when_flush_fails(self):
        """A failed batch launch must not leave the queue_rows gauge
        stuck above zero (satellite fix: exception paths reverse the
        enqueue delta)."""

        class ExplodingMetrics(ServeMetrics):
            def record_batch(self, rows, requests, reason):
                raise RuntimeError("metrics backend down")

        async def main():
            metrics = ExplodingMetrics()
            scheduler = MicrobatchScheduler(max_batch_rows=1,
                                            metrics=metrics)
            with pytest.raises(RuntimeError, match="metrics backend down"):
                # One row >= max_batch_rows: the failing flush triggers
                # synchronously inside submit.
                await scheduler.submit("k", np.ones((1, 4)),
                                       lambda batch: batch)
            assert scheduler.queue_rows == 0
            assert metrics.queue_rows == 0
            assert "k" not in scheduler._queues
            # The scheduler stays usable for later traffic.
            metrics2 = ServeMetrics()
            scheduler.metrics = metrics2
            out = await scheduler.submit("k", np.ones((1, 4)),
                                         lambda batch: batch * 2)
            assert np.array_equal(out, np.full((1, 4), 2.0))
            assert metrics2.queue_rows == 0
            await scheduler.close()

        asyncio.run(main())


class TestBlasProbeExport:
    def test_failed_probe_reported(self, monkeypatch, client):
        """A shape class pinned to einsum shows up in the JSON
        ``/metrics`` and as the ``repro_blas_einsum_classes`` gauge."""
        from repro.utils import numerics

        monkeypatch.setattr(numerics, "_blas_invariant", {})
        monkeypatch.setattr(numerics, "_probe_blas_row_invariance",
                            lambda *args: False)
        rng = np.random.default_rng(0)
        numerics.batch_invariant_matmul(
            rng.normal(size=(3, 7)).astype(np.float32),
            rng.normal(size=(7, 5)).astype(np.float32))
        probe = client.metrics()["blas_probe"]
        assert probe["einsum_classes"] == ["7x5:ff"]
        assert probe["classes"] >= 1
        text = client.prometheus_metrics()
        assert "repro_blas_einsum_classes 1" in text.splitlines()
        monkeypatch.setattr(numerics, "_blas_invariant", {})
        assert client.metrics()["blas_probe"] == {"classes": 0,
                                                  "einsum_classes": []}
