"""The asyncio HTTP front-end of the emulation service.

Stdlib-only: connections are handled with :func:`asyncio.start_server` and
a minimal HTTP/1.1 parser (request line, headers, ``Content-Length`` body,
keep-alive). Every response is JSON.

Endpoints
---------

===========================  ========================================
``GET  /healthz``            liveness probe
``GET  /metrics``            serving metrics — JSON by default, Prometheus
                             text exposition when the ``Accept`` header
                             asks for ``text/plain`` / openmetrics
``GET  /v1/debug/traces``    ring buffer of recent request traces
                             (nested per-stage spans)
``GET  /v1/models``          warm models in the registry
``POST /v1/models``          train/load a model spec into the registry
``POST /v1/crossbars``       program a conductance matrix, returns
                             ``crossbar_key`` for cheap later requests
``POST /v1/predict_fr``      distortion ratios fR for voltage vector(s)
``POST /v1/predict_currents``  non-ideal currents for voltage vector(s)
``POST /v1/weights``         prepare an MVM engine for a weight matrix,
                             returns ``weights_key``
``POST /v1/matmul``          full bit-sliced crossbar matmul
``POST /v1/mitigate``        run a spec's mitigation recipe on a dataset
                             handle, returns ``mitigated_key`` + metrics
``POST /v1/mitigated_predict``  logits from a warm mitigated model
``POST /v1/nets``            upload a serialized ``repro.nn`` model +
                             spec; compiles it into a cached
                             converted network, returns ``net_key``
``POST /v1/net_predict``     whole-network logits from a warm compiled
                             net; concurrent requests share one fused
                             kernel call per layer (``stream: true``
                             chunks the response as NDJSON)
===========================  ========================================

Every ``POST /v1/*`` body that names a model may either carry the flat
``"model"``/``"engine"``/``"sim"`` wire objects or a single ``"spec"``
object — a full declarative :class:`repro.api.spec.EmulationSpec` in its
``to_dict()`` shape (what ``python -m repro spec`` prints). Both paths
resolve and cache through the same spec digests, and both accept a
``nonideality`` fault composition (inside the spec, or as a
``"nonideality"`` key of the flat model object) — faulty setups are
keyed apart from clean ones at every warm tier, so a clean request can
never be answered from a perturbed engine or vice versa.

Prediction and matmul requests are coalesced per warm object by the
:class:`MicrobatchScheduler`; a full queue surfaces as HTTP 429 with a
``Retry-After`` hint. Error mapping: protocol/shape/config problems are
400, unknown registry keys 404, backpressure 429, everything else 500.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import threading
from time import perf_counter

import numpy as np

from repro.errors import ConfigError, ReproError, ShapeError
from repro.obs import Trace, TraceBuffer, activate, deactivate, span
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.serve.httpio import REASONS as _REASONS
from repro.serve.httpio import PayloadTooLarge as _PayloadTooLarge
from repro.serve.httpio import read_request
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (ProtocolError, decode_array, encode_array,
                                  parse_emulation_spec, parse_engine_kind,
                                  parse_mitigate_request, parse_model_spec,
                                  parse_net_predict, parse_net_upload,
                                  parse_sim_config, reject_mixed_identity)
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MicrobatchScheduler, QueueFullError

_log = logging.getLogger("repro.serve")
_access_log = logging.getLogger("repro.serve.access")


class RawResponse:
    """A non-JSON handler result: pre-encoded body + its content type."""

    __slots__ = ("content_type", "body")

    def __init__(self, content_type: str, body: bytes):
        self.content_type = content_type
        self.body = body


class StreamingResponse:
    """A handler result streamed as chunked NDJSON.

    ``gen`` is an async generator of JSON-encodable payloads; the HTTP
    layer writes each as one line inside a ``Transfer-Encoding:
    chunked`` body. An exception mid-stream becomes a final
    ``{"error": ...}`` line and closes the connection (the 200 status
    line is already on the wire by then).
    """

    __slots__ = ("gen",)

    def __init__(self, gen):
        self.gen = gen


class _NotFound(ReproError, KeyError):
    """A referenced registry key is unknown (HTTP 404)."""


class EmulationServer:
    """Asyncio HTTP server wiring registry + scheduler + metrics."""

    # Bodies above this size have their JSON parse/encode offloaded to the
    # executor: a multi-MB matrix decoded on the event loop would stall
    # every flush-deadline timer and connection for its duration.
    OFFLOAD_BYTES = 256 * 1024

    def __init__(self, registry: ModelRegistry | None = None, *,
                 max_batch_rows: int = 64, flush_deadline_s: float = 0.002,
                 max_queue_rows: int = 4096, max_workers: int = 1,
                 max_body_bytes: int = 32 * 1024 * 1024,
                 idle_timeout_s: float = 120.0,
                 tracing: bool = True, trace_buffer_size: int = 256,
                 slow_request_s: float = 1.0):
        self.registry = registry or ModelRegistry()
        self.metrics = ServeMetrics()
        self.metrics.registry.register_collector(self.registry.obs_families)
        self.scheduler = MicrobatchScheduler(
            max_batch_rows=max_batch_rows,
            flush_deadline_s=flush_deadline_s,
            max_queue_rows=max_queue_rows,
            max_workers=max_workers,
            metrics=self.metrics)
        self.max_body_bytes = int(max_body_bytes)
        self.idle_timeout_s = float(idle_timeout_s)
        self.tracing = bool(tracing)
        self.slow_request_s = float(slow_request_s)
        self.traces = TraceBuffer(trace_buffer_size)
        self._request_ids = itertools.count(1)
        self.host = None
        self.port = None
        self._server = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._routes = {
            ("GET", "/healthz"): self._get_healthz,
            ("GET", "/metrics"): self._get_metrics,
            ("GET", "/v1/debug/traces"): self._get_traces,
            ("GET", "/v1/debug/obs"): self._get_obs,
            ("GET", "/v1/models"): self._get_models,
            ("POST", "/v1/models"): self._post_models,
            ("POST", "/v1/crossbars"): self._post_crossbars,
            ("POST", "/v1/predict_fr"): self._post_predict_fr,
            ("POST", "/v1/predict_currents"): self._post_predict_currents,
            ("POST", "/v1/weights"): self._post_weights,
            ("POST", "/v1/matmul"): self._post_matmul,
            ("POST", "/v1/mitigate"): self._post_mitigate,
            ("POST", "/v1/mitigated_predict"): self._post_mitigated_predict,
            ("POST", "/v1/nets"): self._post_nets,
            ("POST", "/v1/net_predict"): self._post_net_predict,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting; ``port=0`` picks a free port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        _log.info("listening on http://%s:%s", self.host, self.port)

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    async def drain(self, grace_s: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        New connections are refused immediately (the listener closes);
        requests already being processed get up to ``grace_s`` seconds to
        complete and are answered normally. Idle keep-alive connections
        are not waited for — only requests that have been read count.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        try:
            await asyncio.wait_for(self._idle.wait(), grace_s)
        except TimeoutError:
            _log.warning("drain grace of %.1fs expired with %d "
                         "request(s) still in flight", grace_s,
                         self._inflight)
        await self.scheduler.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        pending = False
        try:
            while True:
                try:
                    # The idle timeout bounds how long a silent or stalled
                    # client may pin this handler and its socket; a client
                    # whose keep-alive connection is reaped mid-send sees
                    # a clean close and reconnects.
                    request = await asyncio.wait_for(
                        self._read_request(reader), self.idle_timeout_s)
                except TimeoutError:
                    break
                except _PayloadTooLarge as exc:
                    # The body was never read, so the connection cannot be
                    # reused — but the client deserves to learn the limit.
                    self.metrics.record_response(413)
                    data = json.dumps({"error": str(exc)}).encode()
                    writer.write(
                        (f"HTTP/1.1 413 {_REASONS[413]}"
                         f"\r\nContent-Type: application/json"
                         f"\r\nContent-Length: {len(data)}"
                         f"\r\nConnection: close\r\n\r\n").encode() + data)
                    await writer.drain()
                    break
                except ValueError:
                    # Oversized request line/headers (StreamReader converts
                    # LimitOverrunError to ValueError) or a malformed
                    # Content-Length: drop the connection.
                    break
                if request is None:
                    break
                method, path, body, keep_alive, headers = request
                if self._draining:
                    # Requests already on a keep-alive connection are still
                    # answered during the grace window, but the connection
                    # closes after so the client moves elsewhere.
                    keep_alive = False
                self._inflight += 1
                self._idle.clear()
                pending = True
                endpoint = f"{method} {path}"
                rid = next(self._request_ids)
                t0 = perf_counter()
                trace = token = http_span = None
                if self.tracing:
                    trace = Trace(endpoint, trace_id=f"req-{rid}")
                    token = activate(trace)
                    http_span = trace.begin("http")
                try:
                    status, payload = await self._dispatch(
                        method, path, body, headers)
                finally:
                    if trace is not None:
                        trace.end(http_span)
                        deactivate(token)
                duration_s = perf_counter() - t0
                self.metrics.record_response(status)
                # Unknown paths share one latency label so a URL scanner
                # cannot blow up the endpoint cardinality.
                known = (method, path) in self._routes
                self.metrics.observe_http(
                    endpoint if known else "other", duration_s)
                rows = 0
                if trace is not None:
                    rows = trace.meta.get("rows", 0)
                    trace.meta["endpoint"] = endpoint
                    trace.meta["status"] = status
                    trace.meta["duration_ms"] = round(duration_s * 1e3, 3)
                    self.traces.append(trace.to_dict())
                _access_log.info(
                    'id=%d endpoint="%s" status=%d rows=%d '
                    'duration_ms=%.3f', rid, endpoint, status, rows,
                    duration_s * 1e3)
                if duration_s >= self.slow_request_s:
                    stages = ""
                    if trace is not None and http_span.children:
                        stages = " stages: " + ", ".join(
                            f"{child.name}={child.duration * 1e3:.1f}ms"
                            for child in http_span.children)
                    _log.warning(
                        "slow request id=%d endpoint=%s status=%d "
                        "duration_ms=%.1f%s", rid, endpoint, status,
                        duration_s * 1e3, stages)
                if isinstance(payload, StreamingResponse):
                    ok = await self._write_stream(writer, status, payload,
                                                  keep_alive)
                    pending = False
                    self._request_done()
                    if not keep_alive or not ok:
                        break
                    continue
                if isinstance(payload, RawResponse):
                    content_type = payload.content_type
                    data = payload.body
                elif len(body) > self.OFFLOAD_BYTES:
                    # Big request -> likely big response: encode off-loop
                    # so deadline timers and other connections keep moving.
                    content_type = "application/json"
                    data = await asyncio.get_running_loop().run_in_executor(
                        None, lambda: json.dumps(payload).encode())
                else:
                    content_type = "application/json"
                    data = json.dumps(payload).encode()
                connection = "keep-alive" if keep_alive else "close"
                head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}"
                        f"\r\nContent-Type: {content_type}"
                        f"\r\nContent-Length: {len(data)}"
                        f"\r\nConnection: {connection}")
                if status == 429:
                    head += "\r\nRetry-After: 1"
                writer.write(head.encode() + b"\r\n\r\n" + data)
                await writer.drain()
                pending = False
                self._request_done()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection handlers; treat
            # it as a normal close instead of surfacing a stack trace.
            pass
        finally:
            if pending:
                self._request_done()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _request_done(self) -> None:
        self._inflight -= 1
        if self._inflight <= 0:
            self._idle.set()

    async def _write_stream(self, writer: asyncio.StreamWriter, status: int,
                            payload: StreamingResponse,
                            keep_alive: bool) -> bool:
        """Write a chunked NDJSON body; returns False if the connection
        must close (an error surfaced after the status line went out)."""
        connection = "keep-alive" if keep_alive else "close"
        writer.write(
            (f"HTTP/1.1 {status} {_REASONS.get(status, 'Error')}"
             f"\r\nContent-Type: application/x-ndjson"
             f"\r\nTransfer-Encoding: chunked"
             f"\r\nConnection: {connection}\r\n\r\n").encode())
        ok = True
        try:
            async for item in payload.gen:
                line = json.dumps(item).encode() + b"\n"
                writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:
            # Too late for an error status: emit a terminal error line so
            # the client fails loudly, then close the connection.
            ok = False
            line = json.dumps(
                {"error": f"{type(exc).__name__}: {exc}"}).encode() + b"\n"
            writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        writer.write(b"0\r\n\r\n")
        await writer.drain()
        return ok

    async def _read_request(self, reader: asyncio.StreamReader):
        return await read_request(reader, self.max_body_bytes)

    async def _dispatch(self, method: str, path: str, body: bytes,
                        headers: dict):
        handler = self._routes.get((method, path))
        if handler is None:
            if any(p == path for (_, p) in self._routes):
                return 405, {"error": f"method {method} not allowed "
                                      f"for {path}"}
            return 404, {"error": f"unknown endpoint {path}"}
        self.metrics.record_request(f"{method} {path}")
        try:
            if method == "POST":
                try:
                    if len(body) > self.OFFLOAD_BYTES:
                        loop = asyncio.get_running_loop()
                        parsed = await loop.run_in_executor(
                            None, json.loads, body)
                    else:
                        parsed = json.loads(body.decode() or "{}")
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ProtocolError(f"invalid JSON body: {exc}") from exc
                if not isinstance(parsed, dict):
                    raise ProtocolError("request body must be a JSON object")
                return 200, await handler(parsed)
            return 200, await handler(headers)
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except _NotFound as exc:
            return 404, {"error": str(exc.args[0])}
        except (ProtocolError, ShapeError, ConfigError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive 500 path
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _get_healthz(self, headers: dict) -> dict:
        return {"status": "ok"}

    @staticmethod
    def _wants_prometheus(headers: dict) -> bool:
        accept = headers.get("accept", "").lower()
        return ("text/plain" in accept or "openmetrics" in accept
                or "prometheus" in accept)

    async def _get_metrics(self, headers: dict):
        if self._wants_prometheus(headers):
            # Prometheus text exposition straight off the obs registry
            # (instrument families + registry/zoo/engine collectors).
            text = render_prometheus(self.metrics.registry.snapshot())
            return RawResponse(_PROM_CONTENT_TYPE, text.encode())
        snapshot = self.metrics.snapshot()
        snapshot["queue"]["per_key"] = self.scheduler.queue_depths()
        snapshot["registry"] = self.registry.stats()
        return snapshot

    async def _get_traces(self, headers: dict) -> dict:
        return {"traces": self.traces.snapshot()}

    async def _get_obs(self, headers: dict) -> dict:
        """Raw obs-registry snapshot (families + collectors).

        The fleet front-end scrapes this to federate per-worker metric
        families into its own ``/metrics`` under a ``worker=`` label.
        """
        return {"families": self.metrics.registry.snapshot(),
                "summary": {
                    "inflight": self._inflight,
                    "queue_rows": self.scheduler.queue_rows,
                    "queue_depths": self.scheduler.queue_depths(),
                    "registry": self.registry.stats(),
                    "zoo": self.registry.zoo.counters(),
                    "latency": {
                        "http": self.metrics._latency_summary(
                            self.metrics._http_seconds),
                    },
                }}

    async def _get_models(self, headers: dict) -> dict:
        return {"models": self.registry.list_models()}

    async def _post_models(self, body: dict) -> dict:
        spec = parse_model_spec(body)
        key, emulator = await self.registry.emulator(spec)
        return {"model_key": key, "rows": emulator.rows,
                "cols": emulator.cols}

    async def _post_crossbars(self, body: dict) -> dict:
        key, warm = await self._resolve_crossbar(body)
        rows, cols = warm.conductance_s.shape
        return {"crossbar_key": key, "rows": rows, "cols": cols}

    async def _resolve_crossbar(self, body: dict):
        """A warm crossbar from ``crossbar_key`` or (model, conductances)."""
        with span("registry-resolve"):
            if "crossbar_key" in body:
                reject_mixed_identity(body, key_field="crossbar_key")
                key = str(body["crossbar_key"])
                warm = self.registry.crossbar(key)
                if warm is None:
                    raise _NotFound(f"unknown crossbar_key {key!r}; "
                                    f"register it via POST /v1/crossbars")
                return key, warm
            spec = parse_model_spec(body)
            conductances = decode_array(body, "conductances", ndim=(2,))
            return await self.registry.matrix_emulator(spec, conductances)

    async def _predict(self, body: dict, endpoint: str, field: str) -> dict:
        key, warm = await self._resolve_crossbar(body)
        voltages = decode_array(body, "voltages")
        single = voltages.ndim == 1
        rows = warm.conductance_s.shape[0]
        if voltages.shape[-1] != rows:
            raise ProtocolError(
                f"voltages must have {rows} entries per vector, "
                f"got shape {voltages.shape}")
        batch_fn = warm.predict_fr if field == "fr" \
            else warm.predict_currents
        result = await self.scheduler.submit(
            (endpoint, key), np.atleast_2d(voltages), batch_fn)
        if single:
            result = result[0]
        return {field: encode_array(result), "crossbar_key": key}

    async def _post_predict_fr(self, body: dict) -> dict:
        return await self._predict(body, "fr", "fr")

    async def _post_predict_currents(self, body: dict) -> dict:
        return await self._predict(body, "currents", "currents")

    async def _post_weights(self, body: dict) -> dict:
        warm = await self._resolve_engine(body)
        return {"weights_key": warm.key, "n_in": warm.n_in,
                "n_out": warm.n_out, "engine": warm.kind}

    async def _resolve_engine(self, body: dict):
        with span("registry-resolve"):
            if "weights_key" in body:
                reject_mixed_identity(body, key_field="weights_key")
                key = str(body["weights_key"])
                warm = self.registry.prepared_engine(key)
                if warm is None:
                    raise _NotFound(f"unknown weights_key {key!r}; "
                                    f"register it via POST /v1/weights")
                return warm
            weights = decode_array(body, "weights", ndim=(2,))
            if "spec" in body:
                # Declarative path: one EmulationSpec object carries engine
                # kind, crossbar, sim and emulator — exactly the to_dict()
                # shape `python -m repro spec` emits — and keys the warm
                # tier by spec.weights_key(weights). Mixing it with the
                # flat identity fields is rejected, not silently resolved.
                reject_mixed_identity(body)
                return await self.registry.engine_from_spec(
                    parse_emulation_spec(body), weights)
            spec = parse_model_spec(body)
            kind = parse_engine_kind(body)
            sim_config = parse_sim_config(body)
            return await self.registry.engine(spec, kind, sim_config,
                                              weights)

    async def _post_matmul(self, body: dict) -> dict:
        warm = await self._resolve_engine(body)
        x = decode_array(body, "x")
        single = x.ndim == 1
        if x.shape[-1] != warm.n_in:
            raise ProtocolError(
                f"x must have {warm.n_in} entries per vector, "
                f"got shape {x.shape}")
        result = await self.scheduler.submit(
            ("matmul", warm.key), np.atleast_2d(x), warm.matmul)
        if single:
            result = result[0]
        return {"y": encode_array(result), "weights_key": warm.key}

    async def _post_mitigate(self, body: dict) -> dict:
        spec, dataset, hidden, model_seed = parse_mitigate_request(body)
        with span("registry-resolve"):
            warm = await self.registry.mitigate(spec, dataset, hidden=hidden,
                                                model_seed=model_seed)
        return {"mitigated_key": warm.key, "spec_key": warm.spec_key,
                "sizes": list(warm.sizes), "metrics": warm.metrics,
                "from_cache": warm.from_cache}

    async def _post_mitigated_predict(self, body: dict) -> dict:
        if "mitigated_key" not in body:
            raise ProtocolError(
                "request requires a \"mitigated_key\" (from POST "
                "/v1/mitigate)")
        reject_mixed_identity(body, key_field="mitigated_key")
        key = str(body["mitigated_key"])
        with span("registry-resolve"):
            warm = self.registry.mitigated_model(key)
        if warm is None:
            raise _NotFound(f"unknown mitigated_key {key!r}; build it "
                            f"via POST /v1/mitigate")
        x = decode_array(body, "x")
        single = x.ndim == 1
        if x.shape[-1] != warm.sizes[0]:
            raise ProtocolError(
                f"x must have {warm.sizes[0]} entries per vector, "
                f"got shape {x.shape}")
        result = await self.scheduler.submit(
            ("mitigated", key), np.atleast_2d(x), warm.predict)
        if single:
            result = result[0]
        return {"logits": encode_array(result), "mitigated_key": key}


    async def _post_nets(self, body: dict) -> dict:
        wire, spec = parse_net_upload(body)
        with span("net-compile"):
            warm, outcome = await self.registry.net(wire, spec)
        self.metrics.record_net_upload(outcome)
        if outcome != "memory_hit":
            self.metrics.record_net_compile(warm.compile_seconds)
        return {"net_key": warm.key, "net_digest": warm.net_digest,
                "model_key": warm.model_key, "spec_key": warm.spec_key,
                "engine": warm.engine_kind,
                "batch_invariant": warm.batch_invariant,
                "n_layers": warm.n_layers,
                "n_mvm_layers": warm.n_mvm_layers, "n_in": warm.n_in,
                "from_cache": outcome != "compiled",
                "compile_seconds": round(warm.compile_seconds, 6)}

    async def _post_net_predict(self, body: dict):
        net_key, x, stream, chunk_rows = parse_net_predict(body)
        with span("registry-resolve"):
            warm = await self.registry.compiled_net(net_key)
        if warm is None:
            raise _NotFound(f"unknown net_key {net_key!r}; upload the "
                            f"net via POST /v1/nets")
        single = x.ndim == 1
        if x.shape[-1] != warm.n_in:
            raise ProtocolError(
                f"x must have {warm.n_in} entries per row, "
                f"got shape {x.shape}")
        x = np.atleast_2d(x)
        self.metrics.record_net_predict(x.shape[0])
        batch_fn = self._net_batch_fn(warm)
        if stream:
            return StreamingResponse(
                self._net_stream(warm, x, chunk_rows, batch_fn))
        result = await self.scheduler.submit(("net", warm.key), x, batch_fn)
        if single:
            result = result[0]
        return {"logits": encode_array(result), "net_key": warm.key}

    def _net_batch_fn(self, warm):
        """The scheduler batch function for one warm compiled net.

        Wraps ``predict`` with per-flush layer accounting: each flushed
        batch is one fused kernel call per MVM layer over all coalesced
        rows, which is exactly what ``repro_net_layer_rows`` records.
        """
        metrics = self.metrics

        def run(stacked: np.ndarray) -> np.ndarray:
            out = warm.predict(stacked)
            metrics.record_net_layers(warm.n_mvm_layers, stacked.shape[0])
            return out

        return run

    async def _net_stream(self, warm, x: np.ndarray,
                          chunk_rows: int | None, batch_fn):
        """Yield NDJSON payloads for a streamed net_predict.

        Chunks are submitted sequentially, so a huge request holds at
        most one chunk's logits in flight (bounded memory) while each
        chunk still coalesces with other requests' rows in the
        scheduler. The final line carries ``done`` + row count.
        """
        step = chunk_rows or self.scheduler.max_batch_rows
        total = x.shape[0]
        for index, start in enumerate(range(0, total, step)):
            chunk = x[start:start + step]
            result = await self.scheduler.submit(
                ("net", warm.key), chunk, batch_fn)
            yield {"chunk": index, "offset": start,
                   "logits": encode_array(result)}
        yield {"done": True, "rows": total, "net_key": warm.key}


class ServerThread:
    """Run an :class:`EmulationServer` on a background thread.

    Synchronous harness used by tests, the load benchmark and the CI smoke
    job:

    >>> with ServerThread(EmulationServer()) as handle:
    ...     client = ServeClient("127.0.0.1", handle.port)
    """

    def __init__(self, server: EmulationServer,
                 host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self.host = host
        self.port = None
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._startup_error = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._requested_port = port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.server.start(self.host, self._requested_port)
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self.server.port
        self._ready.set()
        await self._stop.wait()
        await self.server.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30 s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
