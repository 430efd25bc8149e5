"""The asyncio HTTP front-end of the emulation service.

Stdlib-only. The connection loop, the response writer, tracing, request
metrics and drain are :class:`repro.serve.httpio.HttpService`'s, shared
with the fleet front-end; this module holds the routes. Every response
is JSON, except the Prometheus exposition and streamed NDJSON.

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

Every ``POST /v1/*`` body that names an emulation carries one
``"spec"`` object — a full declarative
:class:`repro.api.spec.EmulationSpec` in its ``to_dict()`` shape (what
``python -m repro spec`` prints) — or the key of a warm object built
from one. A body carrying the retired flat ``"model"``, ``"engine"`` or
``"sim"`` fields is a 400 naming ``"spec"``, never a request answered
with those fields ignored. A spec's ``nonideality`` fault composition is
keyed apart from clean setups at every warm tier, so a clean request can
never be answered from a perturbed engine or vice versa.

Prediction and matmul requests are coalesced per warm object by the
:class:`MicrobatchScheduler`; a full queue surfaces as HTTP 429 with a
``Retry-After`` hint. Error mapping: protocol/shape/config problems are
400, unknown registry keys 404, backpressure 429, a full disk while
persisting an artifact 507 (also with ``Retry-After``), everything else
500.
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np

from repro.errors import ConfigError, ReproError, ShapeError, StorageFullError
from repro.obs import gauge_family, span
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.serve.httpio import (HttpService, RawResponse, StreamingResponse,
                                wants_prometheus)
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (ProtocolError, decode_array, encode_array,
                                  parse_key, parse_mitigate_request,
                                  parse_model_spec, parse_net_predict,
                                  parse_net_upload, reject_flat_identity)
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MicrobatchScheduler, QueueFullError
from repro.utils.numerics import blas_probe_verdicts


class _NotFound(ReproError, KeyError):
    """A referenced registry key is unknown (HTTP 404)."""


def _check_width(x: np.ndarray, width: int, field: str = "x",
                 per: str = "vector") -> None:
    """A row request's 400 for rows of the wrong width."""
    if x.shape[-1] != width:
        raise ProtocolError(f"{field} must have {width} entries per {per}, "
                            f"got shape {x.shape}")


def _blas_probe() -> dict:
    """The JSON ``/metrics`` view of this process's batch-invariance
    probes: how many shape classes were probed, and those a failed probe
    pinned to the slower einsum kernel, as ``"KxN:<dtypes>"``."""
    verdicts = blas_probe_verdicts()
    return {"classes": len(verdicts),
            "einsum_classes": sorted(
                f"{k}x{n}:{a}{b}"
                for (k, n, a, b), blas in verdicts.items() if not blas)}


def _blas_probe_families() -> dict:
    return {"repro_blas_einsum_classes": gauge_family(
        "Shape classes of batch-invariant products pinned to einsum by a "
        "failed BLAS probe.", [({}, len(_blas_probe()["einsum_classes"]))])}


class EmulationServer(HttpService):
    """Asyncio HTTP server wiring registry + scheduler + metrics."""

    def __init__(self, registry: ModelRegistry | None = None, *,
                 max_batch_rows: int = 64, max_queue_rows: int = 4096,
                 max_workers: int = 1,
                 max_body_bytes: int = 32 * 1024 * 1024,
                 idle_timeout_s: float = 120.0, tracing: bool = True):
        super().__init__(ServeMetrics(), max_body_bytes=max_body_bytes,
                         idle_timeout_s=idle_timeout_s, tracing=tracing)
        self.registry = registry or ModelRegistry()
        self.metrics.registry.register_collector(self.registry.obs_families)
        self.metrics.registry.register_collector(_blas_probe_families)
        self.scheduler = MicrobatchScheduler(
            max_batch_rows=max_batch_rows,
            max_queue_rows=max_queue_rows,
            max_workers=max_workers,
            metrics=self.metrics)
        self.routes = {
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

    async def close(self) -> None:
        await super().close()
        await self.scheduler.close()

    async def dispatch(self, method: str, path: str, body: bytes,
                       headers: dict) -> tuple:
        handler = self.routes[(method, path)]
        try:
            if method == "POST":
                try:
                    parsed = await self.load_json(body)
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise ProtocolError(f"invalid JSON body: {exc}") from exc
                if not isinstance(parsed, dict):
                    raise ProtocolError("request body must be a JSON object")
                reject_flat_identity(parsed)
                return 200, await handler(parsed)
            return 200, await handler(headers)
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except StorageFullError as exc:
            return 507, {"error": str(exc)}
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

    async def _get_metrics(self, headers: dict):
        if wants_prometheus(headers):
            # Prometheus text exposition straight off the obs registry
            # (instrument families + registry/zoo/engine collectors).
            text = render_prometheus(self.metrics.registry.snapshot())
            return RawResponse(_PROM_CONTENT_TYPE, text.encode())
        snapshot = self.metrics.snapshot()
        snapshot["queue"]["per_key"] = self.scheduler.queue_depths()
        snapshot["registry"] = self.registry.stats()
        snapshot["blas_probe"] = _blas_probe()
        return snapshot

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
        """A warm crossbar from ``crossbar_key`` or (spec, conductances)."""
        with span("registry-resolve"):
            if "crossbar_key" in body:
                key = parse_key(body, "crossbar_key")
                warm = self.registry.crossbar(key)
                if warm is None:
                    raise _NotFound(f"unknown crossbar_key {key!r}; "
                                    f"register it via POST /v1/crossbars")
                return key, warm
            spec = parse_model_spec(body)
            conductances = decode_array(body, "conductances", ndim=(2,))
            return await self.registry.matrix_emulator(spec, conductances)

    async def _submit_rows(self, queue_key: tuple, x: np.ndarray,
                           batch_fn) -> np.ndarray:
        """Queue one request's rows; a single vector in is one out."""
        result = await self.scheduler.submit(queue_key, np.atleast_2d(x),
                                             batch_fn)
        return result[0] if x.ndim == 1 else result

    async def _predict(self, body: dict, endpoint: str, field: str) -> dict:
        # Decoded before the resolve: a malformed array is a 400 that
        # never pays for training or programming an inline crossbar.
        voltages = decode_array(body, "voltages")
        key, warm = await self._resolve_crossbar(body)
        _check_width(voltages, warm.conductance_s.shape[0], "voltages")
        # A voltage outside the pruned range is this request's 400, not
        # an error of the batch it would have been coalesced into.
        warm.validated(voltages)
        result = await self._submit_rows(
            (endpoint, key), voltages,
            warm.fr if field == "fr" else warm.currents)
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
                key = parse_key(body, "weights_key")
                warm = self.registry.prepared_engine(key)
                if warm is None:
                    raise _NotFound(f"unknown weights_key {key!r}; "
                                    f"register it via POST /v1/weights")
                return warm
            weights = decode_array(body, "weights", ndim=(2,))
            return await self.registry.engine_from_spec(
                parse_model_spec(body, engine_tier=True), weights)

    async def _post_matmul(self, body: dict) -> dict:
        x = decode_array(body, "x")   # before the resolve, as in _predict
        warm = await self._resolve_engine(body)
        _check_width(x, warm.n_in)
        result = await self._submit_rows(("matmul", warm.key), x,
                                         warm.matmul)
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
        key = parse_key(body, "mitigated_key")
        with span("registry-resolve"):
            warm = self.registry.mitigated_model(key)
        if warm is None:
            raise _NotFound(f"unknown mitigated_key {key!r}; build it "
                            f"via POST /v1/mitigate")
        x = decode_array(body, "x")
        _check_width(x, warm.sizes[0])
        result = await self._submit_rows(("mitigated", key), x,
                                         warm.predict)
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
        _check_width(x, warm.n_in, per="row")
        rows = np.atleast_2d(x)
        self.metrics.record_net_predict(rows.shape[0])
        batch_fn = self._net_batch_fn(warm)
        if stream:
            return StreamingResponse(
                self._net_stream(warm, rows, chunk_rows, batch_fn))
        result = await self._submit_rows(("net", warm.key), x, batch_fn)
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
    """Run an :class:`EmulationServer` (or any :class:`HttpService`) on a
    background thread.

    Synchronous harness used by tests, the load benchmark and the CI smoke
    job:

    >>> with ServerThread(EmulationServer()) as handle:
    ...     client = ServeClient("127.0.0.1", handle.port)
    """

    def __init__(self, server: HttpService,
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
