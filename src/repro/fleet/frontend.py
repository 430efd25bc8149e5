"""The fleet front-end: one asyncio process over a pool of N serve workers.

Accepts the existing ``repro.serve`` wire protocol unchanged (a
:class:`~repro.serve.client.ServeClient` pointed at the front-end works
as-is) and forwards each request — body bytes verbatim — to the live
worker with the fewest in-flight forwards; ties rotate over the
workers, so a lone sequential client alternates between them. A request
naming a memory-only key (``crossbar_key``, ``weights_key``,
``mitigated_key``) goes to the worker that returned that key
(:mod:`repro.fleet.routing`); a registration that creates such a key
breaks load ties toward the worker holding the fewest pins, so the keys
of one client spread over the pool instead of piling onto one worker's
memory-only tiers. Responses
come back byte-identical to a single-process server because workers
*are* the existing serve stack and the proxy never re-encodes a payload.

Robustness is built in, not bolted on:

* **retry-once-on-peer-failure** — a connection-level failure marks the
  worker dead and retries the request once on another live worker
  (safe: every endpoint is content-addressed and idempotent); timeouts
  are *not* retried — the work may be executing;
* **health checks** — a background loop probes ``/healthz`` per worker;
  two consecutive failures evict it from the pool, a later success
  re-admits it (the supervisor's respawns re-register explicitly); a
  dead or re-registered worker's pins stop routing, so its keys get a
  live worker's honest 404;
* **load shedding** — a global in-flight bound answers 429 before the
  front-end melts, and optional per-tenant token buckets (keyed by the
  ``X-Repro-Tenant`` header) enforce quotas;
* **graceful drain** — SIGTERM stops the listener, lets in-flight
  requests finish, then closes worker connections.

Observability: ``repro_fleet_*`` counter/gauge/histogram families live on
the front-end's own :class:`~repro.obs.MetricsRegistry`; ``GET /metrics``
federates every worker's families (scraped from ``/v1/debug/obs``) into
the Prometheus exposition under a ``worker=<id>`` label, and the JSON
shape carries a per-worker summary (queue depths, warm tiers, latency,
zoo counters) that ``repro obs --fleet`` renders as a table. The
connection loop, tracing, request metrics and drain are
:class:`repro.serve.httpio.HttpService`'s, shared with the server, so a
front-end trace has the server's shape: an ``http`` root span, here with
``route`` and ``forward`` as its children.
"""

from __future__ import annotations

import asyncio
import json
import logging
from time import perf_counter

from repro.fleet.routing import (
    KEYED_ENDPOINTS,
    PIN_FIELDS,
    ROUTED_ENDPOINTS,
    TokenBucket,
    pinned_key,
)
from repro.obs import MetricsRegistry, current_trace
from repro.obs.prometheus import CONTENT_TYPE as _PROM_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.serve.httpio import (
    HttpService,
    RawResponse,
    encode_request,
    read_response,
    wants_prometheus,
)
from repro.serve.metrics import ServeMetrics
from repro.utils.cache import LruDict

_log = logging.getLogger("repro.fleet")


class _WorkerUnreachable(Exception):
    """A worker could not be reached on a fresh connection."""


class _ForwardTimeout(Exception):
    """A forwarded request timed out (NOT safe to retry elsewhere)."""


class WorkerState:
    """Front-end bookkeeping for one worker process."""

    __slots__ = ("wid", "host", "port", "healthy", "fails", "inflight",
                 "pins")

    def __init__(self, wid: str, host: str, port: int):
        self.wid = wid
        self.host = host
        self.port = int(port)
        self.healthy = True
        self.fails = 0
        self.inflight = 0
        self.pins = 0        # memory-only keys pinned to this worker

    def describe(self) -> dict:
        return {"host": self.host, "port": self.port,
                "healthy": self.healthy, "fails": self.fails,
                "inflight": self.inflight, "pins": self.pins}


class FleetMetrics:
    """``repro_fleet_*`` instrument families for one front-end."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        reg = self.registry
        self._requests = reg.counter(
            "repro_fleet_requests_total",
            "Requests accepted by the fleet front-end, by endpoint.",
            labelnames=("endpoint",))
        self._responses = reg.counter(
            "repro_fleet_responses_total",
            "Responses sent by the fleet front-end, by status code.",
            labelnames=("status",))
        self._forwards = reg.counter(
            "repro_fleet_forwards_total",
            "Requests forwarded to a worker, by worker id.",
            labelnames=("worker",))
        self._retries = reg.counter(
            "repro_fleet_retries_total",
            "Requests retried on another worker after a peer failure.")
        self._evictions = reg.counter(
            "repro_fleet_evictions_total",
            "Workers evicted from the pool after being marked dead.")
        self._shed = reg.counter(
            "repro_fleet_shed_total",
            "Requests shed with 429, by reason (queue | quota).",
            labelnames=("reason",))
        self._workers = reg.gauge(
            "repro_fleet_workers", "Live workers in the pool.")
        self._inflight = reg.gauge(
            "repro_fleet_inflight",
            "Requests currently forwarded and awaiting a worker.")
        self._request_seconds = reg.histogram(
            "repro_fleet_request_duration_seconds",
            "End-to-end front-end latency, by endpoint.",
            labelnames=("endpoint",))
        self._forward_seconds = reg.histogram(
            "repro_fleet_forward_duration_seconds",
            "Worker round-trip latency per forward attempt.")
        self._by_endpoint: dict = {}
        self._by_status: dict = {}
        self._by_worker: dict = {}
        self._by_reason: dict = {}
        self._lat_by_endpoint: dict = {}

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

    def record_forward(self, worker: str, duration_s: float) -> None:
        child = self._by_worker.get(worker)
        if child is None:
            child = self._by_worker[worker] = \
                self._forwards.labels(worker=worker)
        child.inc()
        self._forward_seconds.observe(duration_s)

    def record_shed(self, reason: str) -> None:
        child = self._by_reason.get(reason)
        if child is None:
            child = self._by_reason[reason] = \
                self._shed.labels(reason=reason)
        child.inc()

    def record_retry(self) -> None:
        self._retries.inc()

    def record_eviction(self) -> None:
        self._evictions.inc()

    def set_workers(self, n: int) -> None:
        self._workers.set(n)

    def set_inflight(self, n: int) -> None:
        self._inflight.set(n)

    def observe_http(self, endpoint: str, duration_s: float) -> None:
        child = self._lat_by_endpoint.get(endpoint)
        if child is None:
            child = self._lat_by_endpoint[endpoint] = \
                self._request_seconds.labels(endpoint=endpoint)
        child.observe(duration_s)

    def summary(self) -> dict:
        """The ``"fleet"`` section of the JSON ``/metrics`` shape."""
        return {
            "requests": ServeMetrics._sum_family(self._requests),
            "responses": ServeMetrics._sum_family(self._responses),
            "forwards": ServeMetrics._sum_family(self._forwards),
            "shed": ServeMetrics._sum_family(self._shed),
            "retries": self._retries._default.value,
            "evictions": self._evictions._default.value,
            "inflight": self._inflight._default.value,
            "workers": self._workers._default.value,
            "latency": {
                "request": ServeMetrics._latency_summary(
                    self._request_seconds),
                "forward": ServeMetrics._latency_summary(
                    self._forward_seconds),
            },
        }


class FleetFrontend(HttpService):
    """Least-loaded routing proxy over a pool of serve workers."""

    TRACE_PREFIX = "fleet"
    LOGGER = "repro.fleet"

    def __init__(self, *, max_inflight: int = 256,
                 quota_rate: float | None = None,
                 quota_burst: float | None = None,
                 health_interval_s: float = 2.0,
                 health_timeout_s: float = 2.0,
                 connect_timeout_s: float = 5.0,
                 forward_timeout_s: float = 300.0,
                 max_body_bytes: int = 32 * 1024 * 1024,
                 idle_timeout_s: float = 120.0, tracing: bool = True,
                 pinned_keys: int = 4096, max_tenants: int = 1024):
        super().__init__(FleetMetrics(), max_body_bytes=max_body_bytes,
                         idle_timeout_s=idle_timeout_s, tracing=tracing)
        self.max_inflight = int(max_inflight)
        self.quota_rate = quota_rate
        self.quota_burst = quota_burst if quota_burst is not None \
            else (max(1.0, quota_rate) if quota_rate else None)
        self.health_interval_s = float(health_interval_s)
        self.health_timeout_s = float(health_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.forward_timeout_s = float(forward_timeout_s)
        self.workers: dict = {}          # wid -> WorkerState
        self._pools: dict = {}           # wid -> [(reader, writer), ...]
        self._pins = LruDict(pinned_keys,       # key -> WorkerState
                             on_evict=self._unpin)
        self._turn = 0                          # rotates load ties
        self._tenants = LruDict(max_tenants)    # tenant -> TokenBucket
        self._health_task = None
        self.routes = {("GET", "/healthz"): self._get_healthz,
                       ("GET", "/metrics"): self._get_metrics,
                       ("GET", "/v1/fleet"): self._get_fleet,
                       ("GET", "/v1/debug/traces"): self._get_traces,
                       ("GET", "/v1/models"): self._get_models}
        self.routes.update(dict.fromkeys(
            (("POST", path) for path in ROUTED_ENDPOINTS),
            self._route_and_forward))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_worker(self, wid: str, host: str, port: int) -> None:
        """Register (or re-register, e.g. after a respawn) a worker.

        A re-registered worker is a new process, so it gets a new
        :class:`WorkerState` and the old one's pins stop routing.
        """
        if wid in self.workers:
            self._close_pool(wid)
        self.workers[wid] = WorkerState(wid, host, port)
        live = len(self._live_workers())
        self.metrics.set_workers(live)
        _log.info("worker %s joined at %s:%d (%d live)",
                  wid, host, port, live)

    def _mark_dead(self, wid: str, reason: str) -> None:
        worker = self.workers.get(wid)
        if worker is None or not worker.healthy:
            return
        worker.healthy = False
        self._close_pool(wid)
        self.metrics.record_eviction()
        live = len(self._live_workers())
        self.metrics.set_workers(live)
        _log.warning("worker %s marked dead (%s); %d live", wid, reason,
                     live)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        await super().start(host, port)
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop())

    async def close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await super().close()
        for wid in list(self._pools):
            self._close_pool(wid)

    # ------------------------------------------------------------------
    # Worker connections (small keep-alive pool per worker)
    # ------------------------------------------------------------------
    def _pool_get(self, wid: str):
        pool = self._pools.get(wid)
        return pool.pop() if pool else None

    def _pool_put(self, wid: str, conn) -> None:
        worker = self.workers.get(wid)
        if worker is None or not worker.healthy:
            self._close_conn(conn)
            return
        self._pools.setdefault(wid, []).append(conn)

    def _close_pool(self, wid: str) -> None:
        for conn in self._pools.pop(wid, []):
            self._close_conn(conn)

    @staticmethod
    def _close_conn(conn) -> None:
        _reader, writer = conn
        writer.close()

    async def _forward(self, worker: WorkerState, data: bytes,
                       timeout_s: float | None = None):
        """One HTTP round trip to a worker; returns (status, headers, body).

        A stale pooled keep-alive connection (worker reaped it as our
        bytes arrived) is retried once on a fresh connection — the one
        failure mode where the request was provably never processed. A
        fresh connection failing raises :class:`_WorkerUnreachable` (the
        caller marks the worker dead and retries on another); a timeout
        raises :class:`_ForwardTimeout` and is never retried, because the
        worker may be executing the request.
        """
        timeout_s = timeout_s if timeout_s is not None \
            else self.forward_timeout_s
        wid = worker.wid
        conn = self._pool_get(wid)
        fresh = conn is None
        while True:
            if conn is None:
                try:
                    conn = await asyncio.wait_for(
                        asyncio.open_connection(worker.host, worker.port),
                        self.connect_timeout_s)
                except (OSError, TimeoutError) as exc:
                    raise _WorkerUnreachable(
                        f"worker {wid} at {worker.host}:{worker.port} "
                        f"unreachable: {exc}") from exc
                fresh = True
            reader, writer = conn
            try:
                writer.write(data)
                await writer.drain()
                status, rheaders, rbody, keep = await asyncio.wait_for(
                    read_response(reader), timeout_s)
            except TimeoutError as exc:
                self._close_conn(conn)
                raise _ForwardTimeout(
                    f"worker {wid} did not answer within {timeout_s:g}s "
                    f"(the request may still be executing; not retried)"
                ) from exc
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError) as exc:
                self._close_conn(conn)
                if fresh:
                    raise _WorkerUnreachable(
                        f"worker {wid} dropped the connection: "
                        f"{exc}") from exc
                conn = None   # stale pooled socket: retry once, fresh
                continue
            if keep:
                self._pool_put(wid, conn)
            else:
                self._close_conn(conn)
            return status, rheaders, rbody

    # ------------------------------------------------------------------
    # Local GETs
    # ------------------------------------------------------------------
    async def dispatch(self, method: str, path: str, body: bytes,
                       headers: dict) -> tuple:
        if method == "POST":
            return await self._route_and_forward(path, body, headers)
        return 200, await self.routes[(method, path)](headers)

    async def _get_healthz(self, headers: dict) -> dict:
        return {"status": "ok", "role": "fleet-frontend",
                "workers": len(self._live_workers())}

    async def _get_fleet(self, headers: dict) -> dict:
        return {"workers": {wid: state.describe()
                            for wid, state in self.workers.items()},
                "pinned_keys": len(self._pins)}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route_and_forward(self, path: str, body: bytes,
                                 headers: dict) -> tuple:
        if self._draining:
            return 503, {"error": "front-end is draining; retry elsewhere"}
        if self._inflight > self.max_inflight:
            self.metrics.record_shed("queue")
            return 429, {"error": f"front-end at capacity "
                                  f"({self.max_inflight} requests in "
                                  f"flight); retry later"}
        if self.quota_rate:
            tenant = headers.get("x-repro-tenant", "")
            now = asyncio.get_running_loop().time()
            bucket = self._tenants.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.quota_rate, self.quota_burst, now)
                self._tenants.put(tenant, bucket)
            if not bucket.admit(now):
                self.metrics.record_shed("quota")
                return 429, {"error": f"tenant {tenant or 'default'!r} is "
                                      f"over its request quota "
                                      f"({self.quota_rate:g}/s); "
                                      f"retry later"}

        trace = current_trace()
        t_route = perf_counter()
        pinned = await self._pinned_worker(path, body)
        if trace is not None:
            trace.add_span("route", t_route, perf_counter() - t_route,
                           meta={"pinned": pinned is not None})

        data = encode_request(
            "POST", path, body,
            {"Content-Type": headers.get("content-type",
                                         "application/json")})
        registers = path in PIN_FIELDS
        attempted: set = set()
        for attempt in (0, 1):
            worker = self._choose(pinned, attempted, registers)
            if worker is None:
                break
            wid = worker.wid
            attempted.add(wid)
            if attempt:
                self.metrics.record_retry()
            worker.inflight += 1
            t_fwd = perf_counter()
            try:
                status, rheaders, rbody = await self._forward(worker, data)
            except _WorkerUnreachable as exc:
                self._mark_dead(wid, str(exc))
                continue
            except _ForwardTimeout as exc:
                return 502, {"error": str(exc)}
            finally:
                worker.inflight -= 1
                duration = perf_counter() - t_fwd
                self.metrics.record_forward(wid, duration)
                if trace is not None:
                    trace.add_span("forward", t_fwd, duration,
                                   meta={"worker": wid,
                                         "attempt": attempt})
            if status == 200 and registers:
                self._pin(PIN_FIELDS[path], rbody, worker)
            return status, RawResponse(
                rheaders.get("content-type", "application/json"), rbody,
                {"X-Repro-Worker": wid})
        if not self._live_workers():
            return 503, {"error": "no live workers in the fleet"}
        return 502, {"error": f"request failed on {len(attempted)} "
                              f"worker(s) and no live worker remains; "
                              f"retry later"}

    def _choose(self, pinned: WorkerState | None, attempted: set,
                registers: bool = False) -> WorkerState | None:
        """The pinned worker while it lives, else the least-loaded one.

        A registration (``registers``) breaks load ties toward the
        fewest pins, so one client's memory-only keys spread over the
        pool. ``min`` keeps the first of equal keys, and each call starts
        the scan one worker further along, so remaining ties rotate.
        """
        if pinned is not None and pinned.healthy \
                and pinned.wid not in attempted \
                and self.workers.get(pinned.wid) is pinned:
            return pinned
        candidates = [w for w in self._live_workers()
                      if w.wid not in attempted]
        if not candidates:
            return None
        start = self._turn % len(candidates)
        self._turn += 1
        rotated = candidates[start:] + candidates[:start]
        if registers:
            return min(rotated, key=lambda w: (w.inflight, w.pins))
        return min(rotated, key=lambda w: w.inflight)

    async def _pinned_worker(self, path: str,
                             body: bytes) -> WorkerState | None:
        """The worker holding the memory-only key a request names.

        Only endpoints that accept such a key are parsed. A malformed
        body reads as unpinned, so a worker produces the authoritative
        400 and the front-end never duplicates protocol validation.
        """
        field = KEYED_ENDPOINTS.get(path)
        if field is None:
            return None
        try:
            parsed = await self.load_json(body)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        key = pinned_key(parsed, field)
        return self._pins.get(key) if key is not None else None

    def _pin(self, field: str, rbody: bytes, worker: WorkerState) -> None:
        """Pin the key a registration response names to its worker.

        Registration responses are small (a key and a shape, or a
        mitigation's metrics), so parsing on the loop is cheap.
        """
        try:
            response = json.loads(rbody)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return
        key = pinned_key(response, field)
        if key is None:
            return
        previous = self._pins.get(key)
        if previous is not worker:
            if previous is not None:
                previous.pins -= 1
            worker.pins += 1
        self._pins.put(key, worker)

    @staticmethod
    def _unpin(_key: str, worker: WorkerState) -> None:
        """``LruDict`` eviction hook: the pin no longer counts."""
        worker.pins -= 1

    # ------------------------------------------------------------------
    # Aggregated GETs
    # ------------------------------------------------------------------
    def _live_workers(self) -> list:
        return [w for w in self.workers.values() if w.healthy]

    async def _get_models(self, headers: dict) -> dict:
        """Union of every live worker's warm models."""
        async def one(worker):
            try:
                status, _h, rbody = await self._forward(
                    worker, encode_request("GET", "/v1/models"),
                    timeout_s=self.health_timeout_s)
            except (_WorkerUnreachable, _ForwardTimeout):
                return []
            if status != 200:
                return []
            try:
                return json.loads(rbody).get("models", [])
            except (UnicodeDecodeError, json.JSONDecodeError):
                return []

        merged: dict = {}
        results = await asyncio.gather(
            *(one(w) for w in self._live_workers()))
        for models in results:
            for model in models:
                merged.setdefault(model.get("model_key"), model)
        return {"models": list(merged.values())}

    async def _scrape_worker(self, worker: WorkerState) -> dict | None:
        """One worker's ``/v1/debug/obs`` snapshot (families + summary)."""
        try:
            status, _h, rbody = await self._forward(
                worker, encode_request("GET", "/v1/debug/obs"),
                timeout_s=self.health_timeout_s)
        except (_WorkerUnreachable, _ForwardTimeout):
            return None
        if status != 200:
            return None
        try:
            data = json.loads(rbody)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return data if isinstance(data, dict) else None

    async def _get_metrics(self, headers: dict):
        self.metrics.set_inflight(self._inflight)
        live = self._live_workers()
        scrapes = dict(zip(
            (w.wid for w in live),
            await asyncio.gather(*(self._scrape_worker(w) for w in live))))
        if wants_prometheus(headers):
            return RawResponse(_PROM_CONTENT_TYPE,
                               self._render_prometheus(scrapes).encode())
        workers = {}
        for wid, state in self.workers.items():
            entry = {"healthy": state.healthy, "host": state.host,
                     "port": state.port,
                     "inflight_via_frontend": state.inflight}
            scraped = scrapes.get(wid)
            if scraped and isinstance(scraped.get("summary"), dict):
                entry.update(scraped["summary"])
            workers[wid] = entry
        return {
            "fleet": self.metrics.summary(),
            "workers": workers,
            "families": self.metrics.registry.snapshot(),
        }

    def _render_prometheus(self, scrapes: dict) -> str:
        """Own families + every worker's, relabelled ``worker=<id>``."""
        merged = dict(self.metrics.registry.snapshot())
        for wid, scraped in scrapes.items():
            if not scraped or not isinstance(scraped.get("families"), dict):
                continue
            for name, family in scraped["families"].items():
                target = merged.get(name)
                if target is None:
                    target = merged[name] = {
                        "type": family.get("type", "counter"),
                        "help": family.get("help", ""), "values": []}
                for entry in family.get("values", []):
                    relabelled = dict(entry)
                    labels = dict(relabelled.get("labels", {}))
                    labels["worker"] = wid
                    relabelled["labels"] = labels
                    target["values"].append(relabelled)
        return render_prometheus(merged)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    async def _check_health(self, worker: WorkerState) -> bool:
        try:
            status, _h, _b = await self._forward(
                worker, encode_request("GET", "/healthz"),
                timeout_s=self.health_timeout_s)
        except (_WorkerUnreachable, _ForwardTimeout):
            return False
        return status == 200

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval_s)
            for wid in list(self.workers):
                worker = self.workers.get(wid)
                if worker is None:
                    continue
                if await self._check_health(worker):
                    worker.fails = 0
                    if not worker.healthy:
                        worker.healthy = True
                        self.metrics.set_workers(len(self._live_workers()))
                        _log.info("worker %s recovered; re-admitted "
                                  "to the pool", wid)
                else:
                    worker.fails += 1
                    # One failed probe may be a slow scrape racing a
                    # training run; two in a row is a dead worker.
                    # (Forward-path connection failures evict instantly.)
                    if worker.healthy and worker.fails >= 2:
                        self._mark_dead(wid, "health checks failing")
