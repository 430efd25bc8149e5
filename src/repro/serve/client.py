"""Small blocking HTTP client for the emulation service.

Wraps :class:`http.client.HTTPConnection` with keep-alive, reconnect
retries, per-request timeouts, JSON encoding and numpy conversion. Each
:class:`ServeClient` owns one connection and is not thread-safe; give
each load-generator worker its own instance.

Retry policy — a request is re-sent exactly once, and only when it
provably never executed: the keep-alive socket died before the bytes
went out, or the connection was refused outright (a worker restarting
behind the fleet front-end). Every endpoint is content-addressed and
idempotent (predict/matmul are pure; registrations re-register), so the
one-shot retry is safe. Timeouts are *never* retried — the server may be
executing the request — and surface as :class:`ClientTimeoutError`
naming the endpoint; unreachable services surface as
:class:`ClientConnectionError` the same way.
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np

from repro.errors import ReproError


class ServerError(ReproError, RuntimeError):
    """The server answered with a non-2xx status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServerBusyError(ServerError):
    """HTTP 429 — the microbatching queue is full; retry later."""


class ClientConnectionError(ReproError, ConnectionError):
    """The service could not be reached (the request never executed)."""


class ClientTimeoutError(ReproError, TimeoutError):
    """No answer within the timeout (the request may still be executing,
    so it is deliberately not retried)."""


def _spec_dict(spec) -> dict:
    """The wire ``"spec"`` object.

    ``spec`` may be a ``repro.api`` :class:`EmulationSpec` (anything with
    ``to_dict()``) or an already-encoded dict; the client stays decoupled
    from the spec classes themselves.
    """
    if spec is None:
        raise ValueError("a spec is required (an EmulationSpec or its "
                         "to_dict() shape)")
    return spec.to_dict() if hasattr(spec, "to_dict") else dict(spec)


class ServeClient:
    """Blocking JSON client for one ``repro serve`` endpoint."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8000,
                 timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn = None

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _endpoint(self, method: str, path: str) -> str:
        return f"{method} {path} on {self.host}:{self.port}"

    def _request(self, method: str, path: str, payload: dict | None = None,
                 *, timeout: float | None = None, accept: str | None = None,
                 raw: bool = False, ndjson: bool = False):
        body = None
        headers = {"Connection": "keep-alive"}
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        if accept is not None:
            headers["Accept"] = accept
        request_timeout = self.timeout if timeout is None else float(timeout)
        for attempt in (0, 1):
            conn = self._connection()
            conn.timeout = request_timeout
            if conn.sock is not None:
                conn.sock.settimeout(request_timeout)
            try:
                conn.request(method, path, body=body, headers=headers)
            except ConnectionRefusedError as exc:
                # Nothing is listening (a worker restarting, a front-end
                # not yet bound): the request never executed, so one
                # short-fuse retry, then a clear error.
                self.close()
                if attempt:
                    raise ClientConnectionError(
                        f"{self._endpoint(method, path)}: connection "
                        f"refused (after one retry); is the service "
                        f"running?") from exc
                time.sleep(0.05)
                continue
            except (http.client.HTTPException, ConnectionError,
                    OSError) as exc:
                # The request never went out (dead keep-alive socket):
                # safe to reconnect and re-send, even for POSTs.
                self.close()
                if attempt:
                    raise ClientConnectionError(
                        f"{self._endpoint(method, path)}: send failed "
                        f"after reconnect: {exc}") from exc
                continue
            try:
                response = conn.getresponse()
                data = response.read()
                break
            except TimeoutError as exc:
                # NEVER retried: the server may be executing the request,
                # and repeating a POST would double the work.
                self.close()
                raise ClientTimeoutError(
                    f"{self._endpoint(method, path)}: no response within "
                    f"{request_timeout:g}s (not retried — the request "
                    f"may still be executing)") from exc
            except (http.client.RemoteDisconnected,
                    ConnectionResetError, BrokenPipeError) as exc:
                # Server closed the idle connection as our bytes arrived —
                # the one failure mode where re-sending is safe. Other
                # errors are NOT retried: the request may be executing.
                self.close()
                if attempt:
                    raise ClientConnectionError(
                        f"{self._endpoint(method, path)}: peer closed "
                        f"the connection mid-request (after one "
                        f"retry): {exc}") from exc
            except (http.client.HTTPException, OSError):
                self.close()
                raise
        if raw and 200 <= response.status < 300:
            return data.decode()
        try:
            if ndjson and 200 <= response.status < 300:
                # Streamed responses are NDJSON (http.client already
                # de-chunked the transfer encoding); one list entry per
                # line, in stream order.
                parsed = [json.loads(line)
                          for line in data.decode().splitlines()
                          if line.strip()]
            else:
                parsed = json.loads(data.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {"error": data.decode(errors="replace")}
        if not 200 <= response.status < 300:
            message = parsed.get("error", "") if isinstance(parsed, dict) \
                else str(parsed)
            if response.status == 429:
                raise ServerBusyError(response.status, message)
            raise ServerError(response.status, message)
        return parsed

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self, *, timeout: float | None = None) -> dict:
        return self._request("GET", "/healthz", timeout=timeout)

    def metrics(self, *, timeout: float | None = None) -> dict:
        return self._request("GET", "/metrics", timeout=timeout)

    def prometheus_metrics(self, *, timeout: float | None = None) -> str:
        """The ``/metrics`` endpoint in Prometheus text exposition.

        Sends ``Accept: text/plain`` (the content-negotiation trigger)
        and returns the raw exposition text; :meth:`metrics` keeps the
        default JSON shape. Goes through the shared request path, so
        typed errors and the idempotent reconnect retry apply here too.
        """
        return self._request("GET", "/metrics", timeout=timeout,
                             accept="text/plain", raw=True)

    def traces(self, *, timeout: float | None = None) -> list:
        """Recent request traces from ``/v1/debug/traces``."""
        return self._request("GET", "/v1/debug/traces",
                             timeout=timeout)["traces"]

    def models(self, *, timeout: float | None = None) -> list:
        return self._request("GET", "/v1/models",
                             timeout=timeout)["models"]

    def load_model(self, spec, *, timeout: float | None = None) -> dict:
        """Train (or load) the GENIEx emulator a spec names into the
        server's warm registry.

        ``spec`` is an :class:`repro.api.spec.EmulationSpec` or its
        ``to_dict()`` shape; its engine must be ``geniex``.
        """
        return self._request("POST", "/v1/models",
                             {"spec": _spec_dict(spec)}, timeout=timeout)

    def register_crossbar(self, spec, conductances, *,
                          timeout: float | None = None) -> str:
        """Program a conductance matrix; returns its ``crossbar_key``."""
        payload = {"spec": _spec_dict(spec),
                   "conductances": np.asarray(conductances).tolist()}
        return self._request("POST", "/v1/crossbars", payload,
                             timeout=timeout)["crossbar_key"]

    def _predict(self, path: str, field: str, voltages, *,
                 crossbar_key: str | None = None, spec=None,
                 conductances=None,
                 timeout: float | None = None) -> np.ndarray:
        payload: dict = {"voltages": np.asarray(voltages).tolist()}
        if crossbar_key is not None:
            if spec is not None or conductances is not None:
                raise ValueError(
                    "crossbar_key= already names the warm crossbar; "
                    "don't pass spec=/conductances= alongside it")
            payload["crossbar_key"] = crossbar_key
        else:
            if spec is None or conductances is None:
                raise ValueError(
                    "pass either crossbar_key or spec + conductances")
            payload["spec"] = _spec_dict(spec)
            payload["conductances"] = np.asarray(conductances).tolist()
        return np.asarray(self._request("POST", path, payload,
                                        timeout=timeout)[field])

    def predict_fr(self, voltages, **kwargs) -> np.ndarray:
        """Distortion ratios fR; see :meth:`predict_currents` for kwargs."""
        return self._predict("/v1/predict_fr", "fr", voltages, **kwargs)

    def predict_currents(self, voltages, **kwargs) -> np.ndarray:
        """Non-ideal currents for ``voltages`` (``(rows,)`` or
        ``(B, rows)``), addressed by ``crossbar_key=...`` or
        ``spec=..., conductances=...``."""
        return self._predict("/v1/predict_currents", "currents", voltages,
                             **kwargs)

    def register_weights(self, spec, weights, *,
                         timeout: float | None = None) -> str:
        """Prepare an MVM engine for a weight matrix; returns its key.

        The server keys the warm engine by
        ``registry.serving_spec(spec).weights_key(weights)`` — the spec
        digest after the server normalises the runtime node to its own
        policy, *not* ``spec.weights_key`` verbatim.
        """
        payload = {"spec": _spec_dict(spec),
                   "weights": np.asarray(weights).tolist()}
        return self._request("POST", "/v1/weights", payload,
                             timeout=timeout)["weights_key"]

    def matmul(self, x, *, weights_key: str | None = None, spec=None,
               weights=None, timeout: float | None = None) -> np.ndarray:
        """Bit-sliced crossbar product for ``x`` (``(K,)`` or ``(B, K)``).

        Address the engine by ``weights_key=`` (from
        :meth:`register_weights`) or by ``spec= + weights=``.
        """
        payload: dict = {"x": np.asarray(x).tolist()}
        if weights_key is not None:
            if spec is not None or weights is not None:
                raise ValueError(
                    "weights_key= already names the warm engine; don't "
                    "pass spec=/weights= alongside it")
            payload["weights_key"] = weights_key
        else:
            if spec is None or weights is None:
                raise ValueError(
                    "pass either weights_key or spec + weights")
            payload["spec"] = _spec_dict(spec)
            payload["weights"] = np.asarray(weights).tolist()
        return np.asarray(self._request("POST", "/v1/matmul", payload,
                                        timeout=timeout)["y"])

    def mitigate(self, *, spec, dataset, hidden=None,
                 seed: int | None = None,
                 timeout: float | None = None) -> dict:
        """Run the spec's mitigation recipe server-side on a dataset.

        ``spec`` must carry a non-identity ``mitigation`` node with
        ``noise.epochs >= 1`` (the server trains the classifier itself).
        ``dataset`` is a content-addressable handle — a name like
        ``"blobs"`` or a ``{"name": ..., "n_train": ..., ...}`` dict.
        ``hidden``/``seed`` pick the classifier architecture (defaults
        ``[32]`` / ``0``). Returns the response dict: ``mitigated_key``
        (address for :meth:`mitigated_predict`), ``sizes``, ``metrics``
        (float/mitigated/baseline accuracies) and ``from_cache``.
        """
        payload = {"spec": _spec_dict(spec), "dataset": dataset}
        net: dict = {}
        if hidden is not None:
            net["hidden"] = [int(h) for h in hidden]
        if seed is not None:
            net["seed"] = int(seed)
        if net:
            payload["net"] = net
        return self._request("POST", "/v1/mitigate", payload,
                             timeout=timeout)

    def mitigated_predict(self, x, *, mitigated_key: str,
                          timeout: float | None = None) -> np.ndarray:
        """Mitigated logits for ``x`` (``(F,)`` or ``(B, F)``) from a
        warm mitigated model (key from :meth:`mitigate`)."""
        payload = {"mitigated_key": mitigated_key,
                   "x": np.asarray(x).tolist()}
        return np.asarray(self._request(
            "POST", "/v1/mitigated_predict", payload,
            timeout=timeout)["logits"])

    def upload_net(self, net, *, spec, input_shape=None,
                   timeout: float | None = None) -> dict:
        """Upload a network for model-level serving; returns the response.

        ``net`` is a :class:`repro.nn.Module` (serialized client-side
        via :func:`repro.nn.serialization.net_to_wire`) or an
        already-encoded wire dict. ``spec`` picks the emulation the
        server compiles against. ``input_shape`` (per-sample, e.g.
        ``(1, 28, 28)``) is required for models whose first layers are
        spatial. The response's ``net_key`` addresses
        :meth:`net_predict`; uploads are content-addressed, so
        re-uploading the same net + spec is a cache hit.
        """
        if isinstance(net, dict):
            wire = net
        else:
            from repro.nn.serialization import net_to_wire
            wire = net_to_wire(net, input_shape=input_shape)
        payload = {"spec": _spec_dict(spec), "net": wire}
        return self._request("POST", "/v1/nets", payload, timeout=timeout)

    def net_predict(self, x, *, net_key: str, stream: bool = False,
                    chunk_rows: int | None = None,
                    timeout: float | None = None) -> np.ndarray:
        """Whole-network logits for ``x`` (``(F,)`` or ``(B, F)``).

        ``net_key`` comes from :meth:`upload_net`. With ``stream=True``
        the server answers chunked NDJSON (``chunk_rows`` rows per
        chunk); the chunks are reassembled here into one array, so the
        result is identical either way — streaming only bounds peak
        memory for large batches.
        """
        x = np.asarray(x)
        single = x.ndim == 1
        payload: dict = {"net_key": net_key, "x": x.tolist()}
        if chunk_rows is not None:
            payload["chunk_rows"] = int(chunk_rows)
        if not stream:
            return np.asarray(self._request(
                "POST", "/v1/net_predict", payload,
                timeout=timeout)["logits"])
        payload["stream"] = True
        lines = self._request("POST", "/v1/net_predict", payload,
                              timeout=timeout, ndjson=True)
        if not isinstance(lines, list):
            raise ServerError(200, f"malformed stream response: {lines!r}")
        chunks = []
        done = False
        for line in lines:
            if not isinstance(line, dict):
                raise ServerError(200, f"malformed stream line: {line!r}")
            if "error" in line:
                raise ServerError(200, line["error"])
            if line.get("done"):
                done = True
            elif "logits" in line:
                chunks.append(np.asarray(line["logits"]))
        if not done or not chunks:
            raise ClientConnectionError(
                f"{self._endpoint('POST', '/v1/net_predict')}: stream "
                f"ended without a terminal 'done' line (connection lost "
                f"mid-stream?)")
        result = np.concatenate(chunks, axis=0)
        return result[0] if single else result
