"""The HTTP/1.1 front door shared by the server and the fleet front-end.

:class:`HttpService` owns everything between a socket and a route:

* ``start``, ``serve_forever`` and ``drain``;
* the connection loop: idle timeout, 413 for an oversized body, dropping
  a malformed request, keep-alive, and closing the connection while
  draining;
* in-flight and idle accounting (what ``drain`` waits for);
* the per-request :class:`~repro.obs.Trace` with its ``http`` root span,
  and the :class:`~repro.obs.TraceBuffer` behind ``/v1/debug/traces``;
* the status and latency metrics, the access log line and the
  slow-request warning, all taken after the response's last byte — for a
  streamed response, after its terminal chunk;
* one response writer, built on :func:`encode_response`: JSON (encoded
  off the event loop for big requests), :class:`RawResponse` bytes with
  extra headers, and :class:`StreamingResponse` chunked NDJSON.

The emulation server (:mod:`repro.serve.server`) and the fleet front-end
(:mod:`repro.fleet.frontend`) subclass it and keep only their routes,
``dispatch`` and ``close``. The front-end must speak byte-identical HTTP
to proxy requests verbatim; with one parser, one loop and one writer the
two can never drift apart. The matching asyncio client side
(:func:`encode_request`, :func:`read_response`) lives here too.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
from time import perf_counter

from repro.errors import ReproError
from repro.obs import Trace, TraceBuffer, activate, deactivate

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 413: "Payload Too Large",
           429: "Too Many Requests", 500: "Internal Server Error",
           502: "Bad Gateway", 503: "Service Unavailable",
           507: "Insufficient Storage"}

#: Retry hints by status: backpressure clears in about a second, a full
#: disk needs an operator (or an eviction) first.
_RETRY_AFTER_S = {429: 1, 507: 30}


class PayloadTooLarge(ReproError, ValueError):
    """The declared request body exceeds the configured limit (HTTP 413)."""


class RawResponse:
    """A non-JSON result: pre-encoded body, its content type and any
    extra response headers (the front-end's ``X-Repro-Worker``)."""

    __slots__ = ("content_type", "body", "headers")

    def __init__(self, content_type: str, body: bytes,
                 headers: dict | None = None):
        self.content_type = content_type
        self.body = body
        self.headers = headers


class StreamingResponse:
    """A result streamed as chunked NDJSON.

    ``gen`` is an async generator of JSON-encodable payloads; the writer
    sends each as one line inside a ``Transfer-Encoding: chunked`` body.
    An exception mid-stream becomes a final ``{"error": ...}`` line and
    closes the connection (the 200 status line is already on the wire by
    then).
    """

    __slots__ = ("gen",)

    def __init__(self, gen):
        self.gen = gen


def wants_prometheus(headers: dict) -> bool:
    """Whether a ``GET /metrics`` asks for the Prometheus exposition."""
    accept = headers.get("accept", "").lower()
    return ("text/plain" in accept or "openmetrics" in accept
            or "prometheus" in accept)


class HttpService:
    """One asyncio HTTP/1.1 service: connection loop, writer and drain.

    A subclass fills ``routes`` (a mapping keyed by ``(method, path)``),
    passes a ``metrics`` object with ``record_request``,
    ``record_response`` and ``observe_http``, implements
    :meth:`dispatch` and extends :meth:`close` with its own resources.
    Unknown paths answer 404 and known paths under another method 405
    before ``dispatch`` is called.
    """

    #: Request bodies above this size have their JSON parse and their JSON
    #: response's encode offloaded to the executor: a multi-MB matrix
    #: decoded on the event loop would stall every queue flush and
    #: connection for its duration.
    OFFLOAD_BYTES = 256 * 1024
    #: Requests at least this slow also log a warning with their stages.
    SLOW_REQUEST_S = 1.0
    #: Completed request traces kept for ``GET /v1/debug/traces``.
    TRACE_BUFFER_SIZE = 256
    #: Trace ids are ``<TRACE_PREFIX>-<n>``.
    TRACE_PREFIX = "req"
    #: Service logger; access lines go to ``<LOGGER>.access``.
    LOGGER = "repro.serve"

    def __init__(self, metrics, *, max_body_bytes: int,
                 idle_timeout_s: float, tracing: bool):
        self.metrics = metrics
        self.max_body_bytes = int(max_body_bytes)
        self.idle_timeout_s = float(idle_timeout_s)
        self.tracing = bool(tracing)
        self.traces = TraceBuffer(self.TRACE_BUFFER_SIZE)
        self.routes: dict = {}
        self.host = None
        self.port = None
        self._log = logging.getLogger(self.LOGGER)
        self._access_log = logging.getLogger(self.LOGGER + ".access")
        self._request_ids = itertools.count(1)
        self._server = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False

    async def dispatch(self, method: str, path: str, body: bytes,
                       headers: dict) -> tuple:
        """Answer a request for a known route: ``(status, payload)``.

        ``payload`` is a JSON-encodable object, a :class:`RawResponse` or
        a :class:`StreamingResponse`.
        """
        raise NotImplementedError

    async def _get_traces(self, headers: dict) -> dict:
        return {"traces": self.traces.snapshot()}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting; ``port=0`` picks a free port."""
        self._server = await asyncio.start_server(self._connection,
                                                  host, port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._log.info("listening on http://%s:%s", self.host, self.port)

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting; subclasses then release their own resources."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, grace_s: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        New connections are refused immediately (the listener closes);
        requests already being processed get up to ``grace_s`` seconds to
        complete and are answered normally, with ``Connection: close``.
        Idle keep-alive connections are not waited for — only requests
        that have been read count.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), grace_s)
        except TimeoutError:
            self._log.warning("drain grace of %.1fs expired with %d "
                              "request(s) still in flight", grace_s,
                              self._inflight)
        await self.close()

    # ------------------------------------------------------------------
    # The connection loop
    # ------------------------------------------------------------------
    async def _connection(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    # The idle timeout bounds how long a silent or stalled
                    # client may pin this handler and its socket; a client
                    # whose keep-alive connection is reaped mid-send sees
                    # a clean close and reconnects.
                    request = await asyncio.wait_for(
                        read_request(reader, self.max_body_bytes),
                        self.idle_timeout_s)
                except TimeoutError:
                    break
                except PayloadTooLarge as exc:
                    # The body was never read, so the connection cannot be
                    # reused — but the client deserves to learn the limit.
                    self.metrics.record_response(413)
                    await self._respond(writer, 413, {"error": str(exc)},
                                        False, False)
                    break
                except ValueError:
                    # Oversized request line/headers (StreamReader converts
                    # LimitOverrunError to ValueError) or a malformed
                    # Content-Length: drop the connection.
                    break
                if request is None or not await self._exchange(writer,
                                                               *request):
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection handlers; treat
            # it as a normal close instead of surfacing a stack trace.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _exchange(self, writer: asyncio.StreamWriter, method: str,
                        path: str, body: bytes, keep_alive: bool,
                        headers: dict) -> bool:
        """Answer one request; returns whether the connection stays open."""
        self._inflight += 1
        self._idle.clear()
        endpoint = f"{method} {path}"
        rid = next(self._request_ids)
        t0 = perf_counter()
        trace = token = root = None
        if self.tracing:
            trace = Trace(endpoint, trace_id=f"{self.TRACE_PREFIX}-{rid}")
            token = activate(trace)
            root = trace.begin("http")
        try:
            status, payload = await self._route(method, path, body, headers)
            try:
                return await self._respond(
                    writer, status, payload, keep_alive,
                    len(body) > self.OFFLOAD_BYTES)
            finally:
                self._observe(rid, endpoint, (method, path) in self.routes,
                              status, perf_counter() - t0, trace, root)
        finally:
            if token is not None:
                deactivate(token)
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.set()

    async def _route(self, method: str, path: str, body: bytes,
                     headers: dict) -> tuple:
        if (method, path) not in self.routes:
            if any(p == path for (_, p) in self.routes):
                return 405, {"error": f"method {method} not allowed "
                                      f"for {path}"}
            return 404, {"error": f"unknown endpoint {path}"}
        self.metrics.record_request(f"{method} {path}")
        return await self.dispatch(method, path, body, headers)

    def _observe(self, rid: int, endpoint: str, known: bool, status: int,
                 duration_s: float, trace, root) -> None:
        """Metrics, trace, access log and slow warning of one request."""
        self.metrics.record_response(status)
        # Unknown paths share one latency label so a URL scanner cannot
        # blow up the endpoint cardinality.
        self.metrics.observe_http(endpoint if known else "other",
                                  duration_s)
        rows = 0
        if trace is not None:
            trace.end(root)
            rows = trace.meta.get("rows", 0)
            trace.meta.update(endpoint=endpoint, status=status,
                              duration_ms=round(duration_s * 1e3, 3))
            self.traces.append(trace.to_dict())
        self._access_log.info(
            'id=%d endpoint="%s" status=%d rows=%d duration_ms=%.3f',
            rid, endpoint, status, rows, duration_s * 1e3)
        if duration_s >= self.SLOW_REQUEST_S:
            stages = ""
            if root is not None and root.children:
                stages = " stages: " + ", ".join(
                    f"{child.name}={child.duration * 1e3:.1f}ms"
                    for child in root.children)
            self._log.warning(
                "slow request id=%d endpoint=%s status=%d "
                "duration_ms=%.1f%s", rid, endpoint, status,
                duration_s * 1e3, stages)

    # ------------------------------------------------------------------
    # Request bodies and the response writer
    # ------------------------------------------------------------------
    async def load_json(self, body: bytes):
        """``json.loads`` of a request body, off the loop when it is big."""
        if len(body) > self.OFFLOAD_BYTES:
            return await asyncio.get_running_loop().run_in_executor(
                None, json.loads, body)
        return json.loads(body.decode() or "{}")

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, keep_alive: bool, offload: bool) -> bool:
        """Write one response; returns whether the connection stays open."""
        # A request answered while draining closes its connection, so the
        # client moves elsewhere.
        keep_alive = keep_alive and not self._draining
        if isinstance(payload, StreamingResponse):
            return await self._write_stream(writer, status, payload.gen,
                                            keep_alive) and keep_alive
        extra = None
        if isinstance(payload, RawResponse):
            content_type, data = payload.content_type, payload.body
            extra = payload.headers
        elif offload:
            # Big request -> likely big response: encode off-loop so queue
            # flushes and other connections keep moving.
            content_type = "application/json"
            data = await asyncio.get_running_loop().run_in_executor(
                None, lambda: json.dumps(payload).encode())
        else:
            content_type = "application/json"
            data = json.dumps(payload).encode()
        writer.write(encode_response(status, data, content_type,
                                     keep_alive=keep_alive,
                                     extra_headers=extra))
        await writer.drain()
        return keep_alive

    @staticmethod
    async def _write_stream(writer: asyncio.StreamWriter, status: int, gen,
                            keep_alive: bool) -> bool:
        """Write a chunked NDJSON body; returns False if the connection
        must close (an error surfaced after the status line went out)."""
        writer.write(encode_response(status, None, "application/x-ndjson",
                                     keep_alive=keep_alive))
        ok = True
        try:
            async for item in gen:
                writer.write(encode_chunk(json.dumps(item).encode() + b"\n"))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            raise
        except Exception as exc:
            # Too late for an error status: emit a terminal error line so
            # the client fails loudly, then close the connection.
            ok = False
            writer.write(encode_chunk(json.dumps(
                {"error": f"{type(exc).__name__}: {exc}"}).encode() + b"\n"))
        finally:
            # A client that dropped mid-stream leaves the generator
            # suspended at a yield: close it, so no further chunk is
            # computed for a client that is gone.
            await gen.aclose()
        writer.write(encode_chunk(b""))
        await writer.drain()
        return ok


async def read_request(reader: asyncio.StreamReader,
                       max_body_bytes: int):
    """Parse one HTTP/1.1 request off ``reader``.

    Returns ``(method, path, body, keep_alive, headers)`` with the header
    names lower-cased, or ``None`` on a clean EOF / malformed request line
    (the caller drops the connection). Raises :class:`PayloadTooLarge`
    *before* reading an oversized body so the caller can answer 413 and
    close without buffering it.
    """
    request_line = await reader.readline()
    if not request_line or request_line.strip() == b"":
        return None
    try:
        method, target, _version = \
            request_line.decode("latin-1").split(None, 2)
    except ValueError:
        return None
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
        if len(headers) > 128:
            return None
    length = int(headers.get("content-length", "0") or "0")
    if length < 0:
        return None
    if length > max_body_bytes:
        raise PayloadTooLarge(
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte limit")
    body = await reader.readexactly(length) if length else b""
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    path = target.split("?", 1)[0]
    return method.upper(), path, body, keep_alive, headers


def encode_response(status: int, body: bytes | None, content_type: str,
                    *, keep_alive: bool = True,
                    extra_headers: dict | None = None) -> bytes:
    """One full HTTP/1.1 response (head + body) as bytes.

    ``body=None`` gives the head of a chunked response instead; its
    chunks follow, each from :func:`encode_chunk`.
    """
    length = ("Transfer-Encoding: chunked" if body is None
              else f"Content-Length: {len(body)}")
    head = (f"HTTP/1.1 {status} {REASONS.get(status, 'Error')}"
            f"\r\nContent-Type: {content_type}"
            f"\r\n{length}"
            f"\r\nConnection: {'keep-alive' if keep_alive else 'close'}")
    if status in _RETRY_AFTER_S:
        head += f"\r\nRetry-After: {_RETRY_AFTER_S[status]}"
    for name, value in (extra_headers or {}).items():
        head += f"\r\n{name}: {value}"
    return head.encode() + b"\r\n\r\n" + (body or b"")


def encode_request(method: str, path: str, body: bytes = b"",
                   headers: dict | None = None) -> bytes:
    """One full HTTP/1.1 request as bytes (keep-alive by default)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: fleet"
    merged = {"Connection": "keep-alive"}
    merged.update(headers or {})
    if body:
        merged.setdefault("Content-Type", "application/json")
    merged["Content-Length"] = str(len(body))
    for name, value in merged.items():
        head += f"\r\n{name}: {value}"
    return head.encode() + b"\r\n\r\n" + body


async def read_response(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 response off ``reader``.

    Returns ``(status, headers, body, keep_alive)``; raises
    ``ConnectionError`` on EOF before a full response (the caller decides
    whether a retry is safe). Chunked transfer encoding (the streaming
    ``net_predict`` answer) is de-chunked into one body — the front-end
    forwards it with a plain ``Content-Length`` — so the pooled
    connection is left clean either way.
    """
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("peer closed before the status line")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionResetError(
            f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line == b"":
            raise ConnectionResetError("peer closed mid-headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = await _read_chunked(reader)
    else:
        length = int(headers.get("content-length", "0") or "0")
        body = await reader.readexactly(length) if length else b""
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    return status, headers, body, keep_alive


def encode_chunk(data: bytes) -> bytes:
    """One chunk of a chunked body; ``b""`` is the terminal frame."""
    return f"{len(data):x}\r\n".encode() + data + b"\r\n"


async def _read_chunked(reader: asyncio.StreamReader) -> bytes:
    """Read a chunked body to its terminal frame; returns it de-chunked."""
    parts = []
    while True:
        size_line = await reader.readline()
        if not size_line:
            raise ConnectionResetError("peer closed mid-chunked-body")
        try:
            size = int(size_line.split(b";", 1)[0].strip(), 16)
        except ValueError:
            raise ConnectionResetError(
                f"malformed chunk size {size_line!r}") from None
        if size == 0:
            # Trailer section (we send none, but eat it to spec).
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            return b"".join(parts)
        parts.append(await reader.readexactly(size))
        await reader.readexactly(2)   # CRLF after each chunk's data
