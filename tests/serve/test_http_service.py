"""The shared HTTP front door, asserted over raw sockets on both services.

:class:`repro.serve.httpio.HttpService` owns the connection loop, the
response writer, request metrics and drain for the emulation server and
the fleet front-end alike. Every test here runs against an
:class:`EmulationServer` and a :class:`FleetFrontend` with no workers;
none of them needs a model, a worker or a route beyond ``/healthz``.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.core.zoo import GeniexZoo
from repro.fleet.frontend import FleetFrontend
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread


@pytest.fixture(params=["server", "frontend"])
def make_service(request, tmp_path):
    def make(**kwargs):
        if request.param == "server":
            zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
            return EmulationServer(ModelRegistry(zoo), **kwargs)
        return FleetFrontend(**kwargs)
    return make


def exchange(port: int, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection; everything read until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            part = sock.recv(65536)
            if not part:
                return b"".join(chunks)
            chunks.append(part)


def wait_for(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def latency_labels(service) -> set:
    return {entry["labels"]["endpoint"]
            for family in service.metrics.registry.snapshot().values()
            if family["type"] == "histogram"
            for entry in family["values"] if "endpoint" in entry["labels"]}


class TestConnectionLoop:
    def test_oversized_body_gets_413_and_close(self, make_service):
        with ServerThread(make_service(max_body_bytes=1024)) as handle:
            reply = exchange(handle.port, b"POST /v1/models HTTP/1.1\r\n"
                                          b"Content-Length: 999999\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Payload Too Large")
        assert b"\r\nConnection: close" in head
        assert b"exceeds the 1024-byte limit" in body

    def test_malformed_length_drops_connection(self, make_service):
        with ServerThread(make_service()) as handle:
            assert exchange(handle.port, b"POST /v1/models HTTP/1.1\r\n"
                                         b"Content-Length: banana\r\n\r\n") \
                == b""
            assert exchange(handle.port, b"GET /healthz HTTP/1.1\r\n"
                                         b"Connection: close\r\n\r\n") \
                .startswith(b"HTTP/1.1 200 OK")

    def test_oversized_request_line_drops_connection(self, make_service):
        with ServerThread(make_service()) as handle:
            assert exchange(handle.port, b"GET /" + b"a" * 70000
                            + b" HTTP/1.1\r\n\r\n") == b""

    def test_idle_connection_is_reaped(self, make_service):
        with ServerThread(make_service(idle_timeout_s=0.2)) as handle:
            t0 = time.monotonic()
            assert exchange(handle.port, b"") == b""
            assert time.monotonic() - t0 < 5.0

    def test_unknown_paths_share_the_other_latency_label(self,
                                                         make_service):
        service = make_service()
        with ServerThread(service) as handle:
            reply = exchange(handle.port, b"GET /scanned/by/bots HTTP/1.1"
                                          b"\r\nConnection: close\r\n\r\n")
            assert reply.startswith(b"HTTP/1.1 404 Not Found")
            labels = latency_labels(service)
        assert "other" in labels
        assert not any("/scanned" in label for label in labels)


class TestDrain:
    def test_inflight_request_answered_then_listener_refuses(self,
                                                             make_service):
        service = make_service()
        release = threading.Event()
        dispatch = service.dispatch

        async def held(*args):
            while not release.is_set():
                await asyncio.sleep(0.005)
            return await dispatch(*args)

        service.dispatch = held
        with ServerThread(service) as handle:
            port = handle.port
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            try:
                # Keep-alive request, read before the drain starts.
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                wait_for(lambda: service._inflight == 1)
                drained = asyncio.run_coroutine_threadsafe(
                    service.drain(grace_s=10), handle._loop)
                wait_for(lambda: service._draining
                         and not service._server.is_serving())
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection(("127.0.0.1", port), timeout=5)
                assert not drained.done()
                release.set()
                reply = b""
                while True:
                    part = sock.recv(65536)
                    if not part:
                        break
                    reply += part
            finally:
                sock.close()
            drained.result(timeout=5)
            assert service._inflight == 0
        head = reply.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"\r\nConnection: close" in head
