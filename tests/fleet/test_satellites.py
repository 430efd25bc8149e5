"""Satellite coverage: client retry/timeout policy and evict-off-loop.

The :class:`ServeClient` retry contract is asserted against real sockets
that misbehave in controlled ways: nothing listening (refused → one
retry → :class:`ClientConnectionError` naming the endpoint), a server
that accepts but never answers (timeout → :class:`ClientTimeoutError`,
provably *not* retried), and a keep-alive peer that drops the idle
connection (transparent one-shot re-send). The registry's eviction
helper, shared by every tier whose values own threads, is checked to
run close off the event-loop thread when a loop is running, inline
otherwise.
"""

import asyncio
import socket
import threading

import pytest

from repro.serve.client import (
    ClientConnectionError,
    ClientTimeoutError,
    ServeClient,
)
from repro.serve.registry import _close_off_loop


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _recv_request(conn) -> bytes:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return data
        data += chunk
    return data


class _Server:
    """Minimal threaded TCP server with a pluggable per-connection handler."""

    def __init__(self, handler):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.connections = 0
        self._handler = handler
        self._conns = []
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            self._conns.append(conn)
            self._handler(conn)

    def close(self):
        self.sock.close()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._thread.join(2.0)


class TestClientConnectionErrors:
    def test_connection_refused_retries_once_then_names_endpoint(self):
        port = free_port()   # nothing listening here
        client = ServeClient("127.0.0.1", port)
        with pytest.raises(ClientConnectionError) as excinfo:
            client.health()
        message = str(excinfo.value)
        assert f"GET /healthz on 127.0.0.1:{port}" in message
        assert "after one retry" in message
        assert "is the service running?" in message
        # The typed error is still a ConnectionError for except-clauses
        # written against the stdlib hierarchy.
        assert isinstance(excinfo.value, ConnectionError)

    def test_timeout_is_not_retried(self):
        server = _Server(lambda conn: _recv_request(conn))  # never answers
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=0.3)
            with pytest.raises(ClientTimeoutError) as excinfo:
                client.health()
            message = str(excinfo.value)
            assert f"GET /healthz on 127.0.0.1:{server.port}" in message
            assert "not retried" in message
            assert isinstance(excinfo.value, TimeoutError)
            # Exactly one connection, exactly one request on the wire.
            assert server.connections == 1
        finally:
            server.close()

    def test_per_request_timeout_overrides_client_default(self):
        server = _Server(lambda conn: _recv_request(conn))
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=600.0)
            with pytest.raises(ClientTimeoutError) as excinfo:
                client.health(timeout=0.2)
            assert "0.2s" in str(excinfo.value)
        finally:
            server.close()

    def test_dead_keepalive_socket_is_resent_once(self):
        body = b'{"status": "ok"}'
        response = (b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n"
                    b"Connection: keep-alive\r\n\r\n%s" % (len(body), body))

        def one_shot(conn):
            # Claim keep-alive, answer once, then drop the connection —
            # the client's next request hits a dead pooled socket.
            _recv_request(conn)
            conn.sendall(response)
            conn.close()

        server = _Server(one_shot)
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=5.0)
            assert client.health() == {"status": "ok"}
            # Transparent reconnect + re-send; the caller never notices.
            assert client.health() == {"status": "ok"}
            assert server.connections == 2
        finally:
            server.close()


class _FakeWarm:
    """Records which thread ran ``close`` (the evict callback target)."""

    def __init__(self):
        self.closed_on = None

    def close(self, wait=True):
        self.closed_on = threading.current_thread()


class TestCloseOffLoop:
    def test_runs_on_executor_when_loop_is_running(self):
        warm = _FakeWarm()

        async def scenario():
            loop_thread = threading.current_thread()
            _close_off_loop(warm)
            # The close lands on the default executor, not the loop.
            for _ in range(100):
                if warm.closed_on is not None:
                    break
                await asyncio.sleep(0.01)
            return loop_thread

        loop_thread = asyncio.run(scenario())
        assert warm.closed_on is not None
        assert warm.closed_on is not loop_thread

    def test_runs_inline_without_a_loop(self):
        warm = _FakeWarm()
        _close_off_loop(warm)
        assert warm.closed_on is threading.current_thread()

    def test_mitigated_tier_evict_uses_the_helper(self, tmp_path):
        """The wiring itself: evicting a mitigated entry while the event
        loop runs must not call ``close`` on the loop thread."""
        warm, loop_thread = _evict_on_loop(tmp_path, "mitigated")
        assert warm.closed_on is not None
        assert warm.closed_on is not loop_thread

    @pytest.mark.parametrize("tier", ["engines", "nets"])
    def test_every_thread_owning_tier_uses_the_helper(self, tmp_path, tier):
        """Engines and nets share the mitigated tier's eviction hook."""
        warm, loop_thread = _evict_on_loop(tmp_path, tier)
        assert warm.closed_on is not None
        assert warm.closed_on is not loop_thread


def _evict_on_loop(tmp_path, tier: str):
    """Evict one warm entry of ``tier`` from the event loop; returns it
    and the loop thread once its close has run (or after ~1 s)."""
    from repro.core.zoo import GeniexZoo
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(GeniexZoo(cache_dir=str(tmp_path / "zoo")))
    warm = _FakeWarm()

    async def scenario():
        loop_thread = threading.current_thread()
        cache = registry._tiers[tier].cache
        cache.put("a", warm)
        # Overflow the tier far beyond capacity to force eviction.
        for i in range(cache.max_entries + 1):
            cache.put(f"filler-{i}", _FakeWarm())
        for _ in range(100):
            if warm.closed_on is not None:
                break
            await asyncio.sleep(0.01)
        return loop_thread

    return warm, asyncio.run(scenario())
