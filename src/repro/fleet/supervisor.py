"""Worker process management for the fleet.

The supervisor spawns each worker as a real ``python -m repro serve``
subprocess (the unmodified single-process server — the fleet adds no
worker-side code path) on a loopback port, points them all at one shared
``--cache-dir`` so the content-addressed :class:`~repro.core.zoo.GeniexZoo`
becomes the fleet-wide artifact store (cross-process single-writer via
the zoo's file lock; every other worker disk-loads the persisted
``.npz``), and registers them with the front-end once ``/healthz``
answers.

:class:`FleetThread` is the in-process harness used by tests and
benchmarks: front-end plus supervisor on a background event-loop thread,
with a ``kill_worker`` crowbar for worker-death drills.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import socket
import subprocess
import sys
import threading

import repro
from repro.errors import ReproError
from repro.fleet.frontend import FleetFrontend
from repro.serve.httpio import encode_request, read_response

_log = logging.getLogger("repro.fleet")


class FleetError(ReproError, RuntimeError):
    """A worker failed to start or the fleet could not be assembled."""


def _free_port(host: str = "127.0.0.1") -> int:
    """An OS-assigned free TCP port (best effort; raced only in theory)."""
    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _worker_env() -> dict:
    """Child env with this interpreter's ``repro`` importable."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{src_dir}{os.pathsep}{existing}"
                         if existing else src_dir)
    return env


class WorkerProcess:
    """One ``repro serve`` subprocess owned by the supervisor."""

    def __init__(self, wid: str, host: str, port: int,
                 proc: subprocess.Popen):
        self.wid = wid
        self.host = host
        self.port = port
        self.proc = proc

    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """Hard-kill (worker-death drills); the supervisor notices."""
        if self.alive():
            self.proc.kill()

    def terminate(self, timeout_s: float = 10.0) -> None:
        """SIGTERM (graceful drain in the worker), escalate to kill."""
        if not self.alive():
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class FleetSupervisor:
    """Spawns, health-gates, and (optionally) respawns serve workers."""

    def __init__(self, n_workers: int, cache_dir: str, *,
                 host: str = "127.0.0.1", worker_args: list | None = None,
                 ready_timeout_s: float = 60.0, respawn: bool = False,
                 poll_interval_s: float = 0.5):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.cache_dir = cache_dir
        self.host = host
        self.worker_args = list(worker_args or [])
        self.ready_timeout_s = float(ready_timeout_s)
        self.respawn = bool(respawn)
        self.poll_interval_s = float(poll_interval_s)
        self.workers: dict = {}   # wid -> WorkerProcess
        self._task = None
        self._stopping = False

    # ------------------------------------------------------------------
    def _spawn(self, wid: str) -> WorkerProcess:
        port = _free_port(self.host)
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", self.host, "--port", str(port),
               "--cache-dir", self.cache_dir, *self.worker_args]
        proc = subprocess.Popen(cmd, env=_worker_env(),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        _log.info("spawned worker %s (pid %d) on %s:%d",
                  wid, proc.pid, self.host, port)
        return WorkerProcess(wid, self.host, port, proc)

    async def _wait_ready(self, worker: WorkerProcess) -> None:
        deadline = asyncio.get_running_loop().time() + self.ready_timeout_s
        probe = encode_request("GET", "/healthz",
                               headers={"Connection": "close"})
        while True:
            if not worker.alive():
                raise FleetError(
                    f"worker {worker.wid} (pid {worker.proc.pid}) exited "
                    f"with code {worker.proc.returncode} before becoming "
                    f"healthy")
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(worker.host, worker.port), 2.0)
                try:
                    writer.write(probe)
                    await writer.drain()
                    status, _h, _b, _k = await asyncio.wait_for(
                        read_response(reader), 2.0)
                finally:
                    writer.close()
                if status == 200:
                    return
            except (OSError, TimeoutError, ConnectionError):
                pass
            if asyncio.get_running_loop().time() > deadline:
                raise FleetError(
                    f"worker {worker.wid} on {worker.host}:{worker.port} "
                    f"not healthy within {self.ready_timeout_s:g}s")
            await asyncio.sleep(0.1)

    # ------------------------------------------------------------------
    async def start(self, frontend: FleetFrontend) -> None:
        """Spawn all workers, wait until healthy, register with the pool."""
        for i in range(self.n_workers):
            wid = f"w{i}"
            self.workers[wid] = self._spawn(wid)
        try:
            await asyncio.gather(
                *(self._wait_ready(w) for w in self.workers.values()))
        except FleetError:
            await self.stop()
            raise
        for worker in self.workers.values():
            frontend.add_worker(worker.wid, worker.host, worker.port)
        self._task = asyncio.get_running_loop().create_task(
            self._watch(frontend))

    async def _watch(self, frontend: FleetFrontend) -> None:
        """Notice dead workers fast; optionally respawn and re-register."""
        while not self._stopping:
            await asyncio.sleep(self.poll_interval_s)
            for wid, worker in list(self.workers.items()):
                if worker.alive():
                    continue
                frontend._mark_dead(wid, f"process exited "
                                         f"({worker.proc.returncode})")
                if not self.respawn or self._stopping:
                    continue
                replacement = self._spawn(wid)
                self.workers[wid] = replacement
                try:
                    await self._wait_ready(replacement)
                except FleetError as exc:
                    _log.error("respawn of worker %s failed: %s", wid, exc)
                    continue
                frontend.add_worker(wid, replacement.host,
                                    replacement.port)

    async def stop(self) -> None:
        """SIGTERM every worker (graceful drain), escalating to kill."""
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        loop = asyncio.get_running_loop()
        await asyncio.gather(*(
            loop.run_in_executor(None, worker.terminate)
            for worker in self.workers.values()))
        self.workers.clear()


class FleetThread:
    """Front-end + supervised workers on a background thread, for tests.

    Mirrors the ``ServerThread`` harness: ``start()`` blocks until every
    worker is healthy and the front-end is listening; ``stop()`` tears the
    whole fleet down. ``kill_worker`` hard-kills a worker process for
    death drills; ``run`` executes a coroutine on the fleet loop.
    """

    def __init__(self, n_workers: int, cache_dir: str, *,
                 frontend_kwargs: dict | None = None,
                 worker_args: list | None = None,
                 respawn: bool = False):
        self.frontend = FleetFrontend(**(frontend_kwargs or {}))
        self.supervisor = FleetSupervisor(
            n_workers, cache_dir, worker_args=worker_args, respawn=respawn)
        self.host = "127.0.0.1"
        self.port = None
        self._loop = None
        self._thread = None
        self._ready = threading.Event()
        self._error = None

    def start(self, timeout_s: float = 120.0) -> "FleetThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="fleet-thread")
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise FleetError("fleet did not become ready in time")
        if self._error is not None:
            raise self._error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._boot())
        except Exception as exc:   # surface boot failures to start()
            self._error = FleetError(f"fleet boot failed: {exc}")
            self._loop.close()
            self._ready.set()
            return
        finally:
            if self._error is None and not self._ready.is_set():
                self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    async def _boot(self) -> None:
        await self.frontend.start(self.host, 0)
        try:
            await self.supervisor.start(self.frontend)
        except Exception:
            await self.frontend.close()
            raise
        self.port = self.frontend.port

    def run(self, coro, timeout_s: float = 60.0):
        """Run a coroutine on the fleet's event loop and wait for it."""
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout_s)

    def kill_worker(self, wid: str) -> None:
        """Hard-kill one worker process (it stays dead unless respawn)."""
        self.supervisor.workers[wid].kill()

    def stop(self) -> None:
        if self._loop is None:
            return

        async def teardown():
            await self.supervisor.stop()
            await self.frontend.close()

        try:
            asyncio.run_coroutine_threadsafe(
                teardown(), self._loop).result(60.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)


__all__ = ["FleetError", "FleetSupervisor", "FleetThread",
           "WorkerProcess"]
