"""``serve-net``: model-level serving over HTTP, closed loop.

``python -m repro serve`` runs as its own process with CLI defaults
(flush deadline, tile cache, tracing and executor all at their defaults)
over a fresh copy of a zoo directory pre-warmed with the ``quick``
preset's emulator. The benchmark uploads the MLP 64x48x32x10
(``/v1/nets``, ``quick`` preset), then one client on a keep-alive
connection sends one fresh image per ``/v1/net_predict`` and waits for
the reply before sending the next: this service's callers (sweep
drivers, notebooks) wait for each answer. HTTP, JSON, the queue and the
scheduler dominate; funcsim runs batch-invariant on 1-row batches, the
opposite use of the kernel from ``cnn-accuracy``.

* Set-up: process spawn until ``/healthz`` answers, plus the upload
  (which compiles the net). Repeated on fresh servers, median reported.
* Output check: a seeded sample of responses is compared with an
  in-process forward of the same net under the registry's serving spec
  (batch-invariant), the contract ``tests/serve/test_net_serve.py`` pins.
  The share that is byte-identical is reported; a difference above
  ``CHECK_ATOL`` fails the check.
* Traced run: the benchmark polls the server's ``/v1/debug/traces`` and
  reads its JSON ``/metrics``; windows with and without polling
  alternate, which gives the tracing overhead.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
from time import perf_counter, sleep

import numpy as np

import inputs
from result import Result, process_peak_rss_mb
from tracer import median, percentile

# One connection: with two, images/s was bimodal from run to run,
# depending on whether the clients paired up in the scheduler.
CLIENTS = 1
SETUP_REPS = 3
WARMUP_S = 0.5
TRACE_WINDOW_S = 2.0
TRACE_POLL_S = 0.5
CHECK_SHARE = 1.0 / 16
CHECK_ATOL = 1e-2
BOOT_TIMEOUT_S = 60.0
# A p99 has at least 10 samples beyond it from 1000 samples on.
TAIL_SAMPLES = 1000
FLUSH_REASONS = ("full", "deadline", "completion")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``python -m repro serve`` process over a private zoo copy."""

    def __init__(self, work: str, index: int):
        self.zoo = os.path.join(work, f"zoo-{index}")
        shutil.copytree(inputs.serve_zoo_dir(), self.zoo,
                        ignore=shutil.ignore_patterns("*.lock"))
        self.log_path = os.path.join(work, f"serve-{index}.log")
        self.port = _free_port()
        self.proc = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = inputs.SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = self.zoo
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port",
                 str(self.port), "--cache-dir", self.zoo],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=inputs.ROOT)
        deadline = perf_counter() + BOOT_TIMEOUT_S
        while perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_tail()}")
            try:
                socket.create_connection(("127.0.0.1", self.port), 1).close()
                return
            except OSError:
                sleep(0.002)
        raise RuntimeError(f"server did not listen: {self.log_tail()}")

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def _boot_and_upload(server: Server, model, spec):
    from repro.serve.client import ServeClient
    t0 = perf_counter()
    server.start()
    with ServeClient("127.0.0.1", server.port, timeout=60) as client:
        client.health()
        boot = perf_counter() - t0
        t1 = perf_counter()
        key = client.upload_net(model, spec=spec)["net_key"]
        upload = perf_counter() - t1
    return key, boot, upload


def _spans(node, name: str):
    """Every span called ``name`` (or starting with it) in a trace tree."""
    for span in node.get("spans", node.get("children", [])):
        if span["name"] == name or (name.endswith(":")
                                    and span["name"].startswith(name)):
            yield span
        yield from _spans(span, name)


class Load:
    """Closed-loop clients plus, in traced windows, a trace poller."""

    def __init__(self, port: int, key: str, seed: int, trace: bool):
        self.port, self.key, self.seed, self.trace = port, key, seed, trace
        self.stop = threading.Event()
        self.lock = threading.Lock()
        self.done = []        # (t_end, latency_s, traced_window)
        self.failed = 0
        self.samples = []     # (x, served logits)
        self.errors = []
        self.traces = {}
        self.t_begin = 0.0

    def traced_window(self, t: float) -> bool:
        return self.trace and int((t - self.t_begin) / TRACE_WINDOW_S) % 2 == 1

    def client(self, cid: int) -> None:
        from repro.serve.client import ServeClient, ServerBusyError
        images = np.random.default_rng([self.seed, 0x1E, cid])
        pick = np.random.default_rng([self.seed, 0xC4, cid])
        try:
            with ServeClient("127.0.0.1", self.port, timeout=60) as client:
                while not self.stop.is_set():
                    x = images.standard_normal(inputs.SERVE_NET_SIZES[0])
                    check = pick.random() < CHECK_SHARE
                    t0 = perf_counter()
                    try:
                        logits = client.net_predict(x, net_key=self.key)
                    except ServerBusyError:
                        with self.lock:
                            self.failed += 1
                        sleep(0.001)
                        continue
                    t1 = perf_counter()
                    with self.lock:
                        self.done.append((t1, t1 - t0, self.traced_window(t0)))
                        if check:
                            self.samples.append((x, logits))
        except Exception as exc:  # a failed operation ends this client
            with self.lock:
                self.failed += 1
                self.errors.append(repr(exc))

    def poller(self) -> None:
        from repro.serve.client import ServeClient
        with ServeClient("127.0.0.1", self.port, timeout=60) as client:
            while not self.stop.is_set():
                if self.traced_window(perf_counter()):
                    for trace in client.traces():
                        if trace.get("name") == "POST /v1/net_predict":
                            self.traces[trace["trace_id"]] = trace
                sleep(TRACE_POLL_S)

    def run(self, seconds: float) -> tuple:
        threads = [threading.Thread(target=self.client, args=(cid,))
                   for cid in range(CLIENTS)]
        if self.trace:
            threads.append(threading.Thread(target=self.poller))
        self.t_begin = perf_counter() + WARMUP_S
        for thread in threads:
            thread.start()
        sleep(WARMUP_S)
        t_start = perf_counter()
        sleep(seconds)
        t_end = perf_counter()
        self.stop.set()
        for thread in threads:
            thread.join(timeout=90)
        return t_start, t_end


def _reference_logits(model, spec, xs: np.ndarray) -> np.ndarray:
    """In-process forward under the server's serving spec (float64)."""
    from repro.api import open_session
    from repro.core.zoo import GeniexZoo
    from repro.nn.tensor import Tensor, no_grad
    from repro.serve.registry import ModelRegistry
    zoo = GeniexZoo(cache_dir=inputs.serve_zoo_dir())
    sspec = ModelRegistry(zoo).serving_spec(spec)
    with open_session(sspec, zoo=zoo) as session:
        net = session.compile(model)
        with no_grad():
            return net(Tensor(np.asarray(xs, dtype=np.float64))).data \
                .astype(np.float64)


def _metrics_delta(before: dict, after: dict) -> dict:
    mb0, mb1 = before["microbatch"], after["microbatch"]
    net0, net1 = before["net"], after["net"]
    batches = mb1["batches"] - mb0["batches"]
    rows = mb1["rows"] - mb0["rows"]
    execs = net1["layer_executions"] - net0["layer_executions"]
    layer_rows = (net1["mean_layer_rows"] * net1["layer_executions"]
                  - net0["mean_layer_rows"] * net0["layer_executions"])
    reasons = {r: mb1["flush_reasons"].get(r, 0) - mb0["flush_reasons"].get(r, 0)
               for r in set(mb0["flush_reasons"]) | set(mb1["flush_reasons"])}
    return {"mean_rows_per_batch": rows / batches if batches else 0.0,
            "mean_layer_rows": layer_rows / execs if execs else 0.0,
            "flush_reasons": reasons,
            "rejected": after["rejected"] - before["rejected"]}


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.serve.client import ServeClient

    result = Result()
    spec = inputs.serve_spec()
    model = inputs.serve_model()
    work = inputs.work_dir()
    servers = []
    try:
        boots, uploads = [], []
        for index in range(SETUP_REPS):
            server = Server(work, index)
            servers.append(server)
            key, boot, upload = _boot_and_upload(server, model, spec)
            boots.append(boot)
            uploads.append(upload)
            if index < SETUP_REPS - 1:
                server.stop()
        server = servers[-1]
        with ServeClient("127.0.0.1", server.port, timeout=60) as client:
            before = client.metrics()
            load = Load(server.port, key, seed, trace)
            t_start, t_end = load.run(seconds)
            after = client.metrics()
        peak_rss = process_peak_rss_mb(server.proc.pid)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    window = [(lat, traced) for t, lat, traced in load.done
              if t_start <= t <= t_end]
    plain = [lat for lat, traced in window if not traced]
    traced_lat = [lat for lat, traced in window if traced]
    # Alternating windows are equal in length, so in a traced run each
    # class of window covers half of the measured time.
    plain_s = (t_end - t_start) / (2.0 if trace else 1.0)
    traced_s = plain_s if trace else 0.0
    result.attempted = len(load.done) + load.failed
    result.failed = load.failed
    result.info["errors"] = load.errors

    # Byte-identity is the serving contract, but the unmodified program
    # breaks it on a few rows in a thousand (differences up to ~1e-3,
    # depending on what the engine ran before), so a run fails only on a
    # real numeric error and reports the identical share as a layer metric.
    identical = wrong = 0
    worst = 0.0
    if load.samples:
        xs = np.stack([x for x, _ in load.samples])
        served = np.stack([np.asarray(y, dtype=np.float64)
                           for _, y in load.samples])
        reference = _reference_logits(model, spec, xs)
        identical = sum(served[i].tobytes() == reference[i].tobytes()
                        for i in range(len(xs)))
        errors = np.abs(served - reference).max(axis=1)
        worst = float(errors.max())
        wrong = int((errors > CHECK_ATOL).sum())
    result.check("matches-session-forward", bool(load.samples) and wrong == 0,
                 f"{identical} of {len(load.samples)} sampled responses "
                 f"byte-identical; max abs difference {worst:.3g}",
                 failures=wrong if load.samples else 1)
    result.info["identical_responses"] = identical
    result.info["max_abs_difference"] = worst

    result.e2e = {
        "setup_s": median(b + u for b, u in zip(boots, uploads)),
        "success_rate": result.success_rate(),
        "peak_rss_mb": peak_rss,
        "latency_p50_ms": median(plain) * 1e3,
        "items_per_s": len(plain) / plain_s,
    }
    per_second = {}
    for t, lat, traced in load.done:
        if t_start <= t <= t_end and not traced:
            per_second.setdefault(int(t - t_start), []).append(lat)
    result.info["latency_p50_ms_by_second"] = [
        round(median(v) * 1e3, 3) for _, v in sorted(per_second.items())]
    result.info.update({"requests_timed": len(plain), "clients": CLIENTS,
                        "p99_has_10_beyond": len(plain) >= TAIL_SAMPLES,
                        "sampled_checks": len(load.samples),
                        "boot_s": boots, "upload_s": uploads})

    delta = _metrics_delta(before, after)
    layers = {
        "serve.boot_s": median(boots),
        "serve.upload_s": median(uploads),
        "serve.latency_p99_ms": percentile(plain, 99.0) * 1e3,
        "serve.mean_rows_per_batch": delta["mean_rows_per_batch"],
        "serve.mean_layer_rows": delta["mean_layer_rows"],
        "serve.rejected": delta["rejected"],
        "serve.identical_share": identical / len(load.samples)
        if load.samples else 0.0,
    }
    for reason in FLUSH_REASONS:
        layers[f"serve.flush_reasons.{reason}"] = \
            delta["flush_reasons"].get(reason, 0)
    result.info["flush_reasons"] = delta["flush_reasons"]
    if trace:
        traces = list(load.traces.values())
        http = [t["meta"]["duration_ms"] for t in traces]
        queue = [s["duration_ms"] for t in traces
                 for s in _spans(t, "queue-wait")]
        execute = [s["duration_ms"] for t in traces
                   for s in _spans(t, "batch-execute")]
        layer_sums = [sum(s["duration_ms"] for s in _spans(t, "layer-execute:"))
                      for t in traces]
        client_p50 = median(traced_lat) * 1e3
        layers.update({
            "serve.traces": len(traces),
            "serve.http_ms.p50": median(http),
            "serve.client_overhead_ms.p50": client_p50 - median(http),
            "serve.queue_wait_ms.p50": median(queue),
            "serve.queue_wait_ms.p99": percentile(queue, 99.0),
            "serve.batch_execute_ms.p50": median(execute),
            "serve.layer_execute_ms.sum_p50": median(layer_sums),
            "trace.coverage": median(http) / client_p50 if client_p50 else 0.0,
            "overhead.latency_p50_ms": client_p50 - result.e2e["latency_p50_ms"],
            "overhead.items_per_s": (len(traced_lat) / traced_s
                                     - result.e2e["items_per_s"])
            if traced_s else 0.0,
        })
    result.layers = layers
    return result
