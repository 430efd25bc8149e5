"""Load generator for the serving layer: microbatching vs per-request.

Boots a real :class:`EmulationServer` (random port, background thread) and
hammers the ``/v1/matmul`` endpoint with a realistic DNN-layer workload: a
64x32 weight matrix mapped onto 16x16 GENIEx crossbar tiles (4x2 tile
grid, paper-default 16-bit formats), one input vector per request, from
``C`` concurrent keep-alive client connections. Two server configurations
are compared at identical load:

* **microbatch** — ``max_batch_rows=64``, 2 ms flush deadline: concurrent
  single-vector requests coalesce into large engine batches;
* **per-request** — ``max_batch_rows=1``: every request is dispatched as
  its own engine call (the pre-serving execution model).

Results (requests/sec at concurrency 1/16/64, mean coalesced batch size,
speedups) are printed and written to ``BENCH_serve.json`` at the repo
root. Asserted invariant: at concurrency 64 microbatching sustains >= 5x
the per-request throughput, with real coalescing (mean batch > 4 rows).

Run with ``pytest benchmarks/bench_serve.py -s`` or directly with
``PYTHONPATH=src python benchmarks/bench_serve.py``.
"""

import json
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.core.zoo import GeniexZoo
from repro.serve.client import ServeClient, ServerBusyError
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "BENCH_serve.json")

MODEL = {
    "rows": 16, "cols": 16,
    "sampling": {"n_g_matrices": 6, "n_v_per_g": 10, "seed": 0},
    "training": {"hidden": 32, "epochs": 15, "batch_size": 32, "seed": 0},
}
LAYER_SHAPE = (64, 32)  # spans a 4x2 grid of 16x16 crossbar tiles
CONCURRENCY = (1, 16, 64)
MEASURE_S = 2.0
WARMUP_S = 0.4
SPEEDUP_FLOOR = 5.0

# Model-level serving leg: a 3-linear-layer MLP on the same 16x16 geniex
# tiles, served as one compiled network per request vs driven
# layer-by-layer over /v1/matmul (the pre-model-serving execution model).
NET_SIZES = (64, 48, 32, 10)
NET_SPEEDUP_FLOOR = 3.0
NET_CONCURRENCY = (1, 16, 64)


def _cache_dir():
    env = os.environ.get("REPRO_CACHE_DIR")
    return env or os.path.join(tempfile.gettempdir(), "repro-bench-serve")


def _boot(max_batch_rows: int, tracing: bool = True):
    registry = ModelRegistry(GeniexZoo(cache_dir=_cache_dir()),
                             tile_cache_size=0)  # measure the model, not
    server = EmulationServer(registry,          # the tile-result cache
                             max_batch_rows=max_batch_rows,
                             flush_deadline_s=0.002,
                             max_queue_rows=8192,
                             tracing=tracing)
    return ServerThread(server)


def _workload(port: int, weights_key: str, concurrency: int):
    """Fire single-vector matmul requests from ``concurrency`` clients.

    Thread-per-connection load generation in-process: on the small CI
    boxes this repo targets (often one core) extra load-generator
    processes only add scheduler thrash, and the client-side work is
    identical for both server configurations, so the comparison stays
    fair.
    """
    rng = np.random.default_rng(42)
    vectors = rng.standard_normal((256, LAYER_SHAPE[0])).tolist()
    stop = threading.Event()
    counts = [0] * concurrency
    rejected = [0] * concurrency
    errors = []
    start_barrier = threading.Barrier(concurrency + 1)

    def worker(wid):
        try:
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                start_barrier.wait()
                i = wid
                while not stop.is_set():
                    try:
                        client.matmul(vectors[i % len(vectors)],
                                      weights_key=weights_key)
                        counts[wid] += 1
                    except ServerBusyError:
                        rejected[wid] += 1
                        time.sleep(0.001)
                    i += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(concurrency)]
    for t in threads:
        t.start()
    start_barrier.wait()
    time.sleep(WARMUP_S)
    baseline = sum(counts)
    t0 = time.perf_counter()
    time.sleep(MEASURE_S)
    measured = sum(counts) - baseline
    elapsed = time.perf_counter() - t0
    stop.set()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return measured / elapsed, sum(rejected)


def _run_mode(label: str, max_batch_rows: int,
              tracing: bool = True) -> dict:
    results = {}
    for concurrency in CONCURRENCY:
        with _boot(max_batch_rows, tracing=tracing) as handle:
            with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
                c.load_model(MODEL)
                weights = (np.random.default_rng(7)
                           .standard_normal(LAYER_SHAPE) * 0.4)
                key = c.register_weights(MODEL, weights, engine="geniex")
                rps, rejected = _workload(handle.port, key, concurrency)
                metrics = c.metrics()
                micro = metrics["microbatch"]
            results[str(concurrency)] = {
                "requests_per_s": round(rps, 1),
                "rejected": rejected,
                "mean_batch_rows": round(micro["mean_rows_per_batch"], 2),
                "batches": micro["batches"],
                # Server-side latency histogram percentiles (ms), from
                # the repro.obs metrics registry.
                "latency": metrics.get("latency", {}),
            }
            print(f"{label:<12} c={concurrency:<3} "
                  f"{rps:>8.1f} req/s   "
                  f"mean batch {micro['mean_rows_per_batch']:.2f} rows "
                  f"({rejected} rejected)")
    return results


def _tracing_overhead(micro: dict) -> dict:
    """Re-run the microbatch c=16 point with tracing disabled.

    Compares against the traced run from ``micro`` to put a number on
    the per-request cost of span recording (metrics stay on in both —
    they are constitutive of the serving layer, not optional).
    """
    concurrency = 16
    with _boot(64, tracing=False) as handle:
        with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
            c.load_model(MODEL)
            weights = (np.random.default_rng(7)
                       .standard_normal(LAYER_SHAPE) * 0.4)
            key = c.register_weights(MODEL, weights, engine="geniex")
            rps, _ = _workload(handle.port, key, concurrency)
    traced_rps = micro[str(concurrency)]["requests_per_s"]
    overhead_pct = (rps - traced_rps) / rps * 100.0 if rps else 0.0
    print(f"tracing-off  c={concurrency:<3} {rps:>8.1f} req/s   "
          f"(tracing overhead {overhead_pct:+.1f}%)")
    return {
        "concurrency": concurrency,
        "requests_per_s_tracing_off": round(rps, 1),
        "requests_per_s_tracing_on": traced_rps,
        "overhead_pct": round(overhead_pct, 2),
    }


def _net_spec():
    from repro.api import EmulationSpec
    return EmulationSpec.from_dict({
        "engine": "geniex",
        "xbar": {"rows": MODEL["rows"], "cols": MODEL["cols"]},
        "emulator": {"sampling": MODEL["sampling"],
                     "training": MODEL["training"]},
    })


def _net_model():
    from repro.models.mlp import MLP
    return MLP(list(NET_SIZES), seed=7)


def _image_workload(port: int, concurrency: int, predict_one):
    """Fire one-image requests from ``concurrency`` clients; returns
    (images/s, rejected). ``predict_one(client, vector)`` runs a single
    image end to end through whichever wire path is being measured."""
    rng = np.random.default_rng(42)
    vectors = rng.standard_normal((256, NET_SIZES[0]))
    stop = threading.Event()
    counts = [0] * concurrency
    rejected = [0] * concurrency
    errors = []
    start_barrier = threading.Barrier(concurrency + 1)

    def worker(wid):
        try:
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                start_barrier.wait()
                i = wid
                while not stop.is_set():
                    try:
                        predict_one(client, vectors[i % len(vectors)])
                        counts[wid] += 1
                    except ServerBusyError:
                        rejected[wid] += 1
                        time.sleep(0.001)
                    i += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,))
               for w in range(concurrency)]
    for t in threads:
        t.start()
    start_barrier.wait()
    time.sleep(WARMUP_S)
    baseline = sum(counts)
    t0 = time.perf_counter()
    time.sleep(MEASURE_S)
    measured = sum(counts) - baseline
    elapsed = time.perf_counter() - t0
    stop.set()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return measured / elapsed, sum(rejected)


def _run_net_mode() -> tuple:
    """Compiled-network inference: one /v1/net_predict per image."""
    spec = _net_spec()
    model = _net_model()
    results = {}
    compile_seconds = None
    for concurrency in NET_CONCURRENCY:
        with _boot(64) as handle:
            with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
                upload = c.upload_net(model, spec=spec)
                if compile_seconds is None:
                    compile_seconds = upload["compile_seconds"]
                key = upload["net_key"]
                ips, rejected = _image_workload(
                    handle.port, concurrency,
                    lambda client, v: client.net_predict(v, net_key=key))
                net = c.metrics()["net"]
            results[str(concurrency)] = {
                "images_per_s": round(ips, 1),
                "rejected": rejected,
                "mean_layer_batch_rows": round(net["mean_layer_rows"], 2),
                "layer_executions": net["layer_executions"],
            }
            print(f"{'net-predict':<12} c={concurrency:<3} "
                  f"{ips:>8.1f} img/s   "
                  f"mean layer batch {net['mean_layer_rows']:.2f} rows "
                  f"({rejected} rejected)")
    return results, compile_seconds


def _run_layer_rpc_mode(max_batch_rows: int, label: str) -> dict:
    """The pre-model-serving path: the client walks the same MLP one
    /v1/matmul per layer per image, applying activations locally.

    ``max_batch_rows=1`` is the execution model the tentpole replaces —
    each request's layer matmuls dispatched sequentially, per request —
    while ``max_batch_rows=64`` keeps cross-request matmul coalescing
    on, the strongest layer-RPC configuration (still paying one HTTP
    round trip and one scheduler pass per layer per image)."""
    results = {}
    model = _net_model()
    layer_weights = [np.asarray(lin.weight.data, dtype=np.float64).T
                     for lin in model.body._modules.values()
                     if hasattr(lin, "weight")]
    for concurrency in NET_CONCURRENCY:
        with _boot(max_batch_rows) as handle:
            with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
                c.load_model(MODEL)
                keys = [c.register_weights(MODEL, w, engine="geniex")
                        for w in layer_weights]

                def one(client, v, keys=keys):
                    x = v
                    for i, key in enumerate(keys):
                        x = client.matmul(x, weights_key=key)
                        if i < len(keys) - 1:
                            x = np.maximum(x, 0.0)

                ips, rejected = _image_workload(handle.port, concurrency,
                                                one)
            results[str(concurrency)] = {
                "images_per_s": round(ips, 1),
                "rejected": rejected,
            }
            print(f"{label:<12} c={concurrency:<3} "
                  f"{ips:>8.1f} img/s   ({rejected} rejected)")
    return results


def _amortization_curve(compile_seconds: float,
                        images_per_s_c1: float) -> list:
    """Effective ms/image including the one-off server-side compile,
    after N predictions — how fast the upload cost washes out."""
    per_image_s = 1.0 / images_per_s_c1 if images_per_s_c1 else 0.0
    return [{"images": n,
             "effective_ms_per_image": round(
                 (compile_seconds + n * per_image_s) / n * 1e3, 3)}
            for n in (1, 10, 100, 1000, 10000)]


def run_bench() -> dict:
    print(f"\nserving benchmark: 64x32 layer on 16x16 GENIEx crossbar "
          f"tiles, {MEASURE_S:.0f}s per point, zoo cache at {_cache_dir()}")
    micro = _run_mode("microbatch", 64)
    single = _run_mode("per-request", 1)
    overhead = _tracing_overhead(micro)
    speedups = {c: round(micro[c]["requests_per_s"]
                         / single[c]["requests_per_s"], 2)
                for c in micro}
    print(f"\nmodel-level serving: MLP {'x'.join(map(str, NET_SIZES))} "
          f"on the same tiles, one image per request")
    net, compile_seconds = _run_net_mode()
    layer_rpc = _run_layer_rpc_mode(1, "layer-rpc")
    layer_rpc_micro = _run_layer_rpc_mode(64, "layer-rpc-mb")
    net_speedups = {c: round(net[c]["images_per_s"]
                             / layer_rpc[c]["images_per_s"], 2)
                    for c in net}
    net_speedups_micro = {c: round(net[c]["images_per_s"]
                                   / layer_rpc_micro[c]["images_per_s"], 2)
                          for c in net}
    report = {
        "workload": "POST /v1/matmul, one 64-vector per request, 64x32 "
                    "weight layer on 16x16 geniex crossbar tiles, "
                    "paper-default 16-bit formats",
        "measure_seconds": MEASURE_S,
        # On 1-CPU CI containers all numbers share one core: they
        # demonstrate coalescing/protocol wins (fewer engine calls and
        # round trips per image), not hardware parallelism.
        "cpus_available": len(os.sched_getaffinity(0)),
        "microbatch": micro,
        "per_request": single,
        "speedup": speedups,
        "tracing_overhead": overhead,
        "net_predict": {
            "workload": f"POST /v1/net_predict, one image per request, "
                        f"MLP {'x'.join(map(str, NET_SIZES))} compiled "
                        f"server-side on the same geniex tiles",
            "results": net,
            "compile_seconds": round(compile_seconds, 3),
            "compile_amortization": _amortization_curve(
                compile_seconds, net["1"]["images_per_s"]),
        },
        "layer_matmul_baseline": {
            "workload": "same MLP driven one /v1/matmul per layer per "
                        "image (activations applied client-side), "
                        "per-request dispatch (max_batch_rows=1) — the "
                        "execution model model-level serving replaces",
            "results": layer_rpc,
        },
        "layer_matmul_microbatched": {
            "workload": "same layer-RPC drive against a coalescing "
                        "matmul server (max_batch_rows=64) — the "
                        "strongest layer-RPC configuration",
            "results": layer_rpc_micro,
        },
        "net_speedup_vs_layer_rpc": net_speedups,
        "net_speedup_vs_microbatched_layer_rpc": net_speedups_micro,
    }
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nspeedup vs per-request dispatch: "
          + "  ".join(f"c={c}: {s:.2f}x" for c, s in speedups.items()))
    print(f"net-predict vs layer-rpc: "
          + "  ".join(f"c={c}: {s:.2f}x" for c, s in net_speedups.items()))
    print(f"wrote {OUTPUT}")
    return report


@pytest.mark.bench
def test_serve_throughput_scales_with_microbatching():
    report = run_bench()
    assert report["speedup"]["64"] >= SPEEDUP_FLOOR
    # Microbatching must actually be coalescing at high concurrency…
    assert report["microbatch"]["64"]["mean_batch_rows"] > 4.0
    # …while per-request dispatch stays at batch size 1 by construction.
    assert report["per_request"]["64"]["mean_batch_rows"] == 1.0
    # Model-level serving: compiled whole-network inference must beat
    # driving the same MLP layer-by-layer over /v1/matmul…
    assert report["net_speedup_vs_layer_rpc"]["16"] >= NET_SPEEDUP_FLOOR
    # …because concurrent images coalesce into shared per-layer batches.
    net16 = report["net_predict"]["results"]["16"]
    assert net16["mean_layer_batch_rows"] > 1.0


if __name__ == "__main__":
    run_bench()
