"""Fleet throughput: req/s through the front-end at 1/2/4 workers.

Boots a real fleet (front-end + ``N`` ``repro serve`` worker processes
over one shared zoo cache) and hammers ``POST /v1/matmul`` through the
front-end from ``C`` concurrent keep-alive clients, round-robining over
several distinct tiny models, in two workloads:

* ``weights_key`` — one client first registers each model's weights
  (``/v1/weights``), then every request names its ``weights_key``. A
  prepared engine lives only in the memory of the worker that built it,
  so each request goes to the worker holding its key; the front-end
  spreads the registrations over the pool (fewest pins first).
* ``inline`` — each request carries its model and weights. It names no
  memory-only key, so it goes to the least-loaded worker.

Results (req/s per worker count and workload, per-worker forward
distribution) are printed and written to ``BENCH_fleet.json`` at the
repo root. Every worker must take forwards in both workloads. The JSON
records ``cpus_available`` and
scaling is only asserted when the host actually exposes >= 4 CPUs —
worker processes cannot create cores, and on the single-CPU containers
this repo targets, extra workers only add scheduler thrash (the numbers
then demonstrate routing correctness under load, not speedup).

Run with ``pytest benchmarks/bench_fleet.py -s`` or directly with
``PYTHONPATH=src python benchmarks/bench_fleet.py``.
"""

import json
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.fleet import FleetThread
from repro.serve.client import ServeClient, ServerBusyError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "BENCH_fleet.json")

WORKER_COUNTS = (1, 2, 4)
N_MODELS = 8          # distinct models, each warmed on every worker
CONCURRENCY = 16
MEASURE_S = 2.0
WARMUP_S = 0.4


def _models():
    """Tiny models differing only in seeds — distinct model keys."""
    return [{
        "rows": 4, "cols": 4,
        "sampling": {"n_g_matrices": 3, "n_v_per_g": 4, "seed": i},
        "training": {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": i},
    } for i in range(N_MODELS)]


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cache_dir():
    env = os.environ.get("REPRO_CACHE_DIR")
    return env or os.path.join(tempfile.gettempdir(), "repro-bench-fleet")


def _workload(port: int, calls: list, concurrency: int):
    """Single-vector matmuls round-robining over ``calls``.

    Each entry of ``calls`` is the keyword set of one
    :meth:`ServeClient.matmul` (a ``weights_key``, or a model and its
    weights). Thread-per-connection load generation in-process, as in
    ``bench_serve`` — on small CI boxes extra load-generator processes
    only add scheduler thrash, and the client-side cost is identical at
    every worker count, so the comparison stays fair.
    """
    rng = np.random.default_rng(42)
    vectors = rng.standard_normal((64, 4)).tolist()
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
                                      **calls[i % len(calls)])
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


def _run_fleet(n_workers: int, cache_dir: str) -> dict:
    """Both workloads on one fleet; forwards are counted per workload."""
    fleet = FleetThread(n_workers, cache_dir,
                        worker_args=["--max-batch", "64"]).start()
    try:
        models = _models()
        weights = [np.random.default_rng(100 + i).standard_normal((4, 4))
                   * 0.4 for i in range(N_MODELS)]
        results = {}
        with ServeClient("127.0.0.1", fleet.port, timeout=300) as client:
            for model in models:
                client.load_model(model)
            workloads = {
                "weights_key": [
                    {"weights_key": client.register_weights(
                        model, w, engine="geniex")}
                    for model, w in zip(models, weights)],
                "inline": [{"model": model, "weights": w,
                            "engine": "geniex"}
                           for model, w in zip(models, weights)],
            }
            before = client.metrics()["fleet"]
            for name, calls in workloads.items():
                rps, rejected = _workload(fleet.port, calls, CONCURRENCY)
                summary = client.metrics()["fleet"]
                forwards = {wid: count - before["forwards"].get(wid, 0)
                            for wid, count in summary["forwards"].items()}
                before = summary
                results[name] = {
                    "requests_per_s": round(rps, 1),
                    "rejected": rejected,
                    "forwards_by_worker": forwards,
                }
                print(f"workers={n_workers:<2} c={CONCURRENCY:<3} "
                      f"{name:<12} {rps:>8.1f} req/s   "
                      f"forwards {forwards} ({rejected} rejected)")
        results.update(retries=summary["retries"],
                       evictions=summary["evictions"],
                       latency=summary["latency"])
        return results
    finally:
        fleet.stop()


def run_bench() -> dict:
    cache_dir = _cache_dir()
    print(f"\nfleet benchmark: {N_MODELS} tiny models over "
          f"POST /v1/matmul, {MEASURE_S:.0f}s per point, shared zoo "
          f"cache at {cache_dir}")
    report = {
        "workload": f"POST /v1/matmul, one 4-vector per request, "
                    f"{N_MODELS} distinct 4x4 geniex models round-"
                    f"robined from {CONCURRENCY} keep-alive clients; "
                    f"'weights_key' names weights registered by one "
                    f"client, 'inline' carries the model and weights",
        "cpus_available": _cpus(),
        "measure_seconds": MEASURE_S,
        "workers": {},
    }
    if report["cpus_available"] < max(WORKER_COUNTS):
        report["note"] = (
            "host exposes fewer CPUs than the largest fleet; worker "
            "processes cannot create cores, so multi-worker numbers on "
            "this host measure routing overhead and correctness under "
            "load, not throughput scaling")
    for n_workers in WORKER_COUNTS:
        report["workers"][str(n_workers)] = _run_fleet(n_workers,
                                                       cache_dir)
    with open(OUTPUT, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\ncpus available: {report['cpus_available']}")
    print(f"wrote {OUTPUT}")
    return report


@pytest.mark.bench
def test_fleet_throughput_across_worker_counts():
    report = run_bench()
    for n_workers in WORKER_COUNTS:
        point = report["workers"][str(n_workers)]
        # Routing stayed stable under load: nothing died mid-bench.
        assert point["evictions"] == 0
        # The pool leaves no worker idle: one client's registered keys
        # spread over every worker, and inline requests follow load.
        for workload in ("weights_key", "inline"):
            assert point[workload]["requests_per_s"] > 0
            forwards = point[workload]["forwards_by_worker"]
            assert set(forwards) == {f"w{i}" for i in range(n_workers)}
            assert all(count > 0 for count in forwards.values()), \
                (workload, forwards)
    if report["cpus_available"] >= 4:
        for workload in ("weights_key", "inline"):
            solo = report["workers"]["1"][workload]["requests_per_s"]
            multi = report["workers"]["4"][workload]["requests_per_s"]
            assert multi >= 1.2 * solo, workload
    else:
        print(f"(skipping scaling assertion: host exposes "
              f"{report['cpus_available']} CPU(s))")


if __name__ == "__main__":
    run_bench()
