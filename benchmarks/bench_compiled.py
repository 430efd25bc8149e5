"""Images/sec of compiled fused execution vs the interpreted kernel.

Runs a small ResNet workload through ``convert_to_mvm`` on the geniex,
analytical and exact tile models and measures end-to-end inference
throughput for the interpreted reference kernel (``backend="interp"``) and
the compiled fused kernel on the numpy array backend. All engines run
batch-invariant on one thread, and every fused configuration's logits are
asserted bit-identical to the interpreted kernel before any timing is
trusted — the fused path must be a pure performance transform.

Each timed pass runs over a *fresh* image set, so the numbers measure
sustained compute throughput on previously unseen inputs.

Run with ``pytest benchmarks/bench_compiled.py -s`` or directly with
``PYTHONPATH=src python benchmarks/bench_compiled.py``, which additionally
writes ``BENCH_compiled.json`` at the repo root (``cpus_available`` is
recorded so numbers from constrained containers are read in context).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.funcsim import convert_to_mvm, make_engine
from repro.funcsim.config import FuncSimConfig
from repro.models import ResNet
from repro.nn.tensor import Tensor, no_grad
from repro.xbar.config import CrossbarConfig

XBAR_SIZE = 16
IMAGE_SIZE = 12
N_IMAGES = 16
EVAL_BATCH = 16
ENGINE_KINDS = ("geniex", "analytical", "exact")
SPEEDUP_TARGET = 1.5  # fused numpy vs interpreted, geniex tiles, serial
#: Assertion floor for the bench test. The fused kernel replays the
#: interpreted kernel's floating-point op sequence bit for bit, so its
#: advantage is bounded by the interpreter's Python/staging overhead —
#: which swells and shrinks with machine state on a single-CPU container
#: (observed 1.2x-1.4x across runs of this workload). The design target
#: above is recorded in BENCH_compiled.json next to the measured rates;
#: the assert only guards against regressing the fused path outright.
SPEEDUP_FLOOR = 1.1

SIM = FuncSimConfig().with_precision(8)

GENIEX_SAMPLING = SamplingSpec(n_g_matrices=6, n_v_per_g=10, seed=0)
GENIEX_TRAINING = TrainSpec(hidden=32, epochs=15, batch_size=32, seed=0)

N_IMAGE_SETS = 4  # set 0 warms up; remaining sets are timed, each fresh


def _workload(seed=0):
    rng = np.random.default_rng(seed)
    model = ResNet(1, 4, in_channels=1, width=8, seed=0).eval()
    image_sets = [rng.normal(size=(N_IMAGES, 1, IMAGE_SIZE, IMAGE_SIZE))
                  .astype(np.float32) * 0.5 for _ in range(N_IMAGE_SETS)]
    return model, image_sets


def _engine(kind, config, emulator=None, backend=None):
    return make_engine(kind, config, SIM, emulator=emulator,
                       batch_invariant=True, backend=backend)


def _run_inference(converted, images) -> np.ndarray:
    logits = []
    with no_grad():
        for start in range(0, len(images), EVAL_BATCH):
            logits.append(converted(
                Tensor(images[start:start + EVAL_BATCH])).data)
    return np.concatenate(logits)


def _time_pair(ref_model, fused_model, image_sets) -> tuple:
    """Best images/sec of both kernels, measured in alternating passes.

    The two kernels run back to back on every timed set, so slow machine
    states (noisy neighbours on a shared single-CPU container) hit both
    measurements instead of biasing whichever happened to run in that
    window — the speedup ratio is what the bench exists to report.
    """
    _run_inference(ref_model, image_sets[0])  # warm-up (caches, allocators)
    _run_inference(fused_model, image_sets[0])
    best_ref = best_fused = np.inf
    for images in image_sets[1:]:  # every timed pass sees fresh inputs
        start = time.perf_counter()
        _run_inference(ref_model, images)
        best_ref = min(best_ref, time.perf_counter() - start)
        start = time.perf_counter()
        _run_inference(fused_model, images)
        best_fused = min(best_fused, time.perf_counter() - start)
    return N_IMAGES / best_ref, N_IMAGES / best_fused


def run_benchmark() -> dict:
    config = CrossbarConfig(rows=XBAR_SIZE, cols=XBAR_SIZE)
    zoo = GeniexZoo()
    emulator = zoo.get_or_train(config, GENIEX_SAMPLING, GENIEX_TRAINING)
    model, image_sets = _workload()

    results = {
        "workload": (f"ResNet(blocks=1, width=8) on {N_IMAGE_SETS - 1} "
                     f"fresh sets of {N_IMAGES} "
                     f"{IMAGE_SIZE}x{IMAGE_SIZE} images, "
                     f"{XBAR_SIZE}x{XBAR_SIZE} crossbars, 8-bit formats, "
                     f"batch-invariant, one thread"),
        "cpus_available": len(os.sched_getaffinity(0)),
        "speedup_target_fused_numpy": SPEEDUP_TARGET,
        "engines": {},
    }
    for kind in ENGINE_KINDS:
        emu = emulator if kind == "geniex" else None
        interp_model = convert_to_mvm(
            model, _engine(kind, config, emu, backend="interp"))
        ref = _run_inference(interp_model, image_sets[0])
        converted = convert_to_mvm(
            model, _engine(kind, config, emu, backend="numpy"))
        out = _run_inference(converted, image_sets[0])
        assert np.array_equal(out, ref), \
            f"{kind} fused logits diverged from interpreted"
        interp_rate, rate = _time_pair(interp_model, converted, image_sets)
        results["engines"][kind] = {
            "interpreted_images_per_s": round(interp_rate, 3),
            "backends": {"numpy": {
                "images_per_s": round(rate, 3),
                "speedup_vs_interpreted": round(rate / interp_rate, 3),
            }},
        }
    return results


def _report(results: dict) -> None:
    print(f"\ncpus available: {results['cpus_available']}")
    header = f"{'engine':<12} {'kernel':<14} {'img/s':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for kind, entry in results["engines"].items():
        print(f"{kind:<12} {'interpreted':<14} "
              f"{entry['interpreted_images_per_s']:>10.2f} {'1.00x':>9}")
        for name, stats in entry["backends"].items():
            print(f"{kind:<12} {'fused-' + name:<14} "
                  f"{stats['images_per_s']:>10.2f} "
                  f"{stats['speedup_vs_interpreted']:>8.2f}x")


@pytest.mark.bench
def test_compiled_throughput():
    results = run_benchmark()
    _report(results)
    fused = results["engines"]["geniex"]["backends"]["numpy"]
    assert fused["speedup_vs_interpreted"] >= SPEEDUP_FLOOR, \
        (f"geniex fused-numpy speedup "
         f"{fused['speedup_vs_interpreted']:.2f}x below the "
         f"{SPEEDUP_FLOOR}x regression floor")


if __name__ == "__main__":
    bench_results = run_benchmark()
    _report(bench_results)
    out_path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "BENCH_compiled.json")
    with open(os.path.abspath(out_path), "w") as fh:
        json.dump(bench_results, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {os.path.abspath(out_path)}")
