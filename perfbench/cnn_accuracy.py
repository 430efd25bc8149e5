"""``cnn-accuracy``: the paper's Figs. 7-9 use case, in process.

The reference ResNet runs through the quick profile's GENIEx spec
(32x32 crossbars, 192-unit emulator, default runtime) on one thread in
a closed loop over batches of 64 fresh held-out images. No batch
repeats, so the tile-result cache can only hit on genuinely repeated
tiles. The funcsim kernel does nearly all the work on ~9k-row im2col
batches; there is no HTTP.

* Set-up: a fresh zoo instance over the warm directory (disk load),
  ``open_session`` and ``Session.compile``; repeated, median reported.
* Warm-up: batch 0 runs untimed (it pays the kernel's lazy per-shape
  work) and is reported as ``cnn.warmup_batch_s``.
* Measured: batches until ``seconds`` of forward time have passed.
* Fixed work for exact repeats: ``top1`` and the simulated-hardware
  counts cover batches 0-2 (192 images) whatever the run length.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import inputs
from result import Result, own_peak_rss_mb
from tracer import Tracer, median

SETUP_REPS = 15
FIXED_BATCHES = 3
MIN_TIMED_BATCHES = 2
TOP1_TOLERANCE = 0.10
HW_COUNTS = ("matmuls", "readouts", "skipped_zero_streams", "adc_conversions",
             "fused_calls", "fallback_calls", "cache_hits")


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (nothing under src/ changes)."""
    import repro.api.session as session_mod
    from repro.core.zoo import GeniexZoo
    from repro.funcsim.engine import CrossbarMvmEngine
    from repro.funcsim.layers import Conv2dMVM, LinearMVM

    tracer.wrap(session_mod, "open_session", "api.open_session")
    tracer.wrap(session_mod.Session, "compile", "api.compile")
    tracer.wrap(GeniexZoo, "load_model", "zoo.disk_load")
    tracer.wrap(CrossbarMvmEngine, "prepare", "funcsim.prepare")
    tracer.wrap(CrossbarMvmEngine, "matmul", "funcsim.matmul",
                rows=lambda a, k: np.shape(a[1])[0])
    tracer.wrap(LinearMVM, "forward", "funcsim.layer")
    tracer.wrap(Conv2dMVM, "forward", "funcsim.layer")


def _counts(session) -> dict:
    stats = session.stats()
    out = {name: int(stats["engine"].get(name, 0)) for name in HW_COUNTS}
    cache = stats.get("tile_cache") or {}
    out["tile_cache_hits"] = int(cache.get("hits", 0))
    out["tile_cache_misses"] = int(cache.get("misses", 0))
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def run(seed: int, seconds: float, trace: bool) -> Result:
    import repro.api.session as session_mod
    from repro.core.zoo import GeniexZoo
    from repro.nn.tensor import Tensor, no_grad

    result = Result()
    model = inputs.load_cnn()
    spec = inputs.cnn_spec()
    tracer = Tracer()

    # -- set-up: fresh zoo over the warm dir, open_session, compile ------
    setup_s = {False: [], True: []}
    session = net = None
    for rep in range(SETUP_REPS):
        traced = trace and rep % 2 == 1
        if traced:
            install(tracer)
        if session is not None:
            session.close()
        t0 = perf_counter()
        session = session_mod.open_session(
            spec, zoo=GeniexZoo(cache_dir=inputs.cnn_zoo_dir()))
        net = session.compile(model)
        setup_s[traced].append(perf_counter() - t0)
        tracer.restore()
    traced_setups = max(1, len(setup_s[True]))
    setup_layers = {
        "api.open_session_s": tracer.total_s("api.open_session") / traced_setups,
        "zoo.disk_load_s": tracer.total_s("zoo.disk_load") / traced_setups,
        "funcsim.prepare_s": tracer.total_s("funcsim.prepare") / traced_setups,
        "funcsim.prepare_calls": tracer.count("funcsim.prepare") / traced_setups,
    }
    tracer.clear()

    # -- batches ---------------------------------------------------------
    hits = float_hits = 0
    fixed_before = _counts(session)
    fixed = None
    batch_s = {False: [], True: []}
    readouts_traced = 0
    non_finite = []
    warmup_s = 0.0
    timed_total = 0.0
    index = 0
    while True:
        x, y = inputs.cnn_batch(seed, index)
        traced = trace and index > 0 and index % 2 == 0
        if traced:
            install(tracer)
            before = _counts(session)
        result.attempted += 1
        try:
            with no_grad():
                t0 = perf_counter()
                if traced:
                    with tracer.span("nn.forward"):
                        logits = net(Tensor(x)).data
                else:
                    logits = net(Tensor(x)).data
                elapsed = perf_counter() - t0
        except Exception as exc:  # the program failed this operation
            tracer.restore()
            result.failed += 1
            result.info.setdefault("errors", []).append(repr(exc))
            if result.failed > 3:
                break
            index += 1
            continue
        tracer.restore()
        if traced:
            readouts_traced += _counts(session)["readouts"] - before["readouts"]
        if not np.all(np.isfinite(logits)):
            non_finite.append(index)
        if index < FIXED_BATCHES:
            with no_grad():
                float_logits = model(Tensor(x)).data
            hits += int((logits.argmax(axis=1) == y).sum())
            float_hits += int((float_logits.argmax(axis=1) == y).sum())
            if index == FIXED_BATCHES - 1:
                fixed = _delta(_counts(session), fixed_before)
        if index == 0:
            warmup_s = elapsed
        else:
            batch_s[traced].append(elapsed)
            timed_total += elapsed
        index += 1
        timed = len(batch_s[False]) + len(batch_s[True])
        enough = (len(batch_s[True]) >= MIN_TIMED_BATCHES
                  and len(batch_s[False]) >= MIN_TIMED_BATCHES) if trace \
            else timed >= MIN_TIMED_BATCHES
        if index >= FIXED_BATCHES and enough and timed_total >= seconds:
            break
    session.close()

    n_fixed = FIXED_BATCHES * inputs.CNN_BATCH
    top1 = hits / n_fixed
    float_top1 = float_hits / n_fixed
    result.check("logits-finite", not non_finite,
                 f"non-finite logits in batches {non_finite}",
                 failures=len(non_finite))
    result.check("top1-near-float", fixed is not None
                 and abs(top1 - float_top1) <= TOP1_TOLERANCE,
                 f"top1 {top1:.4f} vs float {float_top1:.4f}")
    fixed = fixed or {}
    result.repeat = {"top1": top1, "hardware_counts": fixed}

    untraced = batch_s[False]
    result.e2e = {
        "setup_s": median(setup_s[False]),
        "success_rate": result.success_rate(),
        "peak_rss_mb": own_peak_rss_mb(),
        "latency_p50_ms": median(untraced) * 1e3,
        "items_per_s": inputs.CNN_BATCH * len(untraced) / sum(untraced)
        if untraced else 0.0,
    }
    result.info.update({
        "setup_s": setup_s[False],
        "images_timed": inputs.CNN_BATCH * len(untraced),
        "batch_ms": [s * 1e3 for s in untraced],
        "top1": top1, "float_top1": float_top1,
        "hardware_counts_first_192_images": fixed,
    })

    lookups = fixed.get("tile_cache_hits", 0) + fixed.get("tile_cache_misses", 0)
    layers = dict(setup_layers)
    layers.update({
        "cnn.top1": top1,
        "cnn.float_top1": float_top1,
        "cnn.warmup_batch_s": warmup_s,
        "engine.matmuls": fixed.get("matmuls", 0),
        "engine.readouts": fixed.get("readouts", 0),
        "engine.adc_conversions": fixed.get("adc_conversions", 0),
        "engine.skipped_zero_streams": fixed.get("skipped_zero_streams", 0),
        "engine.fused_calls": fixed.get("fused_calls", 0),
        "engine.fallback_calls": fixed.get("fallback_calls", 0),
        "tile_cache.lookups": lookups,
        "tile_cache.hit_ratio": fixed.get("tile_cache_hits", 0) / lookups
        if lookups else 0.0,
    })
    if trace:
        n = max(1, len(batch_s[True]))
        forward = tracer.total_s("nn.forward")
        matmul = tracer.total_s("funcsim.matmul")
        mvm_layers = tracer.outermost_s("funcsim.layer")
        non_mvm = forward - mvm_layers
        layers.update({
            "funcsim.matmul_s": matmul / n,
            "funcsim.matmul_calls": tracer.count("funcsim.matmul") / n,
            "funcsim.matmul_rows": tracer.rows("funcsim.matmul") / n,
            "funcsim.matmul_share": matmul / forward if forward else 0.0,
            "funcsim.us_per_readout": matmul / readouts_traced * 1e6
            if readouts_traced else 0.0,
            "funcsim.layer_s": mvm_layers / n,
            "nn.non_mvm_s": non_mvm / n,
            "trace.coverage": (matmul + non_mvm) / forward if forward else 0.0,
        })
        traced_ms = median(batch_s[True]) * 1e3
        traced_rate = inputs.CNN_BATCH * len(batch_s[True]) / sum(
            batch_s[True]) if batch_s[True] else 0.0
        layers.update({
            "overhead.setup_s": median(setup_s[True]) - median(setup_s[False]),
            "overhead.latency_p50_ms": traced_ms - result.e2e["latency_p50_ms"],
            "overhead.items_per_s": traced_rate - result.e2e["items_per_s"],
        })
    result.layers = layers
    return result
