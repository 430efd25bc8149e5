"""Shard execution kernel of the funcsim engine.

A *shard* is one (tile-row, batch-chunk) unit of an MVM: the kernel streams
the chunk's activation bits through every (weight-sign, slice, tile-column)
model of the tile-row, digitises the analog read-outs and decodes them into
the tile-row's contribution ``tr_counts`` of shape ``(chunk, t_c * cols)``.
Shards are independent, so they may run in any order on any thread;
:func:`merge_tile_rows` then accumulates the per-tile-row
contributions *in tile-row order* through the fixed-point accumulator,
exactly as the hardware's peripheral digital logic would.

Determinism contract:

* The shard decomposition is a pure function of the batch size and the
  engine's ``shard_rows`` — never of the worker count — so the set of
  shards (and therefore every zero-stream skipping decision) is identical
  no matter how execution is scheduled.
* With a deterministic ADC the kernel is pure, so any schedule produces
  bit-identical results; in batch-invariant mode results are additionally
  identical across chunk sizes.
* With ADC noise, :func:`shard_adc` derives each shard's noise stream from
  ``(adc_seed, layer uid, matmul sequence, tile-row, chunk)`` — tile
  coordinates, not shard assignment — so noisy runs reproduce bit-exactly
  at any worker count.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ShapeError
from repro.funcsim.adc import AdcModel
from repro.funcsim.planner import LayerPlan, LayerProgram
from repro.funcsim.slicing import sign_split, split_unsigned
from repro.funcsim.tiles import pad_axis

#: Default batch rows per shard. Fixed (worker-count independent) so the
#: shard set — and with it zero-skip decisions and noise keying — depends
#: only on the workload, never on the execution schedule. Sized so the
#: Python-side decode loop stays negligible against the batched tile math
#: while conv-sized im2col batches still split into several chunks per
#: tile-row for the thread pool.
DEFAULT_SHARD_ROWS = 1024


def quantize_input(plan: LayerPlan, x: np.ndarray) -> np.ndarray:
    """Validate, quantise and pad a ``(B, n_in)`` activation batch."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != plan.n_in:
        raise ShapeError(
            f"input features {x.shape[1]} != weight rows {plan.n_in}")
    qx = plan.sim_config.activation_format.quantize_to_int(x)
    return pad_axis(qx, 1, plan.rows)


def active_signs(qx: np.ndarray) -> list:
    """Activation signs present in a quantised (chunk) batch.

    Computed over the full input width of the chunk — not per tile-row —
    mirroring the historical engine loop so the per-block zero-stream
    skip statistics stay comparable.
    """
    parts = sign_split(qx)
    signs = [k for k, part in enumerate(parts) if np.any(part)]
    return signs or [0]


def chunk_ranges(batch: int, shard_rows: int) -> list:
    """Fixed decomposition of ``batch`` rows into ``(start, stop)`` chunks."""
    shard_rows = max(1, int(shard_rows))
    return [(start, min(start + shard_rows, batch))
            for start in range(0, batch, shard_rows)]


@functools.lru_cache(maxsize=64)
def _deterministic_adc(bits: int, lsb_a: float, offset_a: float) -> AdcModel:
    # Without noise the converter never touches its generator, so one
    # instance serves every shard (and thread) of every matching plan;
    # seeding a generator per shard costs ~20 us, a tenth of a one-row
    # serve shard.
    return AdcModel(bits, lsb_a, offset_a=offset_a)


def shard_adc(plan: LayerPlan, seq: int, tr: int, chunk: int) -> AdcModel:
    """ADC instance for one shard, with a coordinate-keyed noise stream."""
    if plan.adc_noise_rms_a == 0.0:
        return _deterministic_adc(plan.adc_bits, plan.adc_lsb_a,
                                  plan.adc_offset_a)
    return AdcModel(plan.adc_bits, plan.adc_lsb_a,
                    offset_a=plan.adc_offset_a,
                    noise_rms_a=plan.adc_noise_rms_a,
                    seed=plan.noise_seed(seq, tr, chunk))


def _measure_tile_row(program: LayerProgram, tr: int, stream_levels: list,
                      batch: int, adc: AdcModel, cache, stats) -> dict:
    """One batched analog + ADC pass over every model of a tile-row.

    All ``S`` active stream blocks are stacked into a single
    ``(S * batch, rows)`` voltage batch; each tile model then runs one
    batched call (minus any read-outs served by the tile-result cache)
    and the measured currents come back as per-stream ``(batch, cols)``
    slices. Returns ``{(sign, slice, tc): [S slices]}``.
    """
    plan = program.plan
    cfg = plan.sim_config
    cols = plan.cols
    s_count = len(stream_levels)
    # Serialise each stream block once; the key bytes are shared by
    # every (sign, slice, tile-column) lookup below.
    level_bytes = [levels.tobytes() for levels in stream_levels] \
        if cache is not None else None
    # The stacked voltages and the factory's shared term are only
    # needed on a cache miss; fully-cached tile-rows skip both.
    voltages = None
    shared = None
    # Miss patterns repeat across the (sign, slice, tile-column) models,
    # so the stacked-row selection index is memoised per pattern instead
    # of being rebuilt from per-stream aranges for every model.
    base_rows = None
    sel_by_pattern: dict = {}

    measured = {}
    for sw in plan.sign_present:
        for k in range(cfg.n_slices):
            for tc in range(plan.t_c):
                model = program.models[(sw, k, tr, tc)]
                stats["readouts"] += s_count
                stats["adc_conversions"] += s_count * batch * cols
                result = [None] * s_count
                keys = [None] * s_count
                missing = []
                if cache is not None:
                    for s in range(s_count):
                        keys[s] = (plan.uid, sw, k, tr, tc, batch,
                                   level_bytes[s])
                        hit = cache.get(keys[s])
                        if hit is None:
                            missing.append(s)
                        else:
                            result[s] = hit
                            stats["cache_hits"] += 1
                else:
                    missing = list(range(s_count))
                if missing:
                    if voltages is None:
                        voltages = np.concatenate(
                            stream_levels, axis=0) * plan.v_lsb
                        shared = program.tile_factory.prepare_voltages(
                            voltages)
                    if len(missing) == s_count:
                        v_sub, c_sub = voltages, shared
                    else:
                        pattern = tuple(missing)
                        sel = sel_by_pattern.get(pattern)
                        if sel is None:
                            if base_rows is None:
                                base_rows = np.arange(batch)
                            sel = sel_by_pattern[pattern] = (
                                np.asarray(missing)[:, None] * batch
                                + base_rows).ravel()
                        v_sub = voltages[sel]
                        c_sub = shared[sel] \
                            if isinstance(shared, np.ndarray) else shared
                    i_meas = adc.measure(
                        model.currents(v_sub, c_sub)
                    ).reshape(len(missing), batch, cols)
                    for j, s in enumerate(missing):
                        result[s] = i_meas[j]
                        if cache is not None:
                            # Copy out of the stacked measurement so a
                            # cache entry never pins the whole block.
                            cache.put(keys[s], i_meas[j].copy())
                measured[(sw, k, tc)] = result
    return measured


def gather_streams(plan: LayerPlan, qx: np.ndarray, x_signs: list,
                   tr: int, stats: dict) -> tuple:
    """Non-zero (sign, stream) level blocks of tile-row ``tr``.

    Returns ``(stream_levels, stream_info)`` in the fixed (activation
    sign, stream) order the decode stage consumes them — the interpreted
    and compiled kernels share this gather, so their zero-stream skip
    decisions (and the ``skipped_zero_streams`` statistics) are
    identical by construction.
    """
    cfg = plan.sim_config
    block = qx[:, tr * plan.rows:(tr + 1) * plan.rows]
    parts = sign_split(block)
    per_stream_models = len(plan.sign_present) * cfg.n_slices * plan.t_c
    mag_bits = cfg.activation_format.magnitude_bits
    stream_levels = []
    stream_info = []
    for sx in x_signs:
        units = split_unsigned(parts[sx], mag_bits, cfg.stream_bits)
        for m in range(cfg.n_streams):
            levels = units[m]
            if not levels.any():
                # Zero drive => exactly zero currents.
                stats["skipped_zero_streams"] += per_stream_models
                continue
            stream_levels.append(levels)
            stream_info.append((sx, m))
    return stream_levels, stream_info


def execute_tile_row(program: LayerProgram, qx: np.ndarray, x_signs: list,
                     tr: int, adc: AdcModel, cache=None,
                     stats=None) -> np.ndarray:
    """Decoded contribution of tile-row ``tr`` for one quantised chunk.

    ``qx`` is the full-width padded integer activation chunk; ``x_signs``
    the activation signs present in it (see :func:`active_signs`).
    Returns ``(chunk, t_c * cols)`` float counts, already scaled by the
    shift-and-add and sign factors but *not* by ``value_lsb`` — the merge
    step applies that together with the accumulator format.

    This is the interpreted *reference* kernel; :func:`run_tile_row`
    dispatches to the compiled fused kernel when the program carries one
    and falls back here (bit-identically) when it does not.
    """
    plan = program.plan
    cfg = plan.sim_config
    cols = plan.cols
    if stats is None:
        stats = new_stat_counts()
    batch = qx.shape[0]
    stream_levels, stream_info = gather_streams(plan, qx, x_signs, tr, stats)

    tr_counts = np.zeros((batch, plan.out_width))
    if not stream_levels:
        return tr_counts
    measured = _measure_tile_row(program, tr, stream_levels, batch, adc,
                                 cache, stats)
    for s, (sx, m) in enumerate(stream_info):
        sx_factor = 1.0 if sx == 0 else -1.0
        stream_sum = stream_levels[s].sum(axis=1)[:, None]
        stream_scale = float(2 ** (m * cfg.stream_bits))
        for sw in plan.sign_present:
            sw_factor = 1.0 if sw == 0 else -1.0
            for k in range(cfg.n_slices):
                slice_scale = float(2 ** (k * cfg.slice_bits))
                for tc in range(plan.t_c):
                    i_meas = measured[(sw, k, tc)][s]
                    counts = i_meas * plan.decode \
                        - plan.bias_factor * stream_sum
                    tr_counts[:, tc * cols:(tc + 1) * cols] += (
                        sx_factor * sw_factor * stream_scale
                        * slice_scale * counts)
    return tr_counts


def run_tile_row(program: LayerProgram, qx: np.ndarray, x_signs: list,
                 tr: int, adc: AdcModel, cache=None,
                 stats=None) -> np.ndarray:
    """Execute one (tile-row, chunk) shard: compiled when possible.

    Programs lowered by :func:`repro.funcsim.compiler.compile_program`
    run through the fused kernel (counted as ``fused_calls``); programs
    without a compiled form — compilation disabled, an unfusible tile
    kind, or the fused kernel declining a shard (memory guard) — run
    through the interpreted reference kernel, counted as
    ``fallback_calls`` when compilation had been requested. Both paths
    are bit-identical, so the dispatch is purely a performance decision.
    """
    if stats is None:
        stats = new_stat_counts()
    compiled = getattr(program, "compiled", None)
    if compiled is not None:
        from repro.funcsim.compiler import execute_tile_row_fused

        out = execute_tile_row_fused(program, qx, x_signs, tr, adc,
                                     cache=cache, stats=stats)
        if out is not None:
            stats["fused_calls"] += 1
            return out
    if getattr(program, "compile_requested", False):
        stats["fallback_calls"] += 1
    return execute_tile_row(program, qx, x_signs, tr, adc, cache=cache,
                            stats=stats)


def merge_tile_rows(plan: LayerPlan, counts: np.ndarray) -> np.ndarray:
    """Accumulate per-tile-row counts ``(t_r, B, t_c * cols)`` digitally.

    Tile-row partial sums pass through the fixed-point accumulator register
    in tile-row order (paper: 32-bit, 24 fractional) — the order is part of
    the modelled hardware, so the merge is sequential no matter how the
    shards were scheduled. Returns the ``(B, n_out)`` output values.
    """
    acc = plan.sim_config.accumulator_format
    out_value = np.zeros(counts.shape[1:])
    for tr in range(counts.shape[0]):
        out_value = acc.quantize(out_value + counts[tr] * plan.value_lsb)
    return out_value[:, :plan.n_out]


#: Every per-shard counter, in report order. The single source of truth
#: for the stat schema: ``EngineStats.FIELDS`` aliases this tuple, so the
#: kernel's shard-local dicts and the engine's cumulative report can
#: never drift apart (a new counter added here is automatically counted,
#: merged, snapshotted and serialised everywhere).
STAT_FIELDS = ("matmuls", "readouts", "skipped_zero_streams",
               "adc_conversions", "cache_hits", "fused_calls",
               "fallback_calls")


def new_stat_counts() -> dict:
    """Fresh per-shard counter dict (mergeable into ``EngineStats``)."""
    return dict.fromkeys(STAT_FIELDS, 0)
