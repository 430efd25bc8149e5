"""Shard execution kernel of the funcsim engine.

A *shard* is one (tile-row, batch-chunk) unit of an MVM: the kernel streams
the chunk's activation bits through every (weight-sign, slice, tile-column)
model of the tile-row, digitises the analog read-outs and decodes them into
the tile-row's contribution ``tr_counts`` of shape ``(chunk, t_c * cols)``.
:func:`run_tile_row` gathers the active stream blocks and hands them to the
layer's one compiled kernel (:mod:`repro.funcsim.compiler`), whatever the
engine kind. Shards are independent, so they may run in any order on any
thread;
:func:`merge_tile_rows` then accumulates the per-tile-row
contributions *in tile-row order* through the fixed-point accumulator,
exactly as the hardware's peripheral digital logic would.

Determinism contract:

* The shard decomposition is a pure function of the batch size, the
  engine's ``shard_rows`` and the layer's ``chunk_rows`` cap (see
  :func:`~repro.funcsim.planner.plan_layer`) — never of the worker
  count — so the set of
  shards (and therefore every zero-stream skipping decision) is identical
  no matter how execution is scheduled.
* With a deterministic ADC the kernel is pure, so any schedule produces
  bit-identical results; in batch-invariant mode results are additionally
  identical across chunk sizes (the digital back end is exact, so only
  the read-out could depend on the batch, and invariant mode pins it).
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


def gather_streams(plan: LayerPlan, qx: np.ndarray, x_signs: list,
                   tr: int, stats: dict) -> tuple:
    """Non-zero (sign, stream) level blocks of tile-row ``tr``.

    Returns ``(stream_levels, stream_info)`` in the fixed (activation
    sign, stream) order the decode stage consumes them. An all-zero
    block drives no current, so it is skipped and tallied in
    ``skipped_zero_streams``.
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


def run_tile_row(program: LayerProgram, qx: np.ndarray, x_signs: list,
                 tr: int, adc: AdcModel, stats=None) -> np.ndarray:
    """Decoded contribution of tile-row ``tr`` for one quantised chunk.

    ``qx`` is the full-width padded integer activation chunk; ``x_signs``
    the activation signs present in it (see :func:`active_signs`).
    Returns ``(chunk, t_c * cols)`` float counts, already scaled by the
    shift-and-add and sign factors but *not* by ``value_lsb`` — the merge
    step applies that together with the accumulator format. The active
    stream blocks run through the layer's compiled kernel
    (:meth:`~repro.funcsim.compiler.CompiledLayer.execute`).
    """
    if stats is None:
        stats = new_stat_counts()
    plan = program.plan
    batch = qx.shape[0]
    stream_levels, stream_info = gather_streams(plan, qx, x_signs, tr, stats)
    if not stream_levels:
        return np.zeros((batch, plan.out_width))
    compiled = program.compiled
    readouts = compiled.n_models * len(stream_levels)
    stats["readouts"] += readouts
    stats["adc_conversions"] += readouts * batch * plan.cols
    return compiled.execute(program, tr, stream_levels, stream_info, batch,
                            adc)


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
               "adc_conversions")


def new_stat_counts() -> dict:
    """Fresh per-shard counter dict (mergeable into ``EngineStats``)."""
    return dict.fromkeys(STAT_FIELDS, 0)
