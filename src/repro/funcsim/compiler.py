"""The compiled layer and its shard kernel.

:meth:`CrossbarMvmEngine.prepare
<repro.funcsim.engine.CrossbarMvmEngine.prepare>` returns a
:class:`PreparedMatrix`: the quantised weights, the frozen
:class:`~repro.funcsim.planner.LayerPlan`, and everything the kernel
would otherwise re-derive per shard — each tile-row's models, their
read-out operands column-concatenated and stacked into one ``(t_r, rows,
M * cols)`` array for the closed-form kinds, the layer's GENIEx width
groups, and the shift-and-add prefactors. Every engine kind runs the
same kernel (:meth:`PreparedMatrix.run_shard`) on one *shard* at a time:
a batch chunk times a contiguous range of ``R`` tile-rows. A chunk of at
most :data:`STACK_ROWS` rows runs the whole layer as one shard, a larger
one a shard per tile-row (:func:`tile_row_ranges`); the one-tile-row
shard is simply the range of one. The kernel runs three stages, each
once per shard, over one ``(R, S * batch, M * cols)`` measurement, where
``S`` is the most active (activation-sign, stream) blocks any tile-row of
the range has (:func:`gather_streams`) and ``M`` counts the (weight-sign,
slice, tile-column) models of a tile-row:

1. **Read-out.** Each tile-row's active stream blocks are stacked into
   one ``(S * batch, rows)`` voltage batch, a tile-row with fewer padded
   with zero blocks. ``exact`` and ``analytical`` tiles are one stacked
   ``(R, S * batch, rows) @ (R, rows, M * cols)`` product; ``geniex``
   adds its tiles' pruned NN forward, stacked per kept width across the
   range (:class:`GeniexWidthGroup`) and byte-equal to each tile's own
   (:meth:`~repro.core.emulator.GeniexTileModel.forward`), and the fR
   divide; ``circuit`` fills each model's column block with that
   model's ``currents()`` of its tile-row's active rows. Only
   this stage depends on the kind. Every closed-form product is
   :func:`~repro.utils.numerics.batch_invariant_matmul`.
2. **ADC.** :meth:`~repro.funcsim.adc.AdcModel.transfer` turns the
   currents into integer output codes in place. A noisy converter runs
   per tile-row, over that tile-row's active rows, drawing from the
   tile-row's own coordinate-keyed generator in this same layout.
3. **Exact digital back end.** The shift-and-add multiplies codes by
   signed powers of two (the (stream, sign, slice) prefactors; ``+0.0``
   for a padded block), so with every partial sum an integer below
   ``2**53`` — asserted per layer by
   :func:`~repro.funcsim.planner.plan_layer` — the float64 contraction is
   exact in any order, and therefore batch-invariant by construction.
   The ``g_off`` mapping bias leaves as one per-row rank-1 term in code
   units, and one divide per output element converts codes to counts,
   as in the hardware's digital periphery. When the ADC grid aligns
   with the count grid (the bias is a whole number of codes), every
   step is exact and the ``exact`` engine equals Ideal FxP bit for bit.

Shards are independent, so they may run in any order on any thread;
:func:`merge_tile_rows` then accumulates the per-tile-row contributions
*in tile-row order* through the fixed-point accumulator, exactly as the
hardware's peripheral digital logic would. The kernel's large
temporaries come from a :class:`ScratchPool` that the preparing engine
shares across all its layers: one grow-only flat buffer per (thread,
name, dtype), so scratch memory is bounded by the largest shard, which
:func:`~repro.funcsim.planner.plan_layer` caps.

Determinism contract:

* The shard decomposition (:func:`chunk_ranges`, then
  :func:`tile_row_ranges` per chunk) is a pure function of the batch
  size, the engine's ``shard_rows``, the layer's ``chunk_rows`` cap and
  its tile-row count — never of the worker count — so the set of shards
  (and therefore every zero-stream skipping decision) is identical no
  matter how execution is scheduled.
* A tile-row's contribution does not depend on the range it runs in:
  padding adds exact zeros to the decode, each closed-form product is
  row-invariant, and the ``circuit`` kind solves exactly the rows a
  one-tile-row shard would. Zero-stream skips, ``readouts`` and
  ``adc_conversions`` are counted per tile-row, as a one-tile-row shard
  counts them.
* With a deterministic ADC the kernel is pure, so any schedule produces
  bit-identical results. For ``geniex``, ``exact`` and ``analytical``
  results are additionally identical across chunk sizes and batch
  compositions: the digital back end is exact, so only the read-out
  could depend on the batch, and its products are batch-invariant. A
  zero-preserving ADC is needed too, because all-zero stream blocks are
  skipped per chunk (:func:`repro.api.spec.supports_batch_invariance`).
* With ADC noise, :func:`shard_adc` derives each tile-row's noise stream
  from ``(adc_seed, layer uid, matmul sequence, tile-row, chunk)`` — tile
  coordinates, not shard assignment or range — so noisy runs reproduce
  bit-exactly at any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading

import numpy as np

from repro.errors import ShapeError
from repro.funcsim.adc import AdcModel
from repro.funcsim.planner import LayerPlan, plan_layer
from repro.funcsim.slicing import sign_split, split_unsigned
from repro.funcsim.tiles import pad_axis
from repro.obs import span
from repro.utils.numerics import batch_invariant_matmul

#: Default batch rows per shard. Fixed (worker-count independent) so the
#: shard set — and with it zero-skip decisions and noise keying — depends
#: only on the workload, never on the execution schedule. Sized so the
#: Python-side decode loop stays negligible against the batched tile math
#: while conv-sized im2col batches still split into several chunks per
#: tile-row for the thread pool.
DEFAULT_SHARD_ROWS = 1024

#: Every per-shard counter, in report order. The single source of truth
#: for the stat schema: ``EngineStats.FIELDS`` aliases this tuple, so the
#: kernel's shard-local dicts and the engine's cumulative report can
#: never drift apart (a new counter added here is automatically counted,
#: merged, snapshotted and serialised everywhere).
STAT_FIELDS = ("matmuls", "readouts", "skipped_zero_streams",
               "adc_conversions")

#: Chunk rows up to which one shard runs every tile-row of the layer
#: (:func:`tile_row_ranges`). A few-row shard costs Python dispatch
#: rather than FLOPs, and a layer-wide shard pays that once per layer
#: instead of once per tile-row; a larger chunk runs one shard per
#: tile-row, whose temporaries stay in cache and which the thread pool
#: can spread. Measured on 2 CPUs at one BLAS thread, the layer-wide
#: shard took 0.56-0.93x the time of one-tile-row shards from 1 to 48
#: rows on the 16x16 serving MLP and 0.33-0.94x on 32x32 GENIEx layers
#: of 3 to 9 tile-rows; past 56 rows the MLP read 0.96-1.07x.
STACK_ROWS = 48


def new_stat_counts() -> dict:
    """Fresh per-shard counter dict (mergeable into ``EngineStats``)."""
    return dict.fromkeys(STAT_FIELDS, 0)


class ScratchPool:
    """Per-thread scratch arrays of the shard kernel, recycled across shards.

    The kernel's large temporaries (stacked voltages, the flat
    measurement, the NN hidden batch and its output) are multi-megabyte;
    allocating them per shard keeps the allocator releasing and
    re-faulting pages. Each thread instead keeps one grow-only flat
    buffer per (name, dtype), shared by every layer compiled against the
    pool, and :meth:`take` hands out a contiguous view of its prefix.
    That is safe because no scratch array outlives the shard call that
    took it, no two live users share a name, and every user fills its
    array completely before reading it — so reuse never changes a value.
    Thread-local, because the engine runs shards on several threads.
    """

    def __init__(self):
        self._local = threading.local()

    def buffers(self) -> dict:
        """The calling thread's flat buffers, keyed by (name, dtype char)."""
        pool = getattr(self._local, "buffers", None)
        if pool is None:
            pool = self._local.buffers = {}
        return pool

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """Scratch array of ``shape`` (contents undefined)."""
        pool = self.buffers()
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        key = (name, dtype.char)
        buf = pool.get(key)
        if buf is None or buf.size < size:
            buf = pool[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _cat_columns(stack: np.ndarray) -> np.ndarray:
    """``(t_r, M, rows, cols)`` model stack -> ``(t_r, rows, M * cols)``
    operand."""
    t_r, m, rows, cols = stack.shape
    return np.ascontiguousarray(stack.transpose(0, 2, 1, 3)).reshape(
        t_r, rows, m * cols)


#: Float32 hidden activations (tiles x rows x kept units) one stacked
#: product of a :class:`GeniexWidthGroup` may hold. Few-row batches run
#: a whole group per product, where a per-tile loop would cost Python
#: dispatch rather than FLOPs; a shard this large on its own runs one
#: tile per product, exactly the per-tile forward.
STACK_HIDDEN_ELEMENTS = 1 << 16


class GeniexWidthGroup:
    """The GENIEx tiles of one layer that keep the same number of hidden
    units, run as stacked per-tile products.

    Members are sorted by (tile-row, model), so the members of a
    contiguous tile-row range are one slice of the group. The group owns
    its tiles' first- and second-layer operands, stacked ``(g, rows + 1,
    k)`` and ``(g, k, h2)``; each tile's ``w_aug`` and ``w2_t`` become
    views of its slice. :meth:`forward` runs both layers as stacked
    products, one gemm per tile of exactly the shape the tile's own
    :meth:`~repro.core.emulator.GeniexTileModel.forward` runs, so every
    block is byte-equal to that forward's, however the group is chunked
    and whichever tile-row range it runs in (tested). The first layer is
    never one column-concatenated GEMM across tiles: BLAS's result for
    it depends on its width.
    """

    def __init__(self, index: list, models: list, n_models: int,
                 t_r: int):
        #: Flat positions ``tile_row * n_models + model`` of the group's
        #: tiles, ascending (their column blocks of the measurement).
        self.index = list(index)
        self.n_models = n_models
        #: ``bounds[tr]``: the first member at or after tile-row ``tr``.
        self.bounds = np.searchsorted(
            index, np.arange(t_r + 1) * n_models).tolist()
        first = models[0]
        self.w_aug = np.empty((len(models),) + first.w_aug.shape, np.float32)
        self.w2 = np.empty((len(models),) + first.w2_t.shape, np.float32)
        for i, model in enumerate(models):
            self.w_aug[i], self.w2[i] = model.w_aug, model.w2_t
            model.w_aug, model.w2_t = self.w_aug[i], self.w2[i]

    def forward(self, v_aug: np.ndarray, lo: int, hi: int, head,
                fr: np.ndarray, scratch) -> None:
        """Write the normalised network output ``(n, cols)`` of each tile
        of tile-rows ``lo`` to ``hi`` into its model block of ``fr``
        ``((hi - lo) * M, n, cols)``, from those tile-rows' augmented
        voltages ``v_aug`` ``(hi - lo, n, rows + 1)``; ``head`` runs the
        network after the second GEMM
        (:meth:`~repro.core.emulator.GeniexTileFactory.head`).

        Tiles run in chunks of at most :data:`STACK_HIDDEN_ELEMENTS`
        hidden activations (at least one tile), taken from the
        :class:`ScratchPool` ``scratch``. A chunk's output is finished
        while it is in cache, so a large shard's tile runs its whole
        forward before the next tile starts.
        """
        _, _, k = self.w_aug.shape
        n = v_aug.shape[1]
        per = max(1, STACK_HIDDEN_ELEMENTS // (n * k))
        n_models = self.n_models
        last = self.bounds[hi]
        for start in range(self.bounds[lo], last, per):
            stop = min(start + per, last)
            g = stop - start
            pos = [flat - lo * n_models for flat in self.index[start:stop]]
            first, final = pos[0], pos[-1]
            row = first // n_models
            # One tile-row's voltages broadcast to its tiles; a chunk
            # spanning tile-rows gathers each tile's own.
            v = v_aug[row][None] if row == final // n_models \
                else v_aug[[p // n_models for p in pos]]
            hidden = scratch.take("hidden", (g, n, k), np.float32)
            batch_invariant_matmul(v, self.w_aug[start:stop], out=hidden)
            np.maximum(hidden, 0.0, out=hidden)
            y = scratch.take("hidden2", (g, n, self.w2.shape[2]),
                             np.float32)
            batch_invariant_matmul(hidden, self.w2[start:stop], out=y)
            if final - first == g - 1:
                head(y, fr[first:first + g])
            else:
                fr[pos] = head(y, scratch.take("fr_group",
                                               (g, n, fr.shape[2])))


def _width_groups(row_models: list) -> list:
    """One :class:`GeniexWidthGroup` per kept width among the layer's
    tiles ``row_models`` (one model list per tile-row)."""
    n_models = len(row_models[0])
    models = [m for row in row_models for m in row]
    by_width = {}
    for flat, model in enumerate(models):
        by_width.setdefault(model.kept.size, []).append(flat)
    return [GeniexWidthGroup(index, [models[i] for i in index], n_models,
                             len(row_models))
            for index in by_width.values()]


# ----------------------------------------------------------------------
# Shard inputs
# ----------------------------------------------------------------------
def quantize_input(x, n_in: int, fmt, rows: int = 1) -> np.ndarray:
    """Validate and quantise a ``(B, n_in)`` activation batch to ``fmt``.

    A 1-D vector is one row. The integer codes are zero-padded to a
    multiple of ``rows`` columns (the crossbar height). Any other shape
    raises :class:`~repro.errors.ShapeError`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != n_in:
        raise ShapeError(
            f"expected activations of shape (B, {n_in}), got {x.shape}")
    return pad_axis(fmt.quantize_to_int(x), 1, rows)


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


def tile_row_ranges(plan: LayerPlan, rows: int) -> list:
    """The ``(lo, hi)`` tile-row ranges a chunk of ``rows`` rows runs as
    shards, in tile-row order.

    A chunk of at most :data:`STACK_ROWS` rows runs as many tile-rows
    per shard as the layer's memory cap allows (``plan.chunk_rows``
    counts the rows one tile-row's measurement may hold), which is every
    tile-row of any layer but a very wide one; a larger chunk runs one
    tile-row per shard.
    """
    width = 1 if rows > STACK_ROWS \
        else max(1, min(plan.t_r, plan.chunk_rows // rows))
    return [(lo, min(lo + width, plan.t_r))
            for lo in range(0, plan.t_r, width)]


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
                   lo: int, hi: int, stats: dict) -> tuple:
    """The (activation sign, stream) level blocks of tile-rows ``lo`` to
    ``hi`` and which of them drive current.

    Returns ``(levels, blocks)``: ``levels`` ``(len(x_signs) * n_streams,
    batch, hi - lo, rows)`` integer stream levels, its blocks in the
    fixed (activation sign, stream) order the decode stage consumes them,
    and ``blocks[r]`` the indices of tile-row ``lo + r``'s non-zero
    blocks, ascending. An all-zero block drives no current, so it is
    skipped and tallied in ``skipped_zero_streams``.
    """
    cfg = plan.sim_config
    r_count = hi - lo
    parts = sign_split(qx[:, lo * plan.rows:hi * plan.rows])
    levels = np.concatenate([
        split_unsigned(parts[sx], cfg.activation_format.magnitude_bits,
                       cfg.stream_bits) for sx in x_signs]).reshape(
        len(x_signs) * cfg.n_streams, qx.shape[0], r_count, plan.rows)
    driven = levels.any(axis=(1, 3))
    # Zero drive => exactly zero currents.
    stats["skipped_zero_streams"] += int(driven.size - driven.sum()) \
        * len(plan.sign_present) * cfg.n_slices * plan.t_c
    return levels, [np.flatnonzero(driven[:, r]) for r in range(r_count)]


# ----------------------------------------------------------------------
# The compiled layer
# ----------------------------------------------------------------------
class PreparedMatrix:
    """A weight matrix quantised, tiled, programmed and compiled.

    ``uid`` identifies the prepared content in ADC noise stream seeds and
    compile spans. It is a content digest (weights + tiling + engine
    token), not a process-local counter: two processes that prepare the
    same matrix agree on the uid, and two *different* matrices can never
    collide just because they were prepared in forked processes with the
    same counter state.

    Given the preparing ``engine`` and its programmed ``models`` (keyed
    ``(sign, slice, tile_row, tile_col)``), the constructor plans the
    layer (:func:`~repro.funcsim.planner.plan_layer`, from ``qw`` and
    ``uid``) and compiles it under a ``kernel-compile`` span (for geniex
    with ``hidden_kept``/``hidden_total`` meta: the hidden units the
    layer's pruned tiles run, of those the emulator has). It keeps each
    tile-row's models in ``(sign, slice, tile_col)`` model-major order —
    the order of the measurement's column blocks — with, for the
    closed-form kinds, their column-concatenated read-out operands
    stacked over tile-rows and, for geniex, the layer's
    :class:`GeniexWidthGroup` forwards; the shift-and-add prefactors;
    the engine's scratch pool; and the tile factory. Without an engine (the ideal engine's product) ``plan`` is
    ``None`` and the matrix holds only ``qw`` and ``uid``.
    """

    def __init__(self, qw: np.ndarray, uid: str, engine=None,
                 models: dict | None = None):
        self.qw = qw
        self.uid = uid
        #: The frozen :class:`~repro.funcsim.planner.LayerPlan`.
        self.plan = None if engine is None else plan_layer(engine, self)
        if engine is None:
            return
        plan = self.plan
        cfg = plan.sim_config
        factory = engine.tile_factory
        self.kind = factory.name
        self.scratch = engine._scratch
        geniex = self.kind == "geniex"
        self._factory = factory
        #: Matmul sequence numbers keying the ADC noise streams
        #: (:meth:`LayerPlan.noise_seed`): every call through the layer
        #: draws fresh noise, and the counter lives as long as the layer.
        self._seq = itertools.count()
        meta = {}
        if geniex:
            # How much of the emulator network the layer's tiles actually
            # run.
            meta["hidden_kept"] = sum(m.kept.size for m in models.values())
            meta["hidden_total"] = factory.emulator.model.hidden \
                * len(models)
        with span("kernel-compile", layer=plan.uid, kind=self.kind, **meta):
            coords = [(sw, k, tc) for sw in plan.sign_present
                      for k in range(cfg.n_slices) for tc in range(plan.t_c)]
            self.row_models = [
                [models[(sw, k, tr, tc)] for sw, k, tc in coords]
                for tr in range(plan.t_r)]
            #: ``(t_r, rows, M * cols)`` read-out operand, tile-row ``tr``'s
            #: at ``[tr]`` (``None`` for ``circuit``, which solves each
            #: tile itself).
            self.row_operands = _cat_columns(np.stack([
                [m.transfer for m in row] for row in self.row_models])) \
                if hasattr(self.row_models[0][0], "transfer") else None
            #: The layer's :class:`GeniexWidthGroup` list (geniex only).
            self.width_groups = _width_groups(self.row_models) \
                if geniex else None
            sw_factors = np.array([1.0 if sw == 0 else -1.0
                                   for sw in plan.sign_present])
            slice_scales = np.array([float(2 ** (k * cfg.slice_bits))
                                     for k in range(cfg.n_slices)])
            self.stream_scales = np.array(
                [float(2 ** (m * cfg.stream_bits))
                 for m in range(cfg.n_streams)])
            #: ``(n_sw, n_k)`` outer product of weight-sign factors and
            #: ``2**(k * slice_bits)`` slice scales (exact in float64).
            self.sw_slice = np.outer(sw_factors, slice_scales)

    @property
    def n_in(self) -> int:
        return self.qw.shape[0]

    @property
    def n_out(self) -> int:
        return self.qw.shape[1]

    @property
    def n_models(self) -> int:
        """Models per tile-row (column blocks of the measurement)."""
        plan = self.plan
        return len(plan.sign_present) * plan.sim_config.n_slices * plan.t_c

    def next_seq(self) -> int:
        """Sequence number of the next matmul (thread-safe: ``next`` on a
        counter is atomic under the GIL)."""
        return next(self._seq)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def readout(self, lo: int, voltages: np.ndarray,
                live: list | None = None) -> np.ndarray:
        """Currents of every model of tile-rows ``lo`` to ``lo + R``,
        ``(R, n, M * cols)``, for their voltages ``(R, n, rows)``.

        Column block ``mi`` of ``[r]`` holds model ``mi`` of tile-row
        ``lo + r``'s currents: a stacked product computes each output
        column from one operand column, so every block equals that
        model's own ``currents()`` call (tested). ``live[r]`` (default
        all ``n``) counts tile-row ``lo + r``'s leading rows that carry a
        stream block; the circuit kind solves only those and reads
        zeros below them.
        """
        cols = self.plan.cols
        r_count, n_rows, _ = voltages.shape
        models = self.n_models
        i_flat = self.scratch.take("i_flat", (r_count, n_rows, models * cols))
        if self.row_operands is None:
            for r, row in enumerate(self.row_models[lo:lo + r_count]):
                rows = n_rows if live is None else live[r]
                i_flat[r, rows:] = 0.0
                if not rows:
                    continue
                for mi, model in enumerate(row):
                    i_flat[r, :rows, mi * cols:(mi + 1) * cols] = \
                        model.currents(voltages[r, :rows])
            return i_flat
        batch_invariant_matmul(voltages, self.row_operands[lo:lo + r_count],
                               out=i_flat)
        if self.kind == "geniex":
            fr = self._friction(lo, voltages).reshape(
                r_count, models, n_rows, cols)
            i4 = i_flat.reshape(r_count, n_rows, models, cols)
            np.divide(i4, fr.transpose(0, 2, 1, 3), out=i4)
        return i_flat

    def _friction(self, lo: int, voltages: np.ndarray) -> np.ndarray:
        """Geniex non-ideality factors ``(R * M, n, cols)`` of tile-rows
        ``lo`` to ``lo + R``, tile-row- then model-major.

        The factory augments the voltages once for the whole range, and
        each of the layer's width groups writes its models' blocks of the
        pooled ``fr`` buffer (:meth:`GeniexWidthGroup.forward`). The fR
        rescale (:meth:`~repro.core.model.Normalizer.denormalize_fr`) is
        element-wise, so it runs once, in place, over the whole block.
        """
        factory = self._factory
        r_count, n_rows, _ = voltages.shape
        shared = factory.prepare_voltages(voltages)
        fr = self.scratch.take("fr", (r_count * self.n_models, n_rows,
                                      self.plan.cols))
        for group in self.width_groups:
            group.forward(shared, lo, lo + r_count, factory.head, fr,
                          self.scratch)
        return factory.emulator.normalizer.denormalize_fr(fr, out=fr)

    # ------------------------------------------------------------------
    # Shard kernel
    # ------------------------------------------------------------------
    def run_shard(self, qx: np.ndarray, x_signs: list, seq: int, lo: int,
                  hi: int, chunk: int) -> tuple:
        """Decoded contributions of tile-rows ``lo`` to ``hi`` for one
        quantised chunk.

        ``qx`` is the full-width padded integer activation chunk number
        ``chunk`` of matmul ``seq``; ``x_signs`` the activation signs
        present in it (see :func:`active_signs`). Returns ``(counts,
        stats)``: ``(hi - lo, chunk rows, t_c * cols)`` float counts, one
        slab per tile-row, already scaled by the shift-and-add and sign
        factors but *not* by ``value_lsb`` (:func:`merge_tile_rows`
        applies that together with the accumulator format), and the
        shard's :func:`new_stat_counts`.

        The range runs as one stack of ``S`` stream blocks per tile-row,
        ``S`` the most any of them has active. A tile-row with fewer is
        padded with zero voltage blocks whose prefactor is ``+0.0`` and
        whose level sums are 0, so padding adds exact zeros to the
        decode; the counters count each tile-row's active blocks only.
        """
        plan = self.plan
        cols = plan.cols
        batch = qx.shape[0]
        r_count = hi - lo
        stats = new_stat_counts()
        levels, blocks = gather_streams(plan, qx, x_signs, lo, hi, stats)
        active = [len(index) for index in blocks]
        s_count = max(active)
        if not s_count:
            return np.zeros((r_count, batch, plan.out_width)), stats
        readouts = self.n_models * sum(active)
        stats["readouts"] += readouts
        stats["adc_conversions"] += readouts * batch * cols
        n_sw, n_k = self.sw_slice.shape
        # Each block's (activation sign x stream scale) prefactor.
        scale = np.concatenate([self.stream_scales if sx == 0
                                else -self.stream_scales for sx in x_signs])
        sums = levels.sum(axis=3)
        voltages = self.scratch.take("voltages",
                                     (r_count, s_count * batch, plan.rows))
        prefac = np.zeros((r_count, s_count, n_sw, n_k))
        level_sums = np.zeros((r_count, s_count, batch))
        for r, index in enumerate(blocks):
            for s, block in enumerate(index):
                np.multiply(levels[block, :, r], plan.v_lsb,
                            out=voltages[r, s * batch:(s + 1) * batch])
            voltages[r, active[r] * batch:] = 0.0
            prefac[r, :active[r]] = scale[index, None, None] * self.sw_slice
            level_sums[r, :active[r]] = sums[index, :, r]
        live = [a * batch for a in active]
        codes = self.readout(lo, voltages, live)
        if plan.adc_noise_rms_a:
            # Each tile-row draws its own coordinate-keyed noise over
            # exactly the rows it converts when it runs alone; padded
            # rows stay unconverted and meet a zero prefactor.
            for r, rows in enumerate(live):
                if rows:
                    shard_adc(plan, seq, lo + r, chunk).transfer(
                        codes[r, :rows])
        else:
            shard_adc(plan, seq, lo, chunk).transfer(codes)
        # Integer codes times signed powers of two, every partial sum
        # below 2**53: exact in float64 whatever the summation order.
        code_sums = np.einsum(
            "rsbwktc,rswk->rbtc",
            codes.reshape(r_count, s_count, batch, n_sw, n_k, plan.t_c,
                          cols),
            prefac).reshape(r_count, batch, plan.out_width)
        # The g_off bias of every term, as one per-row code count: each
        # stream's level sum times its total prefactor, in bias codes.
        bias = plan.bias_codes * np.einsum(
            "rs,rsb->rb", prefac.sum(axis=(2, 3)), level_sums)
        np.subtract(code_sums, bias[:, :, None], out=code_sums)
        return np.divide(code_sums, plan.codes_per_count,
                         out=code_sums), stats


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
