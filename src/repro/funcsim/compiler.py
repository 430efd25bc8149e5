"""Compile pass: lower a layer program into the one tile-row shard kernel.

Every engine kind runs the same kernel (:meth:`CompiledLayer.execute`).
:func:`compile_program` prepares, once per layer, what the kernel would
otherwise re-derive per shard: each tile-row's models, their read-out
operands column-concatenated into one ``(rows, M * cols)`` matrix for
the closed-form kinds, and the shift-and-add prefactors. A shard then
runs three stages over one flat ``(S * batch, M * cols)`` measurement,
where ``S`` counts the active (activation-sign, stream) blocks and ``M``
the (weight-sign, slice, tile-column) models of the tile-row:

1. **Read-out.** All stream blocks are stacked into one ``(S * batch,
   rows)`` voltage batch. ``exact`` and ``analytical`` tiles are one
   stacked GEMM; ``geniex`` adds each tile's pruned NN forward
   (:meth:`~repro.core.emulator.GeniexTileModel.forward`) and the fR
   divide — under ``batch_invariant``, one stacked forward of the whole
   tile-row (:class:`GeniexRowStack`), since those
   engines serve few-row batches whose cost is per-call dispatch;
   ``decoupled`` and ``circuit`` fill each model's column block
   with that model's ``currents()``. Only this stage depends on the kind.
2. **ADC.** :meth:`~repro.funcsim.adc.AdcModel.transfer` turns the
   currents into integer output codes in place, drawing any offset noise
   from the shard's coordinate-keyed generator in this same layout.
3. **Exact digital back end.** The shift-and-add multiplies codes by
   signed powers of two (the (stream, sign, slice) prefactors), so with
   every partial sum an integer below ``2**53`` — asserted per layer by
   :func:`~repro.funcsim.planner.plan_layer` — the float64 contraction is
   exact in any order, and therefore batch-invariant by construction.
   The ``g_off`` mapping bias leaves as one per-row rank-1 term in code
   units, and one divide per output element converts codes to counts,
   as in the hardware's digital periphery. When the ADC grid aligns
   with the count grid (the bias is a whole number of codes), every
   step is exact and the ``exact`` engine equals Ideal FxP bit for bit.

The kernel's large temporaries come from a :class:`ScratchPool` that the
preparing engine shares across all its compiled layers: one grow-only
flat buffer per (thread, name, dtype), so scratch memory is bounded by
the largest shard, which :func:`~repro.funcsim.planner.plan_layer` caps.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.core.emulator import GeniexTileFactory
from repro.funcsim.planner import LayerProgram
from repro.obs import span
from repro.utils.numerics import batch_invariant_matmul, select_matmul


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
    """``(M, rows, cols)`` model stack -> ``(rows, M * cols)`` operand."""
    m, rows, cols = stack.shape
    return np.ascontiguousarray(stack.transpose(1, 0, 2)).reshape(
        rows, m * cols)


#: Widest first-layer GEMM of a :class:`GeniexRowStack`, in float32
#: columns. Each GEMM width is a shape class of
#: :func:`~repro.utils.numerics.batch_invariant_matmul`, whose one-time
#: probe holds a ``(4131, width)`` problem: one GEMM across a serving
#: tile-row (1536 columns) raised a server's peak RSS by 27% and ran no
#: faster than groups of this width.
STACK_GEMM_COLUMNS = 512


class GeniexRowStack:
    """The GENIEx tiles of one tile-row, run as one stacked forward.

    Batch-invariant engines serve 1- and 2-row batches, where ``M``
    per-tile forwards cost Python dispatch rather than FLOPs. The stack
    pads every tile's kept hidden set to the tile-row's widest, ``kmax``:
    a pad unit has zero voltage weights, bias -1 and a zero second-layer
    row, so its ReLU output is exactly 0 and it adds exact zeros to the
    second layer's sums. The first layer is then a few GEMMs on the
    column-concatenated padded ``w_aug`` operands (grouped under
    :data:`STACK_GEMM_COLUMNS`), the second one stacked ``(M, n, kmax) @
    (M, kmax, h2)`` product, and any later layer, shared by all tiles,
    one ``(M * n, h2)`` GEMM. Every product is
    :func:`~repro.utils.numerics.batch_invariant_matmul`.

    The padding costs FLOPs, which large non-invariant shards pay for
    (they keep :meth:`~repro.core.emulator.GeniexTileModel.forward`), so
    the stack is chosen by the engine's ``batch_invariant`` property,
    never by batch size.
    """

    def __init__(self, factory: GeniexTileFactory, models: list):
        self._factory = factory
        n_models = len(models)
        kmax = max(tile.kept.size for tile in models)
        w_aug = np.zeros((n_models, models[0].w_aug.shape[0], kmax),
                         np.float32)
        w_aug[:, -1, :] = -1.0
        w2 = np.zeros((n_models, kmax, factory.w2_t.shape[1]), np.float32)
        for mi, tile in enumerate(models):
            k = tile.kept.size
            w_aug[mi, :, :k] = tile.w_aug
            w2[mi, :k] = tile.w2_t
        # Balanced groups of whole tiles: one width, one probe class.
        n_groups = -(-n_models * kmax // STACK_GEMM_COLUMNS)
        per = -(-n_models // n_groups)
        #: ``(first column, (rows + 1, g * kmax) operand)`` per group.
        self.first = [(lo * kmax, _cat_columns(w_aug[lo:lo + per]))
                      for lo in range(0, n_models, per)]
        #: Stacked second-layer operand ``(M, kmax, h2)``.
        self.w2 = w2

    def forward(self, v_aug: np.ndarray, out: np.ndarray,
                scratch) -> np.ndarray:
        """Normalised network outputs ``(M, n, cols)`` into ``out``.

        Tile ``mi``'s block ``out[mi]`` is what
        :meth:`~repro.core.emulator.GeniexTileModel.forward` returns for
        it: byte for byte where BLAS sums the zero-padded second-layer
        product in the unpadded order, to 2 float32 ulps of the block's
        scale where it does not (tested). ``scratch`` is the
        :class:`ScratchPool` the hidden activations are taken from.
        """
        factory = self._factory
        matmul = batch_invariant_matmul
        n = v_aug.shape[0]
        n_models, kmax, width = self.w2.shape
        hidden = scratch.take("hidden", (n, n_models * kmax), np.float32)
        for lo, w in self.first:
            matmul(v_aug, w, out=hidden[:, lo:lo + w.shape[1]])
        np.maximum(hidden, 0.0, out=hidden)
        y = scratch.take("hidden2", (n_models, n, width), np.float32)
        matmul(hidden.reshape(n, n_models, kmax).transpose(1, 0, 2),
               self.w2, out=y)
        bias = factory.b2
        for w_t, next_bias in factory.tail:
            np.add(y, bias, out=y)
            np.maximum(y, 0.0, out=y)
            y = matmul(y.reshape(n_models * n, -1), w_t)
            bias = next_bias
        return np.add(y.reshape(n_models, n, -1), bias, out=out)


class CompiledLayer:
    """Executable form of one layer program.

    Holds each tile-row's models (``(sign, slice, tc)`` model-major, the
    order of the measurement's column blocks) and, for the closed-form
    kinds, their column-concatenated read-out operand; for batch-invariant
    geniex layers each tile-row's stacked forward; the shift-and-add
    prefactors; and the scratch pool the kernel takes temporaries from.
    """

    def __init__(self, kind: str, batch_invariant: bool, n_sw: int,
                 n_k: int, t_c: int, row_models: list, row_operands: list,
                 row_stacks: list, stream_scales: np.ndarray,
                 sw_slice: np.ndarray, scratch: ScratchPool):
        self.kind = kind
        self.scratch = scratch
        self._matmul = select_matmul(batch_invariant)
        self.n_sw = n_sw
        self.n_k = n_k
        self.t_c = t_c
        self.row_models = row_models
        #: Per tile-row ``(rows, M * cols)`` read-out operand (``None``
        #: for the iterative kinds, which solve each tile themselves).
        self.row_operands = row_operands
        #: Per tile-row :class:`GeniexRowStack`
        #: (``None``: each tile runs its own forward).
        self.row_stacks = row_stacks
        self.stream_scales = stream_scales
        #: ``(n_sw, n_k)`` outer product of weight-sign factors and
        #: ``2**(k * slice_bits)`` slice scales (exact in float64).
        self.sw_slice = sw_slice

    @property
    def n_models(self) -> int:
        """Models per tile-row (column blocks of the measurement)."""
        return self.n_sw * self.n_k * self.t_c

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def readout(self, program: LayerProgram, tr: int,
                voltages: np.ndarray) -> np.ndarray:
        """Currents of every model of tile-row ``tr``, ``(n, M * cols)``.

        Column block ``mi`` holds model ``mi``'s currents: a stacked
        product computes each output column from one operand column, so
        every block equals that model's own ``currents()`` call (tested).
        """
        cols = program.plan.cols
        models = self.row_models[tr]
        n_rows = voltages.shape[0]
        i_flat = self.scratch.take("i_flat", (n_rows, len(models) * cols))
        operand = self.row_operands[tr]
        if operand is None:
            for mi, model in enumerate(models):
                i_flat[:, mi * cols:(mi + 1) * cols] = model.currents(
                    voltages)
            return i_flat
        self._matmul(voltages, operand, out=i_flat)
        if self.kind == "geniex":
            fr = self._friction(program, tr, voltages)
            i3 = i_flat.reshape(n_rows, len(models), cols)
            np.divide(i3, fr.transpose(1, 0, 2), out=i3)
        return i_flat

    def _friction(self, program: LayerProgram, tr: int,
                  voltages: np.ndarray) -> np.ndarray:
        """Geniex non-ideality factors ``(M, n, cols)``, model-major.

        The factory augments the voltages once for the whole tile-row.
        Tile-row ``tr``'s stacked forward, when it has one, writes every
        model's block of the pooled ``fr`` buffer at once; otherwise each
        tile model runs its own pruned forward
        (:meth:`~repro.core.emulator.GeniexTileModel.forward`) into its
        block, with its hidden activations carved from the pooled
        ``hidden`` buffer. The fR rescale
        (:meth:`~repro.core.model.Normalizer.denormalize_fr`) is
        element-wise, so it runs once, in place, over the whole block.
        """
        models = self.row_models[tr]
        shared = program.tile_factory.prepare_voltages(voltages)
        n_rows = shared.shape[0]
        fr = self.scratch.take("fr", (len(models), n_rows, program.plan.cols))
        stack = self.row_stacks[tr]
        if stack is not None:
            stack.forward(shared, fr, self.scratch)
        else:
            work = self.scratch.take(
                "hidden", (n_rows * max(m.work_width for m in models),),
                np.float32)
            for mi, model in enumerate(models):
                model.forward(shared, out=fr[mi], work=work)
        return program.tile_factory.emulator.normalizer.denormalize_fr(
            fr, out=fr)

    # ------------------------------------------------------------------
    # Shard kernel
    # ------------------------------------------------------------------
    def execute(self, program: LayerProgram, tr: int, stream_levels: list,
                stream_info: list, batch: int, adc) -> np.ndarray:
        """Decoded counts ``(batch, t_c * cols)`` of one shard.

        ``stream_levels``/``stream_info`` are the active stream blocks of
        :func:`~repro.funcsim.runtime.kernel.gather_streams`. The result
        is scaled by the shift-and-add and sign factors but not by
        ``value_lsb`` (the tile-row merge applies that).
        """
        plan = program.plan
        cols = plan.cols
        s_count = len(stream_levels)
        voltages = self.scratch.take("voltages",
                                     (s_count * batch, plan.rows))
        for s, levels in enumerate(stream_levels):
            np.multiply(levels, plan.v_lsb,
                        out=voltages[s * batch:(s + 1) * batch])
        codes = adc.transfer(self.readout(program, tr, voltages))
        s_scale = np.array([(1.0 if sx == 0 else -1.0)
                            * self.stream_scales[m] for sx, m in stream_info])
        prefac = s_scale[:, None, None] * self.sw_slice[None, :, :]
        # Integer codes times signed powers of two, every partial sum
        # below 2**53: exact in float64 whatever the summation order.
        code_sums = np.einsum(
            "sbwktc,swk->btc",
            codes.reshape(s_count, batch, self.n_sw, self.n_k, self.t_c,
                          cols),
            prefac).reshape(batch, self.t_c * cols)
        # The g_off bias of every term, as one per-row code count: each
        # stream's level sum times its total prefactor, in bias codes.
        level_sums = np.stack([levels.sum(axis=1)
                               for levels in stream_levels])
        bias = plan.bias_codes * (prefac.sum(axis=(1, 2)) @ level_sums)
        np.subtract(code_sums, bias[:, None], out=code_sums)
        return np.divide(code_sums, plan.codes_per_count, out=code_sums)


def compile_program(program: LayerProgram,
                    scratch: ScratchPool) -> CompiledLayer:
    """Lower a layer program into its executable form.

    ``scratch`` is the pool the kernel takes its temporaries from (an
    engine passes one pool to all its layers). Stacks each tile-row's
    models and, when they expose a linear read-out operand
    (``transfer``), column-concatenates those; precomputes the decode
    prefactors. Emits a ``kernel-compile`` obs span (for geniex with
    ``hidden_kept``/``hidden_total`` meta: the hidden units the layer's
    pruned tiles run, of those the emulator has). A batch-invariant
    geniex layer also stacks each tile-row's tiles into one forward
    (:class:`GeniexRowStack`).
    """
    factory = program.tile_factory
    kind = factory.name
    batch_invariant = bool(getattr(factory, "batch_invariant", False))
    plan = program.plan
    cfg = plan.sim_config
    meta = {}
    if kind == "geniex":
        # How much of the emulator network the layer's tiles actually run.
        meta["hidden_kept"] = sum(m.kept.size
                                  for m in program.models.values())
        meta["hidden_total"] = factory.emulator.model.hidden \
            * len(program.models)
    with span("kernel-compile", layer=plan.uid, kind=kind, **meta):
        coords = [(sw, k, tc) for sw in plan.sign_present
                  for k in range(cfg.n_slices) for tc in range(plan.t_c)]
        row_models, row_operands, row_stacks = [], [], []
        for tr in range(plan.t_r):
            models = [program.models[(sw, k, tr, tc)]
                      for sw, k, tc in coords]
            row_models.append(models)
            row_operands.append(
                _cat_columns(np.stack([m.transfer for m in models]))
                if hasattr(models[0], "transfer") else None)
            row_stacks.append(GeniexRowStack(factory, models)
                              if kind == "geniex" and batch_invariant
                              else None)
        sw_factors = np.array([1.0 if sw == 0 else -1.0
                               for sw in plan.sign_present])
        slice_scales = np.array([float(2 ** (k * cfg.slice_bits))
                                 for k in range(cfg.n_slices)])
        stream_scales = np.array([float(2 ** (m * cfg.stream_bits))
                                  for m in range(cfg.n_streams)])
        return CompiledLayer(
            kind=kind, batch_invariant=batch_invariant,
            n_sw=len(plan.sign_present), n_k=cfg.n_slices, t_c=plan.t_c,
            row_models=row_models, row_operands=row_operands,
            row_stacks=row_stacks,
            stream_scales=stream_scales,
            sw_slice=np.outer(sw_factors, slice_scales), scratch=scratch)
