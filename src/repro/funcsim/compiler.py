"""Compile pass: lower a layer program into a fused tile-row kernel.

The interpreted kernel (:func:`repro.funcsim.runtime.kernel.
execute_tile_row`) walks a Python-level (weight-sign x slice x stream x
tile-column) quadruple loop per shard, issuing one tile-model call and one
ADC conversion per model. For the closed-form tile kinds — ``geniex``,
``exact`` and ``analytical``, whose models of one tile-row all share
geometry — :func:`compile_program` precomputes everything that loop
re-derives per call and lowers the shard into three fused stages:

1. **Stacked read-out** — the per-model operands of a tile-row are
   concatenated along columns at compile time (``(rows, M * cols)``), so
   all ``M = signs x slices x t_c`` tile models of a stream stack are
   read out by *one* BLAS call and digitised by *one* ADC pass, instead
   of ``M`` of each. The geniex NN forwards stay per-model: each tile's
   network is pruned to its own live hidden units when the tile is
   programmed, and both kernels run that tile's
   :meth:`~repro.funcsim.engine.GeniexTileModel.forward` on the same
   operands (see :meth:`CompiledLayer._friction`). Stacking must not
   change a single bit, so :func:`compile_program` *probes* it: the
   stacked read-out is checked bitwise against the per-model calls on a
   deterministic voltage batch at several row counts, and a layer whose
   BLAS build breaks the equality simply stays interpreted.
2. **Vectorized decode** — the sign factors, ``2**(m * stream_bits)``
   stream scales and ``2**(k * slice_bits)`` slice scales are precomputed
   as dense prefactor arrays (products of signed powers of two: exact in
   float64) and applied to the whole measured tensor at once.
3. **Ordered accumulation** — the decode terms collapse through the
   backend ops, which preserve the interpreted kernel's
   (stream, sign, slice) addition order per output element; a pairwise
   ``np.sum`` reduction would regroup the floating-point adds and drift
   in the last ulp.

Two execution forms implement those stages. The *fast* form
(:meth:`CompiledLayer._execute_fast`) keeps the measurement in the
read-out's natural ``(streams * batch, M * cols)`` memory layout end to
end: the ADC transfer runs as five in-place element-wise passes, the
decode bias is subtracted in place, and the shift-and-add collapse is a
single :meth:`~repro.funcsim.runtime.backends.NumpyBackend.
decode_contract` contraction — no transposes, no temporaries beyond the
measurement itself. It runs every shard whose ADC is noiseless. The
*general* form (:meth:`CompiledLayer._measure` /
:meth:`CompiledLayer._decode`) exists only for ADC noise: its
model-major staging reproduces the interpreted kernel's per-model noise
draw order.

The fast form's large temporaries come from a :class:`ScratchPool` that
the preparing engine shares across all its compiled layers: one
grow-only flat buffer per (thread, name, dtype), so scratch memory is
bounded by the largest shard rather than by the number of distinct shard
shapes seen.

Bit-identity contract: the compiled path produces *bit-identical* outputs
to the interpreted kernel — same zero-stream skips, same ADC noise draw
order (model-major, matching the interpreted per-model sequence), same
statistics. This holds for every engine kind, worker count and faulty
(:class:`~repro.nonideal.NonidealitySpec`) preparation; the equivalence
suite (``tests/funcsim/test_compiled.py``) asserts it. The interpreted
kernel therefore remains the reference implementation and the transparent
fallback for unfusible tile kinds (``decoupled``/``circuit``) and for
shards whose stacked working set would exceed :data:`the memory guard
<DEFAULT_MAX_FUSED_BYTES>`.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from repro.funcsim.planner import LayerProgram
from repro.funcsim.runtime.kernel import gather_streams
from repro.obs import span

#: Tile-factory kinds whose models share closed-form geometry and can be
#: stacked into fused read-outs. The iterative ``decoupled``/``circuit``
#: models fall back to the interpreted kernel.
FUSIBLE_KINDS = ("geniex", "exact", "analytical")

#: Stacked-measurement budget per shard, in bytes (the ``(M, S * batch,
#: cols)`` measured tensor; the fused working set is a small multiple of
#: it). Shards above the budget run through the interpreted kernel
#: instead — counted as ``fallback_calls`` — so compiling can never blow
#: up peak memory. Override with ``$REPRO_MAX_FUSED_BYTES``.
DEFAULT_MAX_FUSED_BYTES = 1 << 28


def _max_fused_bytes() -> int:
    value = os.environ.get("REPRO_MAX_FUSED_BYTES")
    return int(value) if value else DEFAULT_MAX_FUSED_BYTES


class ScratchPool:
    """Per-thread scratch arrays of the fused kernel, recycled across shards.

    The fast form's large temporaries (stacked voltages, the flat
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


class CompiledLayer:
    """Fused execution form of one layer program.

    Holds the per-tile-row stacked operands, the precomputed decode
    prefactors, the array backend that executes them and the scratch
    pool of its fast form.
    """

    def __init__(self, kind: str, backend, batch_invariant: bool,
                 model_coords: list, n_sw: int, n_k: int, t_c: int,
                 row_stacks: dict, stream_scales: np.ndarray,
                 sw_slice: np.ndarray, max_fused_bytes: int,
                 scratch: ScratchPool):
        self.kind = kind
        self.backend = backend
        self.scratch = scratch
        self.batch_invariant = batch_invariant
        #: ``(sign, slice, tc)`` per stacked model, in the interpreted
        #: kernel's model-major iteration order — the decode reshape and
        #: the ADC noise draw order both rely on it.
        self.model_coords = model_coords
        self.n_sw = n_sw
        self.n_k = n_k
        self.t_c = t_c
        self.row_stacks = row_stacks
        self.stream_scales = stream_scales
        #: ``(n_sw, n_k)`` outer product of weight-sign factors and
        #: ``2**(k * slice_bits)`` slice scales (exact in float64).
        self.sw_slice = sw_slice
        self.max_fused_bytes = max_fused_bytes
        #: Smallest stacked-voltage row count the fused read-out is
        #: validated for (set by the compile-time probe; shards below it
        #: fall back to the interpreted kernel).
        self.min_fused_rows = 1

    # ------------------------------------------------------------------
    # Fused read-out
    # ------------------------------------------------------------------
    def _currents(self, program: LayerProgram, tr: int,
                  voltages: np.ndarray, shared) -> np.ndarray:
        """Stacked currents ``(M, n, cols)`` of every model of a tile-row.

        Column-concatenated BLAS products are bitwise equal per column
        block to the per-model products, so the fused read-out matches
        the interpreted kernel's per-model calls exactly.
        """
        cols = program.plan.cols
        stacks = self.row_stacks[tr]
        g_cat = stacks["g_cat"]
        n_models = g_cat.shape[1] // cols
        n_rows = voltages.shape[0]
        backend = self.backend
        product = backend.invariant_matmul if self.batch_invariant \
            else backend.matmul
        i_ideal = product(voltages, g_cat) \
            .reshape(n_rows, n_models, cols).transpose(1, 0, 2)
        if self.kind != "geniex":
            return i_ideal
        fr = self._friction(program, stacks["models"], shared)
        return i_ideal / fr

    def _friction(self, program: LayerProgram, models: list,
                  shared: np.ndarray) -> np.ndarray:
        """Geniex non-ideality factors ``(M, n, cols)``, model-major.

        Each tile model runs its own pruned forward
        (:meth:`~repro.funcsim.engine.GeniexTileModel.forward`) — the very
        method the interpreted kernel calls, on the same operands — into
        a contiguous block of the pooled ``fr`` buffer, with its hidden
        activations carved from the pooled ``hidden`` buffer, so every
        BLAS call matches the interpreted kernel's call for call. The
        ``denormalize_fr`` rescale is element-wise, so it runs once over
        the whole block: the same clip -> scale -> shift chain, element
        for element, without its per-model temporaries.
        """
        n_rows = shared.shape[0]
        fr = self.scratch.take("fr", (len(models), n_rows, program.plan.cols))
        work = self.scratch.take(
            "hidden", (n_rows * max(m.work_width for m in models),),
            np.float32)
        for mi, model in enumerate(models):
            model.forward(shared, out=fr[mi], work=work)
        norm = program.tile_factory.emulator.normalizer
        np.clip(fr, 0.0, 1.0, out=fr)
        np.multiply(fr, norm.fr_max - norm.fr_min, out=fr)
        np.add(fr, norm.fr_min, out=fr)
        return fr

    def _currents_flat(self, program: LayerProgram, tr: int,
                       voltages: np.ndarray, shared) -> np.ndarray:
        """Stacked currents in the natural ``(n, M * cols)`` layout.

        Same read-out as :meth:`_currents` — identical products, and for
        geniex an element-for-element identical division (applied in
        place through a strided view) — but without the model-major
        ``reshape``/``transpose`` staging copy. The flat layout is what
        the ADC and decode stages of :meth:`_execute_fast` consume
        directly.
        """
        plan = program.plan
        stacks = self.row_stacks[tr]
        backend = self.backend
        product = backend.invariant_matmul if self.batch_invariant \
            else backend.matmul
        g_cat = stacks["g_cat"]
        i_flat = product(voltages, g_cat, out=self.scratch.take(
            "i_flat", (voltages.shape[0], g_cat.shape[1])))
        if self.kind != "geniex":
            return i_flat
        fr = self._friction(program, stacks["models"], shared)
        i3 = i_flat.reshape(voltages.shape[0], fr.shape[0], plan.cols)
        np.divide(i3, fr.transpose(1, 0, 2), out=i3)
        return i_flat

    def _execute_fast(self, program: LayerProgram, tr: int,
                      stream_levels: list, stream_info: list, batch: int,
                      adc) -> np.ndarray:
        """Fused shard execution in the natural measurement layout.

        Valid for deterministic ADCs (see the dispatch in
        :func:`execute_tile_row_fused`). Every floating-point operation
        matches the interpreted kernel's element for element: the ADC
        transfer is the same ``+offset / lsb -> rint -> clip -> *lsb``
        chain (integer codes kept in float64, exact below ``2**53``),
        the decode bias subtraction broadcasts the same two operands,
        and :meth:`~repro.funcsim.runtime.backends.NumpyBackend.
        decode_contract` accumulates the (stream, sign, slice) terms in
        the reference addition order.
        """
        plan = program.plan
        cols = plan.cols
        s_count = len(stream_levels)
        # Per-stream scaled fill of the stacked voltage batch — bitwise
        # the concatenate-then-scale of the interpreted kernel, without
        # materialising the intermediate integer concatenation.
        voltages = self.scratch.take("voltages",
                                     (s_count * batch, plan.rows))
        for s, levels in enumerate(stream_levels):
            np.multiply(levels, plan.v_lsb,
                        out=voltages[s * batch:(s + 1) * batch])
        shared = program.tile_factory.prepare_voltages(voltages)
        i_flat = self._currents_flat(program, tr, voltages, shared)
        # In-place ADC transfer: i_flat becomes the measured currents.
        if adc.offset_a:
            np.add(i_flat, adc.offset_a, out=i_flat)
        np.divide(i_flat, adc.lsb_a, out=i_flat)
        np.rint(i_flat, out=i_flat)
        np.clip(i_flat, 0, adc.n_codes - 1, out=i_flat)
        np.multiply(i_flat, adc.lsb_a, out=i_flat)
        # Zero-copy six-axis view: (stream, batch, sign, slice, tc, cols).
        meas6 = i_flat.reshape(s_count, batch, self.n_sw, self.n_k,
                               self.t_c, cols)
        np.multiply(i_flat, plan.decode, out=i_flat)
        sums = np.stack([levels.sum(axis=1) for levels in stream_levels])
        np.subtract(meas6, (plan.bias_factor * sums)
                    [:, :, None, None, None, None], out=meas6)
        s_scale = np.array([(1.0 if sx == 0 else -1.0)
                            * self.stream_scales[m] for sx, m in stream_info])
        prefac = s_scale[:, None, None] * self.sw_slice[None, :, :]
        out = self.backend.decode_contract(meas6, prefac)
        return np.ascontiguousarray(out).reshape(batch, self.t_c * cols)

    def _measure(self, program: LayerProgram, tr: int, stream_levels: list,
                 batch: int, adc) -> np.ndarray:
        """Measured tensor ``(M, S, batch, cols)`` of a noisy-ADC shard.

        One stacked read-out and one ADC pass cover the whole tile-row;
        the model-major layout reproduces the interpreted kernel's
        per-model ADC noise draw order.
        """
        plan = program.plan
        voltages = np.concatenate(stream_levels, axis=0) * plan.v_lsb
        shared = program.tile_factory.prepare_voltages(voltages)
        raw = self._currents(program, tr, voltages, shared)
        return adc.measure(raw).reshape(len(self.model_coords),
                                        len(stream_levels), batch, plan.cols)

    # ------------------------------------------------------------------
    # Fused decode
    # ------------------------------------------------------------------
    def _decode(self, plan, measured: np.ndarray, stream_levels: list,
                stream_info: list, batch: int) -> np.ndarray:
        cols = plan.cols
        s_count = len(stream_info)
        stacked = measured.reshape(self.n_sw, self.n_k, self.t_c, s_count,
                                   batch, cols).transpose(3, 0, 1, 2, 4, 5)
        # Per-stream sign x shift factors; products of signed powers of
        # two are exact, so the folded prefactor multiply is bitwise
        # equal to the interpreted kernel's chain of scalar multiplies.
        s_scale = np.array([(1.0 if sx == 0 else -1.0)
                            * self.stream_scales[m] for sx, m in stream_info])
        prefac = s_scale[:, None, None] * self.sw_slice[None, :, :]
        sums = np.stack([levels.sum(axis=1) for levels in stream_levels])
        terms = stacked * plan.decode
        terms -= (plan.bias_factor * sums)[:, None, None, None, :, None]
        terms *= prefac[:, :, :, None, None, None]
        flat = terms.reshape(s_count * self.n_sw * self.n_k, self.t_c,
                             batch, cols)
        out = np.zeros((batch, self.t_c, cols))
        self.backend.decode_accumulate(flat, out)
        return out.reshape(batch, self.t_c * cols)


#: Stacked-voltage row counts checked by the compile-time probe. The
#: small counts straddle BLAS's gemv/small-kernel dispatch region, where
#: column concatenation is most likely to change kernel choice; the
#: larger ones cover the blocked-gemm regime real shards run in.
_PROBE_FUSED_ROWS = (1, 2, 7, 33, 256)


def _probe_stacked_readout(compiled: CompiledLayer,
                           program: LayerProgram) -> int | None:
    """Bitwise check of the stacked read-out against per-model calls.

    Runs the compiled tile-row read-out of ``tr = 0`` on a deterministic
    quantised voltage batch at each :data:`_PROBE_FUSED_ROWS` count and
    compares every model's column block against that model's own
    interpreted call — end to end, including the geniex NN forward.
    Reduction order inside the kernels is value-independent, so a
    passing probe transfers to real operands of the same geometry (and
    all tile-rows share it).

    Returns the smallest validated stacked-row count: ``1`` when every
    count matches, ``2`` when only single-row stacking diverges (shards
    that small fall back to the interpreted kernel), or ``None`` when
    multi-row stacking breaks bit-identity — the program then stays
    interpreted entirely.
    """
    plan = program.plan
    cfg = plan.sim_config
    rng = np.random.default_rng(
        [29, plan.rows, plan.cols, len(compiled.model_coords)])
    min_rows = 1
    for n in _PROBE_FUSED_ROWS:
        levels = rng.integers(0, 2 ** cfg.stream_bits,
                              size=(n, plan.rows)).astype(np.float64)
        voltages = levels * plan.v_lsb
        shared = program.tile_factory.prepare_voltages(voltages)
        stacked = compiled._currents(program, 0, voltages, shared)
        ok = all(np.array_equal(
            stacked[mi], np.asarray(
                program.models[(sw, k, 0, tc)].currents(voltages, shared)))
            for mi, (sw, k, tc) in enumerate(compiled.model_coords))
        if not ok:
            if n == 1:
                min_rows = 2
            else:
                return None
    return min_rows


def compile_program(program: LayerProgram, backend,
                    scratch: ScratchPool) -> CompiledLayer | None:
    """Lower a layer program into its fused form (``None`` if unfusible).

    ``scratch`` is the pool the fused kernel takes its temporaries from
    (an engine passes one pool to all its layers). Stacks every
    tile-row's model operands into dense arrays, precomputes the decode
    prefactors and probes the stacked read-out for bit-identity
    (:func:`_probe_stacked_readout`); emits a ``kernel-compile`` obs span
    (for geniex with ``hidden_kept``/``hidden_total`` meta: the hidden
    units the layer's pruned tiles run, of those the emulator has).
    Unfusible tile kinds (anything outside
    :data:`FUSIBLE_KINDS`) and programs failing the probe return
    ``None`` and keep executing through the interpreted kernel.
    """
    kind = getattr(program.tile_factory, "name", None)
    if kind not in FUSIBLE_KINDS:
        return None
    plan = program.plan
    cfg = plan.sim_config
    meta = {}
    if kind == "geniex":
        # How much of the emulator network the layer's tiles actually run.
        meta["hidden_kept"] = sum(m.kept.size
                                  for m in program.models.values())
        meta["hidden_total"] = (program.tile_factory.emulator.model.hidden
                                * len(program.models))
    with span("kernel-compile", layer=plan.uid, kind=kind,
              backend=backend.name, **meta):
        coords = [(sw, k, tc) for sw in plan.sign_present
                  for k in range(cfg.n_slices) for tc in range(plan.t_c)]
        row_stacks = {}
        for tr in range(plan.t_r):
            models = [program.models[(sw, k, tr, tc)]
                      for sw, k, tc in coords]
            if kind == "analytical":
                stack = np.stack([m._transfer for m in models])
            else:
                stack = np.stack([np.asarray(m.conductance_s, dtype=float)
                                  for m in models])
            stacks = {"g_cat": _cat_columns(stack)}
            if kind == "geniex":
                stacks["models"] = models
            row_stacks[tr] = stacks
        sw_factors = np.array([1.0 if sw == 0 else -1.0
                               for sw in plan.sign_present])
        slice_scales = np.array([float(2 ** (k * cfg.slice_bits))
                                 for k in range(cfg.n_slices)])
        stream_scales = np.array([float(2 ** (m * cfg.stream_bits))
                                  for m in range(cfg.n_streams)])
        compiled = CompiledLayer(
            kind=kind, backend=backend,
            batch_invariant=bool(getattr(program.tile_factory,
                                         "batch_invariant", False)),
            model_coords=coords, n_sw=len(plan.sign_present),
            n_k=cfg.n_slices, t_c=plan.t_c, row_stacks=row_stacks,
            stream_scales=stream_scales,
            sw_slice=np.outer(sw_factors, slice_scales),
            max_fused_bytes=_max_fused_bytes(),
            scratch=scratch)
        min_rows = _probe_stacked_readout(compiled, program)
        if min_rows is None:
            return None
        compiled.min_fused_rows = min_rows
        return compiled


def execute_tile_row_fused(program: LayerProgram, qx: np.ndarray,
                           x_signs: list, tr: int, adc,
                           stats=None) -> np.ndarray | None:
    """Fused counterpart of :func:`~repro.funcsim.runtime.kernel.
    execute_tile_row`: bit-identical outputs and counters.

    Noiseless shards run the fast form; only ADC noise takes the general
    :meth:`~CompiledLayer._measure` / :meth:`~CompiledLayer._decode` form.
    Returns ``None`` (caller falls back to the interpreted kernel) when
    the shard's stacked working set would exceed the compiled layer's
    memory guard, or when its stacked voltage batch is below the row
    count the compile-time probe validated.
    """
    compiled = program.compiled
    plan = program.plan
    batch = qx.shape[0]
    stream_levels, stream_info = gather_streams(plan, qx, x_signs, tr, stats)
    if not stream_levels:
        return np.zeros((batch, plan.out_width))
    n_models = len(compiled.model_coords)
    s_count = len(stream_levels)
    if n_models * s_count * batch * plan.cols * 8 > compiled.max_fused_bytes:
        return None
    if s_count * batch < compiled.min_fused_rows:
        return None
    stats["readouts"] += n_models * s_count
    stats["adc_conversions"] += n_models * s_count * batch * plan.cols
    if plan.adc_noise_rms_a == 0.0:
        return compiled._execute_fast(program, tr, stream_levels,
                                      stream_info, batch, adc)
    measured = compiled._measure(program, tr, stream_levels, batch, adc)
    return compiled._decode(plan, measured, stream_levels, stream_info,
                            batch)
