"""Compile pass: lower a layer program into a fused tile-row kernel.

The interpreted kernel (:func:`repro.funcsim.runtime.kernel.
execute_tile_row`) walks a Python-level (weight-sign x slice x stream x
tile-column) quadruple loop per shard, issuing one tile-model call and one
ADC conversion per model. For the closed-form tile kinds — ``geniex``,
``exact`` and ``analytical``, whose models of one tile-row all share
geometry — :func:`compile_program` precomputes everything that loop
re-derives per call and lowers the shard into three fused stages:

1. **Stacked read-out** — the per-model operands of a tile-row are
   concatenated along columns at compile time (``(rows, M * cols)``; for
   geniex, the hidden-bias rows are stacked to ``(M, hidden)``), so all
   ``M = signs x slices x t_c`` tile models of a stream stack are read
   out by *one* BLAS call and digitised by *one* ADC pass, instead of
   ``M`` of each (the geniex NN forwards stay per-model: sgemm row
   blocks are not bitwise stable under row-count changes, see
   :meth:`CompiledLayer._model_frs`). Stacking must not change a
   single bit, so :func:`compile_program` *probes* it: the stacked
   read-out is checked bitwise against the per-model calls on a
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
measurement itself. It covers deterministic ADCs when the tile-result
cache is off or the engine is batch-invariant (where a re-computed
read-out is bitwise equal to a cached one, so cache hits only need to be
*counted* and the cache traffic is replayed key-for-key). The *general*
form (:meth:`CompiledLayer._measure` / :meth:`CompiledLayer._decode`)
additionally handles ADC noise draws and partial cache hits on
non-invariant engines, at the cost of model-major staging copies.

Bit-identity contract: the compiled path produces *bit-identical* outputs
to the interpreted kernel — same zero-stream skips, same tile-result
cache keys and hits, same ADC noise draw order (model-major, matching the
interpreted per-model sequence), same statistics. This holds for every
engine kind, worker count and faulty
(:class:`~repro.nonideal.NonidealitySpec`) preparation; the equivalence
suite (``tests/funcsim/test_compiled.py``) asserts it. The interpreted
kernel therefore remains the reference implementation and the transparent
fallback for unfusible tile kinds (``decoupled``/``circuit``) and for
shards whose stacked working set would exceed :data:`the memory guard
<DEFAULT_MAX_FUSED_BYTES>`.
"""

from __future__ import annotations

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


def _cat_columns(stack: np.ndarray) -> np.ndarray:
    """``(M, rows, cols)`` model stack -> ``(rows, M * cols)`` operand."""
    m, rows, cols = stack.shape
    return np.ascontiguousarray(stack.transpose(1, 0, 2)).reshape(
        rows, m * cols)


class CompiledLayer:
    """Fused execution form of one layer program.

    Holds the per-tile-row stacked operands, the precomputed decode
    prefactors and the array backend that executes them.
    """

    def __init__(self, kind: str, backend, batch_invariant: bool,
                 model_coords: list, n_sw: int, n_k: int, t_c: int,
                 row_stacks: dict, stream_scales: np.ndarray,
                 sw_slice: np.ndarray, max_fused_bytes: int):
        self.kind = kind
        self.backend = backend
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
        #: Verdicts of the runtime stacked-NN-forward check, keyed by
        #: ``(n_rows, n_models)`` shape class (see :meth:`_friction`).
        self._nn_stack_ok: dict = {}
        #: Per-thread scratch buffers (:meth:`_workspace`). The layer is
        #: shared across the engine's shard threads, so the pool is
        #: thread-local; buffers never escape a shard call.
        self._ws_local = threading.local()

    def _workspace(self, name: str, shape: tuple,
                   dtype=np.float64) -> np.ndarray:
        """Reusable per-thread scratch array of the given shape class.

        The fast path's large temporaries (stacked voltages, the flat
        measurement, the NN hidden batch) are multi-megabyte and freed
        at every shard, which keeps the allocator releasing and
        re-faulting pages; recycling them costs nothing in values —
        every user fills its buffer completely before reading it.
        """
        pool = getattr(self._ws_local, "buffers", None)
        if pool is None:
            pool = self._ws_local.buffers = {}
        key = (name, shape, np.dtype(dtype).char)
        buf = pool.get(key)
        if buf is None:
            buf = pool[key] = np.empty(shape, dtype)
        return buf

    # ------------------------------------------------------------------
    # Fused read-out
    # ------------------------------------------------------------------
    def _currents(self, program: LayerProgram, tr: int, model_idx,
                  voltages: np.ndarray, shared) -> np.ndarray:
        """Stacked currents ``(M, n, cols)`` of (a subset of) the models.

        ``model_idx=None`` reads out every model of the tile-row;
        otherwise a list of stacked-model indices (cache-miss groups).
        Column-concatenated BLAS products are bitwise equal per column
        block to the per-model products, so the fused read-out matches
        the interpreted kernel's per-model calls exactly.
        """
        plan = program.plan
        cols = plan.cols
        stacks = self.row_stacks[tr]
        g_cat = stacks["g_cat"]
        if model_idx is not None:
            sel = (np.asarray(model_idx)[:, None] * cols
                   + np.arange(cols)).ravel()
            g_cat = g_cat[:, sel]
        n_models = g_cat.shape[1] // cols
        n_rows = voltages.shape[0]
        backend = self.backend
        product = backend.invariant_matmul if self.batch_invariant \
            else backend.matmul
        i_ideal = product(voltages, g_cat) \
            .reshape(n_rows, n_models, cols).transpose(1, 0, 2)
        if self.kind != "geniex":
            return i_ideal
        bias = stacks["bias"]
        if model_idx is not None:
            bias = bias[model_idx]
        fr = self._friction(program, bias, shared)
        return i_ideal / fr

    def _friction(self, program: LayerProgram, bias: np.ndarray,
                  shared: np.ndarray) -> np.ndarray:
        """Geniex non-ideality factors ``(M, n, cols)``.

        The hidden-layer bias add and the ``denormalize_fr`` rescale are
        element-wise, so batching them over the model axis is trivially
        bitwise equal to the interpreted kernel's per-model ops. The NN
        *forward* is not: BLAS sgemm results for a row block are not
        bitwise stable under changes of the total row count (observed at
        odd counts on this host), so a ``(M * n, hidden)`` stacked
        forward can diverge from the per-model forwards in the last
        float32 ulp. The first call of each ``(n, M)`` shape class
        therefore runs *both* and compares bitwise — kernel dispatch is
        value-independent, so the verdict transfers to every later call
        of the class — and only validated classes keep the one-call
        stacked forward; others run the per-model forwards, matching the
        interpreted kernel call for call.
        """
        emu = program.tile_factory.emulator
        nn_matmul = self.backend.invariant_matmul \
            if self.batch_invariant else None
        n_models = bias.shape[0]
        n_rows = shared.shape[0]
        hidden = np.add(shared[None, :, :], bias[:, None, :],
                        out=self._workspace(
                            "hidden", (n_models, n_rows, bias.shape[1]),
                            shared.dtype))
        key = (n_rows, n_models)
        stack_ok = self._nn_stack_ok.get(key)
        if stack_ok is not False:
            fr_norm = emu.model.forward_hidden(
                hidden.reshape(n_models * n_rows, bias.shape[1]),
                matmul=nn_matmul)
            # In-place denormalize: same clip -> scale -> shift chain as
            # Normalizer.denormalize_fr, element for element, without
            # its three temporaries (the float32 -> float64 widening of
            # the convert-assign is exact).
            norm = emu.normalizer
            fr_stacked = self._workspace("fr", fr_norm.shape)
            fr_stacked[...] = fr_norm
            np.clip(fr_stacked, 0.0, 1.0, out=fr_stacked)
            np.multiply(fr_stacked, norm.fr_max - norm.fr_min,
                        out=fr_stacked)
            np.add(fr_stacked, norm.fr_min, out=fr_stacked)
            fr_stacked = fr_stacked.reshape(n_models, n_rows, -1)
            if stack_ok:
                return fr_stacked
        fr_models = [emu.normalizer.denormalize_fr(
            emu.model.forward_hidden(hidden[mi], matmul=nn_matmul))
            for mi in range(n_models)]
        if stack_ok is None:
            stack_ok = all(np.array_equal(fr_stacked[mi], fr_models[mi])
                           for mi in range(n_models))
            self._nn_stack_ok[key] = stack_ok
            if stack_ok:
                return fr_stacked
        return np.stack(fr_models)

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
        i_flat = product(voltages, g_cat, out=self._workspace(
            "i_flat", (voltages.shape[0], g_cat.shape[1])))
        if self.kind != "geniex":
            return i_flat
        bias = stacks["bias"]
        fr = self._friction(program, bias, shared)
        i3 = i_flat.reshape(voltages.shape[0], bias.shape[0], plan.cols)
        np.divide(i3, fr.transpose(1, 0, 2), out=i3)
        return i_flat

    def _execute_fast(self, program: LayerProgram, tr: int,
                      stream_levels: list, stream_info: list, batch: int,
                      adc, cache, stats) -> np.ndarray:
        """Fused shard execution in the natural measurement layout.

        Valid for deterministic ADCs with the cache off or the engine
        batch-invariant (see the dispatch in
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
        voltages = self._workspace("voltages",
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
        if cache is not None:
            self._replay_cache(plan, tr, meas6, stream_levels, batch,
                               cache, stats)
        np.multiply(i_flat, plan.decode, out=i_flat)
        sums = np.stack([levels.sum(axis=1) for levels in stream_levels])
        np.subtract(meas6, (plan.bias_factor * sums)
                    [:, :, None, None, None, None], out=meas6)
        s_scale = np.array([(1.0 if sx == 0 else -1.0)
                            * self.stream_scales[m] for sx, m in stream_info])
        prefac = s_scale[:, None, None] * self.sw_slice[None, :, :]
        out = self.backend.decode_contract(meas6, prefac)
        return np.ascontiguousarray(out).reshape(batch, self.t_c * cols)

    def _replay_cache(self, plan, tr: int, meas6: np.ndarray,
                      stream_levels: list, batch: int, cache,
                      stats) -> None:
        """Replay the interpreted kernel's cache traffic key-for-key.

        Batch-invariant mode only: a re-computed read-out is bitwise
        equal to its cached copy, so hits are counted without reading
        the cached value back, and misses store the freshly measured
        block. Gets run before puts per model, models in the interpreted
        kernel's (sign, slice, tile-column) order, streams ascending —
        the exact op sequence the interpreted kernel issues — so the
        cache's LRU state stays identical across the two kernels.
        """
        s_count = len(stream_levels)
        level_bytes = [levels.tobytes() for levels in stream_levels]
        for wi, sw in enumerate(plan.sign_present):
            for k in range(self.n_k):
                for tc in range(self.t_c):
                    keys = [(plan.uid, sw, k, tr, tc, batch,
                             level_bytes[s]) for s in range(s_count)]
                    missing = []
                    for s in range(s_count):
                        if cache.get(keys[s]) is None:
                            missing.append(s)
                        else:
                            stats["cache_hits"] += 1
                    for s in missing:
                        # Unconditional copy: the measurement buffer is
                        # mutated by the decode stage (and recycled), so
                        # a cached view would corrupt later interpreted
                        # reads of the entry.
                        cache.put(keys[s], meas6[s, :, wi, k, tc, :].copy())

    def _measure(self, program: LayerProgram, tr: int, stream_levels: list,
                 batch: int, adc, cache, stats) -> np.ndarray:
        """Measured tensor ``(M, S, batch, cols)``, cache-aware.

        Without a cache, one stacked read-out and one ADC pass cover the
        whole tile-row; the model-major layout reproduces the interpreted
        kernel's per-model ADC noise draw order. With a cache, lookups
        use the interpreted kernel's exact keys, and the models missing
        the same stream subset are grouped into one stacked read-out per
        miss pattern.
        """
        plan = program.plan
        cols = plan.cols
        coords = self.model_coords
        n_models = len(coords)
        s_count = len(stream_levels)
        if cache is None:
            voltages = np.concatenate(stream_levels, axis=0) * plan.v_lsb
            shared = program.tile_factory.prepare_voltages(voltages)
            raw = self._currents(program, tr, None, voltages, shared)
            return adc.measure(raw).reshape(n_models, s_count, batch, cols)
        level_bytes = [levels.tobytes() for levels in stream_levels]
        keys = [[(plan.uid, sw, k, tr, tc, batch, level_bytes[s])
                 for s in range(s_count)] for sw, k, tc in coords]
        measured = np.empty((n_models, s_count, batch, cols))
        miss_groups: dict = {}
        for mi in range(n_models):
            missing = []
            for s in range(s_count):
                hit = cache.get(keys[mi][s])
                if hit is None:
                    missing.append(s)
                else:
                    measured[mi, s] = hit
                    stats["cache_hits"] += 1
            if missing:
                miss_groups.setdefault(tuple(missing), []).append(mi)
        if miss_groups:
            voltages = np.concatenate(stream_levels, axis=0) * plan.v_lsb
            shared = program.tile_factory.prepare_voltages(voltages)
            base_rows = np.arange(batch)
            for missing, model_idx in miss_groups.items():
                if len(missing) == s_count:
                    v_sub, c_sub = voltages, shared
                else:
                    sel = (np.asarray(missing)[:, None] * batch
                           + base_rows).ravel()
                    v_sub = voltages[sel]
                    c_sub = shared[sel] \
                        if isinstance(shared, np.ndarray) else shared
                raw = self._currents(program, tr, model_idx, v_sub, c_sub)
                i_meas = adc.measure(raw).reshape(
                    len(model_idx), len(missing), batch, cols)
                for gi, mi in enumerate(model_idx):
                    for si, s in enumerate(missing):
                        block = i_meas[gi, si]
                        measured[mi, s] = block
                        # Copy out of the stacked measurement so a cache
                        # entry never pins the whole block.
                        cache.put(keys[mi][s], block.copy())
        return measured

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
        stacked = compiled._currents(program, 0, None, voltages, shared)
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


def compile_program(program: LayerProgram, backend) -> CompiledLayer | None:
    """Lower a layer program into its fused form (``None`` if unfusible).

    Stacks every tile-row's model operands into dense arrays,
    precomputes the decode prefactors and probes the stacked read-out
    for bit-identity (:func:`_probe_stacked_readout`); emits a
    ``kernel-compile`` obs span. Unfusible tile kinds (anything outside
    :data:`FUSIBLE_KINDS`) and programs failing the probe return
    ``None`` and keep executing through the interpreted kernel.
    """
    kind = getattr(program.tile_factory, "name", None)
    if kind not in FUSIBLE_KINDS:
        return None
    plan = program.plan
    cfg = plan.sim_config
    with span("kernel-compile", layer=plan.uid, kind=kind,
              backend=backend.name):
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
                stacks["bias"] = np.stack([m._hidden_bias for m in models])
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
            max_fused_bytes=_max_fused_bytes())
        min_rows = _probe_stacked_readout(compiled, program)
        if min_rows is None:
            return None
        compiled.min_fused_rows = min_rows
        return compiled


def execute_tile_row_fused(program: LayerProgram, qx: np.ndarray,
                           x_signs: list, tr: int, adc, cache=None,
                           stats=None) -> np.ndarray | None:
    """Fused counterpart of :func:`~repro.funcsim.runtime.kernel.
    execute_tile_row`: bit-identical outputs, counters and cache traffic.

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
    if plan.adc_noise_rms_a == 0.0 and (cache is None
                                        or compiled.batch_invariant):
        return compiled._execute_fast(program, tr, stream_levels,
                                      stream_info, batch, adc, cache, stats)
    measured = compiled._measure(program, tr, stream_levels, batch, adc,
                                 cache, stats)
    return compiled._decode(plan, measured, stream_levels, stream_info,
                            batch)
