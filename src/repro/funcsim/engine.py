"""MVM engines: the bit-sliced crossbar pipeline with pluggable tile models.

``CrossbarMvmEngine`` reproduces the paper's execution model in two phases
(the plan/execute split):

* **Compile** — :meth:`CrossbarMvmEngine.prepare` quantises, sign-splits,
  slices and tiles a weight matrix, programs one tile model per
  (weight-sign, slice, tile) and returns the compiled layer, a
  :class:`~repro.funcsim.compiler.PreparedMatrix` holding the static
  :class:`~repro.funcsim.planner.LayerPlan` (tile schedule, decode
  constants, ADC transfer, cost metadata) and the tile models.
* **Execute** — :meth:`CrossbarMvmEngine.matmul` streams quantised
  activations through the layer's shard kernel
  (:meth:`~repro.funcsim.compiler.PreparedMatrix.run_shard`): per
  tile-row the sign-split activations are streamed ``stream_bits`` at a
  time as DAC voltages; every (weight-sign, slice, tile) crossbar returns
  analog bit-line currents from its *tile model*; the ADC digitises
  them; the digital back-end removes the ``g_off`` mapping bias, merges
  streams/slices with shift-and-add and accumulates tile partial sums in
  the fixed-point accumulator.

Every matmul runs one schedule: the batch is cut into fixed
:data:`~repro.funcsim.compiler.DEFAULT_SHARD_ROWS`-row chunks, a chunk
of at most :data:`~repro.funcsim.compiler.STACK_ROWS` rows runs every
tile-row of the layer as one shard and a larger one a shard per
tile-row, each tile-row with its own coordinate-keyed ADC noise stream;
tile-row partial sums are then merged through the fixed-point
accumulator in tile-row order. ``workers > 1`` fans the shards over an
engine-owned thread pool (the tile math is BLAS and releases the GIL). The shard set never depends on ``workers``, so
every worker count returns bit-identical outputs; see
:mod:`repro.funcsim.compiler` for the determinism contract. The
closed-form kinds (:data:`INVARIANT_KINDS`) run every tile product
through :func:`~repro.utils.numerics.batch_invariant_matmul`, so with a
deterministic, zero-preserving ADC a row's output never depends on the
batch it shares either: one kernel, with no mode, serves in-process
batches and microbatched serving alike.

**Batched execution.** Every tile model accepts voltage batches of shape
``(M, rows)`` and returns currents of shape ``(M, cols)`` — that is the
batched tile API. The kernel exploits it by stacking all non-zero
(activation-sign, stream) blocks of a tile-row into one ``(S * B, rows)``
voltage batch, read out by one stacked GEMM over the shard's tile-rows
for the closed-form tiles (:mod:`repro.funcsim.compiler`) or by a
*single* batched call per iterative tile model instead of ``S`` separate
ones, so the per-call overhead (Python dispatch, normaliser matmuls,
sparse back-substitution setup, Newton bring-up) is paid once per tile.

Tile models:

* :class:`~repro.core.emulator.GeniexTileFactory` — GENIEx emulation
  (default non-ideal mode). Each tile's network is specialised when the
  tile is programmed: the conductance term of the hidden layer folds into
  a per-tile bias, hidden units that bias provably keeps at zero are
  dropped, and the bias rides in the first GEMM on voltages augmented
  once per shard. A layer's tiles of one kept width run as stacked
  per-tile products (:class:`~repro.funcsim.compiler.GeniexWidthGroup`).
* :class:`AnalyticalTileFactory` — exact linear parasitic model (one sparse
  LU per tile, reused across all streams).
* :class:`CircuitTileFactory` — full non-linear circuit solve via the
  batched Newton path (slow; used to validate the emulator in tests).

:class:`IdealMvmEngine` bypasses the analog pipeline entirely and computes
the exact fixed-point product ("Ideal FxP" in the paper's figures).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.circuit.linear_solver import LinearCrossbarSolver
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.core.emulator import GeniexEmulator, GeniexTileFactory
from repro.errors import ConfigError, ShapeError
from repro.funcsim.adc import AdcModel
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.compiler import (
    DEFAULT_SHARD_ROWS,
    STAT_FIELDS,
    PreparedMatrix,
    ScratchPool,
    active_signs,
    chunk_ranges,
    merge_tile_rows,
    quantize_input,
    tile_row_ranges,
)
from repro.funcsim.planner import weight_signs
from repro.obs import span
from repro.funcsim.slicing import sign_split, split_unsigned
from repro.funcsim.tiles import n_tiles, tile_matrix
from repro.nonideal.pipeline import as_pipeline
from repro.utils.digest import content_key
from repro.utils.numerics import batch_invariant_matmul
from repro.xbar.config import CrossbarConfig
from repro.xbar.mapping import conductances_from_levels

#: Every engine kind :func:`make_engine` accepts, in documentation order.
#: The factory's docstring, its error message and the serving protocol all
#: derive from this single tuple (tested against the docstring).
ENGINE_KINDS = ("ideal", "exact", "geniex", "analytical", "circuit")

#: Kinds whose tile products are always
#: :func:`~repro.utils.numerics.batch_invariant_matmul` (closed-form tile
#: math; the iterative ``circuit`` model is not invariant, and
#: ``ideal`` is exact integer math).
#: :func:`repro.api.spec.supports_batch_invariance` builds on it.
INVARIANT_KINDS = ("geniex", "exact", "analytical")

#: Work (activation elements x tile-rows) below which a multi-worker
#: engine runs a matmul's shards on the calling thread: pool dispatch
#: would cost more than the compute.
INLINE_WORK_THRESHOLD = 1 << 15

#: Minimum estimated ADC conversions per shard for pool dispatch to pay
#: for itself (futures bookkeeping and result handling); see
#: :meth:`CrossbarMvmEngine._should_inline`.
MIN_SHARD_COST = 1 << 14


# ----------------------------------------------------------------------
# Tile models
# ----------------------------------------------------------------------
class _ConfigTileFactory:
    """Base of the factories built for one crossbar config: they program
    tiles of exactly that shape."""

    def check_crossbar(self, config: CrossbarConfig) -> None:
        if config.shape != self.config.shape:
            raise ConfigError("tile factory / engine crossbar shape mismatch")


class LinearTileModel:
    """Tile whose currents are one linear read-out, ``V @ transfer``: the
    programmed conductances (``exact``) or a parasitic transfer matrix
    (``analytical``). The compiled kernel stacks ``transfer`` across a
    tile-row."""

    def __init__(self, transfer: np.ndarray):
        self.transfer = transfer

    def currents(self, voltages_v) -> np.ndarray:
        return batch_invariant_matmul(np.atleast_2d(voltages_v),
                                      self.transfer)


class ExactTileFactory(_ConfigTileFactory):
    """Ideality oracle: tiles compute the exact analog dot product.

    Running the full bit-sliced pipeline with this factory isolates the
    *digital* error sources (activation/weight quantisation, ADC resolution,
    accumulator width) from crossbar non-idealities, and doubles as the
    correctness oracle for the decode path: with a sufficiently fine ADC the
    engine must reproduce :class:`IdealMvmEngine` exactly (tested).
    """

    name = "exact"

    def __init__(self, config: CrossbarConfig):
        self.config = config

    def cache_token(self) -> str:
        # "bi=0" is part of every stored uid and noisy-ADC stream seed.
        return "exact|bi=0"

    def build(self, conductance_s: np.ndarray) -> LinearTileModel:
        return LinearTileModel(np.asarray(conductance_s, dtype=float))


class AnalyticalTileFactory(_ConfigTileFactory):
    """Exact linear parasitic model, reduced to a transfer matrix per tile.

    The parasitic network is linear, so programming a tile amounts to one
    sparse solve of ``rows`` unit-voltage problems; afterwards every
    readout is a dense ``V @ T`` matmul — the CxDNN "matrix inversion"
    formulation, and the reason the analytical engine keeps up with GENIEx
    on throughput.
    """

    name = "analytical"

    def __init__(self, config: CrossbarConfig):
        self.config = config
        self._solver = LinearCrossbarSolver(config)

    def cache_token(self) -> str:
        # "bi=0" is part of every stored uid and noisy-ADC stream seed.
        return "analytical|bi=0"

    def build(self, conductance_s: np.ndarray) -> LinearTileModel:
        return LinearTileModel(self._solver.transfer_matrix(conductance_s))


class CircuitTileModel:
    """Tile running a full non-linear circuit solve per readout."""

    def __init__(self, simulator: CrossbarCircuitSimulator,
                 conductance_s: np.ndarray):
        self._simulator = simulator
        self.conductance_s = np.asarray(conductance_s, dtype=float)

    def currents(self, voltages_v) -> np.ndarray:
        return self._simulator.solve_batch(voltages_v, self.conductance_s,
                                           mode="full")


class CircuitTileFactory(_ConfigTileFactory):
    """Full non-linear circuit solve per operating point (slow, exact)."""

    name = "circuit"

    def __init__(self, config: CrossbarConfig):
        self.config = config
        self._simulator = CrossbarCircuitSimulator(config)

    def cache_token(self) -> str:
        return "circuit"

    def build(self, conductance_s: np.ndarray) -> CircuitTileModel:
        return CircuitTileModel(self._simulator,
                                np.asarray(conductance_s, dtype=float))


# ----------------------------------------------------------------------
# Prepared weights
# ----------------------------------------------------------------------
def _content_uid(token: str, qw: np.ndarray, t_r: int, t_c: int,
                 sign_present: tuple) -> str:
    """Deterministic prepared-matrix identifier.

    A digest of the quantised weights and the tiling layout (plus an
    engine-configuration token), so uids are stable across processes —
    fork-safe, unlike a per-process counter — and equal exactly when the
    programmed tiles are value-identical. Built on the shared
    :mod:`repro.utils.digest` primitives, like every other content key
    in the repository.
    """
    return content_key("", token, [t_r, t_c, list(sign_present)],
                       np.ascontiguousarray(qw), length=16)


class EngineStats:
    """Cumulative event counters of a :class:`CrossbarMvmEngine`.

    ``matmuls`` counts engine calls and ``adc_conversions`` digitised bit
    lines (read-outs x rows x cols) — hardware quantities that do not
    depend on how a batch is chunked, as long as no chunk skips a stream
    block the whole batch would drive. ``readouts`` counts batched analog
    tile evaluations — one per (model, active stream block, chunk) — so
    it scales with the number of
    :data:`~repro.funcsim.compiler.DEFAULT_SHARD_ROWS`-row chunks.
    Zero-valued stream blocks are skipped per chunk (they drive no
    current) and tallied in ``skipped_zero_streams``; for a one-chunk call
    ``readouts + skipped`` equals the static worst case of
    :func:`repro.funcsim.cost.matmul_cost`. All three count per
    tile-row, so they read the same whether a chunk's tile-rows run as
    one shard or one shard each: the zero blocks that pad a shared
    shard are neither read-outs nor skips.

    Counters accumulate shard-locally during execution and are folded in
    through :meth:`merge`, which is lock-protected, so shards running on
    different threads aggregate into one coherent report.
    """

    # Aliases the kernel's schema: one tuple defines which counters
    # exist, everywhere (shard dicts, merge validation, snapshots, repr).
    FIELDS = STAT_FIELDS

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            for field in self.FIELDS:
                setattr(self, field, 0)

    def snapshot(self) -> dict:
        """Consistent copy of all counters."""
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}

    def merge(self, other) -> "EngineStats":
        """Fold another stats object (or counter mapping) into this one."""
        counts = other.snapshot() if isinstance(other, EngineStats) \
            else dict(other)
        unknown = set(counts) - set(self.FIELDS)
        if unknown:
            raise ConfigError(f"unknown stat counters: {sorted(unknown)}")
        with self._lock:
            for field, value in counts.items():
                setattr(self, field, getattr(self, field) + int(value))
        return self

    def __getstate__(self):
        return self.snapshot()

    def __setstate__(self, state):
        self._lock = threading.Lock()
        for field in self.FIELDS:
            setattr(self, field, state.get(field, 0))

    # Short labels for the repr; fields without one print in full.
    _REPR_LABELS = {"skipped_zero_streams": "skipped",
                    "adc_conversions": "adc"}

    def __repr__(self):
        counts = self.snapshot()
        body = ", ".join(
            f"{self._REPR_LABELS.get(field, field)}={counts[field]}"
            for field in self.FIELDS)
        return f"EngineStats({body})"


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class IdealMvmEngine:
    """Exact fixed-point matmul — the paper's "Ideal FxP" reference.

    Activations and weights are quantised to their fixed-point formats, the
    integer product is computed exactly, and the result passes once through
    the accumulator format.
    """

    name = "ideal"

    def __init__(self, sim_config: FuncSimConfig):
        self.sim_config = sim_config

    def prepare(self, weights: np.ndarray) -> PreparedMatrix:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"expected (K, M) weights, got {weights.shape}")
        qw = self.sim_config.weight_format.quantize_to_int(weights)
        return PreparedMatrix(qw, _content_uid(f"ideal|{self.sim_config!r}",
                                               qw, 0, 0, (1,)))

    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        if not isinstance(prepared, PreparedMatrix):
            prepared = self.prepare(prepared)
        cfg = self.sim_config
        qx = quantize_input(x, prepared.n_in, cfg.activation_format)
        counts = qx.astype(np.float64) @ prepared.qw.astype(np.float64)
        value = counts * (cfg.activation_format.resolution *
                          cfg.weight_format.resolution)
        return cfg.accumulator_format.quantize(value)

    def close(self, wait: bool = True) -> None:
        """No-op (uniform engine lifecycle API; nothing to release)."""


class CrossbarMvmEngine:
    """Bit-sliced, tiled crossbar MVM with a non-ideal tile model.

    ``workers`` sets how many threads run the (chunk, tile-row range)
    shards of one ``matmul``; ``1`` runs them in order on the calling
    thread. The pool is created on first use and released by
    :meth:`close`.

    ``nonideality`` (optional :class:`repro.nonideal.NonidealitySpec` or
    pipeline) injects device faults at *programming* time: every tile's
    mapped conductances are perturbed by the coordinate-keyed pipeline in
    :meth:`prepare`, before the layer is compiled — so every shard
    computes on the same perturbed hardware state.
    """

    def __init__(self, xbar_config: CrossbarConfig,
                 sim_config: FuncSimConfig, tile_factory,
                 workers: int = 1, nonideality=None):
        tile_factory.check_crossbar(xbar_config)
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.xbar_config = xbar_config
        self.sim_config = sim_config
        self.tile_factory = tile_factory
        self.name = tile_factory.name
        self.workers = int(workers)
        # Scheduling knobs (tests shrink them to force multi-chunk or
        # pooled execution); results never depend on them.
        self.shard_rows = DEFAULT_SHARD_ROWS
        self.inline_work_threshold = INLINE_WORK_THRESHOLD
        self._pool = None
        self._pool_lock = threading.Lock()
        self._closed = False
        # Kernel temporaries, shared by every layer this engine prepares
        # (freed with the engine).
        self._scratch = ScratchPool()
        # None for clean engines (identity pipelines normalise to None,
        # keeping the clean path's prepared-matrix tokens byte-identical).
        self.nonideality = as_pipeline(nonideality)
        # DAC / conductance LSBs of the digital <-> analog mapping.
        self._v_lsb = xbar_config.v_supply_v / (2 ** sim_config.stream_bits - 1)
        n_g_levels = 2 ** sim_config.slice_bits
        self._g_lsb = ((xbar_config.g_on_s - xbar_config.g_off_s)
                       / (n_g_levels - 1)) if n_g_levels > 1 else \
            (xbar_config.g_on_s - xbar_config.g_off_s)
        # The converter every layer plan snapshots; shards draw noise
        # from their own coordinate-keyed streams (``shard_adc``).
        self.adc = AdcModel.aligned(sim_config.adc_bits,
                                    self._v_lsb * self._g_lsb,
                                    headroom=sim_config.adc_headroom,
                                    offset_lsb=sim_config.adc_offset_lsb,
                                    noise_lsb=sim_config.adc_noise_lsb)
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    def prepare(self, weights: np.ndarray) -> PreparedMatrix:
        """Compile a ``(K, M)`` weight matrix: quantise, sign-split, slice
        and tile it, program one tile model per (sign, slice, tile), and
        compile the result into an executable layer."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"expected (K, M) weights, got {weights.shape}")
        cfg, xcfg = self.sim_config, self.xbar_config
        qw = cfg.weight_format.quantize_to_int(weights)
        parts = sign_split(qw)
        sign_present = weight_signs(qw)
        t_r = n_tiles(weights.shape[0], xcfg.rows)
        t_c = n_tiles(weights.shape[1], xcfg.cols)
        n_levels = 2 ** cfg.slice_bits

        # Distinct prepared matrices map onto physically distinct crossbar
        # arrays, so their fault draws must be independent: the stream key
        # leads with a content digest of the quantised weights (stable
        # across processes, like the prepared-matrix uid) — two layers of
        # a converted DNN never share a stuck-cell mask just because they
        # share tile coordinates, while re-preparing the same weights
        # anywhere reproduces the same faults bit-for-bit.
        weights_stream_key = None
        if self.nonideality is not None:
            weights_stream_key = int(
                content_key("", np.ascontiguousarray(qw), length=15), 16)
        models = {}
        for sign in sign_present:
            slices = split_unsigned(parts[sign],
                                    cfg.weight_format.magnitude_bits,
                                    cfg.slice_bits)
            for k in range(cfg.n_slices):
                tiles = tile_matrix(slices[k], xcfg.rows, xcfg.cols)
                for tr in range(t_r):
                    for tc in range(t_c):
                        g = conductances_from_levels(tiles[tr, tc], n_levels,
                                                     xcfg)
                        if self.nonideality is not None:
                            # Device faults strike the *programmed* matrix;
                            # the coordinate key makes the draw a property
                            # of the (layer, tile), not of programming
                            # order or schedule.
                            g = self.nonideality.perturb(
                                g, (weights_stream_key, sign, k, tr, tc),
                                xcfg.g_off_s, xcfg.g_on_s)
                        models[(sign, k, tr, tc)] = self.tile_factory.build(g)
        token = f"{self.tile_factory.cache_token()}|{xcfg!r}|{cfg!r}"
        if self.nonideality is not None:
            # Fold the fault composition into the prepared-matrix uid so a
            # perturbed layer can never share noise streams with a clean
            # (or differently-faulty) preparation of the same weights.
            # Clean engines keep the historical token byte-for-byte.
            token = f"{token}|{self.nonideality.digest()}"
        return PreparedMatrix(
            qw, _content_uid(token, qw, t_r, t_c, sign_present), self, models)

    # ------------------------------------------------------------------
    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        """Quantised crossbar product of ``x (B, K)`` with prepared weights.

        The batch is cut into chunks of ``shard_rows`` rows (at most the
        layer plan's ``chunk_rows`` cap). A chunk of at most
        :data:`~repro.funcsim.compiler.STACK_ROWS` rows runs every
        tile-row of the layer as one shard, paying the kernel's dispatch
        once per layer; a larger chunk runs one shard per tile-row
        (:func:`~repro.funcsim.compiler.tile_row_ranges`, a function of
        the chunk's row count and the plan only). Every shard runs
        through the layer's kernel
        (:meth:`~repro.funcsim.compiler.PreparedMatrix.run_shard`), each
        tile-row with an ADC whose noise stream is keyed by (layer,
        matmul sequence number, tile-row, chunk), and the tile-row
        contributions are merged digitally in tile-row order. Shards run
        on the engine's thread pool when ``workers > 1`` and the call is
        big enough to pay for dispatch (see :meth:`_should_inline`);
        neither the schedule nor the range a tile-row runs in changes a
        bit of the result, noisy or not. The ``fused-execute`` span's
        ``tile_rows`` lists each chunk's shard width: the layer's
        tile-row count when the chunk ran as one shard, else 1.
        """
        if not isinstance(prepared, PreparedMatrix):
            prepared = self.prepare(prepared)
        plan = prepared.plan
        if plan is None:
            raise ConfigError(
                "prepared matrix has no layer plan; it was prepared by the "
                "ideal engine, not by a CrossbarMvmEngine")
        seq = prepared.next_seq()
        # The spans observe wall time only — no RNG, no numeric state —
        # so traced and untraced runs are bit-identical.
        with span("engine-compute"):
            qx = quantize_input(x, plan.n_in,
                                plan.sim_config.activation_format, plan.rows)
            chunks = chunk_ranges(qx.shape[0],
                                  min(self.shard_rows, plan.chunk_rows))
            # Activation signs are a per-chunk property shared by every
            # shard of the chunk; compute them once here.
            signs = [active_signs(qx[start:stop]) for start, stop in chunks]
            counts = np.empty((plan.t_r, qx.shape[0], plan.out_width))

            def run(shard) -> dict:
                chunk, lo, hi = shard
                start, stop = chunks[chunk]
                tr_counts, local = prepared.run_shard(
                    qx[start:stop], signs[chunk], seq, lo, hi, chunk)
                # Disjoint (tile-rows, chunk) slab: safe to write unlocked.
                counts[lo:hi, start:stop] = tr_counts
                return local

            ranges = [tile_row_ranges(plan, stop - start)
                      for start, stop in chunks]
            shards = [(chunk, lo, hi) for chunk, row_ranges in
                      enumerate(ranges) for lo, hi in row_ranges]
            with span("fused-execute", layer=plan.uid,
                      tile_rows=[row_ranges[0][1] - row_ranges[0][0]
                                 for row_ranges in ranges]):
                futures = self._submit(plan, qx, run, shards)
                if futures is None:
                    shard_stats = [run(shard) for shard in shards]
                else:
                    # result() re-raises a shard's exception.
                    shard_stats = [future.result() for future in futures]
            out = merge_tile_rows(plan, counts)
        call_stats = {key: sum(local[key] for local in shard_stats)
                      for key in STAT_FIELDS}
        call_stats["matmuls"] = 1
        self.stats.merge(call_stats)
        return out

    def _submit(self, plan, qx: np.ndarray, run, shards: list):
        """Queue the shards on the thread pool, or ``None`` to run inline.

        Submitting under the pool lock means a concurrent :meth:`close`
        either happens first (the call runs inline) or after every shard
        is queued (shut-down pools still finish queued work).
        """
        if self.workers <= 1 or len(shards) <= 1 \
                or self._should_inline(plan, qx):
            return None
        with self._pool_lock:
            if self._closed:
                return None
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="funcsim-shard")
            return [self._pool.submit(run, shard) for shard in shards]

    def _should_inline(self, plan, qx: np.ndarray) -> bool:
        """Run this call on the calling thread instead of the pool?

        Purely a scheduling decision — the shard set and noise keying are
        fixed, so inline and pooled runs are bit-identical. Inline wins
        when (a) the whole call is small (activation elements x tile-rows
        under ``inline_work_threshold``) or (b) the layer plan's
        worst-case cost model prices one shard below
        :data:`MIN_SHARD_COST` ADC conversions, where dispatch overhead
        dominates the shard compute (conv-sized im2col batches clear the
        bar; small fully-connected heads do not). Setting
        ``inline_work_threshold <= 0`` disables both rules (tests force
        pooled execution this way).
        """
        if self.inline_work_threshold <= 0:
            return False
        if qx.size * plan.t_r <= self.inline_work_threshold:
            return True
        # cost is per input row (one MVM); scale to one chunk's rows and
        # divide by the tile-row count for a per-shard estimate.
        chunk_rows = min(qx.shape[0], self.shard_rows, plan.chunk_rows)
        per_shard = (plan.cost.adc_conversions * chunk_rows
                     / max(plan.t_r, 1))
        return per_shard < MIN_SHARD_COST

    def close(self, wait: bool = True) -> None:
        """Release the shard thread pool (if any). Idempotent.

        The engine keeps serving matmuls on the calling thread afterwards,
        so closing a live engine degrades it to single-threaded execution
        (identical results) rather than breaking it — queued work holding
        an evicted engine still completes.
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)


def make_engine(kind: str, xbar_config: CrossbarConfig,
                sim_config: FuncSimConfig,
                emulator: GeniexEmulator | None = None,
                workers: int | None = None,
                nonideality=None):
    """Engine factory: ``ideal | exact | geniex | analytical | circuit``
    (the :data:`ENGINE_KINDS` tuple).

    ``ideal`` bypasses the analog pipeline (exact fixed-point product);
    ``exact`` runs the full bit-sliced pipeline with ideality-oracle tiles,
    isolating the digital error sources from crossbar non-idealities.

    ``geniex``, ``exact`` and ``analytical`` tiles run every product
    through :func:`~repro.utils.numerics.batch_invariant_matmul`, so with
    a deterministic, zero-preserving ADC each output row is bitwise
    independent of the batch it shares (the serving contract; see
    :func:`repro.api.spec.supports_batch_invariance`). ``ideal`` is
    invariant by construction (exact integer arithmetic). The iterative
    ``circuit`` model is not, and neither is any kind under converter
    offset or noise: the engine skips all-zero stream blocks *per batch*,
    which only equals per-row execution when ``measure(0) == 0``.

    ``workers`` (default 1) is the number of threads running one
    matmul's shards; any value gives bit-identical results. It pays when
    BLAS runs one thread per process.

    ``nonideality`` (a :class:`repro.nonideal.NonidealitySpec` or
    pipeline; identity normalises to "none") injects device faults into
    every tile at programming time — see :mod:`repro.nonideal`. Rejected
    for ``ideal``: that engine is the *digital* fixed-point reference
    with no analog crossbar state to perturb, and silently returning
    clean results for a faulty spec would misreport every robustness
    sweep built on it.

    Every analog kind runs the same compiled shard kernel
    (:mod:`repro.funcsim.compiler`); only its read-out stage depends on
    the kind.
    """
    nonideality = as_pipeline(nonideality)
    if kind == "ideal":
        if nonideality is not None:
            raise ConfigError(
                "the ideal engine is the digital fixed-point reference "
                "and has no programmed conductances to perturb; drop the "
                "nonideality node or pick an analog engine kind")
        # Digital exact integer math: nothing to shard; workers is
        # ignored.
        return IdealMvmEngine(sim_config)
    if kind == "geniex":
        if emulator is None:
            raise ConfigError("geniex engine requires a trained emulator")
        factory = GeniexTileFactory(emulator,
                                    v_supply_v=xbar_config.v_supply_v)
    elif kind == "exact":
        factory = ExactTileFactory(xbar_config)
    elif kind == "analytical":
        factory = AnalyticalTileFactory(xbar_config)
    elif kind == "circuit":
        factory = CircuitTileFactory(xbar_config)
    else:
        raise ConfigError(
            f"unknown engine kind {kind!r}; expected one of "
            f"{', '.join(ENGINE_KINDS)}")
    return CrossbarMvmEngine(xbar_config, sim_config, factory,
                             workers=1 if workers is None else workers,
                             nonideality=nonideality)
