"""MVM engines: the bit-sliced crossbar pipeline with pluggable tile models.

``CrossbarMvmEngine`` reproduces the paper's execution model in two phases
(the plan/execute split):

* **Compile** — :meth:`CrossbarMvmEngine.prepare` quantises, sign-splits,
  slices and tiles a weight matrix, programs one tile model per
  (weight-sign, slice, tile) and lowers the result into a static
  :class:`~repro.funcsim.planner.LayerProgram` (tile schedule, decode
  constants, ADC transfer, cost metadata).
* **Execute** — :meth:`CrossbarMvmEngine.matmul` streams quantised
  activations through the program via the shard kernel
  (:mod:`repro.funcsim.runtime.kernel`): per tile-row the sign-split
  activations are streamed ``stream_bits`` at a time as DAC voltages; every
  (weight-sign, slice, tile) crossbar returns analog bit-line currents from
  its *tile model*; the ADC digitises them; the digital back-end removes
  the ``g_off`` mapping bias, merges streams/slices with shift-and-add and
  accumulates tile partial sums in the fixed-point accumulator.

Every matmul runs one schedule: the batch is cut into fixed
:data:`~repro.funcsim.runtime.kernel.DEFAULT_SHARD_ROWS`-row chunks and
each (chunk, tile-row) shard goes through the kernel with its own
coordinate-keyed ADC noise stream; tile-row partial sums are then merged
through the fixed-point accumulator in tile-row order. ``workers > 1``
fans the shards over an engine-owned thread pool (the tile math is BLAS
and releases the GIL). The shard set never depends on ``workers``, so
every worker count returns bit-identical outputs; see
:mod:`repro.funcsim.runtime.kernel` for the determinism contract.

**Batched execution.** Every tile model accepts voltage batches of shape
``(M, rows)`` and returns currents of shape ``(M, cols)`` — that is the
batched tile API. The kernel exploits it by stacking all non-zero
(activation-sign, stream) blocks of a tile-row into one ``(S * B, rows)``
voltage batch and issuing a *single* batched call per tile model instead of
``S`` separate ones, so the per-call overhead (Python dispatch, normaliser
matmuls, sparse back-substitution setup, Newton bring-up) is paid once per
tile.

**Tile-result caching.** Measured (post-ADC) tile read-outs are memoised in
a per-engine LRU keyed by (prepared-matrix uid, tile key, stream level
pattern). Convolution layers re-issue identical stream patterns constantly
(im2col patches share activation blocks), so repeated patterns skip the
analog model entirely. The cache is value-exact — keys include the raw
integer stream levels — and is disabled automatically when ADC noise is
enabled, because noisy conversions must be re-sampled per read-out.
``EngineStats`` counts logical read-outs as if no cache existed (the stats
describe the modelled hardware); ``cache_hits`` reports the software-side
savings.

Tile models:

* :class:`GeniexTileFactory` — GENIEx emulation (default non-ideal mode),
  with the conductance term of the hidden layer precomputed per tile and the
  voltage term shared across all tiles in a tile-row.
* :class:`AnalyticalTileFactory` — exact linear parasitic model (one sparse
  LU per tile, reused across all streams).
* :class:`DecoupledTileFactory` — cheap first-order IR-drop model.
* :class:`CircuitTileFactory` — full non-linear circuit solve via the
  batched Newton path (slow; used to validate the emulator in tests).

:class:`IdealMvmEngine` bypasses the analog pipeline entirely and computes
the exact fixed-point product ("Ideal FxP" in the paper's figures).
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.analytical.fast_model import DecoupledIrDropModel
from repro.circuit.linear_solver import LinearCrossbarSolver
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.core.emulator import GeniexEmulator
from repro.errors import ConfigError, ShapeError
from repro.funcsim.adc import AdcModel
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.compiler import compile_program
from repro.funcsim.planner import plan_layer
from repro.funcsim.runtime.backends import resolve_backend
from repro.funcsim.runtime.kernel import (
    DEFAULT_SHARD_ROWS,
    STAT_FIELDS,
    active_signs,
    chunk_ranges,
    merge_tile_rows,
    new_stat_counts,
    quantize_input,
    run_tile_row,
    shard_adc,
)
from repro.obs import span
from repro.funcsim.slicing import sign_split, split_unsigned
from repro.funcsim.tiles import n_tiles, tile_matrix
from repro.nonideal.pipeline import as_pipeline
from repro.utils.cache import LruDict
from repro.utils.digest import content_key
from repro.utils.numerics import batch_invariant_matmul
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm
from repro.xbar.mapping import conductances_from_levels

#: Every engine kind :func:`make_engine` accepts, in documentation order.
#: The factory's docstring, its error message and the serving protocol all
#: derive from this single tuple (tested against the docstring).
ENGINE_KINDS = ("ideal", "exact", "geniex", "analytical", "decoupled",
                "circuit")

#: Kinds whose tile models support the batch-invariant einsum kernel
#: (closed-form tile math; the iterative ``decoupled``/``circuit`` models
#: cannot, and ``ideal`` is inherently invariant without the flag). The
#: single source of truth: :func:`make_engine` enforces it here and
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
def _select_matmul(batch_invariant: bool):
    """Tile-math matrix product: BLAS by default, einsum when the caller
    needs per-row results that are independent of the batch size (see
    :func:`repro.utils.numerics.batch_invariant_matmul`)."""
    if batch_invariant:
        return batch_invariant_matmul
    return np.matmul


class ExactTileModel:
    """Tile computing the exact analog dot product (ideality oracle)."""

    def __init__(self, conductance_s: np.ndarray, matmul=None):
        self.conductance_s = np.asarray(conductance_s, dtype=float)
        self._matmul = matmul

    def currents(self, voltages_v, cache=None) -> np.ndarray:
        if self._matmul is not None:
            return self._matmul(np.atleast_2d(voltages_v),
                                self.conductance_s)
        return ideal_mvm(voltages_v, self.conductance_s)


class ExactTileFactory:
    """Ideality oracle: tiles compute the exact analog dot product.

    Running the full bit-sliced pipeline with this factory isolates the
    *digital* error sources (activation/weight quantisation, ADC resolution,
    accumulator width) from crossbar non-idealities, and doubles as the
    correctness oracle for the decode path: with a sufficiently fine ADC the
    engine must reproduce :class:`IdealMvmEngine` exactly (tested).
    """

    name = "exact"

    def __init__(self, config: CrossbarConfig, batch_invariant: bool = False):
        self.config = config
        self.batch_invariant = bool(batch_invariant)
        self._matmul = _select_matmul(batch_invariant)

    def check_crossbar(self, config: CrossbarConfig) -> None:
        if config.shape != self.config.shape:
            raise ConfigError("tile factory / engine crossbar shape mismatch")

    def prepare_voltages(self, voltages_v: np.ndarray):
        return None

    def cache_token(self) -> str:
        return f"exact|bi={int(self.batch_invariant)}"

    def build(self, conductance_s: np.ndarray) -> ExactTileModel:
        return ExactTileModel(
            conductance_s,
            self._matmul if self.batch_invariant else None)


class GeniexTileFactory:
    """Builds GENIEx-backed tile models for one trained emulator."""

    name = "geniex"

    def __init__(self, emulator: GeniexEmulator,
                 batch_invariant: bool = False):
        self.emulator = emulator
        self.batch_invariant = bool(batch_invariant)
        self._matmul = _select_matmul(batch_invariant)
        w1v, _, _ = emulator.model.first_layer_views()
        self._w1v_t = np.ascontiguousarray(w1v.T)
        self._cache_token = None

    def check_crossbar(self, config: CrossbarConfig) -> None:
        if (self.emulator.rows, self.emulator.cols) != config.shape:
            raise ConfigError(
                f"emulator was trained for "
                f"{self.emulator.rows}x{self.emulator.cols} crossbars, "
                f"engine uses {config.rows}x{config.cols}")

    def prepare_voltages(self, voltages_v: np.ndarray):
        """Hidden-layer voltage term, shared by every tile in a tile-row."""
        v_norm = self.emulator.normalizer.normalize_v(voltages_v)
        return self._matmul(v_norm, self._w1v_t)

    def cache_token(self) -> str:
        """Identity of the emulation function, not just its topology.

        Digests the trained network's parameters so two engines backed by
        *differently trained* emulators (same crossbar shape) can never
        share prepared-matrix uids — and with them tile-result cache
        entries or ADC noise streams.
        """
        if self._cache_token is None:
            digest = hashlib.sha256()
            for name, array in self.emulator.model.state_dict().items():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(array).tobytes())
            self._cache_token = (f"geniex|bi={int(self.batch_invariant)}"
                                 f"|em={digest.hexdigest()[:16]}")
        return self._cache_token

    def build(self, conductance_s: np.ndarray) -> "GeniexTileModel":
        return GeniexTileModel(self, conductance_s)


class GeniexTileModel:
    """Per-tile GENIEx forward pass with the G term folded in."""

    def __init__(self, factory: GeniexTileFactory, conductance_s: np.ndarray):
        self._factory = factory
        emulator = factory.emulator
        _, w1g, b1 = emulator.model.first_layer_views()
        g_norm = emulator.normalizer.normalize_g(conductance_s).reshape(-1)
        self._hidden_bias = (g_norm @ w1g.T + b1).astype(np.float32)
        self.conductance_s = conductance_s

    def currents(self, voltages_v: np.ndarray, cache=None) -> np.ndarray:
        factory = self._factory
        if cache is None:
            cache = factory.prepare_voltages(voltages_v)
        hidden = cache + self._hidden_bias
        fr_norm = factory.emulator.model.forward_hidden(
            hidden, matmul=factory._matmul if factory.batch_invariant
            else None)
        fr = factory.emulator.normalizer.denormalize_fr(fr_norm)
        if factory.batch_invariant:
            i_ideal = factory._matmul(np.atleast_2d(voltages_v),
                                      self.conductance_s)
        else:
            i_ideal = ideal_mvm(voltages_v, self.conductance_s)
        return i_ideal / fr


class AnalyticalTileFactory:
    """Exact linear parasitic model, reduced to a transfer matrix per tile.

    The parasitic network is linear, so programming a tile amounts to one
    sparse solve of ``rows`` unit-voltage problems; afterwards every
    readout is a dense ``V @ T`` matmul — the CxDNN "matrix inversion"
    formulation, and the reason the analytical engine keeps up with GENIEx
    on throughput.
    """

    name = "analytical"

    def __init__(self, config: CrossbarConfig, batch_invariant: bool = False):
        self.config = config
        self.batch_invariant = bool(batch_invariant)
        self._matmul = _select_matmul(batch_invariant)
        self._solver = LinearCrossbarSolver(config)

    def check_crossbar(self, config: CrossbarConfig) -> None:
        if config.shape != self.config.shape:
            raise ConfigError("tile factory / engine crossbar shape mismatch")

    def prepare_voltages(self, voltages_v: np.ndarray):
        return None

    def cache_token(self) -> str:
        return f"analytical|bi={int(self.batch_invariant)}"

    def build(self, conductance_s: np.ndarray) -> "AnalyticalTileModel":
        return AnalyticalTileModel(
            self._solver.transfer_matrix(conductance_s), self._matmul)


class AnalyticalTileModel:
    def __init__(self, transfer: np.ndarray, matmul=np.matmul):
        self._transfer = transfer
        self._matmul = matmul

    def currents(self, voltages_v: np.ndarray, cache=None) -> np.ndarray:
        return self._matmul(np.atleast_2d(voltages_v), self._transfer)


class DecoupledTileModel:
    """Tile evaluating the first-order IR-drop approximation."""

    def __init__(self, model: DecoupledIrDropModel,
                 conductance_s: np.ndarray):
        self._model = model
        self.conductance_s = np.asarray(conductance_s, dtype=float)

    def currents(self, voltages_v, cache=None) -> np.ndarray:
        return self._model.predict_currents(voltages_v, self.conductance_s)


class DecoupledTileFactory:
    """First-order IR-drop approximation (ablation model)."""

    name = "decoupled"

    def __init__(self, config: CrossbarConfig, n_sweeps: int = 2):
        self.config = config
        self._model = DecoupledIrDropModel(config, n_sweeps=n_sweeps)

    def check_crossbar(self, config: CrossbarConfig) -> None:
        if config.shape != self.config.shape:
            raise ConfigError("tile factory / engine crossbar shape mismatch")

    def prepare_voltages(self, voltages_v: np.ndarray):
        return None

    def cache_token(self) -> str:
        return f"decoupled|sweeps={self._model.n_sweeps}"

    def build(self, conductance_s: np.ndarray) -> DecoupledTileModel:
        return DecoupledTileModel(self._model,
                                  np.asarray(conductance_s, dtype=float))


class CircuitTileModel:
    """Tile running a full non-linear circuit solve per readout."""

    def __init__(self, simulator: CrossbarCircuitSimulator,
                 conductance_s: np.ndarray):
        self._simulator = simulator
        self.conductance_s = np.asarray(conductance_s, dtype=float)

    def currents(self, voltages_v, cache=None) -> np.ndarray:
        return self._simulator.solve_batch(voltages_v, self.conductance_s,
                                           mode="full")


class CircuitTileFactory:
    """Full non-linear circuit solve per operating point (slow, exact)."""

    name = "circuit"

    def __init__(self, config: CrossbarConfig):
        self.config = config
        self._simulator = CrossbarCircuitSimulator(config)

    def check_crossbar(self, config: CrossbarConfig) -> None:
        if config.shape != self.config.shape:
            raise ConfigError("tile factory / engine crossbar shape mismatch")

    def prepare_voltages(self, voltages_v: np.ndarray):
        return None

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
    programmed tiles are value-identical, which makes any tile-result
    cache sharing value-exact by construction. Built on the shared
    :mod:`repro.utils.digest` primitives, like every other content key
    in the repository.
    """
    return content_key("", token, [t_r, t_c, list(sign_present)],
                       np.ascontiguousarray(qw), length=16)


class PreparedMatrix:
    """Weight matrix quantised, sliced, tiled and programmed into models.

    ``uid`` identifies the prepared content in tile-result cache keys and
    ADC noise stream seeds. It is a content digest (weights + tiling +
    engine token), not a process-local counter: two processes that prepare
    the same matrix agree on the uid, and two *different* matrices can
    never collide just because they were prepared in forked processes with
    the same counter state.
    """

    def __init__(self, n_in: int, n_out: int, qw: np.ndarray, models: dict,
                 t_r: int, t_c: int, sign_present: tuple, token: str = ""):
        self.n_in = n_in
        self.n_out = n_out
        self.qw = qw
        self.models = models  # (sign, slice, tr, tc) -> tile model
        self.t_r = t_r
        self.t_c = t_c
        self.sign_present = sign_present
        self.uid = _content_uid(token, qw, t_r, t_c, sign_present)
        #: Compiled :class:`~repro.funcsim.planner.LayerProgram`, attached
        #: by the preparing engine (``None`` for the ideal engine).
        self.program = None


class TileResultCache(LruDict):
    """LRU cache of measured (post-ADC) tile read-outs.

    Keys combine the prepared-matrix uid, the tile coordinates and the raw
    integer stream-level block, so hits are value-exact. ``max_entries``
    bounds memory at roughly ``max_entries * batch * cols`` floats.

    Hit/miss counters are updated under the cache lock, so a single
    instance may be shared by concurrent shard threads without racing the
    statistics.
    """

    def __init__(self, max_entries: int):
        super().__init__(max_entries)
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            value = super().get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def counters(self) -> tuple:
        """Consistent ``(hits, misses)`` snapshot."""
        with self._lock:
            return self.hits, self.misses

    def clear(self) -> None:
        with self._lock:
            super().clear()
            self.hits = 0
            self.misses = 0


class EngineStats:
    """Cumulative event counters of a :class:`CrossbarMvmEngine`.

    ``matmuls`` counts engine calls and ``adc_conversions`` digitised bit
    lines (read-outs x rows x cols) — hardware quantities that do not
    depend on how a batch is chunked, as long as no chunk skips a stream
    block the whole batch would drive. ``readouts`` counts batched analog
    tile evaluations — one per (model, active stream block, chunk) — and
    ``fused_calls``/``fallback_calls`` one per (tile-row, chunk) shard, so
    these three scale with the number of
    :data:`~repro.funcsim.runtime.kernel.DEFAULT_SHARD_ROWS`-row chunks.
    Zero-valued stream blocks are skipped per chunk (they drive no
    current) and tallied in ``skipped_zero_streams``; for a one-chunk call
    ``readouts + skipped`` equals the static worst case of
    :func:`repro.funcsim.cost.matmul_cost`. ``cache_hits`` counts read-outs
    served from the tile-result cache instead of the tile model (a
    software-side saving; such read-outs still count in ``readouts`` and
    ``adc_conversions``).

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

    def as_dict(self) -> dict:
        """Alias of :meth:`snapshot` (dict-like reporting surfaces)."""
        return self.snapshot()

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
        return PreparedMatrix(weights.shape[0], weights.shape[1], qw, {},
                              0, 0, (1,), token=f"ideal|{self.sim_config!r}")

    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        if not isinstance(prepared, PreparedMatrix):
            prepared = self.prepare(prepared)
        cfg = self.sim_config
        qx = cfg.activation_format.quantize_to_int(x)
        counts = qx.astype(np.float64) @ prepared.qw.astype(np.float64)
        value = counts * (cfg.activation_format.resolution *
                          cfg.weight_format.resolution)
        return cfg.accumulator_format.quantize(value)

    def close(self, wait: bool = True) -> None:
        """No-op (uniform engine lifecycle API; nothing to release)."""


class CrossbarMvmEngine:
    """Bit-sliced, tiled crossbar MVM with a non-ideal tile model.

    ``tile_cache_size`` bounds the LRU tile-result cache (measured per-tile
    read-outs keyed by activation pattern); ``0`` disables it. The cache is
    also disabled when the ADC models noise, because noisy conversions must
    be re-sampled on every read-out.

    ``workers`` sets how many threads run the (chunk, tile-row) shards of
    one ``matmul``; ``1`` runs them in order on the calling thread. The
    pool is created on first use and released by :meth:`close`.

    ``nonideality`` (optional :class:`repro.nonideal.NonidealitySpec` or
    pipeline) injects device faults at *programming* time: every tile's
    mapped conductances are perturbed by the coordinate-keyed pipeline in
    :meth:`prepare`, before the layer program is built — so every shard
    computes on the same perturbed hardware state.

    ``backend`` selects the array backend of the compiled fused kernel
    (``"numpy"``, the default; see :mod:`repro.funcsim.runtime.backends`).
    The interpreter sentinels
    ``"interp"``/``"interpreted"``/``"off"`` disable the compile pass and
    run the reference kernel; either way the results are bit-identical,
    and the choice never enters cache keys or spec digests.
    """

    def __init__(self, xbar_config: CrossbarConfig,
                 sim_config: FuncSimConfig, tile_factory,
                 tile_cache_size: int = 256, workers: int = 1,
                 nonideality=None, backend=None):
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
        self.array_backend = resolve_backend(backend)
        # None for clean engines (identity pipelines normalise to None,
        # keeping the clean path's prepared-matrix tokens byte-identical).
        self.nonideality = as_pipeline(nonideality)
        if tile_cache_size > 0 and sim_config.adc_noise_lsb == 0.0:
            self.tile_cache = TileResultCache(tile_cache_size)
        else:
            self.tile_cache = None
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
        lower the result into an executable layer program."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"expected (K, M) weights, got {weights.shape}")
        cfg, xcfg = self.sim_config, self.xbar_config
        qw = cfg.weight_format.quantize_to_int(weights)
        parts = sign_split(qw)
        sign_present = tuple(k for k, part in enumerate(parts)
                             if np.any(part) or k == 0)
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
            # perturbed layer can never share tile-result cache entries or
            # noise streams with a clean (or differently-faulty)
            # preparation of the same weights. Clean engines keep the
            # historical token byte-for-byte.
            token = f"{token}|{self.nonideality.digest()}"
        prepared = PreparedMatrix(
            weights.shape[0], weights.shape[1], qw, models, t_r, t_c,
            sign_present, token=token)
        prepared.program = plan_layer(self, prepared)
        if self.array_backend is not None:
            prepared.program.compile_requested = True
            prepared.program.compiled = compile_program(prepared.program,
                                                        self.array_backend)
        return prepared

    # ------------------------------------------------------------------
    def matmul(self, x: np.ndarray, prepared) -> np.ndarray:
        """Quantised crossbar product of ``x (B, K)`` with prepared weights.

        The batch is cut into ``shard_rows``-row chunks; every (chunk,
        tile-row) shard runs through the kernel with an ADC whose noise
        stream is keyed by (layer, matmul sequence number, tile-row,
        chunk), and the tile-row contributions are merged digitally in
        tile-row order. Shards run on the engine's thread pool when
        ``workers > 1`` and the call is big enough to pay for dispatch
        (see :meth:`_should_inline`); the schedule never changes a bit of
        the result, noisy or not.
        """
        if not isinstance(prepared, PreparedMatrix):
            prepared = self.prepare(prepared)
        program = prepared.program
        if program is None:
            raise ConfigError(
                "prepared matrix has no layer program; it was not prepared "
                "by a CrossbarMvmEngine")
        plan = program.plan
        seq = program.next_seq()
        # The spans observe wall time only — no RNG, no numeric state —
        # so traced and untraced runs are bit-identical.
        with span("engine-compute"):
            qx = quantize_input(plan, x)
            chunks = chunk_ranges(qx.shape[0], self.shard_rows)
            # Activation signs are a per-chunk property shared by every
            # tile-row shard of the chunk; compute them once here.
            signs = [active_signs(qx[start:stop]) for start, stop in chunks]
            counts = np.empty((plan.t_r, qx.shape[0], plan.out_width))
            call_stats = new_stat_counts()
            call_stats["matmuls"] = 1
            merge_lock = threading.Lock()

            def run(shard) -> None:
                chunk, tr = shard
                start, stop = chunks[chunk]
                local = new_stat_counts()
                # Disjoint (tile-row, chunk) slab: safe to write unlocked.
                counts[tr, start:stop] = run_tile_row(
                    program, qx[start:stop], signs[chunk], tr,
                    shard_adc(plan, seq, tr, chunk), cache=self.tile_cache,
                    stats=local)
                with merge_lock:
                    for key, value in local.items():
                        call_stats[key] += value

            shards = [(chunk, tr) for chunk in range(len(chunks))
                      for tr in range(plan.t_r)]
            fused = contextlib.nullcontext() if program.compiled is None \
                else span("fused-execute", layer=plan.uid,
                          backend=program.compiled.backend.name)
            with fused:
                futures = self._submit(plan, qx, run, shards)
                if futures is None:
                    for shard in shards:
                        run(shard)
                else:
                    for future in futures:
                        future.result()  # re-raises a shard's exception
            out = merge_tile_rows(plan, counts)
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
        if plan.cost is not None:
            # cost is per input row (one MVM); scale to one chunk's rows
            # and divide by the tile-row count for a per-shard estimate.
            chunk_rows = min(qx.shape[0], self.shard_rows)
            per_shard = (plan.cost.adc_conversions * chunk_rows
                         / max(plan.t_r, 1))
            return per_shard < MIN_SHARD_COST
        return False

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
                tile_cache_size: int = 256,
                batch_invariant: bool = False,
                workers: int | None = None,
                nonideality=None, backend=None):
    """Engine factory: ``ideal | exact | geniex | analytical | decoupled |
    circuit`` (the :data:`ENGINE_KINDS` tuple).

    ``ideal`` bypasses the analog pipeline (exact fixed-point product);
    ``exact`` runs the full bit-sliced pipeline with ideality-oracle tiles,
    isolating the digital error sources from crossbar non-idealities.

    ``batch_invariant=True`` routes tile matmuls through the einsum kernel
    so each output row is bitwise independent of the batch it shares (the
    serving layer needs this; see :mod:`repro.utils.numerics`). Supported
    for ``geniex``, ``exact`` and ``analytical``; ``ideal`` is inherently
    invariant (exact integer arithmetic); the iterative ``decoupled`` and
    ``circuit`` models are not, and reject the flag. Invariance also
    requires a deterministic, zero-preserving ADC: the engine skips
    all-zero stream blocks *per batch*, which only equals per-row
    execution when ``measure(0) == 0``, so converter offset or noise is
    rejected too.

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

    ``backend`` picks the fused-kernel array backend (``None`` resolves
    through ``$REPRO_BACKEND`` to ``"numpy"``; ``"interp"`` forces the
    interpreted reference kernel) — purely a performance knob, outputs
    are bit-identical either way. Ignored for ``ideal``.
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
    if batch_invariant and (sim_config.adc_offset_lsb != 0.0
                            or sim_config.adc_noise_lsb != 0.0):
        raise ConfigError(
            "batch-invariant execution requires a deterministic, "
            "zero-preserving ADC (adc_offset_lsb == adc_noise_lsb == 0); "
            "zero-drive stream blocks are skipped per batch and would "
            "otherwise measure differently depending on batch composition")
    if kind == "geniex":
        if emulator is None:
            raise ConfigError("geniex engine requires a trained emulator")
        factory = GeniexTileFactory(emulator, batch_invariant=batch_invariant)
    elif kind == "exact":
        factory = ExactTileFactory(xbar_config,
                                   batch_invariant=batch_invariant)
    elif kind == "analytical":
        factory = AnalyticalTileFactory(xbar_config,
                                        batch_invariant=batch_invariant)
    elif kind in ("decoupled", "circuit"):
        # The only kinds that *reject* the flag: they are not in
        # INVARIANT_KINDS and, unlike "ideal" (exact integer math,
        # invariant with or without the flag), cannot honour it.
        if batch_invariant:
            raise ConfigError(
                f"batch-invariant execution is not supported for the "
                f"iterative {kind!r} tile model")
        factory = DecoupledTileFactory(xbar_config) if kind == "decoupled" \
            else CircuitTileFactory(xbar_config)
    else:
        raise ConfigError(
            f"unknown engine kind {kind!r}; expected one of "
            f"{', '.join(ENGINE_KINDS)}")
    return CrossbarMvmEngine(xbar_config, sim_config, factory,
                             tile_cache_size=tile_cache_size,
                             workers=1 if workers is None else workers,
                             nonideality=nonideality,
                             backend=backend)
