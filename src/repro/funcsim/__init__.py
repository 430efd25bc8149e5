"""Functional simulator: DNN inference on (non-ideal) crossbar hardware.

Reproduces the paper's Section 5 architecture model. A convolution or dense
layer executes in three phases:

1. **Iterative MVM** — convolutions become repeated matrix-vector products
   over im2col patch matrices.
2. **Tiling** — the quantised weight matrix is split into crossbar-sized
   tiles; tiles in a row share input slices, tiles in a column produce
   partial sums.
3. **Bit-slicing** — activations are streamed ``stream_bits`` at a time
   through the DACs and weights are split into ``slice_bits`` conductance
   slices; ADC outputs are merged with shift-and-add and accumulated in
   fixed point.

The analog tile computation is pluggable: exact ideal, GENIEx emulation,
the linear analytical model, a cheap decoupled IR-drop model, or the full
circuit simulator.

**Plan/execute split.** The simulator separates *compilation* from
*execution*:

* :meth:`CrossbarMvmEngine.prepare` (compile) quantises, slices and tiles
  a weight matrix, programs every (sign, slice, tile) crossbar model and
  lowers the layer into a static
  :class:`~repro.funcsim.planner.LayerProgram` — the tile stream-block
  schedule, ADC/shift-add merge plan and cost metadata
  (:mod:`repro.funcsim.planner`); :func:`convert_to_mvm` does this once
  for every layer of a network;
* :meth:`CrossbarMvmEngine.matmul` (execute) runs a program as
  independent (batch-chunk, tile-row) shards through the kernel of
  :mod:`repro.funcsim.runtime`, on the calling thread or — with
  ``workers > 1`` — on the engine's thread pool, merging partial sums
  digitally in tile-row order as the hardware's peripheral logic would.

Every worker count produces bit-identical outputs; with ADC noise,
per-shard noise streams are keyed by tile coordinates so noisy runs
reproduce exactly regardless of scheduling.

**Compiled fused execution.** For the closed-form tile kinds (``geniex``,
``exact``, ``analytical``) a compile pass (:mod:`repro.funcsim.compiler`)
lowers each layer program into fused tile-row kernels: per-tile-row
stacked operand tensors, one batched read-out and one ADC pass per stream
stack, and a vectorized decode with precomputed sign/shift prefactors.
The fused path is bit-identical to the interpreted kernel (which remains
the reference and the fallback for ``decoupled``/``circuit``), executes
on the numpy array backend (:mod:`repro.funcsim.runtime.backends`), and
is on by default — disable it with ``backend="interp"`` or
``REPRO_BACKEND=interp``.

**Batched tile API.** Every tile model maps a voltage batch ``(M, rows)``
to currents ``(M, cols)`` in one call, and the kernel stacks all active
stream blocks of a tile-row into a single such batch per tile model — the
tile models therefore see one large batched inference/solve instead of one
call per stream, which is what makes non-ideal inference tractable (cf. the
GENIEx premise of replacing per-vector SPICE solves with batched NN
inference). With a noiseless ADC (the default), batched and per-stream
execution produce identical outputs; with ADC noise enabled the two are
statistically equivalent but not bit-identical, because batching draws the
seeded noise samples in a different order.

**Tile-result caching.** :class:`CrossbarMvmEngine` memoises measured
(post-ADC) tile read-outs in an LRU keyed by the exact integer stream-level
pattern (``tile_cache_size`` entries, default 256; ``0`` disables).
Repeated activation patterns — ubiquitous in convolution im2col batches —
skip the analog model entirely. Caching is value-exact, never changes
results, and is automatically disabled when ADC noise is configured, since
noisy conversions must be re-sampled. Engine statistics count logical
read-outs as the modelled hardware would execute them; ``cache_hits``
tracks the software-side savings separately.
"""

from repro.funcsim.config import FuncSimConfig
from repro.funcsim.quant import FixedPointFormat
from repro.funcsim.adc import AdcModel
from repro.funcsim.engine import (
    AnalyticalTileFactory,
    CircuitTileFactory,
    CrossbarMvmEngine,
    DecoupledTileFactory,
    EngineStats,
    ExactTileFactory,
    GeniexTileFactory,
    IdealMvmEngine,
    TileResultCache,
    make_engine,
)
from repro.funcsim.compiler import CompiledLayer, compile_program
from repro.funcsim.planner import LayerPlan, LayerProgram, plan_layer
from repro.funcsim.runtime import resolve_backend
from repro.funcsim.layers import Conv2dMVM, LinearMVM
from repro.funcsim.convert import convert_to_mvm

__all__ = [
    "FuncSimConfig",
    "FixedPointFormat",
    "AdcModel",
    "CrossbarMvmEngine",
    "IdealMvmEngine",
    "EngineStats",
    "ExactTileFactory",
    "GeniexTileFactory",
    "AnalyticalTileFactory",
    "DecoupledTileFactory",
    "CircuitTileFactory",
    "TileResultCache",
    "make_engine",
    "LayerPlan",
    "LayerProgram",
    "plan_layer",
    "CompiledLayer",
    "compile_program",
    "resolve_backend",
    "LinearMVM",
    "Conv2dMVM",
    "convert_to_mvm",
]
