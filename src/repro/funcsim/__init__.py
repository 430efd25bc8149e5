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
the linear analytical model, or the full circuit simulator.

**Plan/execute split.** The simulator separates *compilation* from
*execution*:

* :meth:`CrossbarMvmEngine.prepare` (compile) quantises, slices and tiles
  a weight matrix, programs every (sign, slice, tile) crossbar model and
  returns one compiled layer,
  :class:`~repro.funcsim.compiler.PreparedMatrix`, whose static
  :class:`LayerPlan` holds the tile stream-block schedule, ADC/shift-add
  merge plan and cost metadata (:mod:`repro.funcsim.planner`);
  :func:`convert_to_mvm` does this once for every layer of a network;
* :meth:`CrossbarMvmEngine.matmul` (execute) runs the layer as
  independent (batch-chunk, tile-row range) shards through its kernel
  (:mod:`repro.funcsim.compiler`), on the calling thread or — with
  ``workers > 1`` — on the engine's thread pool, merging partial sums
  digitally in tile-row order as the hardware's peripheral logic would.

Every worker count produces bit-identical outputs; with ADC noise,
per-shard noise streams are keyed by tile coordinates so noisy runs
reproduce exactly regardless of scheduling.

**One compiled kernel.** Every prepared layer runs one shard kernel
(:mod:`repro.funcsim.compiler`), the same for every engine kind: all
active stream blocks of the shard's tile-rows (the whole layer for a
few-row chunk, else one tile-row) are read out in one
``(tile-rows, streams * batch, models * cols)`` measurement — one stacked
GEMM for ``exact``/``analytical``, plus the pruned NN forward and fR
divide for ``geniex``, or each model's own solve for ``circuit`` —
digitised by one in-place ADC pass. The digital back end is exact:
integer ADC codes meet signed power-of-two shift-and-add prefactors,
every partial sum stays below ``2**53``
(asserted when the layer is planned), so the contraction is exact in any
order, and the ``exact`` engine equals tile-row-accumulated Ideal FxP
bit for bit.

**Batched tile API.** Every tile model maps a voltage batch ``(M, rows)``
to currents ``(M, cols)`` in one call, and the kernel stacks all active
stream blocks of a tile-row into a single such batch per tile model — the
tile models therefore see one large batched inference/solve instead of one
call per stream, which is what makes non-ideal inference tractable (cf. the
GENIEx premise of replacing per-vector SPICE solves with batched NN
inference). With ADC noise enabled, each tile-row draws its samples in
the flat measurement layout from a generator keyed by tile coordinates, so
noisy runs reproduce exactly at any worker count. Engine statistics
(:class:`EngineStats`) count read-outs and ADC conversions as the modelled
hardware would execute them.
"""

from repro.core.emulator import GeniexTileFactory
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.quant import FixedPointFormat
from repro.funcsim.adc import AdcModel
from repro.funcsim.engine import (
    AnalyticalTileFactory,
    CircuitTileFactory,
    CrossbarMvmEngine,
    EngineStats,
    ExactTileFactory,
    IdealMvmEngine,
    make_engine,
)
from repro.funcsim.planner import LayerPlan, plan_layer
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
    "CircuitTileFactory",
    "make_engine",
    "LayerPlan",
    "plan_layer",
    "LinearMVM",
    "Conv2dMVM",
    "convert_to_mvm",
]
