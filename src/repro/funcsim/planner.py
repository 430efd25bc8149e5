"""Planner: lower a prepared layer into a static tile program.

The functional simulator is split into a *compile* phase and an *execute*
phase. Compilation happens once per weight matrix — quantise, sign-split,
slice, tile, program every (sign, slice, tile) crossbar model — and is
summarised by a :class:`LayerProgram`:

* :class:`LayerPlan` — the static schedule and decode constants of the
  layer: tile grid, present weight signs, DAC/conductance LSBs, the
  ``g_off`` bias-removal factor, shift-and-add scales, accumulator format
  and the ADC transfer parameters, plus worst-case cost metadata from
  :mod:`repro.funcsim.cost`. Plans are plain frozen dataclasses.
* the **tile models** programmed from the weight slices, and the shared
  :class:`tile factory <repro.funcsim.engine.GeniexTileFactory>` whose
  ``prepare_voltages`` hook computes terms shared by a whole tile-row.

Execution consumes programs through the kernel
(:mod:`repro.funcsim.runtime.kernel`), which evaluates one (tile-row,
batch-chunk) shard at a time; :meth:`CrossbarMvmEngine.matmul
<repro.funcsim.engine.CrossbarMvmEngine.matmul>` schedules the shards.
Converting a network prepares every layer's program once — the RxNN-style
"compile the crossbar model into the network" step — so inference only
executes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.funcsim.config import FuncSimConfig
from repro.funcsim.cost import CostReport, matmul_cost

#: Mask applied to seed components fed to ``np.random.default_rng``.
_SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class LayerPlan:
    """Static execution schedule of one prepared weight matrix.

    Everything the execution kernel needs apart from the tile models
    themselves: geometry, decode constants and the ADC transfer function.
    ``uid`` is the content digest of the prepared matrix (stable across
    processes — see :class:`repro.funcsim.engine.PreparedMatrix`).
    """

    uid: str
    n_in: int
    n_out: int
    rows: int
    cols: int
    t_r: int
    t_c: int
    sign_present: tuple
    sim_config: FuncSimConfig
    # Digital <-> analog mapping constants.
    v_lsb: float
    g_lsb: float
    bias_factor: float
    decode: float
    value_lsb: float
    # ADC transfer parameters (mirrors the engine's AdcModel).
    adc_bits: int
    adc_lsb_a: float
    adc_offset_a: float
    adc_noise_rms_a: float
    adc_seed: int
    # Worst-case architectural cost of one MVM through this layer.
    cost: CostReport = field(compare=False, default=None)

    @property
    def uid_seed(self) -> int:
        """Integer form of ``uid`` used to key per-shard noise streams."""
        return int(self.uid[:15], 16) & _SEED_MASK

    @property
    def out_width(self) -> int:
        """Padded output width (``t_c * cols``) of the decode stage."""
        return self.t_c * self.cols

    def noise_seed(self, seq: int, tr: int, chunk: int) -> list:
        """Deterministic ADC-noise seed for one (matmul, tile-row, chunk).

        Keyed by tile coordinates and the per-layer matmul sequence number,
        never by shard *assignment*, so noisy runs reproduce bit-exactly at
        any worker count.
        """
        return [int(self.adc_seed) & _SEED_MASK, self.uid_seed,
                int(seq) & _SEED_MASK, int(tr), int(chunk)]


@dataclass
class LayerProgram:
    """A compiled layer: static plan + programmed tile models.

    ``models`` maps ``(sign, slice, tile_row, tile_col)`` to the tile model
    programmed from that weight slice; ``tile_factory`` provides the
    per-tile-row shared voltage term.

    ``compiled`` holds the program's fused execution form (a
    :class:`~repro.funcsim.compiler.CompiledLayer`, built by the engine's
    compile pass) when the tile kind is fusible; ``compile_requested``
    records that compilation was asked for, so the kernel dispatcher can
    count interpreter fallbacks separately from interpreter-only runs.
    """

    plan: LayerPlan
    models: dict
    tile_factory: object
    compiled: object = None
    compile_requested: bool = False
    #: Matmul sequence numbers keying the ADC noise streams
    #: (:meth:`LayerPlan.noise_seed`): every call through the program
    #: draws fresh noise, and the counter lives as long as the program.
    _seq: itertools.count = field(default_factory=itertools.count,
                                  repr=False, compare=False)

    def next_seq(self) -> int:
        """Sequence number of the next matmul (thread-safe: ``next`` on a
        counter is atomic under the GIL)."""
        return next(self._seq)


def plan_layer(engine, prepared) -> LayerProgram:
    """Lower ``(engine, prepared)`` into a self-contained layer program.

    The plan snapshots every decode constant the engine derived from its
    crossbar and simulator configs, so executing the program does not
    need the engine.
    """
    cfg = engine.sim_config
    xcfg = engine.xbar_config
    adc = engine.adc
    plan = LayerPlan(
        uid=prepared.uid,
        n_in=prepared.n_in,
        n_out=prepared.n_out,
        rows=xcfg.rows,
        cols=xcfg.cols,
        t_r=prepared.t_r,
        t_c=prepared.t_c,
        sign_present=tuple(prepared.sign_present),
        sim_config=cfg,
        v_lsb=engine._v_lsb,
        g_lsb=engine._g_lsb,
        bias_factor=xcfg.g_off_s / engine._g_lsb,
        decode=1.0 / (engine._v_lsb * engine._g_lsb),
        value_lsb=(cfg.activation_format.resolution
                   * cfg.weight_format.resolution),
        adc_bits=adc.bits,
        adc_lsb_a=adc.lsb_a,
        adc_offset_a=adc.offset_a,
        adc_noise_rms_a=adc.noise_rms_a,
        adc_seed=cfg.adc_seed,
        cost=matmul_cost(prepared.n_in, prepared.n_out, xcfg, cfg,
                         signed_inputs=True,
                         signed_weights=len(prepared.sign_present) > 1),
    )
    return LayerProgram(plan=plan, models=prepared.models,
                        tile_factory=engine.tile_factory)
