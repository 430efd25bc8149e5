"""Planner: the static execution schedule of one prepared layer.

The functional simulator is split into a *compile* phase and an *execute*
phase. Compilation happens once per weight matrix — quantise, sign-split,
slice, tile, program every (sign, slice, tile) crossbar model — and
:func:`plan_layer` fixes the layer's :class:`LayerPlan`: the tile grid,
present weight signs, DAC/conductance LSBs, the ``g_off`` bias-removal
factor, shift-and-add scales, accumulator format and the ADC transfer
parameters, plus worst-case cost metadata from :mod:`repro.funcsim.cost`.
Plans are plain frozen dataclasses, computed from the engine and the
prepared matrix's content (its quantised weights and uid) alone.

The plan is part of the compiled layer,
:class:`~repro.funcsim.compiler.PreparedMatrix`, which runs one
(tile-row range, batch-chunk) shard at a time;
:meth:`CrossbarMvmEngine.matmul
<repro.funcsim.engine.CrossbarMvmEngine.matmul>` schedules the shards.
Converting a network prepares every layer once — the RxNN-style
"compile the crossbar model into the network" step — so inference only
executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.cost import CostReport, matmul_cost
from repro.funcsim.tiles import n_tiles

#: Mask applied to seed components fed to ``np.random.default_rng``.
_SEED_MASK = (1 << 63) - 1

#: Byte budget of one shard's flat float64 measurement ``(R, S * chunk,
#: M * cols)`` with every stream block active; :func:`plan_layer` caps a
#: layer's chunk rows of one tile-row (``R = 1``) to stay under it, and
#: a multi-tile-row shard takes at most that many tile-row rows
#: (:func:`~repro.funcsim.compiler.tile_row_ranges`). The kernel's other
#: temporaries are a small multiple of the measurement.
MAX_SHARD_BYTES = 1 << 28

#: The exact digital back end sums integer ADC codes times signed powers
#: of two in float64; every partial sum must stay below this.
EXACT_INT_LIMIT = 2 ** 53


def _snap(ratio: float) -> float:
    """``ratio``, or the integer it equals up to the rounding of the LSB
    arithmetic that produced it: aligned ADC and count grids have exact
    integer ratios, which the digital back end needs exactly."""
    nearest = round(ratio)
    return float(nearest) if abs(ratio - nearest) <= 1e-9 * max(
        1.0, abs(ratio)) else ratio


@dataclass(frozen=True)
class LayerPlan:
    """Static execution schedule of one prepared weight matrix.

    Everything the execution kernel needs apart from the tile models
    themselves: geometry, decode constants and the ADC transfer function.
    ``uid`` is the content digest of the prepared matrix (stable across
    processes — see :class:`repro.funcsim.compiler.PreparedMatrix`).
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
    #: ADC codes per unit count (one stream level x one slice level):
    #: ``1 / headroom``, an integer whenever the ADC grid aligns.
    codes_per_count: float
    #: ADC codes the ``g_off`` mapping bias adds per unit stream level.
    bias_codes: float
    value_lsb: float
    #: Largest batch chunk one shard may take (memory cap).
    chunk_rows: int
    # ADC transfer parameters (mirrors the engine's AdcModel).
    adc_bits: int
    adc_lsb_a: float
    adc_offset_a: float
    adc_noise_rms_a: float
    adc_seed: int
    # Worst-case architectural cost of one MVM through this layer.
    cost: CostReport = field(compare=False)

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


def weight_signs(qw: np.ndarray) -> tuple:
    """Weight signs a quantised matrix programs: the positive crossbar
    set ``0`` always, the negative set ``1`` when any weight is
    negative."""
    return (0, 1) if np.any(qw < 0) else (0,)


def plan_layer(engine, prepared) -> LayerPlan:
    """The execution plan of ``prepared`` on ``engine``.

    Reads only the prepared matrix's quantised weights ``qw`` and its
    ``uid``, so a :class:`~repro.funcsim.compiler.PreparedMatrix` can plan
    itself while it is constructed. The plan snapshots every decode
    constant the engine derived from its crossbar and simulator configs,
    so executing the layer does not need the engine. It also fixes the
    layer's chunk cap (:data:`MAX_SHARD_BYTES`) and rejects, with
    :class:`~repro.errors.ConfigError`, a configuration whose digital
    back end could not be exact: the sum of the absolute (stream, sign,
    slice) prefactors over both activation signs, times the largest
    number they multiply (an ADC code, or the bias codes of a stream's
    level sum), must stay below :data:`EXACT_INT_LIMIT`.
    """
    cfg = engine.sim_config
    xcfg = engine.xbar_config
    adc = engine.adc
    codes_per_count = _snap(engine._v_lsb * engine._g_lsb / adc.lsb_a)
    bias_codes = _snap(xcfg.g_off_s / engine._g_lsb * codes_per_count)
    n_in, n_out = prepared.qw.shape
    t_c = n_tiles(n_out, xcfg.cols)
    sign_present = weight_signs(prepared.qw)
    n_sw = len(sign_present)
    prefac_sum = 2 * n_sw \
        * sum(2 ** (m * cfg.stream_bits) for m in range(cfg.n_streams)) \
        * sum(2 ** (k * cfg.slice_bits) for k in range(cfg.n_slices))
    largest = max(adc.n_codes - 1,
                  bias_codes * xcfg.rows * (2 ** cfg.stream_bits - 1))
    if prefac_sum * largest >= EXACT_INT_LIMIT:
        raise ConfigError(
            f"adc_bits={adc.bits} with stream_bits={cfg.stream_bits} and "
            f"slice_bits={cfg.slice_bits} can sum to {prefac_sum * largest}"
            f" >= 2**53 in the shift-and-add; the digital back end would "
            f"not be exact (use fewer ADC bits or wider streams/slices)")
    n_models = n_sw * cfg.n_slices * t_c
    chunk_rows = max(1, MAX_SHARD_BYTES
                     // (2 * cfg.n_streams * n_models * xcfg.cols * 8))
    return LayerPlan(
        uid=prepared.uid,
        n_in=n_in,
        n_out=n_out,
        rows=xcfg.rows,
        cols=xcfg.cols,
        t_r=n_tiles(n_in, xcfg.rows),
        t_c=t_c,
        sign_present=sign_present,
        sim_config=cfg,
        v_lsb=engine._v_lsb,
        g_lsb=engine._g_lsb,
        codes_per_count=codes_per_count,
        bias_codes=bias_codes,
        value_lsb=(cfg.activation_format.resolution
                   * cfg.weight_format.resolution),
        chunk_rows=chunk_rows,
        adc_bits=adc.bits,
        adc_lsb_a=adc.lsb_a,
        adc_offset_a=adc.offset_a,
        adc_noise_rms_a=adc.noise_rms_a,
        adc_seed=cfg.adc_seed,
        cost=matmul_cost(n_in, n_out, xcfg, cfg, signed_inputs=True,
                         signed_weights=n_sw > 1),
    )
