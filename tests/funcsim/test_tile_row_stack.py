"""Tile-row ranges: one shard per layer for few-row chunks.

:meth:`repro.funcsim.compiler.PreparedMatrix.run_shard` runs a chunk
over a contiguous range of tile-rows, and a one-tile-row shard is the
range of one. These tests pin that a tile-row's contribution is byte for
byte the same whichever range it runs in — with ragged active
(sign, stream) sets, an all-zero tile-row and a noisy ADC — and that the
hardware counters read the one-tile-row decomposition's values.
"""

import dataclasses

import numpy as np
import pytest

from test_geniex_prune import EMULATOR_SUPPLY_V, random_emulator

from repro.funcsim import FuncSimConfig, make_engine
from repro.funcsim import compiler as compiler_mod
from repro.funcsim.compiler import (
    active_signs,
    gather_streams,
    new_stat_counts,
    quantize_input,
    tile_row_ranges,
)
from repro.obs import start_trace
from repro.xbar.config import CrossbarConfig

XCFG = CrossbarConfig(rows=8, cols=8, v_supply_v=EMULATOR_SUPPLY_V)
SCFG = FuncSimConfig()
#: One activation count of the default Q16.13 format.
LSB = SCFG.activation_format.resolution
BATCHES = (1, 2, 40)
KINDS = ("geniex", "exact", "analytical")


@pytest.fixture(scope="module")
def emulator():
    return random_emulator(8, 8, 80, 1, seed=3, g_gain=3.0)


@pytest.fixture(scope="module")
def weights():
    # 30 inputs on 8-row tiles: four tile-rows, the last one padded.
    return np.random.default_rng(11).normal(size=(30, 13)) * 0.3


def _engine(kind, emulator, sim=SCFG, xcfg=XCFG):
    return make_engine(kind, xcfg, sim,
                       emulator=emulator if kind == "geniex" else None)


def _ragged_input(batch: int, seed: int = 5) -> np.ndarray:
    """Tile-row 0 drives both signs and every stream; tile-row 1 is all
    zero; tile-row 2 drives only the lowest stream of the positive sign;
    tile-row 3 only the two lowest streams of both signs."""
    rng = np.random.default_rng(seed)
    x = np.empty((batch, 30))
    x[:, 0:8] = rng.normal(size=(batch, 8)) * 0.8
    x[:, 8:16] = 0.0
    x[:, 16:24] = rng.integers(1, 16, size=(batch, 8)) * LSB
    x[:, 24:30] = rng.integers(-255, 256, size=(batch, 6)) * LSB
    return x


def _chunk(prepared, x):
    plan = prepared.plan
    qx = quantize_input(x, plan.n_in, SCFG.activation_format, plan.rows)
    return qx, active_signs(qx)


def test_input_is_ragged(emulator, weights):
    """The fixture really drives different (sign, stream) sets per
    tile-row, one of them empty."""
    prepared = _engine("exact", emulator).prepare(weights)
    qx, signs = _chunk(prepared, _ragged_input(2))
    _, blocks = gather_streams(prepared.plan, qx, signs, 0,
                               prepared.plan.t_r, new_stat_counts())
    active = [len(index) for index in blocks]
    assert prepared.plan.t_r == 4
    assert active[1] == 0
    assert len(set(active)) == 4


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batch", BATCHES)
def test_tile_row_bytes_do_not_depend_on_range(emulator, weights, kind,
                                               batch):
    """Every tile-row's counts are byte-equal alone, in the whole-layer
    range and in a middle range; the all-zero tile-row reads exact
    zeros; the range's counters are the sum of its tile-rows'."""
    prepared = _engine(kind, emulator).prepare(weights)
    t_r = prepared.plan.t_r
    qx, signs = _chunk(prepared, _ragged_input(batch))
    alone = [prepared.run_shard(qx, signs, 0, tr, tr + 1, 0)
             for tr in range(t_r)]
    stacked, stats = prepared.run_shard(qx, signs, 0, 0, t_r, 0)
    middle, _ = prepared.run_shard(qx, signs, 0, 1, 3, 0)
    for tr, (counts, _) in enumerate(alone):
        assert counts.shape[0] == 1
        assert stacked[tr].tobytes() == counts[0].tobytes(), f"tr={tr}"
    for r in range(2):
        assert middle[r].tobytes() == alone[1 + r][0][0].tobytes()
    assert stacked[1].tobytes() == np.zeros_like(stacked[1]).tobytes()
    for field, value in stats.items():
        assert value == sum(local[field] for _, local in alone), field


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("offset_lsb", [0.0, 2.3])
def test_matmul_equals_one_tile_row_decomposition(emulator, weights,
                                                  monkeypatch, kind,
                                                  batch, offset_lsb):
    """A matmul run as whole-layer shards equals one run as one-tile-row
    shards byte for byte, and so do the per-call ``EngineStats``. An ADC
    offset turns the padded zero blocks into non-zero codes, which their
    ``+0.0`` prefactor must cancel."""
    x = _ragged_input(batch)
    sim = SCFG.replace(adc_offset_lsb=offset_lsb)
    results = {}
    for stack_rows in (0, 10 ** 6):
        monkeypatch.setattr(compiler_mod, "STACK_ROWS", stack_rows)
        engine = _engine(kind, emulator, sim=sim)
        out = engine.matmul(x, engine.prepare(weights))
        results[stack_rows] = out.tobytes(), engine.stats.snapshot()
    assert results[0] == results[10 ** 6]


@pytest.mark.parametrize("batch", BATCHES)
def test_noisy_adc_keeps_its_bits(emulator, weights, monkeypatch, batch):
    """With ADC noise every tile-row draws its own coordinate-keyed
    stream over its own active rows, so stacked and one-tile-row runs
    agree bit for bit, call after call."""
    sim = SCFG.replace(adc_noise_lsb=0.7, adc_seed=9)
    x = _ragged_input(batch)
    results = {}
    for stack_rows in (0, 10 ** 6):
        monkeypatch.setattr(compiler_mod, "STACK_ROWS", stack_rows)
        engine = _engine("geniex", emulator, sim=sim)
        prepared = engine.prepare(weights)
        results[stack_rows] = [engine.matmul(x, prepared).tobytes()
                               for _ in range(2)]
    assert results[0] == results[10 ** 6]
    assert results[0][0] != results[0][1]  # fresh noise per call


@pytest.mark.parametrize("kind", ["circuit"])
def test_iterative_kinds_run_a_range(kind):
    """``circuit``, the per-model ``currents()`` kind, runs a whole-layer
    range on a tiny layer and equals its one-tile-row shards: each model
    solves exactly its tile-row's active rows."""
    xcfg = CrossbarConfig(rows=4, cols=4)
    rng = np.random.default_rng(2)
    weights = rng.normal(size=(12, 3)) * 0.3
    x = rng.normal(size=(2, 12)) * 0.5
    x[:, 4:8] = 0.0
    prepared = _engine(kind, None, xcfg=xcfg).prepare(weights)
    plan = prepared.plan
    qx = quantize_input(x, plan.n_in, SCFG.activation_format, plan.rows)
    signs = active_signs(qx)
    stacked, _ = prepared.run_shard(qx, signs, 0, 0, plan.t_r, 0)
    assert not stacked[1].any()
    for tr in range(plan.t_r):
        alone, _ = prepared.run_shard(qx, signs, 0, tr, tr + 1, 0)
        assert stacked[tr].tobytes() == alone[0].tobytes(), f"tr={tr}"


def test_ranges_follow_chunk_rows(emulator, weights):
    """Few-row chunks run the whole layer as one shard, larger ones one
    tile-row per shard, and a stacked shard holds no more tile-row rows
    than the layer's memory cap allows one tile-row."""
    plan = _engine("exact", emulator).prepare(weights).plan
    stack_rows = compiler_mod.STACK_ROWS
    assert tile_row_ranges(plan, 1) == [(0, plan.t_r)]
    assert tile_row_ranges(plan, stack_rows) == [(0, plan.t_r)]
    assert tile_row_ranges(plan, stack_rows + 1) == [
        (tr, tr + 1) for tr in range(plan.t_r)]
    capped = dataclasses.replace(plan, chunk_rows=3 * stack_rows)
    assert tile_row_ranges(capped, stack_rows) == [(0, 3), (3, 4)]
    assert tile_row_ranges(capped, 1) == [(0, plan.t_r)]


def test_fused_execute_span_reports_tile_rows(emulator, weights):
    """The ``fused-execute`` span lists each chunk's shard width, so a
    trace shows whether a layer ran its tile-rows as one shard."""
    engine = _engine("exact", emulator)
    prepared = engine.prepare(weights)
    engine.shard_rows = 2 * compiler_mod.STACK_ROWS
    with start_trace("stack") as trace:
        engine.matmul(_ragged_input(2), prepared)
        engine.matmul(_ragged_input(compiler_mod.STACK_ROWS + 1), prepared)
        engine.matmul(_ragged_input(2 * compiler_mod.STACK_ROWS + 1),
                      prepared)
    widths = [child.meta["tile_rows"] for top in trace.spans()
              for child in top.children if child.name == "fused-execute"]
    assert widths == [[4], [1], [1, 4]]
