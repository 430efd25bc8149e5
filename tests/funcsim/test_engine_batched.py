"""Golden-output regression tests for the batched MVM engine.

``sequential_matmul`` below is the per-stream pipeline the engine is
checked against: one tile-model call and one ADC conversion per (stream,
model), decoded in exact integer form — ADC codes times the signed
power-of-two shift-and-add factors, the ``g_off`` bias subtracted per row
in code units and the codes converted to counts once per output element.
The engine stacks every stream block and model of a tile-row into one
read-out; it must reproduce this oracle byte-for-byte for every tile
factory, because stacking is a pure execution-order optimisation — the
modelled hardware is unchanged.
"""

import numpy as np
import pytest

from repro.core.dataset import build_geniex_dataset
from repro.core.emulator import GeniexEmulator
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec, train_geniex
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import CrossbarMvmEngine, make_engine
from repro.funcsim.slicing import sign_split, split_unsigned
from repro.funcsim.tiles import pad_axis
from repro.xbar.config import CrossbarConfig

XCFG = CrossbarConfig(rows=8, cols=8)
SCFG = FuncSimConfig().with_precision(8)


def sequential_matmul(engine: CrossbarMvmEngine, x, prepared) -> np.ndarray:
    """The per-stream, per-model pipeline with an exact integer decode.

    The code-unit constants (codes per count, bias codes per level) and
    the tile grid come from the layer plan; everything else is
    re-derived here. Tile models are looked up by coordinate in the
    documented ``(sign, slice, tile_col)`` model-major order of
    ``prepared.row_models``.
    """
    cfg, xcfg = engine.sim_config, engine.xbar_config
    plan = prepared.plan
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    batch = x.shape[0]
    rows, cols = xcfg.rows, xcfg.cols
    t_r, t_c = plan.t_r, plan.t_c
    qx = cfg.activation_format.quantize_to_int(x)
    qx = pad_axis(qx, 1, rows)
    x_parts = sign_split(qx)
    x_signs = [k for k, part in enumerate(x_parts) if np.any(part)] or [0]
    streams = {sx: split_unsigned(x_parts[sx],
                                  cfg.activation_format.magnitude_bits,
                                  cfg.stream_bits)
               for sx in x_signs}
    value_lsb = (cfg.activation_format.resolution *
                 cfg.weight_format.resolution)
    acc = cfg.accumulator_format
    out_value = np.zeros((batch, t_c * cols))
    for tr in range(t_r):
        row_block = slice(tr * rows, (tr + 1) * rows)
        tr_codes = np.zeros((batch, t_c * cols))
        tr_bias = np.zeros(batch)
        for sx in x_signs:
            sx_factor = 1.0 if sx == 0 else -1.0
            for m in range(cfg.n_streams):
                levels = streams[sx][m][:, row_block]
                if not levels.any():
                    continue
                voltages = levels * engine._v_lsb
                stream_sum = levels.sum(axis=1)
                stream_scale = float(2 ** (m * cfg.stream_bits))
                for si, sw in enumerate(plan.sign_present):
                    sw_factor = 1.0 if sw == 0 else -1.0
                    for k in range(cfg.n_slices):
                        slice_scale = float(2 ** (k * cfg.slice_bits))
                        prefac = (sx_factor * sw_factor * stream_scale
                                  * slice_scale)
                        tr_bias += prefac * stream_sum
                        for tc in range(t_c):
                            model = prepared.row_models[tr][
                                (si * cfg.n_slices + k) * t_c + tc]
                            codes = engine.adc.codes(
                                model.currents(voltages))
                            tr_codes[:, tc * cols:(tc + 1) * cols] += (
                                prefac * codes)
        counts = (tr_codes - (plan.bias_codes * tr_bias)[:, None]) \
            / plan.codes_per_count
        out_value = acc.quantize(out_value + counts * value_lsb)
    return out_value[:, :plan.n_out]


@pytest.fixture(scope="module")
def geniex_emulator():
    cfg = CrossbarConfig(rows=4, cols=4)
    dataset = build_geniex_dataset(
        cfg, SamplingSpec(n_g_matrices=5, n_v_per_g=8, seed=0))
    model, _ = train_geniex(
        dataset, TrainSpec(hidden=24, epochs=20, batch_size=16, seed=0))
    return GeniexEmulator(model)


@pytest.fixture
def operands(rng):
    x = rng.normal(size=(5, 20)) * 0.4
    w = rng.normal(size=(20, 13)) * 0.3
    return x, w


class TestGoldenEquivalence:
    """Batched matmul is byte-for-byte the sequential pipeline."""

    @pytest.mark.parametrize("kind", ["exact", "analytical"])
    def test_fast_factories(self, kind, operands):
        x, w = operands
        engine = make_engine(kind, XCFG, SCFG)
        prepared = engine.prepare(w)
        golden = sequential_matmul(engine, x, prepared)
        np.testing.assert_array_equal(engine.matmul(x, prepared), golden)

    def test_circuit_factory(self, rng):
        """The per-model ``currents()`` read-out, on a tiny layer."""
        cfg = FuncSimConfig().with_precision(6)
        xcfg = CrossbarConfig(rows=4, cols=4)
        engine = make_engine("circuit", xcfg, cfg)
        x = rng.normal(size=(2, 6)) * 0.3
        w = rng.normal(size=(6, 4)) * 0.3
        prepared = engine.prepare(w)
        golden = sequential_matmul(engine, x, prepared)
        np.testing.assert_array_equal(engine.matmul(x, prepared), golden)

    def test_geniex_factory(self, geniex_emulator, rng):
        cfg = FuncSimConfig().with_precision(6)
        xcfg = CrossbarConfig(rows=4, cols=4)
        engine = make_engine("geniex", xcfg, cfg, emulator=geniex_emulator)
        x = rng.normal(size=(4, 10)) * 0.3
        w = rng.normal(size=(10, 7)) * 0.3
        prepared = engine.prepare(w)
        golden = sequential_matmul(engine, x, prepared)
        np.testing.assert_array_equal(engine.matmul(x, prepared), golden)

    def test_negative_and_sparse_inputs(self, rng):
        engine = make_engine("analytical", XCFG, SCFG)
        x = np.where(rng.random((6, 20)) < 0.5, 0.0,
                     rng.normal(size=(6, 20))) * 0.4
        w = rng.normal(size=(20, 13)) * 0.3
        prepared = engine.prepare(w)
        golden = sequential_matmul(engine, x, prepared)
        np.testing.assert_array_equal(engine.matmul(x, prepared), golden)

    def test_empty_batch(self, operands):
        _, w = operands
        engine = make_engine("analytical", XCFG, SCFG)
        prepared = engine.prepare(w)
        out = engine.matmul(np.zeros((0, 20)), prepared)
        assert out.shape == (0, 13)


class TestBatchInvariantEngines:
    """The closed-form kinds: per-row results independent of the batch."""

    @pytest.mark.parametrize("kind", ["exact", "analytical", "geniex"])
    def test_rows_independent_of_batch(self, kind, geniex_emulator):
        xcfg = CrossbarConfig(rows=4, cols=4) if kind == "geniex" else XCFG
        emulator = geniex_emulator if kind == "geniex" else None
        engine = make_engine(kind, xcfg, SCFG, emulator=emulator)
        n = xcfg.rows
        weights = np.random.default_rng(0).standard_normal((n, n)) * 0.4
        prepared = engine.prepare(weights)
        rng = np.random.default_rng(1)
        for batch in (1, 2, 7, 40):
            x = rng.standard_normal((batch, n))
            full = engine.matmul(x, prepared)
            for i in range(batch):
                np.testing.assert_array_equal(
                    engine.matmul(x[i:i + 1], prepared), full[i:i + 1])

    def test_iterative_models_reject_the_flag(self):
        """Batch invariance is no longer a flag: every kind rejects it
        as an unknown argument, and the iterative ``circuit`` kind is
        simply not invariant."""
        from repro.api.spec import supports_batch_invariance
        for kind in ("circuit", "exact"):
            with pytest.raises(TypeError, match="batch_invariant"):
                make_engine(kind, XCFG, SCFG, batch_invariant=True)
        assert not supports_batch_invariance("circuit", SCFG)

    def test_non_zero_preserving_adc_rejects_the_flag(self):
        """Zero-stream skipping is per batch, so an ADC with offset or
        noise measures skipped blocks differently depending on batch
        composition: such engines build as before, and are not
        batch-invariant."""
        from repro.api.spec import supports_batch_invariance
        for sim in (SCFG.replace(adc_offset_lsb=0.7),
                    SCFG.replace(adc_noise_lsb=0.1)):
            with pytest.raises(TypeError, match="batch_invariant"):
                make_engine("exact", XCFG, sim, batch_invariant=True)
            make_engine("exact", XCFG, sim)
            assert not supports_batch_invariance("exact", sim)
