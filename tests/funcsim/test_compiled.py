"""The one compiled shard kernel: read-out, exact back end, memory cap.

Every engine kind runs :meth:`repro.funcsim.compiler.PreparedMatrix.
run_shard`. These tests pin that its stacked read-out equals each tile's own
``currents()`` column block by column block; that it equals the
per-stream, per-model oracle of ``test_engine_batched`` bit for bit per
engine kind and device-fault pipeline; that the
``exact`` engine equals tile-row-accumulated Ideal FxP bit for bit; that
the plan rejects configurations the exact back end cannot sum exactly;
that the plan-time chunk cap bounds a shard; and that the kernel's
scratch buffers stay bounded and inert.
"""

import numpy as np
import pytest

from test_engine_batched import sequential_matmul

from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.funcsim import FuncSimConfig, make_engine
from repro.funcsim import planner
from repro.funcsim.tiles import pad_axis
from repro.nonideal.pipeline import NonidealitySpec
from repro.nonideal.transforms import StuckSpec, VariationSpec
from repro.xbar.config import CrossbarConfig

XCFG = CrossbarConfig(rows=8, cols=8)
SCFG = FuncSimConfig()


@pytest.fixture
def operands(rng):
    x = rng.normal(size=(23, 20)) * 0.4
    w = rng.normal(size=(20, 13)) * 0.3
    return x, w


@pytest.fixture(scope="module")
def tiny_emulator(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    return zoo.get_or_train(
        XCFG, SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=0),
        TrainSpec(hidden=8, epochs=2, batch_size=8, seed=0))


def _engine(kind, emulator=None, sim=SCFG, xcfg=XCFG, **kwargs):
    return make_engine(kind, xcfg, sim,
                       emulator=emulator if kind == "geniex" else None,
                       **kwargs)


class TestFusedBitIdentity:
    """The stacked kernel == the per-model oracle, bit for bit."""

    @pytest.mark.parametrize("kind", ["exact", "analytical", "geniex"])
    @pytest.mark.parametrize("row_by_row", [False, True])
    def test_kinds(self, operands, tiny_emulator, kind, row_by_row):
        """The whole batch, or each row run alone, equals the oracle."""
        x, w = operands
        engine = _engine(kind, tiny_emulator)
        prepared = engine.prepare(w)
        if row_by_row:
            out = np.concatenate([engine.matmul(x[i:i + 1], prepared)
                                  for i in range(len(x))])
        else:
            out = engine.matmul(x, prepared)
        np.testing.assert_array_equal(out,
                                      sequential_matmul(engine, x, prepared))

    @pytest.mark.parametrize("kind", ["exact", "geniex"])
    def test_counters_match(self, operands, tiny_emulator, kind):
        """One-chunk calls count the cost model's read-outs, less the
        skipped all-zero stream blocks, and ``cols`` conversions per
        read-out row."""
        x, w = operands
        engine = _engine(kind, tiny_emulator)
        prepared = engine.prepare(w)
        cost = prepared.plan.cost
        for chunk in (x, x[:7]):
            before = engine.stats.snapshot()
            engine.matmul(chunk, prepared)
            after = engine.stats.snapshot()
            delta = {k: after[k] - before[k] for k in after}
            assert delta["matmuls"] == 1
            assert delta["readouts"] + delta["skipped_zero_streams"] \
                == cost.readouts
            assert delta["adc_conversions"] \
                == delta["readouts"] * len(chunk) * XCFG.cols

    def test_adc_noise_and_offset(self, operands):
        """Noise and offset are drawn in the flat measurement layout from
        coordinate-keyed streams: fresh engines reproduce each other, and
        the offset alone keeps the kernel equal to the oracle."""
        x, w = operands
        noisy = SCFG.replace(adc_noise_lsb=0.3, adc_offset_lsb=0.1)
        outs = [engine.matmul(x, engine.prepare(w))
                for engine in (_engine("exact", sim=noisy),
                               _engine("exact", sim=noisy))]
        np.testing.assert_array_equal(outs[0], outs[1])
        clean = _engine("exact")
        assert not np.array_equal(outs[0], clean.matmul(x, clean.prepare(w)))
        offset = _engine("exact", sim=SCFG.replace(adc_offset_lsb=0.4))
        prepared = offset.prepare(w)
        np.testing.assert_array_equal(offset.matmul(x, prepared),
                                      sequential_matmul(offset, x, prepared))

    def test_nonideality_pipeline(self, operands):
        """Faulty preparations run the same kernel, bit-identically."""
        x, w = operands
        spec = NonidealitySpec(seed=7, stuck=StuckSpec(p_on=0.02, p_off=0.05),
                               variation=VariationSpec(sigma=0.05))
        engine = _engine("exact", nonideality=spec)
        prepared = engine.prepare(w)
        np.testing.assert_array_equal(engine.matmul(x, prepared),
                                      sequential_matmul(engine, x, prepared))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers(self, operands, tiny_emulator, workers):
        """Noisy geniex shards reproduce on the thread pool at any width."""
        x, w = operands
        noisy = SCFG.replace(adc_noise_lsb=0.5, adc_seed=3)
        outs = []
        for n_workers in (1, workers):
            engine = _engine("geniex", tiny_emulator, sim=noisy,
                             workers=n_workers)
            engine.shard_rows = 5
            engine.inline_work_threshold = 0  # force pooling
            outs.append(engine.matmul(x, engine.prepare(w)))
            engine.close()
        np.testing.assert_array_equal(outs[0], outs[1])


def _tile_row_ideal(cfg, x, w, rows):
    """Ideal FxP product accumulated tile-row by tile-row through the
    accumulator, as the crossbar pipeline's merge does."""
    qx = pad_axis(cfg.activation_format.quantize_to_int(x), 1, rows)
    qw = pad_axis(cfg.weight_format.quantize_to_int(w), 0, rows)
    value_lsb = cfg.activation_format.resolution \
        * cfg.weight_format.resolution
    out = np.zeros((x.shape[0], w.shape[1]))
    for tr in range(qx.shape[1] // rows):
        block = slice(tr * rows, (tr + 1) * rows)
        counts = qx[:, block].astype(np.float64) @ qw[block].astype(
            np.float64)
        out = cfg.accumulator_format.quantize(out + counts * value_lsb)
    return out


class TestExactBackEnd:
    """Integer codes x power-of-two prefactors: an exact digital sum."""

    @pytest.mark.parametrize("stream_bits,slice_bits",
                             [(4, 4), (2, 4), (4, 2)])
    @pytest.mark.parametrize("k", [8, 20, 64])
    def test_exact_equals_tile_row_ideal_fxp(self, rng, stream_bits,
                                             slice_bits, k):
        # A fine ADC whose grid aligns with the g_off bias of any slicing.
        cfg = SCFG.replace(stream_bits=stream_bits, slice_bits=slice_bits,
                           adc_bits=20,
                           adc_headroom=1.0 / (XCFG.onoff_ratio - 1))
        x = rng.normal(size=(9, k)) * 0.4
        w = rng.normal(size=(k, 13)) * 0.3
        engine = make_engine("exact", XCFG, cfg)
        out = engine.matmul(x, engine.prepare(w))
        assert out.tobytes() == _tile_row_ideal(cfg, x, w, XCFG.rows).tobytes()

    def test_bound_rejects_inexact_configs(self, operands):
        """(1,1) slicing sums ~2**32 prefactor units: 20 ADC bits fit
        under 2**53, 22 do not."""
        _, w = operands
        cfg = SCFG.replace(stream_bits=1, slice_bits=1)
        make_engine("exact", XCFG, cfg.replace(adc_bits=20)).prepare(w)
        with pytest.raises(ConfigError, match=r"2\*\*53"):
            make_engine("exact", XCFG, cfg.replace(adc_bits=22)).prepare(w)


class TestStackedReadout:
    """Each column block of the stacked read-out is its tile's currents."""

    @pytest.mark.parametrize("kind,row_by_row", [
        ("exact", False), ("exact", True), ("analytical", False),
        ("analytical", True), ("geniex", False), ("geniex", True),
        ("circuit", False),
    ])
    def test_blocks_equal_tile_currents(self, tiny_emulator, kind,
                                        row_by_row):
        """Whole batches, or each row read out alone, equal the tile's
        currents of the whole batch. ``circuit`` takes the per-model
        ``currents()`` branch, on a tiny layer to stay fast; its solves
        are not batch-invariant, so it has no row-by-row case."""
        rng = np.random.default_rng(29)
        tiny = kind == "circuit"
        engine = _engine(kind, tiny_emulator,
                         xcfg=CrossbarConfig(rows=4, cols=4) if tiny
                         else XCFG)
        prepared = engine.prepare(
            rng.normal(size=(8, 5) if tiny else (20, 13)) * 0.3)
        plan = prepared.plan
        cols = plan.cols
        for n in (1, 3) if tiny else (1, 2, 7, 33, 256):
            levels = rng.integers(0, 2 ** SCFG.stream_bits,
                                  size=(n, plan.rows))
            voltages = levels * plan.v_lsb
            for tr in range(plan.t_r):
                if row_by_row:
                    # readout() returns a scratch view: copy each row.
                    stacked = np.concatenate([
                        prepared.readout(tr, voltages[None, i:i + 1])[0]
                        .copy() for i in range(n)])
                else:
                    stacked = prepared.readout(tr, voltages[None])[0]
                for mi, model in enumerate(prepared.row_models[tr]):
                    block = stacked[:, mi * cols:(mi + 1) * cols]
                    # Single rows too: both products pad them to two
                    # rows, so neither runs as a width-dependent gemv.
                    np.testing.assert_array_equal(
                        block, model.currents(voltages),
                        err_msg=f"rows={n} tile-row={tr} model={mi}")


class TestChunkCap:
    """The plan caps a layer's chunk rows instead of a runtime guard."""

    def test_cap_splits_shards_without_changing_results(self, operands,
                                                        monkeypatch):
        x, w = operands
        reference = _engine("exact")
        expected = reference.matmul(x, reference.prepare(w))
        # Room for exactly 4 rows of the worst-case measurement.
        n_models = 2 * SCFG.n_slices * 2  # signs x slices x tile columns
        monkeypatch.setattr(planner, "MAX_SHARD_BYTES",
                            4 * 2 * SCFG.n_streams * n_models * XCFG.cols * 8)
        capped = _engine("exact")
        prepared = capped.prepare(w)
        assert prepared.plan.chunk_rows == 4
        np.testing.assert_array_equal(capped.matmul(x, prepared), expected)
        # 23 rows in 4-row chunks: six chunks per tile-row.
        assert capped.stats.readouts > reference.stats.readouts


class TestScratchPool:
    """The kernel's per-thread scratch buffers: bounded and inert."""

    def test_one_buffer_per_name_and_no_stale_values(self, rng,
                                                     tiny_emulator):
        """Two layers share one pool whose buffers only grow; after large
        batches, small ones still equal a fresh engine's output bit for
        bit."""
        w1 = rng.normal(size=(20, 13)) * 0.3
        w2 = rng.normal(size=(13, 6)) * 0.3

        def engine_and_layers():
            engine = make_engine("geniex", XCFG, SCFG, emulator=tiny_emulator)
            return engine, engine.prepare(w1), engine.prepare(w2)

        engine, p1, p2 = engine_and_layers()
        outs = {}
        for n in (40, 23, 7, 2):  # large before small
            x = rng.normal(size=(n, 20)) * 0.4
            outs[n] = x, engine.matmul(engine.matmul(x, p1), p2)
        pool = engine._scratch.buffers()
        names = [key[0] for key in pool]  # key: (name, dtype)
        assert sorted(names) == ["fr", "hidden", "hidden2", "i_flat",
                                 "voltages"]
        assert all(buf.ndim == 1 for buf in pool.values())
        fresh, f1, f2 = engine_and_layers()
        for n in (7, 2):
            x, out = outs[n]
            np.testing.assert_array_equal(
                out, fresh.matmul(fresh.matmul(x, f1), f2))
