import numpy as np
import pytest

from repro.errors import ConfigError, ShapeError
from repro.funcsim.compiler import DEFAULT_SHARD_ROWS
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import IdealMvmEngine, make_engine
from repro.nonideal import NonidealitySpec, StuckSpec, VariationSpec
from repro.xbar.config import CrossbarConfig


XCFG = CrossbarConfig(rows=8, cols=8)
SCFG = FuncSimConfig()


@pytest.fixture
def operands(rng):
    x = rng.normal(size=(9, 20)) * 0.4
    w = rng.normal(size=(20, 13)) * 0.3
    return x, w


class TestFuncSimConfig:
    def test_paper_defaults(self):
        cfg = FuncSimConfig()
        assert cfg.weight_bits == 16 and cfg.weight_frac_bits == 13
        assert cfg.adc_bits == 14
        assert cfg.accumulator_bits == 32
        assert cfg.n_streams == 4 and cfg.n_slices == 4

    def test_stream_slice_counts(self):
        cfg = FuncSimConfig(stream_bits=1, slice_bits=2)
        assert cfg.n_streams == 15  # 15 magnitude bits, 1 at a time
        assert cfg.n_slices == 8

    def test_with_precision(self):
        cfg = FuncSimConfig().with_precision(8)
        assert cfg.weight_bits == 8 and cfg.weight_frac_bits == 5
        assert cfg.activation_bits == 8
        with pytest.raises(ConfigError):
            FuncSimConfig().with_precision(2)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FuncSimConfig(stream_bits=0)
        with pytest.raises(ConfigError):
            FuncSimConfig(adc_headroom=0)


class TestIdealEngine:
    def test_close_to_float_matmul(self, operands):
        x, w = operands
        engine = IdealMvmEngine(SCFG)
        out = engine.matmul(x, engine.prepare(w))
        # 16-bit quantisation: error per output ~ K * lsb levels.
        np.testing.assert_allclose(out, x @ w, atol=1e-2)

    def test_prepare_validates_shape(self):
        engine = IdealMvmEngine(SCFG)
        with pytest.raises(ShapeError):
            engine.prepare(np.zeros(4))

    def test_coarse_precision_coarser_result(self, operands):
        x, w = operands
        fine = IdealMvmEngine(SCFG)
        coarse = IdealMvmEngine(SCFG.with_precision(6))
        err_fine = np.abs(fine.matmul(x, fine.prepare(w)) - x @ w).mean()
        err_coarse = np.abs(coarse.matmul(x, coarse.prepare(w))
                            - x @ w).mean()
        assert err_fine < err_coarse


class TestExactAnalogEngine:
    """The decode-path oracle: exact analog tiles must reproduce Ideal FxP."""

    def test_matches_ideal_engine(self, operands):
        x, w = operands
        ideal = IdealMvmEngine(SCFG)
        exact = make_engine("exact", XCFG, SCFG)
        ref = ideal.matmul(x, ideal.prepare(w))
        out = exact.matmul(x, exact.prepare(w))
        np.testing.assert_allclose(out, ref, atol=1e-6)

    @pytest.mark.parametrize("stream_bits,slice_bits",
                             [(1, 1), (2, 4), (4, 2), (8, 8)])
    def test_matches_for_all_slicings(self, operands, stream_bits,
                                      slice_bits):
        x, w = operands
        cfg = SCFG.replace(stream_bits=stream_bits, slice_bits=slice_bits,
                           adc_bits=20)
        ideal = IdealMvmEngine(cfg)
        exact = make_engine("exact", XCFG, cfg)
        np.testing.assert_allclose(exact.matmul(x, exact.prepare(w)),
                                   ideal.matmul(x, ideal.prepare(w)),
                                   atol=1e-6)

    def test_negative_inputs_handled(self, rng):
        x = -np.abs(rng.normal(size=(4, 10)))
        w = rng.normal(size=(10, 6)) * 0.3
        cfg = SCFG
        ideal = IdealMvmEngine(cfg)
        exact = make_engine("exact", XCFG, cfg)
        np.testing.assert_allclose(exact.matmul(x, exact.prepare(w)),
                                   ideal.matmul(x, ideal.prepare(w)),
                                   atol=1e-6)

    def test_single_vector_matmul(self, rng):
        x = rng.normal(size=(1, 5))
        w = rng.normal(size=(5, 3)) * 0.5
        exact = make_engine("exact", XCFG, SCFG)
        assert exact.matmul(x, exact.prepare(w)).shape == (1, 3)

    def test_input_width_validated(self, operands):
        x, w = operands
        exact = make_engine("exact", XCFG, SCFG)
        prepared = exact.prepare(w)
        with pytest.raises(ShapeError):
            exact.matmul(np.zeros((2, 7)), prepared)


class TestNonIdealEngines:
    def test_analytical_engine_degrades_output(self, operands):
        x, w = operands
        ideal = IdealMvmEngine(SCFG)
        ana = make_engine("analytical", XCFG, SCFG)
        ref = ideal.matmul(x, ideal.prepare(w))
        out = ana.matmul(x, ana.prepare(w))
        err = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert 0.001 < err < 0.5

    @pytest.mark.slow
    def test_circuit_engine_small_case(self, rng):
        x = rng.normal(size=(2, 6)) * 0.3
        w = rng.normal(size=(6, 4)) * 0.3
        cfg = SCFG.with_precision(6)
        circ = make_engine("circuit", XCFG, cfg)
        ideal = IdealMvmEngine(cfg)
        out = circ.matmul(x, circ.prepare(w))
        ref = ideal.matmul(x, ideal.prepare(w))
        assert np.abs(out - ref).mean() / np.abs(ref).mean() < 0.5

    def test_geniex_engine_requires_emulator(self):
        with pytest.raises(ConfigError):
            make_engine("geniex", XCFG, SCFG)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_engine("hspice", XCFG, SCFG)

    def test_factory_shape_check(self):
        from repro.funcsim.engine import AnalyticalTileFactory, \
            CrossbarMvmEngine
        factory = AnalyticalTileFactory(CrossbarConfig(rows=4, cols=4))
        with pytest.raises(ConfigError):
            CrossbarMvmEngine(XCFG, SCFG, factory)


class TestActivationShapes:
    """Every engine checks activations with one typed check."""

    @pytest.mark.parametrize("kind", ["ideal", "exact", "analytical"])
    @pytest.mark.parametrize("shape", [(3, 21), (3, 20, 1)])
    def test_bad_shape_raises_shape_error(self, operands, kind, shape):
        _, w = operands
        engine = make_engine(kind, XCFG, SCFG)
        prepared = engine.prepare(w)
        with pytest.raises(ShapeError, match=r"\(B, 20\)"):
            engine.matmul(np.zeros(shape), prepared)


class TestEngineProperties:
    """Physics the engines must follow, checked on whole matmuls."""

    def test_analytical_equals_exact_at_zero_parasitics(self):
        """With no source, sink or wire resistance the parasitic network
        passes ``G @ V`` through: the analytical engine returns the exact
        engine's output bit for bit."""
        xcfg = XCFG.replace(r_source_ohm=1e-6, r_sink_ohm=1e-6,
                            r_wire_ohm=0.0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 20)) * 0.4
        w = rng.normal(size=(20, 12)) * 0.3
        outs = {}
        for kind in ("analytical", "exact"):
            engine = make_engine(kind, xcfg, SCFG)
            outs[kind] = engine.matmul(x, engine.prepare(w))
        np.testing.assert_array_equal(outs["analytical"], outs["exact"])

    #: Nonideality seeds the expected error is averaged over.
    FAULT_SEEDS = range(6)

    def _mean_fault_error(self, operands, **faults):
        x, w = operands
        clean = make_engine("exact", XCFG, SCFG)
        reference = clean.matmul(x, clean.prepare(w))
        errors = []
        for seed in self.FAULT_SEEDS:
            engine = make_engine("exact", XCFG, SCFG,
                                 nonideality=NonidealitySpec(seed=seed,
                                                             **faults))
            errors.append(np.abs(engine.matmul(x, engine.prepare(w))
                                 - reference).mean())
        return float(np.mean(errors))

    def test_variation_raises_error_in_expectation(self, operands):
        errors = [self._mean_fault_error(
            operands, variation=VariationSpec(sigma=sigma))
            for sigma in (0.0, 0.05, 0.2)]
        assert errors[0] == 0.0
        assert errors[0] < errors[1] < errors[2], errors

    def test_stuck_rate_raises_error_in_expectation(self, operands):
        """``rate`` is the share of stuck cells, half stuck on and half
        stuck off."""
        errors = [self._mean_fault_error(
            operands, stuck=StuckSpec(p_on=rate / 2, p_off=rate / 2))
            for rate in (0.0, 0.01, 0.05)]
        assert errors[0] == 0.0
        assert errors[0] < errors[1] < errors[2], errors


class TestEngineKindsDocumented:
    """`make_engine`'s docstring, error message and ENGINE_KINDS agree,
    and every documented kind actually constructs."""

    def _tiny_emulator(self):
        from repro.core.emulator import GeniexEmulator
        from repro.core.model import GeniexNet, Normalizer
        normalizer = Normalizer.from_config(XCFG, fr_min=0.9, fr_max=1.2)
        return GeniexEmulator(GeniexNet(XCFG.rows, XCFG.cols, hidden=4,
                                        normalizer=normalizer))

    def test_docstring_lists_exactly_engine_kinds(self):
        import re

        from repro.funcsim.engine import ENGINE_KINDS
        first_line = make_engine.__doc__.strip().splitlines()
        header = " ".join(line.strip() for line in first_line[:2])
        documented = re.findall(r"``([^`]+)``", header)[0]
        kinds = tuple(k.strip() for k in documented.split("|"))
        assert kinds == ENGINE_KINDS

    def test_every_documented_kind_constructs(self):
        from repro.funcsim.engine import ENGINE_KINDS
        for kind in ENGINE_KINDS:
            emulator = self._tiny_emulator() if kind == "geniex" else None
            engine = make_engine(kind, XCFG, SCFG, emulator=emulator)
            assert hasattr(engine, "matmul") and hasattr(engine, "prepare")
            engine.close()

    def test_undocumented_kind_raises_config_error(self):
        from repro.funcsim.engine import ENGINE_KINDS
        for bogus in ("spice", "", "GENIEX", "exact ", "decoupled"):
            assert bogus not in ENGINE_KINDS
            with pytest.raises(ConfigError, match="unknown engine kind") \
                    as excinfo:
                make_engine(bogus, XCFG, SCFG)
            assert str(excinfo.value).endswith(", ".join(ENGINE_KINDS))


class TestInvariantKindsSingleSource:
    """Batch invariance is how the INVARIANT_KINDS compute, not a mode:
    a default spec's engine keeps every row independent of its batch,
    and the serving policy helper builds on the same tuple."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("shard_rows", [DEFAULT_SHARD_ROWS, 7])
    def test_default_spec_rows_independent_of_batch(self, workers,
                                                    shard_rows):
        """Each row of a 40-row batch equals the row alone and inside
        2-row batches byte for byte, at any worker count and chunk
        size."""
        from repro.api import EmulationSpec, build_engine
        from repro.core.emulator import GeniexEmulator
        from repro.core.model import GeniexNet, Normalizer
        from repro.funcsim.engine import INVARIANT_KINDS

        normalizer = Normalizer.from_config(XCFG, fr_min=0.9, fr_max=1.2)
        emulator = GeniexEmulator(GeniexNet(XCFG.rows, XCFG.cols,
                                            hidden=40, seed=2,
                                            normalizer=normalizer))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 20)) * 0.4
        # Rows that drive one (sign, stream) block only: alone, they read
        # out a single voltage row, the shape BLAS may run as a gemv.
        x[::5] = SCFG.activation_format.resolution * rng.integers(
            1, 2 ** SCFG.stream_bits, size=(8, 20))
        w = rng.normal(size=(20, 13)) * 0.3
        for kind in INVARIANT_KINDS:
            spec = EmulationSpec(engine=kind).evolve(
                xbar={"rows": XCFG.rows, "cols": XCFG.cols},
                runtime={"workers": workers})
            engine = build_engine(
                spec, emulator=emulator if kind == "geniex" else None)
            engine.shard_rows = shard_rows
            engine.inline_work_threshold = 0  # pool shards when workers > 1
            prepared = engine.prepare(w)
            out = engine.matmul(x, prepared)
            for i in range(len(x)):
                assert out[i].tobytes() == \
                    engine.matmul(x[i], prepared)[0].tobytes(), (kind, i)
            for i in range(0, len(x), 2):
                assert out[i:i + 2].tobytes() == \
                    engine.matmul(x[i:i + 2], prepared).tobytes(), (kind, i)
            engine.close()

    def test_spec_helper_builds_on_the_same_tuple(self):
        from repro.api.spec import supports_batch_invariance
        from repro.funcsim.engine import INVARIANT_KINDS

        for kind in INVARIANT_KINDS:
            assert supports_batch_invariance(kind, SCFG)
