"""Compiled fused execution: bit-identity with the interpreted kernel.

The compiled path (:mod:`repro.funcsim.compiler`) is accepted only if it
is *bit-identical* to the interpreted reference kernel — per engine kind,
worker count, batch-invariant mode, tile-result cache state, ADC noise
and active device-fault pipelines. These tests pin that contract, the
interpreter fallbacks (unfusible kinds, memory guard) and the backend
selector's precedence and deprecated aliases.
"""

import numpy as np
import pytest

from repro.api.spec import RuntimeSpec
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.funcsim import FuncSimConfig, make_engine
from repro.funcsim.compiler import compile_program
from repro.funcsim.runtime.backends import resolve_backend
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


def _pair(kind, emulator=None, sim=SCFG, fused_kwargs=None, **kwargs):
    """(interpreted, fused) engines of one configuration."""
    interp = make_engine(kind, XCFG, sim, emulator=emulator,
                         backend="interp", **kwargs)
    fused = make_engine(kind, XCFG, sim, emulator=emulator,
                        **{**kwargs, **(fused_kwargs or {})})
    return interp, fused


class TestFusedBitIdentity:
    """Fused output == interpreted output, bit for bit."""

    @pytest.mark.parametrize("kind", ["exact", "analytical", "geniex"])
    @pytest.mark.parametrize("invariant", [False, True])
    def test_kinds(self, operands, tiny_emulator, kind, invariant):
        x, w = operands
        emulator = tiny_emulator if kind == "geniex" else None
        interp, fused = _pair(kind, emulator, batch_invariant=invariant)
        p_i, p_f = interp.prepare(w), fused.prepare(w)
        assert p_i.program.compiled is None
        assert p_f.program.compiled is not None
        np.testing.assert_array_equal(interp.matmul(x, p_i),
                                      fused.matmul(x, p_f))
        assert fused.stats.snapshot()["fused_calls"] > 0
        assert fused.stats.snapshot()["fallback_calls"] == 0

    @pytest.mark.parametrize("kind", ["exact", "geniex"])
    def test_tile_cache_and_counters(self, operands, tiny_emulator, kind):
        """Cache keys and hits match; all shared counters agree."""
        x, w = operands
        emulator = tiny_emulator if kind == "geniex" else None
        interp, fused = _pair(kind, emulator, tile_cache_size=4096)
        p_i, p_f = interp.prepare(w), fused.prepare(w)
        for chunk in (x, x, x[:7]):  # repeats exercise hits + subsets
            np.testing.assert_array_equal(interp.matmul(chunk, p_i),
                                          fused.matmul(chunk, p_f))
        si, sf = interp.stats.snapshot(), fused.stats.snapshot()
        assert si["cache_hits"] == sf["cache_hits"] > 0
        for field in ("matmuls", "readouts", "skipped_zero_streams",
                      "adc_conversions"):
            assert si[field] == sf[field], field

    def test_adc_noise_and_offset(self, operands):
        """Stacked fused measurement draws the interpreted noise stream."""
        x, w = operands
        sim = SCFG.replace(adc_noise_lsb=0.3, adc_offset_lsb=0.1)
        interp, fused = _pair("exact", sim=sim)
        np.testing.assert_array_equal(interp.matmul(x, interp.prepare(w)),
                                      fused.matmul(x, fused.prepare(w)))

    def test_nonideality_pipeline(self, operands):
        """Faulty preparations compile and stay bit-identical."""
        x, w = operands
        spec = NonidealitySpec(seed=7, stuck=StuckSpec(p_on=0.02, p_off=0.05),
                               variation=VariationSpec(sigma=0.05))
        interp, fused = _pair("exact", nonideality=spec)
        p_i, p_f = interp.prepare(w), fused.prepare(w)
        assert p_f.program.compiled is not None
        np.testing.assert_array_equal(interp.matmul(x, p_i),
                                      fused.matmul(x, p_f))

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("threads", 1), ("threads", 2), ("threads", 4),
        ("process", 1), ("process", 2), ("process", 4),
    ])
    def test_executors(self, operands, executor, workers):
        """Fused shards flow through the thread pool at several widths,
        for every executor a stored spec may still name (ignored now)."""
        x, w = operands
        with pytest.warns(DeprecationWarning, match="executor"):
            workers = RuntimeSpec(executor=executor, workers=workers).workers
        interp, fused = _pair("exact", batch_invariant=True, workers=workers)
        for engine in (interp, fused):
            engine.shard_rows = 5
            engine.inline_work_threshold = 0  # force pooling
        try:
            np.testing.assert_array_equal(interp.matmul(x, interp.prepare(w)),
                                          fused.matmul(x, fused.prepare(w)))
            assert fused.stats.snapshot()["fused_calls"] > 0
        finally:
            interp.close()
            fused.close()


class TestInterpreterFallback:
    """Unfusible programs fall back transparently (and are counted)."""

    def test_decoupled_kind_not_compiled(self, operands):
        x, w = operands
        engine = make_engine("decoupled", XCFG, SCFG)
        prepared = engine.prepare(w)
        assert prepared.program.compile_requested
        assert prepared.program.compiled is None
        reference = make_engine("decoupled", XCFG, SCFG, backend="interp")
        np.testing.assert_array_equal(
            engine.matmul(x, prepared),
            reference.matmul(x, reference.prepare(w)))
        snap = engine.stats.snapshot()
        assert snap["fused_calls"] == 0
        assert snap["fallback_calls"] > 0
        assert reference.stats.snapshot()["fallback_calls"] == 0

    def test_memory_guard(self, operands, monkeypatch):
        """Shards over the fused byte budget run interpreted, identically."""
        x, w = operands
        monkeypatch.setenv("REPRO_MAX_FUSED_BYTES", "1")
        interp, fused = _pair("exact")
        p_f = fused.prepare(w)
        assert p_f.program.compiled is not None
        np.testing.assert_array_equal(interp.matmul(x, interp.prepare(w)),
                                      fused.matmul(x, p_f))
        snap = fused.stats.snapshot()
        assert snap["fused_calls"] == 0
        assert snap["fallback_calls"] > 0

    def test_interp_selector_skips_compilation(self, operands):
        _, w = operands
        for selector in ("interp", "interpreted", "off"):
            engine = make_engine("exact", XCFG, SCFG, backend=selector)
            prepared = engine.prepare(w)
            assert not prepared.program.compile_requested
            assert prepared.program.compiled is None


class TestBackendRegistry:
    """Selection precedence and the removed backends' aliases."""

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None).name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "interp")
        assert resolve_backend(None) is None
        assert resolve_backend("numpy").name == "numpy"  # explicit wins

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="runtime.backend"):
            resolve_backend("cuda")

    def test_unknown_env_backend_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        with pytest.raises(ConfigError, match=r"\$REPRO_BACKEND"):
            resolve_backend(None)

    @pytest.mark.parametrize("kind", ["numba", "torch"])
    def test_removed_backend_means_numpy(self, monkeypatch, kind):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with pytest.warns(DeprecationWarning, match=f"{kind}.*numpy"):
            assert resolve_backend(kind).name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", kind)
        with pytest.warns(DeprecationWarning):
            assert resolve_backend(None).name == "numpy"


class TestCompiledLayer:
    """Structural properties of the compiled form."""

    def test_compile_program_rejects_unfusible(self, operands):
        _, w = operands
        engine = make_engine("circuit", XCFG, SCFG, backend="interp")
        program = engine.prepare(w).program
        assert compile_program(program, resolve_backend("numpy")) is None
