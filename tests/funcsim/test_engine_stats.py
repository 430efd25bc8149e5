import numpy as np
import pytest

from repro.funcsim.config import FuncSimConfig
from repro.funcsim.cost import matmul_cost
from repro.funcsim.engine import make_engine
from repro.xbar.config import CrossbarConfig

XBAR = CrossbarConfig(rows=8, cols=8)
SIM = FuncSimConfig().with_precision(8)


@pytest.fixture
def engine():
    return make_engine("exact", XBAR, SIM)


class TestEngineStats:
    def test_dynamic_matches_static_worst_case(self, engine, rng):
        """Batched tile evaluations + skipped zero-streams must equal the
        static cost model's per-MVM readout count (the engine evaluates a
        whole batch per readout; hardware would multiply by batch size)."""
        x = np.abs(rng.normal(size=(3, 12))) * 0.4  # unsigned activations
        w = rng.normal(size=(12, 6)) * 0.4          # mixed-sign weights
        prepared = engine.prepare(w)
        engine.stats.reset()
        engine.matmul(x, prepared)
        static = matmul_cost(12, 6, XBAR, SIM, signed_inputs=False,
                             signed_weights=True)
        dynamic = engine.stats.readouts + engine.stats.skipped_zero_streams
        assert dynamic == static.readouts
        assert engine.stats.matmuls == 1

    def test_sparse_inputs_skip_streams(self, engine):
        """An input using only low-order bits skips high-stream readouts."""
        x = np.full((2, 8), 1.0 / 32.0)  # tiny magnitude: one stream busy
        w = np.eye(8) * 0.4
        prepared = engine.prepare(w)
        engine.stats.reset()
        engine.matmul(x, prepared)
        assert engine.stats.skipped_zero_streams > 0
        assert engine.stats.readouts > 0

    def test_adc_conversions_count_vectors(self, engine, rng):
        x = np.abs(rng.normal(size=(5, 8))) * 0.4
        w = np.abs(rng.normal(size=(8, 8))) * 0.4
        prepared = engine.prepare(w)
        engine.stats.reset()
        engine.matmul(x, prepared)
        # Every readout digitises cols bit lines for each of the 5 vectors.
        assert engine.stats.adc_conversions == \
            engine.stats.readouts * 5 * XBAR.cols

    def test_stats_accumulate_and_reset(self, engine, rng):
        x = np.abs(rng.normal(size=(1, 8))) * 0.4
        prepared = engine.prepare(np.abs(rng.normal(size=(8, 4))) * 0.4)
        engine.matmul(x, prepared)
        first = engine.stats.readouts
        engine.matmul(x, prepared)
        assert engine.stats.readouts == 2 * first
        assert engine.stats.matmuls >= 2
        engine.stats.reset()
        assert engine.stats.readouts == 0

    def test_repr(self, engine):
        assert "EngineStats" in repr(engine.stats)

    def test_fields_are_single_source_of_truth(self, engine, rng):
        """FIELDS, the kernel's shard-local dicts and both snapshot
        spellings must agree key-for-key — a counter added in one place
        but not the others would silently drop events."""
        from repro.funcsim.engine import EngineStats
        from repro.funcsim.compiler import STAT_FIELDS, new_stat_counts

        assert EngineStats.FIELDS == STAT_FIELDS
        assert tuple(new_stat_counts()) == STAT_FIELDS
        x = np.abs(rng.normal(size=(2, 8))) * 0.4
        prepared = engine.prepare(np.abs(rng.normal(size=(8, 4))) * 0.4)
        engine.matmul(x, prepared)
        snap = engine.stats.snapshot()
        assert tuple(snap) == STAT_FIELDS
        assert snap["matmuls"] == 1 and snap["readouts"] > 0
