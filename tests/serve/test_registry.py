"""Warm-model registry tests: dedup, keying, LRU behaviour."""

import asyncio
import os

import numpy as np
import pytest

from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.errors import ShapeError
from repro.funcsim.config import FuncSimConfig
from repro.serve.protocol import ModelSpec
from repro.serve.registry import ModelRegistry
from repro.xbar.config import CrossbarConfig

SPEC = ModelSpec(config=CrossbarConfig(rows=4, cols=4),
                 sampling=SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=0),
                 training=TrainSpec(hidden=8, epochs=2, batch_size=8,
                                    seed=0))
SIM = FuncSimConfig().with_precision(8)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(GeniexZoo(cache_dir=str(tmp_path / "zoo")))


def random_g(seed=0, shape=(4, 4)):
    cfg = SPEC.config
    return np.random.default_rng(seed).uniform(cfg.g_off_s, cfg.g_on_s,
                                               size=shape)


class TestEmulatorTier:
    def test_concurrent_requests_share_one_training_run(self, registry):
        async def scenario():
            return await asyncio.gather(
                *[registry.emulator(SPEC) for _ in range(4)])

        results = run(scenario())
        keys = {key for key, _ in results}
        emulators = [emulator for _, emulator in results]
        assert len(keys) == 1
        assert all(e is emulators[0] for e in emulators)
        assert len([f for f in os.listdir(registry.zoo.cache_dir)
                    if f.endswith(".npz")]) == 1
        stats = registry.stats()["models"]
        assert stats["misses"] >= 1 and stats["size"] == 1

    def test_warm_hit_after_training(self, registry):
        async def scenario():
            await registry.emulator(SPEC)
            before = registry.stats()["models"]["hits"]
            await registry.emulator(SPEC)
            return registry.stats()["models"]["hits"] - before

        assert run(scenario()) == 1

    def test_list_models(self, registry):
        async def scenario():
            key, _ = await registry.emulator(SPEC)
            return key, registry.list_models()

        key, models = run(scenario())
        assert models == [{"model_key": key, "rows": 4, "cols": 4}]


class TestCrossbarTier:
    def test_same_matrix_same_key_and_object(self, registry):
        async def scenario():
            key_a, warm_a = await registry.matrix_emulator(SPEC, random_g(1))
            key_b, warm_b = await registry.matrix_emulator(SPEC, random_g(1))
            key_c, warm_c = await registry.matrix_emulator(SPEC, random_g(2))
            return (key_a, warm_a), (key_b, warm_b), (key_c, warm_c)

        (key_a, warm_a), (key_b, warm_b), (key_c, warm_c) = run(scenario())
        assert key_a == key_b and warm_a is warm_b
        assert key_c != key_a and warm_c is not warm_a
        assert registry.crossbar(key_a) is warm_a

    def test_matrix_emulators_are_batch_invariant(self, registry):
        async def scenario():
            return await registry.matrix_emulator(SPEC, random_g(1))

        _, warm = run(scenario())
        assert warm.batch_invariant

    def test_shape_mismatch_rejected_before_training(self, tmp_path):
        registry = ModelRegistry(GeniexZoo(cache_dir=str(tmp_path / "zoo")))

        async def scenario():
            with pytest.raises(ShapeError):
                await registry.matrix_emulator(SPEC, random_g(0, (3, 4)))

        run(scenario())
        # The bad request must not have paid for characterisation+training.
        assert not os.path.isdir(registry.zoo.cache_dir) or \
            os.listdir(registry.zoo.cache_dir) == []

    def test_lru_evicts_cold_crossbars(self, tmp_path):
        registry = ModelRegistry(GeniexZoo(cache_dir=str(tmp_path / "zoo")),
                                 max_crossbars=2)

        async def scenario():
            key_a, _ = await registry.matrix_emulator(SPEC, random_g(1))
            key_b, _ = await registry.matrix_emulator(SPEC, random_g(2))
            await registry.matrix_emulator(SPEC, random_g(1))  # refresh a
            key_c, _ = await registry.matrix_emulator(SPEC, random_g(3))
            return key_a, key_b, key_c

        key_a, key_b, key_c = run(scenario())
        assert registry.crossbar(key_b) is None  # b was the LRU entry
        assert registry.crossbar(key_a) is not None
        assert registry.crossbar(key_c) is not None


class TestEngineTier:
    def test_prepared_engine_cached_and_usable(self, registry):
        weights = np.random.default_rng(0).standard_normal((4, 4)) * 0.4

        async def scenario():
            warm_a = await registry.engine(SPEC, "exact", SIM, weights)
            warm_b = await registry.engine(SPEC, "exact", SIM, weights)
            return warm_a, warm_b

        warm_a, warm_b = run(scenario())
        assert warm_a is warm_b
        assert registry.prepared_engine(warm_a.key) is warm_a
        x = np.random.default_rng(1).standard_normal((3, 4))
        assert warm_a.matmul(x).shape == (3, 4)

    def test_key_depends_on_engine_kind_sim_and_weights(self, registry):
        weights = np.eye(4) * 0.3
        key = ModelRegistry.model_key(SPEC)
        base = ModelRegistry.engine_key(key, "exact", SIM, weights)
        assert ModelRegistry.engine_key(key, "analytical", SIM, weights) \
            != base
        assert ModelRegistry.engine_key(key, "exact", FuncSimConfig(),
                                        weights) != base
        assert ModelRegistry.engine_key(key, "exact", SIM, weights * 2) \
            != base

    def test_unknown_keys_return_none(self, registry):
        assert registry.crossbar("xb-missing") is None
        assert registry.prepared_engine("eng-missing") is None

    def test_served_engines_are_batch_invariant(self, registry):
        """Registry engines must give bitwise batch-independent rows."""
        weights = np.random.default_rng(0).standard_normal((4, 4)) * 0.4

        async def scenario():
            return await registry.engine(SPEC, "exact", SIM, weights)

        warm = run(scenario())
        assert warm.engine.tile_factory.batch_invariant
        x = np.random.default_rng(1).standard_normal((8, 4))
        full = warm.matmul(x)
        for i in range(8):
            np.testing.assert_array_equal(warm.matmul(x[i:i + 1]),
                                          full[i:i + 1])

    def test_offset_adc_sim_served_without_invariance(self, registry):
        """An ADC with offset cannot be batch-invariant (zero-stream
        skipping is per batch); such configs still serve, with BLAS math."""
        sim = SIM.replace(adc_offset_lsb=0.7)
        weights = np.eye(4) * 0.3

        async def scenario():
            return await registry.engine(SPEC, "exact", sim, weights)

        warm = run(scenario())
        assert not warm.engine.tile_factory.batch_invariant
        assert warm.matmul(np.ones((2, 4)) * 0.1).shape == (2, 4)

    def test_idle_per_key_locks_are_pruned(self, registry):
        async def scenario():
            await registry.emulator(SPEC)
            await registry.engine(SPEC, "exact", SIM, np.eye(4) * 0.3)
            return dict(registry._locks)

        assert run(scenario()) == {}

    def test_stats_shape(self, registry):
        stats = registry.stats()
        assert set(stats) == {"models", "crossbars", "engines",
                              "mitigated", "nets"}
        for entry in stats.values():
            assert set(entry) == {"size", "capacity", "hits", "misses",
                                  "hit_rate"}


class TestSpecKeyedEngines:
    def test_engine_and_engine_from_spec_share_warm_object(self, registry):
        weights = np.random.default_rng(3).standard_normal((4, 4)) * 0.4

        async def scenario():
            flat = await registry.engine(SPEC, "exact", SIM, weights)
            declarative = await registry.engine_from_spec(
                SPEC.to_spec(engine="exact", sim=SIM), weights)
            return flat, declarative

        flat, declarative = run(scenario())
        assert flat is declarative
        assert flat.key == registry.serving_spec(
            SPEC.to_spec(engine="exact", sim=SIM)).weights_key(weights)

    def test_client_runtime_node_cannot_steer_server_policy(self, registry):
        """A creative runtime node in a submitted spec is server-
        normalised: same key, same warm engine, no extra threads."""
        from repro.api.spec import RuntimeSpec
        weights = np.eye(4) * 0.3
        base = SPEC.to_spec(engine="exact", sim=SIM)
        pushy = base.evolve(runtime=RuntimeSpec(workers=8,
                                                tile_cache_size=10_000))

        async def scenario():
            a = await registry.engine_from_spec(base, weights)
            b = await registry.engine_from_spec(pushy, weights)
            return a, b

        a, b = run(scenario())
        assert a is b
        assert a.engine.workers == 1  # the registry's engine_workers
