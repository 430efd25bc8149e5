"""Warm-model registry tests: dedup, keying, LRU behaviour, and the
single-flight contract every tier shares."""

import asyncio
import os
import threading

import numpy as np
import pytest

from repro.api.spec import EmulationSpec, SimSpec, supports_batch_invariance
from repro.core.emulator import GeniexEmulator
from repro.core.zoo import GeniexZoo
from repro.errors import ShapeError
from repro.funcsim.config import FuncSimConfig
from repro.serve import registry as registry_module
from repro.serve.registry import ModelRegistry

SAMPLING = {"n_g_matrices": 3, "n_v_per_g": 4, "seed": 0}
TRAINING = {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": 0}
SPEC = EmulationSpec.from_dict({
    "xbar": {"rows": 4, "cols": 4},
    "emulator": {"sampling": SAMPLING, "training": TRAINING}})
SIM = FuncSimConfig().with_precision(8)


def engine_spec(kind="exact", sim=SIM) -> EmulationSpec:
    return SPEC.evolve(engine=kind, sim=SimSpec.from_config(sim))


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(GeniexZoo(cache_dir=str(tmp_path / "zoo")))


def random_g(seed=0, shape=(4, 4)):
    cfg = SPEC.xbar
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
        v = np.random.default_rng(2).uniform(0.0, 0.25, size=(7, 4))
        currents = warm.currents(v)
        for i in range(len(v)):
            assert currents[i].tobytes() == warm.currents(v[i])[0].tobytes()

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
            warm_a = await registry.engine_from_spec(engine_spec(), weights)
            warm_b = await registry.engine_from_spec(engine_spec(), weights)
            return warm_a, warm_b

        warm_a, warm_b = run(scenario())
        assert warm_a is warm_b
        assert registry.prepared_engine(warm_a.key) is warm_a
        x = np.random.default_rng(1).standard_normal((3, 4))
        assert warm_a.matmul(x).shape == (3, 4)

    def test_key_depends_on_engine_kind_sim_and_weights(self, registry):
        weights = np.eye(4) * 0.3

        def key(spec, w=weights):
            return registry.serving_spec(spec).weights_key(w)

        base = key(engine_spec())
        assert key(engine_spec("analytical")) != base
        assert key(engine_spec(sim=FuncSimConfig())) != base
        assert key(engine_spec(), weights * 2) != base

    def test_unknown_keys_return_none(self, registry):
        assert registry.crossbar("xb-missing") is None
        assert registry.prepared_engine("eng-missing") is None

    def test_served_engines_are_batch_invariant(self, registry):
        """Registry engines must give bitwise batch-independent rows."""
        weights = np.random.default_rng(0).standard_normal((4, 4)) * 0.4

        async def scenario():
            return await registry.engine_from_spec(engine_spec(), weights)

        warm = run(scenario())
        x = np.random.default_rng(1).standard_normal((8, 4))
        full = warm.matmul(x)
        for i in range(8):
            np.testing.assert_array_equal(warm.matmul(x[i:i + 1]),
                                          full[i:i + 1])

    def test_offset_adc_sim_served_without_invariance(self, registry):
        """An ADC with offset cannot be batch-invariant (zero-stream
        skipping is per batch); such configs still serve, keyed as not
        invariant."""
        sim = SIM.replace(adc_offset_lsb=0.7)
        weights = np.eye(4) * 0.3

        async def scenario():
            return await registry.engine_from_spec(engine_spec(sim=sim),
                                                   weights)

        warm = run(scenario())
        assert not supports_batch_invariance("exact", sim)
        assert warm.key == registry.serving_spec(
            engine_spec(sim=sim)).weights_key(weights)
        assert warm.matmul(np.ones((2, 4)) * 0.1).shape == (2, 4)

    def test_idle_per_key_locks_are_pruned(self, registry):
        """No build stays in flight once its requests are answered."""
        async def scenario():
            await registry.emulator(SPEC)
            await registry.engine_from_spec(engine_spec(), np.eye(4) * 0.3)
            return [dict(tier.inflight)
                    for tier in registry._tiers.values()]

        assert run(scenario()) == [{}] * 5

    def test_stats_shape(self, registry):
        stats = registry.stats()
        assert set(stats) == {"models", "crossbars", "engines",
                              "mitigated", "nets"}
        for entry in stats.values():
            assert set(entry) == {"size", "capacity", "hits", "misses",
                                  "hit_rate"}


class TestSpecKeyedEngines:
    def test_client_runtime_node_cannot_steer_server_policy(self, registry):
        """A creative runtime node in a submitted spec is server-
        normalised: same key, same warm engine, no extra threads."""
        from repro.api.spec import RuntimeSpec
        weights = np.eye(4) * 0.3
        base = engine_spec()
        pushy = base.evolve(runtime=RuntimeSpec(workers=8))

        async def scenario():
            a = await registry.engine_from_spec(base, weights)
            b = await registry.engine_from_spec(pushy, weights)
            return a, b

        a, b = run(scenario())
        assert a is b
        assert a.engine.workers == 1  # the registry's engine_workers


class _GatedBuilds:
    """Counts a tier's builds and holds each one until ``gate`` opens.

    The hold runs on the executor thread that does the build, so the
    event loop keeps scheduling the other requests meanwhile.
    """

    def __init__(self, real):
        self.real = real
        self.calls = 0
        self.gate = threading.Event()
        self.fail = False

    def __call__(self, *args, **kwargs):
        self.calls += 1
        assert self.gate.wait(timeout=30), "test gate never opened"
        if self.fail:
            raise RuntimeError("build failed")
        return self.real(*args, **kwargs)


@pytest.fixture(params=["engines", "crossbars"])
def tier(request, registry, monkeypatch):
    """``(name, request, builds)`` for one tier: ``request()`` is one
    client request for a fixed key, ``builds`` counts and gates the
    tier's build step."""
    if request.param == "engines":
        builds = _GatedBuilds(registry_module.build_engine)
        monkeypatch.setattr(registry_module, "build_engine", builds)
        weights = np.eye(4) * 0.3

        async def one():
            return await registry.engine_from_spec(engine_spec(), weights)
    else:
        # Warm the emulator first: the crossbar build is for_matrix.
        run(registry.emulator(SPEC))
        real = GeniexEmulator.for_matrix
        builds = _GatedBuilds(lambda emulator, g: real(emulator, g))
        monkeypatch.setattr(GeniexEmulator, "for_matrix",
                            lambda emulator, g: builds(emulator, g))
        g = random_g(1)

        async def one():
            return (await registry.matrix_emulator(SPEC, g))[1]
    return request.param, one, builds


async def _start(one, builds, n):
    """``n`` concurrent requests, returned once the first build holds."""
    tasks = [asyncio.ensure_future(one()) for _ in range(n)]
    while builds.calls == 0:
        await asyncio.sleep(0.005)
    await asyncio.sleep(0.02)   # let every request reach its await
    return tasks


class TestSingleFlight:
    def test_concurrent_misses_run_one_build(self, registry, tier):
        name, one, builds = tier

        async def scenario():
            tasks = await _start(one, builds, 6)
            builds.gate.set()
            return await asyncio.gather(*tasks)

        values = run(scenario())
        assert builds.calls == 1
        assert all(v is values[0] for v in values)
        assert registry.stats()[name]["size"] == 1
        assert registry._tiers[name].inflight == {}

    def test_failed_build_reaches_every_waiter_and_is_not_cached(
            self, registry, tier):
        name, one, builds = tier
        builds.fail = True

        async def scenario():
            tasks = await _start(one, builds, 4)
            builds.gate.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        errors = run(scenario())
        assert builds.calls == 1
        assert all(isinstance(e, RuntimeError) for e in errors)
        assert all(e is errors[0] for e in errors)
        assert registry.stats()[name]["size"] == 0
        assert registry._tiers[name].inflight == {}
        # The next request builds again, and this time succeeds.
        builds.fail = False
        assert run(one()) is not None
        assert builds.calls == 2
        assert registry.stats()[name]["size"] == 1

    def test_cancelled_first_waiter_does_not_cancel_the_build(
            self, registry, tier):
        name, one, builds = tier

        async def scenario():
            tasks = await _start(one, builds, 4)
            tasks[0].cancel()
            await asyncio.sleep(0.02)
            builds.gate.set()
            rest = await asyncio.gather(*tasks[1:])
            return tasks[0], rest, await one()

        first, rest, later = run(scenario())
        assert first.cancelled()
        assert builds.calls == 1
        assert all(v is rest[0] for v in rest)
        assert later is rest[0]     # cached by the build nobody cancelled
        assert registry._tiers[name].inflight == {}
