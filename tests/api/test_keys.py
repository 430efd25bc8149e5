"""One digest scheme: zoo / registry keys delegate to spec keys,
every digest is stable across a spawn-pickled process boundary, and the
preset digests are pinned so stored artifacts keep their keys."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.api import EmulationSpec, get_preset
from repro.api.spec import engine_identity, weights_identity
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.funcsim.engine import ENGINE_KINDS
from repro.serve.registry import ModelRegistry


class TestDelegation:
    def test_zoo_artifact_key_is_spec_model_key(self):
        spec = get_preset("quick")
        assert GeniexZoo.artifact_key(
            spec.xbar.to_config(), spec.emulator.sampling,
            spec.emulator.training, spec.emulator.mode) == \
            spec.model_key()

    def test_registry_model_key_is_spec_model_key(self):
        spec = get_preset("quick")
        assert ModelRegistry.model_key(spec) == spec.model_key()

    def test_registry_model_key_is_the_mitigation_free_artifact_key(self):
        """The models tier shares one trained emulator between a
        mitigated spec and its raw twin, so it keys on the zoo artifact
        key, not on ``spec.model_key()`` (which folds the node)."""
        mitigated = get_preset("quick-mitigated")
        raw = mitigated.evolve(mitigation={"noise": {"epochs": 0},
                                           "calibration": {"samples": 0}})
        assert raw.mitigation.is_identity
        assert mitigated.model_key() != raw.model_key()
        assert ModelRegistry.model_key(mitigated) == raw.model_key()

    def test_crossbar_key_is_content_keyed(self):
        g = np.random.default_rng(1).uniform(1e-6, 1e-5, size=(4, 4))
        key = ModelRegistry.crossbar_key("mk", g)
        assert key.startswith("xb-")
        assert key == ModelRegistry.crossbar_key("mk", g.copy())
        assert key != ModelRegistry.crossbar_key("mk", g * 1.000001)
        assert key != ModelRegistry.crossbar_key("other", g)

    def test_identity_helpers_compose(self):
        spec = get_preset("quick")
        assert spec.key() == engine_identity(
            spec.model_key(), "geniex", spec.sim)
        weights = np.eye(3)
        assert spec.weights_key(weights) == weights_identity(spec.key(),
                                                             weights)


_CHILD = """
import pickle, sys
import numpy as np
with open(sys.argv[1], "rb") as handle:
    spec = pickle.load(handle)
weights = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
print(spec.key())
print(spec.model_key())
print(spec.weights_key(weights))
"""


class TestCrossProcessStability:
    def test_digests_survive_spawn_pickled_round_trip(self, tmp_path):
        """A spec pickled into a *fresh interpreter* (spawn semantics:
        no inherited state, clean module imports) reproduces every
        digest bit-for-bit — the property that lets independent serving
        replicas and worker processes share cache keys."""
        spec = get_preset("quick").evolve(
            engine="exact", **{"sim.adc_bits": 12})
        blob = tmp_path / "spec.pkl"
        with open(blob, "wb") as handle:
            pickle.dump(spec, handle)
        weights = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        expected = [spec.key(), spec.model_key(),
                    spec.weights_key(weights)]

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", _CHILD, str(blob)],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == expected

    def test_pickle_round_trip_in_process(self):
        spec = get_preset("quick")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.key() == spec.key()


#: ``(model_key(), key())`` of every preset, pinned: zoo artifacts and
#: warm-engine caches are addressed by these, so a schema change that
#: moves them would silently orphan every stored artifact. The ``key()``
#: halves moved once, when batch invariance stopped being a runtime
#: flag: each is now the key the serving registry always used for the
#: preset (see ``SERVING_KEYS``).
PINNED_PRESET_KEYS = {
    "paper-32x32": ("4d60db3b3143a7b62a81", "spec-7786c20f8460e8bd1794"),
    "paper-64x64": ("40a220dba696caf60cd4", "spec-413c19633dea6452460c"),
    "paper-64x64-variation": ("4080c655a574845ec504",
                              "spec-74b78f1a849d4f7e3696"),
    "quick": ("e1047717f0ae4979c9f7", "spec-01056ef08a6381fd244b"),
    "quick-analytical": ("e1047717f0ae4979c9f7",
                         "spec-6cc47f3108245f858059"),
    "quick-exact": ("e1047717f0ae4979c9f7", "spec-a724f9fc231c27c16bf2"),
    "quick-mitigated": ("51f0df6f1a496d1705a8",
                        "spec-dc3dc3475cd2f3de1962"),
}


#: ``serving_spec(spec).key()`` and ``.weights_key(SERVING_WEIGHTS)`` of
#: every preset under every engine kind it admits, recorded while batch
#: invariance was still a runtime flag that the registry switched on: the
#: keys of warm engines, compiled nets, mitigated artifacts and stored
#: net programs never move.
SERVING_KEYS = {
    "paper-32x32": {
        "analytical": ("spec-22e4f27cfb21084299d8",
                       "eng-24361100a3df777f3709"),
        "circuit": ("spec-a5ada68b9f609769c159",
                    "eng-6ad715df18598b4723ca"),
        "exact": ("spec-a7ad24bd25e3d6a1dac8",
                  "eng-f90b3252070efd54008e"),
        "geniex": ("spec-7786c20f8460e8bd1794",
                   "eng-496a8dacf18e9fdbcdb8"),
        "ideal": ("spec-9c5a8889a96429f4beb5",
                  "eng-d0d2147f5b684410a3ec"),
    },
    "paper-64x64": {
        "analytical": ("spec-3442e8eb877f3bb39148",
                       "eng-c17cafc2403500d5bdb1"),
        "circuit": ("spec-730335376497ea37f36d",
                    "eng-0a43a80f22ea0715260f"),
        "exact": ("spec-e739fce6ffb346d27f42",
                  "eng-515daf4af5691a558f77"),
        "geniex": ("spec-413c19633dea6452460c",
                   "eng-2bcbcfac22094a609b8a"),
        "ideal": ("spec-19140da74a218e6044d5",
                  "eng-7cea4ba12d33e9a092f3"),
    },
    "paper-64x64-variation": {
        "analytical": ("spec-5260f271777be78ff30d",
                       "eng-0872e195ebe48366e1b7"),
        "circuit": ("spec-e470b98c66225fb2c7df",
                    "eng-a30a896b16f8d7583404"),
        "exact": ("spec-ed329bf6692326cae4ce",
                  "eng-7c771549cd50d8253c45"),
        "geniex": ("spec-74b78f1a849d4f7e3696",
                   "eng-b81b9251fd8c9fd87d9f"),
    },
    "quick": {
        "analytical": ("spec-6cc47f3108245f858059",
                       "eng-98bbddafef827ac7905b"),
        "circuit": ("spec-f707b8a6afafedde06c6",
                    "eng-f20637ea84604f288f20"),
        "exact": ("spec-a724f9fc231c27c16bf2",
                  "eng-09f2602cd79888cf1d80"),
        "geniex": ("spec-01056ef08a6381fd244b",
                   "eng-b5832d73451a7b1bd0bb"),
        "ideal": ("spec-01557187969e7a797cb3",
                  "eng-21a1ca8ea562866008ca"),
    },
    "quick-analytical": {
        "analytical": ("spec-6cc47f3108245f858059",
                       "eng-98bbddafef827ac7905b"),
        "circuit": ("spec-f707b8a6afafedde06c6",
                    "eng-f20637ea84604f288f20"),
        "exact": ("spec-a724f9fc231c27c16bf2",
                  "eng-09f2602cd79888cf1d80"),
        "geniex": ("spec-01056ef08a6381fd244b",
                   "eng-b5832d73451a7b1bd0bb"),
        "ideal": ("spec-01557187969e7a797cb3",
                  "eng-21a1ca8ea562866008ca"),
    },
    "quick-exact": {
        "analytical": ("spec-6cc47f3108245f858059",
                       "eng-98bbddafef827ac7905b"),
        "circuit": ("spec-f707b8a6afafedde06c6",
                    "eng-f20637ea84604f288f20"),
        "exact": ("spec-a724f9fc231c27c16bf2",
                  "eng-09f2602cd79888cf1d80"),
        "geniex": ("spec-01056ef08a6381fd244b",
                   "eng-b5832d73451a7b1bd0bb"),
        "ideal": ("spec-01557187969e7a797cb3",
                  "eng-21a1ca8ea562866008ca"),
    },
    "quick-mitigated": {
        "analytical": ("spec-dc3dc3475cd2f3de1962",
                       "eng-814fabfb7e19983a910d"),
        "circuit": ("spec-3d953bfe2e2f2557a238",
                    "eng-54eaade443fc6131b630"),
        "exact": ("spec-8fc4d09497a208ab035e",
                  "eng-c137bb1c7b2d8052e343"),
        "geniex": ("spec-4acbc229ab5d9f0f9260",
                   "eng-725fd8715a1903d86631"),
    },
}

SERVING_WEIGHTS = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0


class TestStoredSpecs:
    @pytest.mark.parametrize("name", sorted(PINNED_PRESET_KEYS))
    def test_preset_keys_pinned(self, name):
        spec = get_preset(name)
        assert (spec.model_key(), spec.key()) == PINNED_PRESET_KEYS[name]

    @pytest.mark.parametrize("name", sorted(SERVING_KEYS))
    def test_serving_keys_pinned(self, name):
        registry = ModelRegistry(GeniexZoo(cache_dir="/nonexistent-unused"))
        preset = get_preset(name)
        for kind, expected in SERVING_KEYS[name].items():
            spec = registry.serving_spec(preset.evolve(engine=kind))
            assert (spec.key(), spec.weights_key(SERVING_WEIGHTS)) == \
                expected, kind
        # Every kind the preset admits is pinned (ideal rejects faults).
        assert set(SERVING_KEYS[name]) == set(ENGINE_KINDS) - (
            set() if preset.nonideality.is_identity else {"ideal"})

    @pytest.mark.parametrize("name", sorted(PINNED_PRESET_KEYS))
    def test_runtime_node_never_moves_key(self, name):
        spec = get_preset(name)
        for runtime in ({"workers": 4}, {"chunk_rows": 16},
                        {"workers": 2, "chunk_rows": 1}):
            assert spec.evolve(runtime=runtime).key() == spec.key(), runtime

    def test_preset_list_is_pinned(self):
        from repro.api.presets import preset_names
        assert preset_names() == sorted(PINNED_PRESET_KEYS)

    def test_removed_runtime_fields_rejected(self):
        """A spec stored when executors, array backends, the
        batch-invariance flag and the fleet routing node existed fails to
        load with the typed unknown-field error naming the field."""
        for field, value in (("executor", "process"), ("backend", "numba"),
                             ("backend", "interp"),
                             ("batch_invariant", True),
                             ("batch_invariant", False),
                             ("fleet", {"replication": 2})):
            stored = {"engine": "exact",
                      "runtime": {"workers": 4, field: value}}
            with pytest.raises(
                    ConfigError,
                    match=rf"unknown spec field spec\.runtime\.'{field}'"):
                EmulationSpec.from_dict(stored)

    def test_removed_tile_cache_size_rejected(self):
        """A spec stored when the tile-result cache existed fails to load
        with the typed unknown-field error naming the field."""
        with pytest.raises(ConfigError, match="tile_cache_size"):
            EmulationSpec.from_dict({"runtime": {"tile_cache_size": 64}})
