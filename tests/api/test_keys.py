"""One digest scheme: zoo / registry key shims delegate to spec keys,
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
from repro.funcsim.config import FuncSimConfig
from repro.serve.protocol import ModelSpec
from repro.serve.registry import ModelRegistry


def wire_spec():
    spec = get_preset("quick")
    return ModelSpec.from_spec(spec), spec


class TestDelegation:
    def test_zoo_artifact_key_is_spec_model_key(self):
        model, spec = wire_spec()
        assert GeniexZoo.artifact_key(model.config, model.sampling,
                                      model.training, model.mode) == \
            spec.model_key()

    def test_registry_model_key_is_spec_model_key(self):
        model, spec = wire_spec()
        assert ModelRegistry.model_key(model) == spec.model_key()

    def test_registry_engine_key_matches_spec_weights_key(self):
        """The deprecated shim and the spec path agree key-for-key."""
        model, spec = wire_spec()
        sim = FuncSimConfig().with_precision(8)
        weights = np.random.default_rng(0).standard_normal((4, 4))
        for kind in ("geniex", "exact", "analytical", "decoupled"):
            shim = ModelRegistry.engine_key(spec.model_key(), kind, sim,
                                            weights)
            via_spec = ModelRegistry(
                GeniexZoo(cache_dir="/nonexistent-unused")).serving_spec(
                model.to_spec(engine=kind, sim=sim)).weights_key(weights)
            assert shim == via_spec, kind

    def test_crossbar_key_is_content_keyed(self):
        g = np.random.default_rng(1).uniform(1e-6, 1e-5, size=(4, 4))
        key = ModelRegistry.crossbar_key("mk", g)
        assert key.startswith("xb-")
        assert key == ModelRegistry.crossbar_key("mk", g.copy())
        assert key != ModelRegistry.crossbar_key("mk", g * 1.000001)
        assert key != ModelRegistry.crossbar_key("other", g)

    def test_identity_helpers_compose(self):
        spec = get_preset("quick").evolve(
            runtime={"batch_invariant": True})
        assert spec.key() == engine_identity(
            spec.model_key(), "geniex", spec.sim, True)
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
#: moves them would silently orphan every stored artifact.
PINNED_PRESET_KEYS = {
    "paper-32x32": ("4d60db3b3143a7b62a81", "spec-4edc099139fd8bac23de"),
    "paper-64x64": ("40a220dba696caf60cd4", "spec-c2f8eed5db2ab97d373e"),
    "paper-64x64-variation": ("4080c655a574845ec504",
                              "spec-49f62441194782884291"),
    "quick": ("e1047717f0ae4979c9f7", "spec-3f14fb1730ddf906ccef"),
    "quick-analytical": ("e1047717f0ae4979c9f7",
                         "spec-60a7679d5de3bb9565e1"),
    "quick-exact": ("e1047717f0ae4979c9f7", "spec-c7afd3f3e3259f7b17b6"),
    "quick-mitigated": ("51f0df6f1a496d1705a8",
                        "spec-ffe7f1147fb153a99bad"),
}


class TestStoredSpecs:
    @pytest.mark.parametrize("name", sorted(PINNED_PRESET_KEYS))
    def test_preset_keys_pinned(self, name):
        spec = get_preset(name)
        assert (spec.model_key(), spec.key()) == PINNED_PRESET_KEYS[name]

    def test_preset_list_is_pinned(self):
        from repro.api.presets import preset_names
        assert preset_names() == sorted(PINNED_PRESET_KEYS)

    def test_removed_runtime_fields_still_load(self):
        """A spec stored when executors and the numba/torch backends
        existed loads with deprecation warnings, keeps its keys and no
        longer serialises the executor."""
        stored = {"engine": "exact", "runtime": {
            "executor": "process", "workers": 4, "backend": "numba"}}
        with pytest.warns(DeprecationWarning) as caught:
            spec = EmulationSpec.from_dict(stored)
        messages = " ".join(str(w.message) for w in caught)
        assert "executor" in messages and "numba" in messages
        assert spec.runtime.workers == 4
        assert spec.runtime.backend == "numpy"
        assert "executor" not in spec.to_dict()["runtime"]
        assert EmulationSpec.from_dict(spec.to_dict()) == spec
        clean = EmulationSpec(engine="exact")
        assert (spec.model_key(), spec.key()) == \
            (clean.model_key(), clean.key())
