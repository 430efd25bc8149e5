"""Spec-tree integration of the mitigation node.

The acceptance contract mirrors the nonideality node's: strict JSON
round-trip and evolve support, digest neutrality for specs without an
active mitigation (pinned clean digests must not move), and key
separation between mitigated and raw setups so they can never alias in
the zoo or the serving registry.
"""

import numpy as np
import pytest

from repro.api import (
    CalibrationSpec,
    EmulationSpec,
    MitigationSpec,
    NoiseTrainSpec,
    get_preset,
    mitigation_from_dict,
)
from repro.errors import ConfigError

WEIGHTS = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0


def mitigated(base="quick", **mitigation):
    mitigation.setdefault("noise", {"epochs": 4})
    return get_preset(base).evolve(mitigation=mitigation)


class TestDigestNeutrality:
    def test_identity_node_is_digest_neutral(self):
        """An explicit identity node — even with a nonzero seed — keys
        exactly like no node at all; recipes fold in only once they do
        something."""
        clean = get_preset("quick")
        explicit = clean.evolve(mitigation={"seed": 123})
        assert explicit.model_key() == clean.model_key()
        assert explicit.key() == clean.key()
        assert explicit.weights_key(WEIGHTS) == clean.weights_key(WEIGHTS)

    def test_clean_quick_digests_unchanged(self):
        """The pinned pre-mitigation digests (see test_nonideality.py's
        CLEAN_DIGESTS, whose key halves moved once with the batch
        invariance flag) survive the node's introduction."""
        spec = get_preset("quick")
        assert (spec.model_key(), spec.key(), spec.weights_key(WEIGHTS)) \
            == ("e1047717f0ae4979c9f7", "spec-01056ef08a6381fd244b",
                "eng-b5832d73451a7b1bd0bb")

    def test_default_node_is_identity(self):
        assert MitigationSpec().is_identity
        assert EmulationSpec().mitigation.is_identity


class TestRoundTripAndEvolve:
    def test_strict_round_trip(self):
        spec = mitigated(calibration={"samples": 64, "ridge": 1e-2})
        assert EmulationSpec.from_dict(spec.to_dict()) == spec
        assert EmulationSpec.from_json(spec.to_json()) == spec

    def test_to_dict_always_carries_the_node(self):
        payload = EmulationSpec().to_dict()
        assert payload["mitigation"]["seed"] == 0
        assert payload["mitigation"]["noise"]["epochs"] == 0
        assert payload["mitigation"]["calibration"]["samples"] == 0

    def test_unknown_fields_rejected_with_dotted_path(self):
        payload = EmulationSpec().to_dict()
        payload["mitigation"]["nois"] = {"epochs": 2}
        with pytest.raises(ConfigError, match="mitigation.'nois'"):
            EmulationSpec.from_dict(payload)
        payload = EmulationSpec().to_dict()
        payload["mitigation"]["noise"] = {"epochz": 2}
        with pytest.raises(ConfigError, match="mitigation.noise.'epochz'"):
            EmulationSpec.from_dict(payload)

    def test_invalid_values_name_the_path(self):
        payload = EmulationSpec().to_dict()
        payload["mitigation"]["noise"] = {"epochs": -1}
        with pytest.raises(ConfigError, match="mitigation.noise"):
            EmulationSpec.from_dict(payload)

    def test_one_point_calibration_rejected(self):
        with pytest.raises(ConfigError, match="two points"):
            CalibrationSpec(samples=1)

    def test_evolve_dotted_and_nested(self):
        spec = get_preset("quick").evolve(
            **{"mitigation.noise.epochs": 6})
        assert spec.mitigation.noise.epochs == 6
        spec = spec.evolve(mitigation={"calibration": {"samples": 32}})
        # Merge semantics: the noise override survives.
        assert spec.mitigation.noise.epochs == 6
        assert spec.mitigation.calibration.samples == 32

    def test_evolve_accepts_node_instances_as_replacement(self):
        node = MitigationSpec(noise=NoiseTrainSpec(epochs=2))
        spec = mitigated(calibration={"samples": 16}).evolve(
            mitigation=node)
        assert spec.mitigation == node
        assert spec.mitigation.calibration.is_identity  # replaced

    def test_mitigation_from_dict(self):
        node = mitigation_from_dict({"seed": 3, "noise": {"epochs": 2}})
        assert node == MitigationSpec(seed=3,
                                      noise=NoiseTrainSpec(epochs=2))
        assert mitigation_from_dict(None) == MitigationSpec()


class TestKeySeparation:
    def test_all_three_keys_separate_raw_from_mitigated(self):
        clean = get_preset("quick")
        spec = mitigated()
        assert spec.model_key() != clean.model_key()
        assert spec.key() != clean.key()
        assert spec.weights_key(WEIGHTS) != clean.weights_key(WEIGHTS)

    def test_different_recipes_separate(self):
        a = mitigated(noise={"epochs": 4})
        b = mitigated(noise={"epochs": 4, "weight_sigma": 0.1})
        c = mitigated(noise={"epochs": 4}, seed=1)
        d = mitigated(noise={"epochs": 4},
                      calibration={"samples": 32})
        assert len({a.key(), b.key(), c.key(), d.key()}) == 4

    def test_seed_folds_only_with_active_noise(self):
        """Calibration is deterministic: its digest ignores the seed, so
        a calibration-only recipe keys identically across seeds while a
        noise recipe does not."""
        cal_a = get_preset("quick").evolve(
            mitigation={"seed": 0, "calibration": {"samples": 32}})
        cal_b = get_preset("quick").evolve(
            mitigation={"seed": 9, "calibration": {"samples": 32}})
        assert cal_a.key() == cal_b.key()
        assert mitigated(seed=0).key() != mitigated(seed=9).key()

    def test_preset_mitigated_is_keyed_apart(self):
        raw = get_preset("quick-analytical")
        spec = get_preset("quick-mitigated")
        assert not spec.mitigation.is_identity
        assert spec.key() != raw.key()

    def test_emulator_artifact_shared_with_unmitigated_twin(self):
        """The characterisation sweep is mitigation-independent: the zoo
        artifact key ignores the mitigation node, so a mitigated spec
        reuses its raw twin's trained emulator."""
        from repro.core.zoo import GeniexZoo

        spec = mitigated()
        twin = spec.evolve(mitigation=MitigationSpec())
        assert spec.model_key() != twin.model_key()
        assert GeniexZoo.artifact_key(
            spec.xbar.to_config(), spec.emulator.sampling,
            spec.emulator.training, spec.emulator.mode,
            nonideality=spec.nonideality) == twin.model_key()
