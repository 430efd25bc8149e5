"""Spec-tree integration of the non-ideality node.

Covers the acceptance contract of the fault-injection refactor: strict
round-trip and evolve support, digest neutrality for clean specs (pinned
byte-for-byte against the pre-node scheme), and key separation between
clean and faulty setups at every cache tier's key function.
"""

import numpy as np
import pytest

from repro.api import EmulationSpec, NonidealitySpec, get_preset
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.nonideal import StuckSpec, VariationSpec
from repro.serve.protocol import ProtocolError, parse_model_spec

WEIGHTS = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0

#: Digests recorded on the pre-nonideality digest scheme. A spec without
#: an active nonideality node must reproduce them byte-for-byte — the
#: node's introduction re-keys *nothing* for clean specs (no spurious
#: zoo retraining, no serving-registry cache invalidation). The
#: ``key()``/``weights_key()`` halves were re-pinned once, when batch
#: invariance stopped being a runtime flag: they are now the keys the
#: serving registry always used for these specs.
CLEAN_DIGESTS = {
    "paper-64x64": ("40a220dba696caf60cd4", "spec-413c19633dea6452460c",
                    "eng-2bcbcfac22094a609b8a"),
    "paper-32x32": ("4d60db3b3143a7b62a81", "spec-7786c20f8460e8bd1794",
                    "eng-496a8dacf18e9fdbcdb8"),
    "quick": ("e1047717f0ae4979c9f7", "spec-01056ef08a6381fd244b",
              "eng-b5832d73451a7b1bd0bb"),
    "quick-exact": ("e1047717f0ae4979c9f7", "spec-a724f9fc231c27c16bf2",
                    "eng-09f2602cd79888cf1d80"),
    "quick-analytical": ("e1047717f0ae4979c9f7",
                         "spec-6cc47f3108245f858059",
                         "eng-98bbddafef827ac7905b"),
}


def faulty(base="quick-exact", **nonideality):
    nonideality.setdefault("variation", {"sigma": 0.1})
    return get_preset(base).evolve(nonideality=nonideality)


class TestCleanDigestRegression:
    @pytest.mark.parametrize("name", sorted(CLEAN_DIGESTS))
    def test_preset_digests_unchanged(self, name):
        spec = get_preset(name)
        assert (spec.model_key(), spec.key(),
                spec.weights_key(WEIGHTS)) == CLEAN_DIGESTS[name]

    def test_default_spec_digests_unchanged(self):
        spec = EmulationSpec()
        assert (spec.model_key(), spec.key(), spec.weights_key(WEIGHTS)) \
            == ("c687212ddc6996f9448a", "spec-1b68998bfc2454d41f0f",
                "eng-a10848748319c58f153d")

    def test_identity_node_is_digest_neutral(self):
        """An explicit identity node — even with a nonzero seed — keys
        exactly like no node at all: the seed only matters once a
        transform draws from it."""
        clean = get_preset("quick")
        explicit = clean.evolve(nonideality={"seed": 123})
        assert explicit.model_key() == clean.model_key()
        assert explicit.key() == clean.key()
        assert explicit.weights_key(WEIGHTS) == clean.weights_key(WEIGHTS)


class TestRoundTripAndEvolve:
    def test_strict_round_trip(self):
        spec = faulty(stuck={"p_on": 0.01, "p_off": 0.02},
                      drift={"time_s": 100.0})
        assert EmulationSpec.from_dict(spec.to_dict()) == spec
        assert EmulationSpec.from_json(spec.to_json()) == spec

    def test_to_dict_always_carries_the_node(self):
        payload = EmulationSpec().to_dict()
        assert payload["nonideality"]["seed"] == 0
        assert payload["nonideality"]["variation"] == {"sigma": 0.0}

    def test_unknown_fields_rejected_with_dotted_path(self):
        payload = EmulationSpec().to_dict()
        payload["nonideality"]["varation"] = {"sigma": 0.1}
        with pytest.raises(ConfigError, match="nonideality.'varation'"):
            EmulationSpec.from_dict(payload)
        payload = EmulationSpec().to_dict()
        payload["nonideality"]["variation"] = {"sigm": 0.1}
        with pytest.raises(ConfigError,
                           match="nonideality.variation.'sigm'"):
            EmulationSpec.from_dict(payload)

    def test_invalid_values_name_the_path(self):
        payload = EmulationSpec().to_dict()
        payload["nonideality"]["stuck"] = {"p_on": 0.9, "p_off": 0.9}
        with pytest.raises(ConfigError, match="nonideality.stuck"):
            EmulationSpec.from_dict(payload)

    def test_evolve_dotted_and_nested(self):
        spec = get_preset("quick").evolve(
            **{"nonideality.variation.sigma": 0.15})
        assert spec.nonideality.variation.sigma == 0.15
        spec = spec.evolve(nonideality={"stuck": {"p_on": 0.02}})
        # Merge semantics: the variation override survives.
        assert spec.nonideality.variation.sigma == 0.15
        assert spec.nonideality.stuck.p_on == 0.02

    def test_evolve_accepts_node_instances_as_replacement(self):
        node = NonidealitySpec(variation=VariationSpec(sigma=0.3))
        spec = faulty(stuck={"p_on": 0.1}).evolve(nonideality=node)
        assert spec.nonideality == node
        assert spec.nonideality.stuck.is_identity  # replaced, not merged

    def test_ideal_engine_rejects_active_nonideality(self):
        with pytest.raises(ConfigError, match="ideal"):
            get_preset("quick").evolve(engine="ideal",
                                       nonideality={"variation":
                                                    {"sigma": 0.1}})
        # Identity node on ideal stays legal.
        get_preset("quick").evolve(engine="ideal",
                                   nonideality={"seed": 5})


class TestKeySeparation:
    def test_all_three_keys_separate_clean_from_faulty(self):
        clean = get_preset("quick-exact")
        spec = faulty()
        assert spec.model_key() != clean.model_key()
        assert spec.key() != clean.key()
        assert spec.weights_key(WEIGHTS) != clean.weights_key(WEIGHTS)

    def test_different_fault_compositions_separate(self):
        a = faulty(variation={"sigma": 0.1})
        b = faulty(variation={"sigma": 0.2})
        c = faulty(variation={"sigma": 0.1}, seed=1)
        assert len({a.key(), b.key(), c.key()}) == 3

    def test_zoo_artifact_key_folds_nonideality(self):
        spec = faulty(base="quick")
        assert GeniexZoo.artifact_key(
            spec.xbar.to_config(), spec.emulator.sampling,
            spec.emulator.training, spec.emulator.mode,
            nonideality=spec.nonideality) == spec.model_key()
        # Clean call signature unchanged -> clean key unchanged.
        clean = get_preset("quick")
        assert GeniexZoo.artifact_key(
            clean.xbar.to_config(), clean.emulator.sampling,
            clean.emulator.training, clean.emulator.mode) == \
            clean.model_key()

    def test_preset_variation_is_keyed_apart(self):
        clean = get_preset("paper-64x64")
        varied = get_preset("paper-64x64-variation")
        assert not varied.nonideality.is_identity
        assert varied.model_key() != clean.model_key()
        assert varied.key() != clean.key()

    def test_unknown_preset_suggests_closest(self):
        with pytest.raises(ConfigError, match="paper-64x64-variation"):
            get_preset("paper-64x64-variatio")


class TestWireFormat:
    def test_model_spec_round_trips_nonideality(self):
        """The wire spec of a faulty setup parses back into its fault
        node and model key."""
        spec = faulty(base="quick")
        parsed = parse_model_spec({"spec": spec.to_dict()})
        assert parsed.nonideality == spec.nonideality
        assert parsed.model_key() == spec.model_key()

    def test_spec_payload_rejects_bad_nonideality(self):
        with pytest.raises(ProtocolError, match="nonideality"):
            parse_model_spec({"spec": {
                "nonideality": {"variation": {"sigma": -1.0}}}})
