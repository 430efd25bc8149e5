"""EmulationSpec: JSON round-trip, strict decoding, evolve, digests."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import (
    EmulationSpec,
    PRESETS,
    get_preset,
    preset_names,
    supports_batch_invariance,
)
from repro.api.spec import (
    DeviceSpec,
    EmulatorSpec,
    RuntimeSpec,
    SimSpec,
    XbarSpec,
)
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.devices.rram import RramParameters
from repro.errors import ConfigError
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import ENGINE_KINDS
from repro.xbar.config import CrossbarConfig


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_round_trips(self, name):
        spec = get_preset(name)
        assert EmulationSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_round_trip_survives_json_encoding(self, name):
        spec = get_preset(name)
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = EmulationSpec.from_dict(payload)
        assert restored == spec
        assert restored.key() == spec.key()
        assert restored.model_key() == spec.model_key()

    def test_default_spec_round_trips(self):
        spec = EmulationSpec()
        assert EmulationSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_plain(self):
        payload = EmulationSpec().to_dict()
        json.dumps(payload)  # no tuples / dataclasses / arrays left
        assert isinstance(payload["emulator"]["sampling"]["v_sparsity"],
                          list)

    def test_lists_become_tuples(self):
        spec = EmulationSpec.from_dict(
            {"emulator": {"sampling": {"v_sparsity": [0.0, 0.5]}}})
        assert spec.emulator.sampling.v_sparsity == (0.0, 0.5)

    def test_missing_fields_take_defaults(self):
        spec = EmulationSpec.from_dict({"engine": "exact"})
        assert spec == EmulationSpec(engine="exact")


class TestStrictDecoding:
    def test_unknown_root_field_rejected(self):
        with pytest.raises(ConfigError, match="spec.'bogus'"):
            EmulationSpec.from_dict({"bogus": 1})

    def test_unknown_nested_field_names_dotted_path(self):
        with pytest.raises(ConfigError, match="spec.xbar.rram.'i0'"):
            EmulationSpec.from_dict({"xbar": {"rram": {"i0": 1e-4}}})

    def test_invalid_value_names_path(self):
        with pytest.raises(ConfigError, match="invalid spec.xbar"):
            EmulationSpec.from_dict({"xbar": {"onoff_ratio": 0.5}})

    def test_non_object_node_rejected(self):
        with pytest.raises(ConfigError, match="spec.sim must be a JSON"):
            EmulationSpec.from_dict({"sim": [1, 2]})

    def test_bad_json_text(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            EmulationSpec.from_json("{nope")

    def test_unknown_engine_kind(self):
        with pytest.raises(ConfigError, match="unknown engine kind"):
            EmulationSpec(engine="hspice")

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(ConfigError, match="quick"):
            get_preset("does-not-exist")

    def test_runtime_validation(self):
        with pytest.raises(ConfigError, match="workers"):
            RuntimeSpec(workers=0)
        with pytest.raises(ConfigError, match="executor"):
            RuntimeSpec(executor="gpu")
        with pytest.raises(ConfigError, match="mode"):
            EmulatorSpec(mode="spicy")


class TestEvolve:
    def test_direct_and_nested_and_dotted(self):
        spec = EmulationSpec().evolve(
            engine="exact", xbar={"rows": 8}, **{"xbar.cols": 4})
        assert (spec.engine, spec.xbar.rows, spec.xbar.cols) == \
            ("exact", 8, 4)

    def test_dataclass_value_replaces_subtree(self):
        runtime = RuntimeSpec(workers=3, tile_cache_size=7)
        assert EmulationSpec().evolve(runtime=runtime).runtime == runtime

    def test_precedence_evolve_over_preset_over_defaults(self):
        default = EmulationSpec()
        preset = get_preset("quick")
        # Preset beats defaults...
        assert preset.xbar.rows == 16 != default.xbar.rows
        # ...and evolve beats the preset, leaving other preset values.
        evolved = preset.evolve(**{"xbar.rows": 48})
        assert evolved.xbar.rows == 48
        assert evolved.emulator.training == preset.emulator.training
        assert evolved.xbar.cols == preset.xbar.cols

    def test_unknown_override_rejected_with_path(self):
        with pytest.raises(ConfigError, match="spec.runtime.'threads'"):
            EmulationSpec().evolve(runtime={"threads": 2})

    def test_override_through_plain_value_rejected(self):
        with pytest.raises(ConfigError, match="plain value"):
            EmulationSpec().evolve(**{"engine.kind": "exact"})

    def test_invalid_override_value_rejected(self):
        with pytest.raises(ConfigError, match="invalid spec.xbar"):
            EmulationSpec().evolve(**{"xbar.rows": 0})

    def test_evolve_does_not_mutate_original(self):
        spec = get_preset("quick")
        spec.evolve(**{"xbar.rows": 4})
        assert spec.xbar.rows == 16


class TestConfigLowering:
    def test_xbar_spec_mirrors_crossbar_config(self):
        config = CrossbarConfig(rows=8, cols=6, r_on_ohm=50e3,
                                rram=RramParameters(i0_a=2e-4))
        spec = XbarSpec.from_config(config)
        assert isinstance(spec.rram, DeviceSpec)
        lowered = spec.to_config()
        assert type(lowered) is CrossbarConfig
        assert type(lowered.rram) is RramParameters
        assert lowered == config

    def test_sim_spec_mirrors_funcsim_config(self):
        config = FuncSimConfig().with_precision(8)
        lowered = SimSpec.from_config(config).to_config()
        assert type(lowered) is FuncSimConfig and lowered == config

    def test_subclassing_keeps_field_sets_in_sync(self):
        # XbarSpec/SimSpec/DeviceSpec *are* their config classes, so a
        # field added to a config automatically appears in the spec.
        assert {f.name for f in dataclasses.fields(XbarSpec)} == \
            {f.name for f in dataclasses.fields(CrossbarConfig)}
        assert {f.name for f in dataclasses.fields(SimSpec)} == \
            {f.name for f in dataclasses.fields(FuncSimConfig)}

    def test_validation_is_inherited(self):
        with pytest.raises(ConfigError):
            XbarSpec(rows=0)
        with pytest.raises(ConfigError):
            SimSpec(stream_bits=0)


class TestKeys:
    def test_equal_specs_equal_keys(self):
        a = get_preset("quick")
        b = EmulationSpec.from_dict(a.to_dict())
        assert a.key() == b.key()
        assert a.weights_key(np.eye(3)) == b.weights_key(np.eye(3))

    def test_key_changes_with_engine_xbar_sim(self):
        spec = get_preset("quick")
        assert spec.evolve(engine="exact").key() != spec.key()
        assert spec.evolve(**{"xbar.rows": 8}).key() != spec.key()
        assert spec.evolve(sim={"adc_bits": 10}).key() != spec.key()

    def test_key_ignores_value_neutral_runtime_knobs(self):
        spec = get_preset("quick")
        assert spec.evolve(runtime={"workers": 4,
                                    "backend": "interp",
                                    "tile_cache_size": 0}).key() == \
            spec.key()

    def test_key_tracks_batch_invariance(self):
        spec = get_preset("quick")
        assert spec.evolve(
            runtime={"batch_invariant": True}).key() != spec.key()

    def test_model_identity_always_participates(self):
        # key() folds model_key() for every kind — conservatively, so a
        # warm engine can never be shared across crossbar designs.
        tweak = {"emulator": {"training": {"hidden": 7}}}
        geniex = get_preset("quick")
        assert geniex.evolve(**tweak).key() != geniex.key()
        exact = geniex.evolve(engine="exact")
        assert exact.evolve(**tweak).key() != exact.key()
        assert exact.evolve(**tweak).model_key() != exact.model_key()

    def test_non_geniex_kinds_key_on_the_crossbar_design(self):
        """Regression: two different crossbar designs must never share a
        warm-engine key, whatever the engine kind (their currents differ
        even though no trained emulator is involved)."""
        weights = np.eye(4) * 0.25
        for kind in ("exact", "analytical", "decoupled", "circuit",
                     "ideal"):
            small = EmulationSpec(engine=kind).evolve(
                xbar={"rows": 16, "cols": 16, "r_on_ohm": 100e3})
            other = small.evolve(
                xbar={"rows": 64, "cols": 64, "r_on_ohm": 50e3})
            assert small.key() != other.key(), kind
            assert small.weights_key(weights) != \
                other.weights_key(weights), kind

    def test_weights_key_tracks_weights(self):
        spec = get_preset("quick")
        assert spec.weights_key(np.eye(3)) != spec.weights_key(np.eye(3) * 2)
        assert spec.weights_key(np.eye(3)).startswith("eng-")

    def test_engine_kinds_all_constructible_as_specs(self):
        for kind in ENGINE_KINDS:
            assert EmulationSpec(engine=kind).engine == kind


class TestBatchInvarianceHelper:
    def test_closed_form_kinds_with_clean_adc(self):
        sim = FuncSimConfig()
        for kind in ("geniex", "exact", "analytical"):
            assert supports_batch_invariance(kind, sim)
        for kind in ("decoupled", "circuit", "ideal"):
            assert not supports_batch_invariance(kind, sim)

    def test_noisy_or_offset_adc_rules_it_out(self):
        assert not supports_batch_invariance(
            "exact", FuncSimConfig(adc_offset_lsb=0.5))
        assert not supports_batch_invariance(
            "exact", FuncSimConfig(adc_noise_lsb=0.25))


class TestPresets:
    def test_preset_names_sorted(self):
        assert preset_names() == sorted(PRESETS)

    def test_preset_classmethod(self):
        assert EmulationSpec.preset("quick") is PRESETS["quick"]

    def test_paper_preset_matches_paper_nominals(self):
        spec = get_preset("paper-64x64")
        assert spec.xbar.shape == (64, 64)
        assert spec.xbar.r_on_ohm == 100e3
        assert spec.emulator.training.hidden == 500


class TestEvolveTypeSafety:
    def test_wrong_typed_dataclass_for_nested_node_rejected(self):
        with pytest.raises(ConfigError, match="XbarSpec"):
            EmulationSpec().evolve(xbar=SimSpec())

    def test_right_typed_dataclass_accepted(self):
        xbar = XbarSpec(rows=8, cols=8)
        assert EmulationSpec().evolve(xbar=xbar).xbar == xbar
