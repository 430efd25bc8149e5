"""Wire-format parsing and validation tests."""

import json

import numpy as np
import pytest

from repro.api.spec import EmulationSpec
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.serve.protocol import (ProtocolError, decode_array, encode_array,
                                  parse_key, parse_model_spec,
                                  parse_net_predict, reject_flat_identity)
from repro.xbar.config import CrossbarConfig


def parse(spec) -> EmulationSpec:
    return parse_model_spec({"spec": spec}, engine_tier=True)


class TestModelSpec:
    def test_defaults(self):
        spec = parse({})
        assert spec.xbar.to_config() == CrossbarConfig()
        assert spec.emulator.sampling == SamplingSpec()
        assert spec.emulator.training == TrainSpec()
        assert spec.emulator.mode == "full"

    def test_full_payload_maps_onto_dataclasses(self):
        spec = parse({
            "xbar": {"rows": 8, "cols": 16, "r_on_ohm": 50e3,
                     "onoff_ratio": 2.0, "v_supply_v": 0.5,
                     "rram": {"i0_a": 2e-4}},
            "emulator": {"sampling": {"n_g_matrices": 5,
                                      "v_sparsity": [0.0, 0.5]},
                         "training": {"hidden": 32, "epochs": 7},
                         "mode": "linear"},
        })
        assert spec.xbar.rows == 8 and spec.xbar.cols == 16
        assert spec.xbar.to_config().rram.i0_a == 2e-4
        assert spec.emulator.sampling.n_g_matrices == 5
        assert spec.emulator.sampling.v_sparsity == (0.0, 0.5)
        assert spec.emulator.training.hidden == 32
        assert spec.emulator.training.epochs == 7
        assert spec.emulator.mode == "linear"

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="rowz"):
            parse({"xbar": {"rowz": 8}})
        with pytest.raises(ProtocolError, match="n_samples"):
            parse({"emulator": {"sampling": {"n_samples": 3}}})

    def test_invalid_values_rejected_with_400_class_error(self):
        with pytest.raises(ProtocolError, match="invalid spec.xbar"):
            parse({"xbar": {"rows": 0}})
        with pytest.raises(ProtocolError, match="mode"):
            parse({"emulator": {"mode": "quadratic"}})

    def test_non_object_payloads_rejected(self):
        with pytest.raises(ProtocolError):
            parse([1, 2])
        with pytest.raises(ProtocolError):
            parse({"emulator": {"sampling": 7}})

    def test_parse_model_spec_requires_model(self):
        with pytest.raises(ProtocolError, match="spec"):
            parse_model_spec({})

    def test_same_payload_same_identity(self):
        a = parse({"xbar": {"rows": 8}, "emulator": {"training": {
            "epochs": 5}}})
        b = parse({"xbar": {"rows": 8}, "emulator": {"training": {
            "epochs": 5}}})
        assert a == b and a.key() == b.key()

    def test_emulator_tier_refuses_other_engines(self):
        body = {"spec": {"engine": "exact"}}
        with pytest.raises(ProtocolError, match="exact"):
            parse_model_spec(body)
        assert parse_model_spec(body, engine_tier=True).engine == "exact"


class TestSimAndEngine:
    def test_sim_defaults_and_overrides(self):
        assert parse({}).sim.adc_bits == 14
        spec = parse({"sim": {"adc_bits": 8, "stream_bits": 2}})
        assert spec.sim.adc_bits == 8 and spec.sim.stream_bits == 2

    def test_sim_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="adc"):
            parse({"sim": {"adc": 8}})

    def test_engine_kinds(self):
        assert parse({}).engine == "geniex"
        assert parse({"engine": "exact"}).engine == "exact"
        with pytest.raises(ProtocolError, match="quantum"):
            parse({"engine": "quantum"})


class TestFlatIdentity:
    @pytest.mark.parametrize("field", ["model", "engine", "sim"])
    def test_flat_identity_fields_are_refused_naming_spec(self, field):
        with pytest.raises(ProtocolError, match="\"spec\""):
            reject_flat_identity({field: {}, "spec": {}})

    def test_spec_body_passes(self):
        reject_flat_identity({"spec": {}, "weights": [[1.0]]})


class TestKeys:
    @pytest.mark.parametrize("field", ["crossbar_key", "weights_key",
                                       "mitigated_key", "net_key"])
    @pytest.mark.parametrize("value", [5, None, "", [], {"k": "v"}, True])
    def test_key_must_be_a_non_empty_string(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            parse_key({field: value}, field)

    def test_missing_key_names_its_registration_endpoint(self):
        with pytest.raises(ProtocolError, match="/v1/weights"):
            parse_key({}, "weights_key")

    def test_key_with_identity_riding_along_is_refused(self):
        for extra in ("spec", "weights", "conductances"):
            with pytest.raises(ProtocolError, match="already names"):
                parse_key({"weights_key": "eng-1", extra: {}},
                          "weights_key")
        assert parse_key({"weights_key": "eng-1", "x": [1.0]},
                         "weights_key") == "eng-1"

    @pytest.mark.parametrize("value", [5, None, "", []])
    def test_net_predict_uses_the_key_check(self, value):
        with pytest.raises(ProtocolError, match="net_key"):
            parse_net_predict({"net_key": value, "x": [1.0]})


class TestArrays:
    def test_decode_validates_presence_shape_and_content(self):
        with pytest.raises(ProtocolError, match="requires"):
            decode_array({}, "voltages")
        with pytest.raises(ProtocolError, match="numeric"):
            decode_array({"voltages": [[1.0], [1.0, 2.0]]}, "voltages")
        with pytest.raises(ProtocolError, match="numeric"):
            decode_array({"voltages": ["a", "b"]}, "voltages")
        with pytest.raises(ProtocolError, match="dimension"):
            decode_array({"voltages": [[[1.0]]]}, "voltages")
        with pytest.raises(ProtocolError, match="dimension"):
            decode_array({"voltages": [1.0, 2.0]}, "voltages", ndim=(2,))
        with pytest.raises(ProtocolError, match="empty"):
            decode_array({"voltages": []}, "voltages")
        with pytest.raises(ProtocolError, match="non-finite"):
            decode_array({"voltages": [1.0, float("nan")]}, "voltages")

    @pytest.mark.parametrize("value", [
        ["0.1", "2"], [["0.1"]], [True, False], [[True], [False]],
        [0.1, None], [None], [{"v": 1.0}]])
    def test_decode_rejects_strings_booleans_and_nulls(self, value):
        with pytest.raises(ProtocolError, match="numeric"):
            decode_array({"v": value}, "v")

    def test_decode_accepts_1d_and_2d(self):
        assert decode_array({"v": [1, 2]}, "v").dtype == np.float64
        assert decode_array({"v": [1, 2]}, "v").shape == (2,)
        assert decode_array({"v": [[1, 2], [3, 4]]}, "v").shape == (2, 2)

    def test_encode_round_trips_float64_bit_exactly(self):
        rng = np.random.default_rng(0)
        array = rng.standard_normal((5, 3)) * 1e-7
        back = np.asarray(json.loads(json.dumps(encode_array(array))))
        np.testing.assert_array_equal(back, array)
        assert back.dtype == np.float64
