"""The zoo's one artifact codec reads what earlier versions wrote.

Every artifact kind (trained emulator, mitigated model, net program) is
one ``.npz`` of ``param::<name>`` members plus a ``meta_json`` record.
``legacy_write`` below is the writer each kind used to carry on its own,
kept here verbatim in layout; the stored member names are a format, so
files it wrote must load unchanged, and the codec must write the same
members.
"""

import json
import os
import zipfile

import numpy as np
import pytest

from repro.core.model import GeniexNet, Normalizer
from repro.core.zoo import GeniexZoo
from repro.errors import SerializationError
from repro.models.mlp import MLP
from repro.nn.serialization import (decode_state_array, net_digest,
                                    net_to_wire)


def legacy_write(path, arrays: dict, meta: dict) -> None:
    arrays = dict(arrays)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(),
                                        dtype=np.uint8)
    os.makedirs(os.path.dirname(str(path)), exist_ok=True)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def members(path) -> dict:
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


@pytest.fixture
def zoo(tmp_path):
    return GeniexZoo(cache_dir=str(tmp_path / "zoo"))


def tiny_geniex() -> GeniexNet:
    rng = np.random.default_rng(0)
    normalizer = Normalizer(v_supply_v=0.25, g_off_s=1e-6, g_on_s=1e-5,
                            fr_min=float(rng.uniform(0.5, 0.6)), fr_max=1.0)
    return GeniexNet(4, 4, hidden=8, normalizer=normalizer, seed=3)


def legacy_model_arrays(model: GeniexNet) -> tuple:
    meta = {"rows": model.rows, "cols": model.cols, "hidden": model.hidden,
            "hidden_layers": model.hidden_layers,
            "normalizer": model.normalizer.to_dict()}
    return {f"param::{k}": v for k, v in model.state_dict().items()}, meta


def legacy_net_arrays(wire: dict, meta: dict) -> tuple:
    layers, arrays = [], {}
    for i, entry in enumerate(wire["layers"]):
        state = entry.get("state", {})
        layers.append({"kind": entry["kind"],
                       "config": entry.get("config", {}),
                       "state": sorted(state)})
        for name, value in state.items():
            arrays[f"param::{i}::{name}"] = decode_state_array(value)
    return arrays, {"format": wire["format"], "layers": layers,
                    "input_shape": wire.get("input_shape"), "meta": meta}


MITIGATED_STATE = {"model::body.layer0.weight": np.arange(6.0).reshape(2, 3),
                   "calibration::scale": np.array([1.5, 0.5])}
MITIGATED_META = {"sizes": [3, 2], "metrics": {"accuracy": 0.75}}


class TestLegacyArtifactsLoad:
    def test_emulator(self, tmp_path):
        model = tiny_geniex()
        path = str(tmp_path / "geniex-legacy.npz")
        legacy_write(path, *legacy_model_arrays(model))
        loaded = GeniexZoo.load_model(path)
        assert loaded.normalizer.to_dict() == model.normalizer.to_dict()
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[name], value)

    def test_mitigated(self, zoo):
        legacy_write(zoo._mitigated_path("mit-1"),
                     {f"param::{k}": v for k, v in MITIGATED_STATE.items()},
                     MITIGATED_META)
        state, meta = zoo.load_mitigated("mit-1")
        assert meta == MITIGATED_META
        assert set(state) == set(MITIGATED_STATE)
        for name, value in MITIGATED_STATE.items():
            np.testing.assert_array_equal(state[name], value)

    def test_net_program(self, zoo):
        wire = net_to_wire(MLP([5, 7, 3], seed=2))
        meta = {"spec": {"engine": "exact"}, "net_digest": net_digest(wire)}
        legacy_write(zoo._net_path("netprog-1"),
                     *legacy_net_arrays(wire, meta))
        loaded_wire, loaded_meta = zoo.load_net_program("netprog-1")
        assert loaded_meta == meta
        assert net_digest(loaded_wire) == net_digest(wire)


class TestCodecWritesLegacyMembers:
    """Same members, byte for byte, as the per-kind writers wrote."""

    def test_emulator(self, tmp_path):
        model = tiny_geniex()
        GeniexZoo.save_model(model, str(tmp_path / "new.npz"))
        legacy_write(str(tmp_path / "old.npz"), *legacy_model_arrays(model))
        assert members(tmp_path / "new.npz") == members(tmp_path / "old.npz")

    def test_mitigated(self, zoo, tmp_path):
        zoo.save_mitigated("mit-2", MITIGATED_STATE, MITIGATED_META)
        legacy_write(str(tmp_path / "old.npz"),
                     {f"param::{k}": v for k, v in MITIGATED_STATE.items()},
                     MITIGATED_META)
        assert members(zoo._mitigated_path("mit-2")) == \
            members(tmp_path / "old.npz")

    def test_net_program(self, zoo, tmp_path):
        wire = net_to_wire(MLP([5, 7, 3], seed=2))
        meta = {"net_digest": net_digest(wire)}
        zoo.save_net_program("netprog-2", wire, meta)
        legacy_write(str(tmp_path / "old.npz"),
                     *legacy_net_arrays(wire, meta))
        assert members(zoo._net_path("netprog-2")) == \
            members(tmp_path / "old.npz")


class TestUnreadablePolicyPerKind:
    """An unreadable emulator is an error (``get_or_train`` retrains on
    it); an unreadable mitigated model or net program reads as absent."""

    def test_policies(self, zoo, tmp_path):
        for path in (tmp_path / "geniex.npz", zoo._mitigated_path("m"),
                     zoo._net_path("n")):
            os.makedirs(os.path.dirname(str(path)), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(b"not an npz")
        with pytest.raises(SerializationError):
            GeniexZoo.load_model(str(tmp_path / "geniex.npz"))
        assert zoo.load_mitigated("m") is None
        assert zoo.load_net_program("n") is None
