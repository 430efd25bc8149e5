import numpy as np
import pytest

from repro.core.model import GeniexNet, Normalizer
from repro.core.zoo import GeniexZoo, default_cache_dir
from repro.errors import SerializationError

NORMALIZER = Normalizer(v_supply_v=0.25, g_off_s=1e-6, g_on_s=1e-5,
                        fr_min=0.5, fr_max=1.0)


class TestZooErrorPaths:
    def test_missing_artifact(self, tmp_path):
        with pytest.raises(SerializationError):
            GeniexZoo.load_model(str(tmp_path / "nothing.npz"))

    def test_save_requires_normalizer(self, tmp_path):
        model = GeniexNet(4, 4, hidden=8)  # no normalizer attached
        with pytest.raises(SerializationError):
            GeniexZoo.save_model(model, str(tmp_path / "m.npz"))

    def test_corrupt_artifact_raises(self, tmp_path):
        path = tmp_path / "geniex-bad.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(Exception):
            GeniexZoo.load_model(str(path))

    def test_schema_mismatch_raises_serialization_error(self, tmp_path):
        path = str(tmp_path / "m.npz")
        model = GeniexNet(4, 4, hidden=8, normalizer=NORMALIZER)
        GeniexZoo.save_model(model, path)
        state, meta = GeniexZoo._load_artifact(path)
        meta["hidden"] = 9  # parameter shapes no longer match
        GeniexZoo._save_artifact(path, state, meta)
        with pytest.raises(SerializationError, match="schema-mismatched"):
            GeniexZoo.load_model(path)
        del state["body.layer0.weight"]
        GeniexZoo._save_artifact(path, state, {**meta, "hidden": 8})
        with pytest.raises(SerializationError, match="missing"):
            GeniexZoo.load_model(path)

    def test_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == str(tmp_path / "custom")

    def test_cache_dir_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ".cache" in default_cache_dir()
