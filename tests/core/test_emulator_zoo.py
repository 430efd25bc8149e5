import os

import numpy as np
import pytest

from repro.core.dataset import build_geniex_dataset
from repro.core.emulator import GeniexEmulator
from repro.core.model import GeniexNet
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec, train_geniex
from repro.core.zoo import GeniexZoo
from repro.errors import NotFittedError, ShapeError
from repro.xbar.config import CrossbarConfig


CFG = CrossbarConfig(rows=4, cols=4)
SAMPLING = SamplingSpec(n_g_matrices=5, n_v_per_g=8, seed=0)
TRAINING = TrainSpec(hidden=24, epochs=30, batch_size=16, patience=30,
                     seed=0)


@pytest.fixture(scope="module")
def trained():
    dataset = build_geniex_dataset(CFG, SAMPLING)
    model, _ = train_geniex(dataset, TRAINING)
    return model, dataset


class TestEmulator:
    def test_requires_normalizer(self):
        with pytest.raises(NotFittedError):
            GeniexEmulator(GeniexNet(4, 4, hidden=8))

    def test_predict_shapes(self, trained):
        model, dataset = trained
        emulator = GeniexEmulator(model)
        v = dataset.voltages_v[:5]
        g = dataset.conductances_s[0]
        assert emulator.predict_fr(v, g).shape == (5, 4)
        assert emulator.predict_currents(v, g).shape == (5, 4)

    def test_shape_validation(self, trained):
        emulator = GeniexEmulator(trained[0])
        with pytest.raises(ShapeError):
            emulator.predict_fr(np.zeros((2, 5)), np.zeros((4, 4)))
        with pytest.raises(ShapeError):
            emulator.for_matrix(np.zeros((5, 4)))

    def test_fast_path_matches_general(self, trained):
        model, dataset = trained
        emulator = GeniexEmulator(model)
        g = dataset.conductances_s[1]
        v = dataset.voltages_v[:10]
        general = emulator.predict_currents(v, g)
        fast = emulator.for_matrix(g).currents(v)
        np.testing.assert_allclose(fast, general, rtol=1e-5, atol=1e-12)

    def test_emulator_beats_wild_guess(self, trained):
        """Predictions correlate with the simulated currents."""
        model, dataset = trained
        emulator = GeniexEmulator(model)
        g = dataset.conductances_s[2]
        rows = np.nonzero(dataset.group_index == 2)[0]
        pred = emulator.for_matrix(g).currents(
            dataset.voltages_v[rows])
        ref = dataset.i_nonideal_a[rows]
        mask = ref > 1e-9
        rel = np.abs(pred[mask] - ref[mask]) / ref[mask]
        assert np.median(rel) < 0.2


class TestZoo:
    def test_train_then_cache_hit(self, tmp_path):
        zoo = GeniexZoo(cache_dir=str(tmp_path))
        first = zoo.get_or_train(CFG, SAMPLING, TRAINING)
        # One .npz artifact (plus the cross-process writer-lock sidecar).
        files = [f for f in os.listdir(tmp_path) if f.endswith(".npz")]
        assert len(files) == 1
        # Second zoo instance loads from disk without retraining.
        zoo2 = GeniexZoo(cache_dir=str(tmp_path))
        second = zoo2.get_or_train(CFG, SAMPLING, TRAINING)
        np.testing.assert_array_equal(
            first.model.body[0].weight.data,
            second.model.body[0].weight.data)

    def test_memory_cache(self, tmp_path):
        zoo = GeniexZoo(cache_dir=str(tmp_path))
        a = zoo.get_or_train(CFG, SAMPLING, TRAINING)
        b = zoo.get_or_train(CFG, SAMPLING, TRAINING)
        assert a is b

    def test_key_distinguishes_configs(self):
        key_a = GeniexZoo.artifact_key(CFG, SAMPLING, TRAINING, "full")
        key_b = GeniexZoo.artifact_key(CFG.replace(v_supply_v=0.5),
                                       SAMPLING, TRAINING, "full")
        key_c = GeniexZoo.artifact_key(CFG, SAMPLING, TRAINING, "linear")
        assert len({key_a, key_b, key_c}) == 3

    def test_save_load_roundtrip(self, trained, tmp_path):
        model, _ = trained
        path = str(tmp_path / "model.npz")
        GeniexZoo.save_model(model, path)
        loaded = GeniexZoo.load_model(path)
        feats = np.random.default_rng(0).random((3, 20)).astype(np.float32)
        np.testing.assert_allclose(loaded.predict_fr_norm(feats.copy()),
                                   model.predict_fr_norm(feats.copy()),
                                   rtol=1e-6)
        assert loaded.normalizer == model.normalizer
