import dataclasses
import os

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.accuracy import (
    _cache_path,
    evaluate_engine,
    evaluate_float,
    load_dataset,
    train_reference_network,
)
from repro.experiments.common import QUICK
from repro.funcsim import FuncSimConfig, IdealMvmEngine
from repro.models import LeNet

MICRO = dataclasses.replace(QUICK, name="micro", train_images=32,
                            eval_images=16, image_size=8,
                            shapes_classes=4, textures_classes=3)


class TestLoadDataset:
    def test_shapes_shapes(self):
        x_train, y_train, x_test, y_test = load_dataset("shapes", MICRO)
        assert x_train.shape == (32, 1, 8, 8)
        assert x_test.shape == (16, 1, 8, 8)
        assert y_train.max() == 3

    def test_textures(self):
        x_train, _, _, y_test = load_dataset("textures", MICRO)
        assert x_train.shape[0] == 32
        assert y_test.max() <= 2

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            load_dataset("imagenet", MICRO)


class TestReferenceNetworkCache:
    @pytest.mark.parametrize("damage", ["truncate", "garbage"])
    def test_corrupt_cache_is_retrained_and_rewritten(self, damage):
        """A half-written or garbage reference-CNN cache must not fail
        every later run: it is retrained and atomically rewritten."""
        profile = dataclasses.replace(MICRO, train_epochs=1)
        first = train_reference_network("shapes", profile)
        path = _cache_path("shapes", profile, 0)
        with open(path, "r+b") as handle:
            if damage == "truncate":
                handle.truncate(os.path.getsize(path) // 2)
            else:
                handle.write(b"not a zip archive")
        again = train_reference_network("shapes", profile)
        assert again[3] == first[3]
        reloaded = train_reference_network("shapes", profile)
        for name, value in first[0].state_dict().items():
            np.testing.assert_array_equal(
                reloaded[0].state_dict()[name], value)
        assert sorted(os.listdir(os.path.dirname(path))) == \
            [os.path.basename(path)]


class TestEvaluators:
    @pytest.fixture
    def setup(self):
        x_train, y_train, x_test, y_test = load_dataset("shapes", MICRO)
        model = LeNet(in_channels=1, num_classes=4, image_size=8, width=4,
                      seed=0).eval()
        return model, x_test, y_test

    def test_evaluate_float_in_unit_range(self, setup):
        model, x_test, y_test = setup
        acc = evaluate_float(model, x_test, y_test, batch=8)
        assert 0.0 <= acc <= 1.0

    def test_evaluate_engine_ideal_close_to_float(self, setup):
        model, x_test, y_test = setup
        float_acc = evaluate_float(model, x_test, y_test, batch=8)
        engine_acc = evaluate_engine(model, x_test, y_test,
                                     IdealMvmEngine(FuncSimConfig()),
                                     batch=8)
        # 16-bit quantisation should rarely flip an argmax.
        assert abs(engine_acc - float_acc) <= 0.25

    def test_evaluate_engine_batch_independence(self, setup):
        model, x_test, y_test = setup
        engine = IdealMvmEngine(FuncSimConfig())
        a = evaluate_engine(model, x_test, y_test, engine, batch=4)
        b = evaluate_engine(model, x_test, y_test, engine, batch=16)
        assert a == b
