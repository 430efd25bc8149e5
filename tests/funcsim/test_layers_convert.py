import numpy as np
import pytest

import repro.nn as nn
from repro.funcsim import (
    Conv2dMVM,
    FuncSimConfig,
    LinearMVM,
    convert_to_mvm,
    make_engine,
)
from repro.models import LeNet
from repro.nn.tensor import Tensor, no_grad
from repro.xbar.config import CrossbarConfig

XCFG = CrossbarConfig(rows=8, cols=8)
SCFG = FuncSimConfig()


@pytest.fixture
def exact_engine():
    return make_engine("exact", XCFG, SCFG)


class TestLinearMVM:
    def test_matches_dense_layer(self, exact_engine, rng):
        layer = nn.Linear(12, 7, seed=0)
        mvm = LinearMVM.from_linear(layer, exact_engine)
        x = Tensor(rng.normal(size=(5, 12)).astype(np.float32) * 0.5)
        with no_grad():
            ref = layer(x).data
        out = mvm(x).data
        np.testing.assert_allclose(out, ref, atol=2e-3)

    def test_output_is_inference_tensor(self, exact_engine):
        layer = nn.Linear(4, 3, seed=0)
        mvm = LinearMVM.from_linear(layer, exact_engine)
        out = mvm(Tensor(np.zeros((2, 4), dtype=np.float32)))
        assert not out.requires_grad

    def test_no_bias(self, exact_engine):
        layer = nn.Linear(4, 3, bias=False, seed=0)
        mvm = LinearMVM.from_linear(layer, exact_engine)
        assert mvm.bias is None


class TestConv2dMVM:
    def test_matches_dense_conv(self, exact_engine, rng):
        conv = nn.Conv2d(2, 5, 3, stride=1, padding=1, seed=0)
        mvm = Conv2dMVM.from_conv(conv, exact_engine)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)).astype(np.float32) * 0.5)
        with no_grad():
            ref = conv(x).data
        np.testing.assert_allclose(mvm(x).data, ref, atol=5e-3)

    def test_stride_and_padding_respected(self, exact_engine, rng):
        conv = nn.Conv2d(1, 2, 3, stride=2, padding=1, seed=1)
        mvm = Conv2dMVM.from_conv(conv, exact_engine)
        x = Tensor(rng.normal(size=(1, 1, 7, 7)).astype(np.float32))
        with no_grad():
            assert mvm(x).shape == conv(x).shape

    def test_chunking_consistent(self, rng):
        conv = nn.Conv2d(1, 2, 3, padding=1, seed=1)
        engine = make_engine("exact", XCFG, SCFG)
        small_chunks = Conv2dMVM.from_conv(conv, engine, chunk_rows=7)
        big_chunks = Conv2dMVM.from_conv(conv, engine, chunk_rows=10_000)
        x = Tensor(rng.normal(size=(2, 1, 5, 5)).astype(np.float32))
        np.testing.assert_allclose(small_chunks(x).data,
                                   big_chunks(x).data, rtol=1e-6)


class TestConvert:
    def test_structure_replaced(self, exact_engine):
        model = LeNet(in_channels=1, num_classes=4, image_size=8, width=4,
                      seed=0)
        converted = convert_to_mvm(model, exact_engine)
        kinds = [type(m).__name__ for m in converted.modules()]
        assert "Conv2dMVM" in kinds and "LinearMVM" in kinds
        assert "Conv2d" not in kinds and "Linear" not in kinds

    def test_original_untouched(self, exact_engine):
        model = LeNet(in_channels=1, num_classes=4, image_size=8, width=4)
        convert_to_mvm(model, exact_engine)
        kinds = [type(m).__name__ for m in model.modules()]
        assert "Conv2d" in kinds

    def test_exact_engine_preserves_predictions(self, exact_engine, rng):
        model = LeNet(in_channels=1, num_classes=4, image_size=8, width=4,
                      seed=0).eval()
        converted = convert_to_mvm(model, exact_engine)
        x = Tensor(rng.normal(size=(6, 1, 8, 8)).astype(np.float32) * 0.5)
        with no_grad():
            ref = model(x).data
            out = converted(x).data
        np.testing.assert_array_equal(ref.argmax(axis=1),
                                      out.argmax(axis=1))

    def test_nonideal_engine_changes_logits(self, rng):
        model = LeNet(in_channels=1, num_classes=4, image_size=8, width=4,
                      seed=0).eval()
        engine = make_engine("analytical", XCFG, SCFG)
        converted = convert_to_mvm(model, engine)
        x = Tensor(rng.normal(size=(2, 1, 8, 8)).astype(np.float32) * 0.5)
        with no_grad():
            ref = model(x).data
            out = converted(x).data
        assert not np.allclose(ref, out, atol=1e-3)


class TestConvertContainers:
    """Nested containers, shared engines and deep-copy semantics."""

    def _nested_model(self):
        inner = nn.Sequential(nn.Linear(6, 5, seed=0), nn.ReLU())
        outer = nn.Sequential(inner, nn.Sequential(nn.Linear(5, 3, seed=1)))
        return outer

    def test_nested_containers_replaced(self, exact_engine):
        converted = convert_to_mvm(self._nested_model(), exact_engine)
        kinds = [type(m).__name__ for m in converted.modules()]
        assert kinds.count("LinearMVM") == 2
        assert "Linear" not in kinds

    def test_nested_predictions_match(self, exact_engine, rng):
        model = self._nested_model().eval()
        converted = convert_to_mvm(model, exact_engine)
        x = Tensor(rng.normal(size=(4, 6)).astype(np.float32) * 0.4)
        with no_grad():
            np.testing.assert_allclose(converted(x).data, model(x).data,
                                       atol=5e-3)

    def test_engine_shared_across_layers(self, exact_engine):
        """One engine instance backs every converted layer (shared tile
        cache and statistics), and each layer prepares its own weights."""
        converted = convert_to_mvm(self._nested_model(), exact_engine)
        layers = [m for m in converted.modules()
                  if type(m).__name__ == "LinearMVM"]
        assert len(layers) == 2
        assert layers[0].engine is layers[1].engine is exact_engine
        assert layers[0].prepared is not layers[1].prepared
        assert layers[0].prepared.uid != layers[1].prepared.uid

    def test_deepcopy_leaves_original_trainable(self, exact_engine):
        model = self._nested_model()  # training mode by default
        assert model.training
        converted = convert_to_mvm(model, exact_engine)
        assert model.training          # original untouched
        assert not converted.training  # copy switched to eval
        assert all(not m.training for m in converted.modules())

    def test_converted_weights_independent(self, exact_engine, rng):
        """Mutating the original's weights never changes the copy."""
        model = self._nested_model().eval()
        converted = convert_to_mvm(model, exact_engine)
        x = Tensor(rng.normal(size=(2, 6)).astype(np.float32) * 0.4)
        with no_grad():
            before = converted(x).data
        for p in model.parameters():
            p.data[...] += 1.0
        with no_grad():
            after = converted(x).data
        np.testing.assert_array_equal(before, after)


class TestConvertExecutor:
    """Converted networks on multi-worker engines."""

    def _model(self):
        return LeNet(in_channels=1, num_classes=4, image_size=8, width=4,
                     seed=0).eval()

    def _engine(self, workers=None):
        return make_engine("exact", XCFG, SCFG, batch_invariant=True,
                           workers=workers)

    @pytest.mark.parametrize("backend,workers", [("serial", None),
                                                 ("threads", 2),
                                                 ("process", 2)])
    def test_executor_matches_inline(self, rng, backend, workers):
        """A stored spec naming any removed executor converts onto the
        one schedule, bit-identical to a single-thread engine."""
        from repro.api.spec import RuntimeSpec

        with pytest.warns(DeprecationWarning, match="executor"):
            runtime = RuntimeSpec(executor=backend, workers=workers or 1)
        engine = self._engine(runtime.workers)
        engine.shard_rows = 16
        engine.inline_work_threshold = 0  # force pooled shards
        x = Tensor(rng.normal(size=(5, 1, 8, 8)).astype(np.float32) * 0.5)
        with no_grad():
            ref = convert_to_mvm(self._model(), self._engine())(x).data
            out = convert_to_mvm(self._model(), engine)(x).data
        engine.close()
        np.testing.assert_array_equal(out, ref)

    def test_ideal_engine_ignores_executor(self, rng):
        from repro.funcsim import IdealMvmEngine

        x = Tensor(rng.normal(size=(3, 1, 8, 8)).astype(np.float32) * 0.5)
        with no_grad():
            ref = convert_to_mvm(self._model(), IdealMvmEngine(SCFG))(x).data
            out = convert_to_mvm(self._model(), make_engine(
                "ideal", XCFG, SCFG, workers=4))(x).data
        np.testing.assert_array_equal(out, ref)

    def test_conversion_prepares_every_layer_program(self):
        from repro.funcsim.convert import mvm_layers

        layers = mvm_layers(convert_to_mvm(self._model(), self._engine()))
        assert len(layers) >= 2
        assert all(l.prepared.program.plan.cost.readouts > 0
                   for l in layers)
