"""Cross-module integration tests: the full GENIEx pipeline at tiny scale.

These tie everything together the way the paper does: circuit simulation ->
dataset -> trained emulator -> functional simulator -> accuracy, and check
the *relationships* between fidelity models rather than isolated units.
"""

import numpy as np
import pytest

from repro.analytical import AnalyticalLinearModel

# Full-circuit dataset generation + training: the heaviest validation in
# the suite, filterable in CI via `-m "not slow"`.
pytestmark = pytest.mark.slow
from repro.core import (
    GeniexEmulator,
    SamplingSpec,
    TrainSpec,
    build_geniex_dataset,
    rmse_of_nf,
    train_geniex,
)
from repro.core.emulator import GeniexTileFactory
from repro.funcsim import FuncSimConfig, IdealMvmEngine, convert_to_mvm, \
    make_engine
from repro.models import LeNet
from repro.nn.tensor import Tensor, no_grad
from repro.xbar.config import CrossbarConfig

# 0.5 V supply: the regime where data-dependent non-linearity dominates
# (paper Fig. 3) and the analytical model is decisively wrong. 16x16 is the
# smallest size at which the per-column fR surface is smooth enough for a
# quickly-trained emulator to clearly beat the analytical baseline.
CFG = CrossbarConfig(rows=16, cols=16, v_supply_v=0.5)
SAMPLING = SamplingSpec(n_g_matrices=80, n_v_per_g=15, seed=0)
TRAINING = TrainSpec(hidden=128, hidden_layers=2, epochs=150,
                     batch_size=128, lr=2e-3, patience=150, seed=0)


@pytest.fixture(scope="module")
def emulator():
    dataset = build_geniex_dataset(CFG, SAMPLING)
    model, _ = train_geniex(dataset, TRAINING)
    return GeniexEmulator(model)


@pytest.fixture(scope="module")
def test_points():
    return build_geniex_dataset(
        CFG, SamplingSpec(n_g_matrices=5, n_v_per_g=10, seed=321))


class TestEmulatorFidelity:
    def test_geniex_beats_analytical_on_heldout(self, emulator,
                                                test_points):
        """The paper's core claim (Fig. 5) at miniature scale."""
        analytical = AnalyticalLinearModel(CFG)
        i_geniex = np.empty_like(test_points.i_nonideal_a)
        i_analytical = np.empty_like(test_points.i_nonideal_a)
        for group in range(5):
            rows = np.nonzero(test_points.group_index == group)[0]
            g = test_points.conductances_s[group]
            i_geniex[rows] = emulator.for_matrix(g).currents(
                test_points.voltages_v[rows])
            i_analytical[rows] = analytical.predict_currents(
                test_points.voltages_v[rows], g)
        rmse_geniex = rmse_of_nf(test_points.i_ideal_a,
                                 test_points.i_nonideal_a, i_geniex)
        rmse_analytical = rmse_of_nf(test_points.i_ideal_a,
                                     test_points.i_nonideal_a,
                                     i_analytical)
        assert rmse_geniex < rmse_analytical

    def test_geniex_currents_close_to_circuit(self, emulator, test_points):
        group = 1
        rows = np.nonzero(test_points.group_index == group)[0]
        g = test_points.conductances_s[group]
        predicted = emulator.for_matrix(g).currents(
            test_points.voltages_v[rows])
        reference = test_points.i_nonideal_a[rows]
        mask = reference > 1e-8
        rel = np.abs(predicted[mask] - reference[mask]) / reference[mask]
        # 0.5 V is the hardest regime (device boost up to ~80%); the
        # quickly-trained test emulator tracks the circuit to ~15% median
        # while the linear model is ~25%+ off here.
        assert np.median(rel) < 0.2, \
            "emulated currents should track the circuit within ~20%"


class TestFuncsimEngineAgreement:
    def test_geniex_engine_tracks_circuit_engine(self, emulator, rng):
        """Through the full bit-sliced pipeline, the GENIEx engine must
        stay strongly correlated with the circuit engine and capture the
        dominant non-ideality (here: device-boost inflated currents at
        0.5 V, which the ideal engine misses entirely)."""
        sim = FuncSimConfig().with_precision(8)
        x = np.abs(rng.normal(size=(3, 12))) * 0.3
        w = rng.normal(size=(12, 6)) * 0.3

        def run(kind, **kwargs):
            engine = make_engine(kind, CFG, sim, **kwargs)
            return engine.matmul(x, engine.prepare(w))

        out_circuit = run("circuit")
        out_geniex = run("geniex", emulator=emulator)
        scale = np.abs(out_circuit).mean()
        assert np.all(np.isfinite(out_geniex))
        corr = np.corrcoef(out_circuit.ravel(), out_geniex.ravel())[0, 1]
        assert corr > 0.95
        assert np.abs(out_geniex - out_circuit).mean() < 0.5 * scale
        # It must move in the circuit's direction relative to ideal: the
        # 0.5 V boost inflates outputs, and GENIEx should reflect that on
        # the entries the circuit inflates most.
        from repro.funcsim import IdealMvmEngine
        ideal_engine = IdealMvmEngine(sim)
        out_ideal = ideal_engine.matmul(x, ideal_engine.prepare(w))
        boost = (out_circuit - out_ideal).ravel()
        predicted_boost = (out_geniex - out_ideal).ravel()
        # Directional agreement: the emulator must predict non-ideality of
        # the right sign/shape, not merely noise around ideal.
        assert np.corrcoef(boost, predicted_boost)[0, 1] > 0.3
        assert np.sign(predicted_boost.mean()) == np.sign(boost.mean())

    def test_voltage_cache_path_matches_uncached(self, emulator, rng):
        factory = GeniexTileFactory(emulator)
        g = rng.uniform(CFG.g_off_s, CFG.g_on_s, size=CFG.shape)
        tile = factory.build(g)
        v = rng.uniform(0, CFG.v_supply_v, size=(5, CFG.rows))
        # The kernel's path: tile-row voltages prepared once, then the
        # tile's forward; the public call prepares its own.
        fr = emulator.normalizer.denormalize_fr(
            tile.forward(factory.prepare_voltages(v)))
        np.testing.assert_array_equal(tile.fr(v), fr)
        np.testing.assert_allclose(tile.currents(v), (v @ g) / fr,
                                   rtol=1e-6)


class TestNetworkOnCrossbar:
    def test_network_logits_show_bounded_nonideality(self, emulator, rng):
        """A whole network runs through the GENIEx engine: logits must be
        finite, visibly different from ideal fixed point (the modelled
        non-ideality is not a no-op) but bounded — predictions should not
        collapse at the paper's nominal operating point."""
        model = LeNet(in_channels=1, num_classes=4, image_size=8, width=4,
                      seed=0).eval()
        x = Tensor(rng.normal(size=(8, 1, 8, 8)).astype(np.float32) * 0.4)
        sim = FuncSimConfig()
        with no_grad():
            ideal_engine = IdealMvmEngine(sim)
            ref = convert_to_mvm(model, ideal_engine)(x).data
            out_geniex = convert_to_mvm(
                model, make_engine("geniex", CFG, sim,
                                   emulator=emulator))(x).data
        assert np.all(np.isfinite(out_geniex))
        deviation = np.abs(out_geniex - ref).mean()
        scale = np.abs(ref).mean()
        assert deviation > 1e-4, "non-ideality should be visible"
        # At 0.5 V the boost is large (Fig. 3: ~25% current error), so the
        # logits move substantially — but they must stay bounded.
        assert deviation < 3 * scale, "logits should not blow up"

    def test_engine_reuse_across_layers(self, emulator, rng):
        """One engine instance serves several layers (prepared per layer)."""
        engine = make_engine("geniex", CFG, FuncSimConfig(),
                             emulator=emulator)
        model = LeNet(in_channels=1, num_classes=3, image_size=8, width=4,
                      seed=1).eval()
        converted = convert_to_mvm(model, engine)
        x = Tensor(rng.normal(size=(2, 1, 8, 8)).astype(np.float32))
        with no_grad():
            out = converted(x)
        assert out.shape == (2, 3)
        assert np.all(np.isfinite(out.data))
