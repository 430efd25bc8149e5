"""Programmed-crossbar tile model vs per-sample GeniexEmulator agreement.

:meth:`GeniexEmulator.for_matrix` returns the engine's
:class:`~repro.core.emulator.GeniexTileModel`: the conductance term of the
first layer folded into a per-tile bias, and the hidden units that bias
provably keeps at zero dropped. It must agree with the unfolded, unpruned
per-sample :meth:`GeniexEmulator.predict_currents` to float32 rounding.
These tests make that concrete on the edge cases the functional simulator
actually produces (single-vector batches, 1-D inputs, non-contiguous views,
mixed float32/float64 voltages), on emulators whose tiles really prune
(one and two hidden layers, faulty conductances), and pin the tile's
input checks: voltage width and the ``[0, v_supply_v]`` range the pruning
is proven for.
"""

import numpy as np
import pytest

from repro.core.dataset import build_geniex_dataset
from repro.core.emulator import GeniexEmulator
from repro.core.model import GeniexNet, Normalizer
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec, train_geniex
from repro.errors import ConfigError, ShapeError
from repro.nonideal.pipeline import NonidealitySpec, as_pipeline
from repro.nonideal.transforms import StuckSpec
from repro.xbar.config import CrossbarConfig

CFG = CrossbarConfig(rows=4, cols=4)

# Agreement tolerance: both paths run the same float32 network; they differ
# only in where the affine first layer is split and which provably-zero
# hidden units they sum, so float32 rounding is the only allowed
# discrepancy.
RTOL = 1e-5
ATOL = 1e-12


@pytest.fixture(scope="module")
def emulator():
    dataset = build_geniex_dataset(
        CFG, SamplingSpec(n_g_matrices=5, n_v_per_g=8, seed=0))
    model, _ = train_geniex(
        dataset, TrainSpec(hidden=24, epochs=20, batch_size=16, seed=0))
    return GeniexEmulator(model), dataset


def assert_paths_agree(emulator, voltages, conductance):
    general = emulator.predict_currents(voltages, conductance)
    fast = emulator.for_matrix(conductance).currents(voltages)
    np.testing.assert_allclose(fast, general, rtol=RTOL, atol=ATOL)
    return general, fast


class TestMatrixEmulatorAgreement:
    def test_single_row_batch(self, emulator):
        emu, dataset = emulator
        g = dataset.conductances_s[0]
        v = dataset.voltages_v[:1]  # (1, rows)
        general, fast = assert_paths_agree(emu, v, g)
        assert general.shape == fast.shape == (1, CFG.cols)

    def test_one_dimensional_input(self, emulator):
        emu, dataset = emulator
        g = dataset.conductances_s[0]
        v = dataset.voltages_v[0]  # (rows,)
        general, fast = assert_paths_agree(emu, v, g)
        assert general.shape == (1, CFG.cols)

    def test_non_contiguous_voltages(self, emulator):
        emu, dataset = emulator
        g = dataset.conductances_s[1]
        strided = dataset.voltages_v[:16:2]  # stride-2 view
        assert not strided.flags["C_CONTIGUOUS"]
        assert_paths_agree(emu, strided, g)
        transposed = np.asfortranarray(dataset.voltages_v[:6])
        assert not transposed.flags["C_CONTIGUOUS"]
        general, _ = assert_paths_agree(emu, transposed, g)
        np.testing.assert_allclose(
            general, emu.predict_currents(dataset.voltages_v[:6], g),
            rtol=RTOL, atol=ATOL)

    def test_non_contiguous_conductance(self, emulator):
        emu, dataset = emulator
        big = np.zeros((2 * CFG.rows, 2 * CFG.cols))
        big[::2, ::2] = dataset.conductances_s[2]
        view = big[::2, ::2]
        assert not view.flags["C_CONTIGUOUS"]
        v = dataset.voltages_v[:5]
        general, fast = assert_paths_agree(emu, v, view)
        np.testing.assert_allclose(
            general, emu.predict_currents(v, dataset.conductances_s[2]),
            rtol=RTOL, atol=ATOL)

    def test_float32_vs_float64_voltages(self, emulator):
        emu, dataset = emulator
        g = dataset.conductances_s[3]
        v64 = dataset.voltages_v[:8]
        v32 = v64.astype(np.float32)
        out64, _ = assert_paths_agree(emu, v64, g)
        out32, _ = assert_paths_agree(emu, v32, g)
        # float32 inputs lose at most input-rounding precision; the network
        # itself already runs in float32, so outputs stay close.
        np.testing.assert_allclose(out32, out64, rtol=1e-4, atol=1e-10)

    def test_zero_voltages(self, emulator):
        emu, dataset = emulator
        g = dataset.conductances_s[0]
        v = np.zeros((3, CFG.rows))
        general, fast = assert_paths_agree(emu, v, g)
        # fR is finite, I_ideal is exactly zero => currents exactly zero.
        np.testing.assert_array_equal(general, np.zeros((3, CFG.cols)))

    def test_batched_conductance_stack_matches_per_matrix(self, emulator):
        """The (B, rows, cols) G path agrees with per-matrix fast paths."""
        emu, dataset = emulator
        v = dataset.voltages_v[:3]
        g_stack = dataset.conductances_s[:3]
        stacked = emu.predict_currents(v, g_stack)
        for k in range(3):
            fast = emu.for_matrix(g_stack[k]).currents(v[k])
            np.testing.assert_allclose(stacked[k], fast[0], rtol=RTOL,
                                       atol=ATOL)


def random_emulator(hidden_layers: int, supply_v: float = 0.25,
                    rows: int = 8, cols: int = 6, hidden: int = 64,
                    seed: int = 3) -> GeniexEmulator:
    """Untrained emulator whose hidden biases straddle the dead/alive
    boundary, so its programmed tiles drop live-looking units."""
    cfg = CrossbarConfig(rows=rows, cols=cols, v_supply_v=supply_v)
    net = GeniexNet(rows, cols, hidden=hidden, hidden_layers=hidden_layers,
                    normalizer=Normalizer.from_config(cfg, 0.8, 1.3),
                    seed=seed)
    rng = np.random.default_rng(seed)
    first = net.body[0]
    first.bias.data[...] = rng.uniform(-2.0, 0.5, size=hidden)
    first.weight.data[:, rows:] *= 3.0
    return GeniexEmulator(net)


def programmed_g(emulator, faulty: bool, seed: int) -> np.ndarray:
    norm = emulator.normalizer
    rng = np.random.default_rng(seed)
    g = rng.uniform(norm.g_off_s, norm.g_on_s,
                    size=(emulator.rows, emulator.cols))
    if faulty:
        g = as_pipeline(NonidealitySpec(
            seed=seed, stuck=StuckSpec(p_on=0.15, p_off=0.15))).perturb(
                g, (seed,), norm.g_off_s, norm.g_on_s)
    return g


class TestPrunedTileAgreement:
    """Tiles that really prune agree with the unpruned per-sample path."""

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("hidden_layers", [1, 2])
    def test_matches_unpruned_per_sample(self, hidden_layers, faulty):
        emu = random_emulator(hidden_layers)
        rng = np.random.default_rng(7)
        supply = emu.normalizer.v_supply_v
        for seed in range(4):
            g = programmed_g(emu, faulty, seed)
            tile = emu.for_matrix(g)
            assert tile.kept.size < emu.model.hidden
            v = rng.uniform(0.0, supply, size=(33, emu.rows))
            v[0] = supply  # the corner the bound is proven at
            v[1] = 0.0
            np.testing.assert_allclose(tile.currents(v),
                                       emu.predict_currents(v, g),
                                       rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(tile.fr(v), emu.predict_fr(v, g),
                                       rtol=RTOL)

    @pytest.mark.parametrize("hidden_layers", [1, 2])
    def test_batch_invariant_rows_equal_single_row_calls(self,
                                                         hidden_layers):
        emu = random_emulator(hidden_layers)
        g = programmed_g(emu, True, 11)
        tile = emu.for_matrix(g)
        assert tile.kept.size < emu.model.hidden
        v = np.random.default_rng(12).uniform(
            0.0, emu.normalizer.v_supply_v, size=(40, emu.rows))
        for n in (2, 7, 40):
            currents, fr = tile.currents(v[:n]), tile.fr(v[:n])
            for i in range(n):
                assert currents[i].tobytes() == \
                    tile.currents(v[i])[0].tobytes()
                assert fr[i].tobytes() == tile.fr(v[i])[0].tobytes()

    def test_factory_reused(self):
        emu = random_emulator(1)
        g = programmed_g(emu, False, 0)
        a, b = emu.for_matrix(g), emu.for_matrix(2 * g)
        assert a._factory is b._factory
        assert a._factory.v_supply_v == emu.normalizer.v_supply_v


class TestTileInputChecks:
    #: A supply float32 does not represent exactly.
    SUPPLY_V = 0.3

    @pytest.fixture(scope="class")
    def tile(self):
        emu = random_emulator(1, supply_v=self.SUPPLY_V)
        return emu.for_matrix(programmed_g(emu, False, 1))

    @pytest.mark.parametrize("method", ["currents", "fr"])
    @pytest.mark.parametrize("bad", [-1e-9, 0.31, 0.3 * (1 + 1e-6),
                                     np.nan])
    def test_out_of_range_rejected(self, tile, method, bad):
        v = np.full((3, tile.conductance_s.shape[0]), 0.1)
        v[1, 2] = bad
        with pytest.raises(ConfigError, match=r"\[0, 0\.3\] V"):
            getattr(tile, method)(v)

    @pytest.mark.parametrize("method", ["currents", "fr"])
    def test_supply_and_its_float32_twin_accepted(self, tile, method):
        twin = float(np.float32(self.SUPPLY_V))
        assert twin != self.SUPPLY_V
        v = np.zeros((3, tile.conductance_s.shape[0]))
        v[0] = self.SUPPLY_V
        v[1] = twin
        out = getattr(tile, method)(v)
        assert np.all(np.isfinite(out))
        # Both normalise to exactly 1.0: the network sees one input.
        fr = tile.fr(v)
        np.testing.assert_array_equal(fr[0], fr[1])

    @pytest.mark.parametrize("method", ["currents", "fr"])
    def test_wrong_width_is_shape_error(self, tile, method):
        rows = tile.conductance_s.shape[0]
        with pytest.raises(ShapeError, match=rf"\(B, {rows}\)"):
            getattr(tile, method)(np.zeros((2, rows + 1)))
        with pytest.raises(ShapeError, match=rf"\(B, {rows}\)"):
            getattr(tile, method)(np.zeros(rows - 1))
