"""Dead-unit pruning of GENIEx tiles: soundness, equivalence, invariance.

A programmed GENIEx tile drops every hidden unit whose ReLU provably
outputs 0 for all legal word-line voltages (see
:meth:`repro.core.emulator.GeniexTileFactory.kept_units`). These tests
pin that the proof holds — in exact arithmetic and in the float32 GEMM
the kernel runs — for random emulators, faulty conductances and voltage
ceilings other than the emulator's own supply; that the pruned forward
equals an unpruned one; that pruning keeps the serving contract
(batch-invariant rows, a warm engine == a fresh one bit for bit); and
that the width-group forward every geniex layer runs, which stacks a
layer's tiles of one kept width, equals each tile's own forward byte
for byte at any scratch budget and in any tile-row range.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.emulator import HIDDEN_PAD, GeniexEmulator, GeniexTileFactory
from repro.core.model import GeniexNet, Normalizer
from repro.errors import ConfigError
from repro.funcsim import FuncSimConfig, make_engine
from repro.funcsim import compiler as compiler_mod
from repro.funcsim.engine import CrossbarMvmEngine
from repro.nonideal.pipeline import NonidealitySpec, as_pipeline
from repro.nonideal.transforms import StuckSpec, VariationSpec
from repro.obs import start_trace
from repro.utils.numerics import batch_invariant_matmul
from repro.xbar.config import CrossbarConfig

SCFG = FuncSimConfig()
EMULATOR_SUPPLY_V = 0.25

FAULTS = {
    "clean": None,
    "stuck": NonidealitySpec(seed=3, stuck=StuckSpec(p_on=0.1, p_off=0.1)),
    "variation": NonidealitySpec(seed=5, variation=VariationSpec(sigma=0.3)),
}


def random_emulator(rows: int, cols: int, hidden: int, hidden_layers: int,
                    seed: int, g_gain: float = 1.0) -> GeniexEmulator:
    """Untrained emulator whose hidden biases straddle the dead/alive
    boundary (uniform over a range wider than the voltage term).
    ``g_gain`` scales the conductance weights, which makes the kept set
    vary more from tile to tile."""
    cfg = CrossbarConfig(rows=rows, cols=cols, v_supply_v=EMULATOR_SUPPLY_V)
    net = GeniexNet(rows, cols, hidden=hidden, hidden_layers=hidden_layers,
                    normalizer=Normalizer.from_config(cfg, 0.8, 1.3),
                    seed=seed)
    rng = np.random.default_rng(seed)
    first = net.body[0]
    first.bias.data[...] = rng.uniform(-2.0, 0.5, size=hidden)
    first.weight.data[:, rows:] *= g_gain
    return GeniexEmulator(net)


def programmed_tiles(emulator, factory, fault: str, n_tiles: int, seed: int):
    """(tile model, full float32 hidden bias, conductances) for random
    conductances."""
    cfg = CrossbarConfig(rows=emulator.rows, cols=emulator.cols)
    pipeline = as_pipeline(FAULTS[fault])
    rng = np.random.default_rng(seed)
    _, w1g, b1 = emulator.model.first_layer_views()
    out = []
    for t in range(n_tiles):
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=cfg.shape)
        if pipeline is not None:
            g = pipeline.perturb(g, (seed, 0, 0, t), cfg.g_off_s, cfg.g_on_s)
        tile = factory.build(g)
        g_norm = emulator.normalizer.normalize_g(g).reshape(-1)
        out.append((tile, (g_norm @ w1g.T + b1).astype(np.float32), g))
    return out


def full_first_layer(emulator, bias: np.ndarray) -> np.ndarray:
    """Unpruned ``[w1v.T; bias]`` operand ``(rows + 1, hidden)``."""
    w1v, _, _ = emulator.model.first_layer_views()
    return np.concatenate([w1v.T, bias[None, :]])


#: Pruned tile vs the unpruned per-sample forward
#: (:meth:`GeniexEmulator.predict_fr`), relative to the fR label range:
#: the two differ only in float32 summation order (conductance term
#: folded into a bias inside the GEMM, zero columns left out), a few ulps
#: of the hidden sums.
FR_TOLERANCE = 1e-5


@given(rows=st.integers(2, 6), cols=st.integers(1, 4),
       hidden=st.integers(1, 48), hidden_layers=st.sampled_from([1, 2]),
       v_max=st.sampled_from([0.5, 1.0, 2.0]),
       fault=st.sampled_from(sorted(FAULTS)),
       seed=st.integers(0, 2 ** 16))
def test_pruning_is_sound(rows, cols, hidden, hidden_layers, v_max, fault,
                          seed):
    emulator = random_emulator(rows, cols, hidden, hidden_layers, seed)
    supply = v_max * EMULATOR_SUPPLY_V
    factory = GeniexTileFactory(emulator, v_supply_v=supply)
    assert factory.v_max == v_max
    w1v, _, _ = emulator.model.first_layer_views()
    rng = np.random.default_rng(seed + 1)
    for tile, bias, g in programmed_tiles(emulator, factory, fault, 4,
                                          seed):
        kept = tile.kept
        k = kept.size
        # (c) padded to the pad width, or the whole layer.
        assert k == hidden or (k % HIDDEN_PAD == 0 and k > 0)
        w_full = full_first_layer(emulator, bias)
        np.testing.assert_array_equal(tile.w_aug, w_full[:, kept])
        dropped = np.setdiff1d(np.arange(hidden), kept)

        # (a) worst-case corner: v_max wherever the weight is positive.
        corner = np.where(w1v[dropped] > 0, supply, 0.0)
        v_aug = factory.prepare_voltages(corner)
        rows_ = np.arange(dropped.size)
        exact = (v_aug.astype(np.float64) @ w_full.astype(np.float64))
        assert np.all(exact[rows_, dropped] <= 0.0)
        for product in (np.matmul, batch_invariant_matmul):
            assert np.all(product(v_aug, w_full)[rows_, dropped] <= 0.0)

        # (a) random in-range batches, DAC-quantised and continuous.
        levels = rng.integers(0, 2 ** SCFG.stream_bits, size=(33, rows))
        for volts in (levels * supply / (2 ** SCFG.stream_bits - 1),
                      rng.uniform(0.0, supply, size=(33, rows))):
            pre = factory.prepare_voltages(volts) @ w_full
            assert np.all(pre[:, dropped] <= 0.0)

            # (b) pruned forward == unpruned reference, to float32.
            norm = emulator.normalizer
            np.testing.assert_allclose(
                norm.denormalize_fr(
                    tile.forward(factory.prepare_voltages(volts))),
                emulator.predict_fr(volts, g), rtol=0,
                atol=FR_TOLERANCE * (norm.fr_max - norm.fr_min))


def test_ceiling_above_factory_supply_rejected():
    emulator = random_emulator(4, 4, 24, 1, seed=0)
    xcfg = CrossbarConfig(rows=4, cols=4, v_supply_v=2 * EMULATOR_SUPPLY_V)
    with pytest.raises(ConfigError, match="pruned for word-line voltages"):
        CrossbarMvmEngine(xcfg, SCFG, GeniexTileFactory(emulator))
    # make_engine hands the factory the engine's own supply.
    engine = make_engine("geniex", xcfg, SCFG, emulator=emulator)
    assert engine.tile_factory.v_max == 2.0


@pytest.fixture(scope="module")
def pruned_emulator():
    """8x8 emulator whose tiles keep 32 or 64 of 80 hidden units."""
    return random_emulator(8, 8, 80, 1, seed=3, g_gain=3.0)


@pytest.fixture
def weights(rng):
    return rng.normal(size=(20, 13)) * 0.3


def _tiles(prepared) -> list:
    return [m for models in prepared.row_models for m in models]


def _kept_counts(prepared) -> set:
    return {m.kept.size for m in _tiles(prepared)}


class TestPrunedEngine:
    XCFG = CrossbarConfig(rows=8, cols=8, v_supply_v=EMULATOR_SUPPLY_V)

    def _engine(self, emulator, **kwargs):
        return make_engine("geniex", self.XCFG, SCFG, emulator=emulator,
                           **kwargs)

    @pytest.mark.parametrize("row_by_row", [False, True])
    def test_equals_fresh_engine(self, pruned_emulator, weights, rng,
                                 row_by_row):
        """Tiles with different kept counts share one kernel: a warm
        engine equals a fresh one at every batch size, whether the fresh
        engine runs the whole batch or each row alone."""
        engine = self._engine(pruned_emulator)
        prepared = engine.prepare(weights)
        assert len(_kept_counts(prepared)) > 1
        for n in (1, 2, 7, 40):
            x = rng.normal(size=(n, 20)) * 0.4
            fresh = self._engine(pruned_emulator)
            layer = fresh.prepare(weights)
            if row_by_row:
                expected = np.concatenate([fresh.matmul(x[i:i + 1], layer)
                                           for i in range(n)])
            else:
                expected = fresh.matmul(x, layer)
            assert engine.matmul(x, prepared).tobytes() == \
                expected.tobytes()

    def test_batch_invariant_rows(self, pruned_emulator, weights, rng):
        """Every row equals its single-row result byte for byte, at every
        batch size."""
        engine = self._engine(pruned_emulator)
        prepared = engine.prepare(weights)
        assert len(_kept_counts(prepared)) > 1
        for n in (1, 2, 7, 40):
            x = rng.normal(size=(n, 20)) * 0.4
            out = engine.matmul(x, prepared)
            for i in range(n):
                assert out[i].tobytes() == \
                    engine.matmul(x[i:i + 1], prepared)[0].tobytes()

    def test_compile_span_reports_kept_units(self, pruned_emulator, weights):
        engine = self._engine(pruned_emulator)
        with start_trace("compile") as trace:
            prepared = engine.prepare(weights)
        meta = [s.meta for s in trace.spans() if s.name == "kernel-compile"]
        assert len(meta) == 1
        assert meta[0]["hidden_total"] == 80 * len(_tiles(prepared))
        assert meta[0]["hidden_kept"] == sum(
            m.kept.size for m in _tiles(prepared))
        assert meta[0]["hidden_kept"] < meta[0]["hidden_total"]


@pytest.fixture(scope="module")
def pruned_emulator_2l():
    """Two-hidden-layer twin of ``pruned_emulator`` (a shared tail GEMM)."""
    return random_emulator(8, 8, 80, 2, seed=3, g_gain=3.0)


def _stacked_layer(emulator, seed=0):
    engine = make_engine("geniex", TestPrunedEngine.XCFG, SCFG,
                         emulator=emulator)
    weights = np.random.default_rng(seed).normal(size=(20, 13)) * 0.3
    return engine, engine.prepare(weights)


class TestStackedForward:
    """Every geniex layer runs its tiles as layer-wide width groups."""

    def test_groups_partition_tile_row_by_width(self, pruned_emulator):
        """The groups hold every model of the layer once, one kept width
        per group, sorted by (tile-row, model) so each tile-row is one
        slice of a group, and every tile views its group's stacked
        operands."""
        _, prepared = _stacked_layer(pruned_emulator)
        models = [m for row in prepared.row_models for m in row]
        n_models = prepared.n_models
        groups = prepared.width_groups
        index = np.concatenate([group.index for group in groups])
        assert sorted(index) == list(range(len(models)))
        for group in groups:
            assert list(group.index) == sorted(group.index)
            for tr in range(prepared.plan.t_r):
                members = group.index[group.bounds[tr]:group.bounds[tr + 1]]
                assert all(flat // n_models == tr for flat in members)
            for g, flat in enumerate(group.index):
                tile = models[flat]
                assert tile.kept.size == group.w_aug.shape[2]
                assert tile.w_aug.base is group.w_aug
                assert tile.w2_t.base is group.w2
                assert tile.w_aug.tobytes() == group.w_aug[g].tobytes()
        assert len(groups) > 1
        assert prepared.plan.t_r > 1

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize(
        "budget", [40, 512, compiler_mod.STACK_HIDDEN_ELEMENTS])
    def test_blocks_equal_tile_forward(self, pruned_emulator,
                                       pruned_emulator_2l, monkeypatch,
                                       layers, budget):
        """Each model's fR block equals that tile's own forward byte for
        byte, at every batch size and scratch budget (one tile per
        product up to whole groups), with or without a shared tail
        layer, whether or not a group's models are contiguous, and
        whether its tile-row runs alone or in a layer-wide range."""
        emulator = pruned_emulator if layers == 1 else pruned_emulator_2l
        monkeypatch.setattr(compiler_mod, "STACK_HIDDEN_ELEMENTS", budget)
        engine, prepared = _stacked_layer(emulator)
        plan = prepared.plan
        factory = engine.tile_factory
        normalizer = emulator.normalizer
        n_models = prepared.n_models
        assert any(np.any(np.diff(g.index) > 1)
                   for g in prepared.width_groups)
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 33):
            levels = rng.integers(0, 2 ** SCFG.stream_bits,
                                  size=(plan.t_r, n, plan.rows))
            voltages = levels * plan.v_lsb
            stacked = prepared._friction(0, voltages).copy()
            for tr, models in enumerate(prepared.row_models):
                shared = factory.prepare_voltages(voltages[tr])
                alone = prepared._friction(tr, voltages[tr:tr + 1])
                for mi, model in enumerate(models):
                    own = normalizer.denormalize_fr(model.forward(shared))
                    assert alone[mi].tobytes() == own.tobytes(), \
                        f"rows={n} tile-row={tr} model={mi}"
                    assert stacked[tr * n_models + mi].tobytes() == \
                        own.tobytes(), f"rows={n} tile-row={tr} model={mi}"


def _pad_units(factory, tile) -> np.ndarray:
    """Positions in ``tile.kept`` of the dead units that pad the kept
    set to a multiple of ``HIDDEN_PAD`` (see ``kept_units``)."""
    bias = tile.w_aug[-1].astype(np.float64)
    alive = bias + factory._margin_scale * np.abs(bias) > \
        factory._alive_floor[tile.kept]
    return np.flatnonzero(~alive)


@pytest.fixture(scope="module")
def padded_tile(pruned_emulator):
    """(factory, tile, pad positions) of the tile with the most pads."""
    engine, prepared = _stacked_layer(pruned_emulator, seed=4)
    factory = engine.tile_factory
    tile = max(_tiles(prepared), key=lambda m: _pad_units(factory, m).size)
    pads = _pad_units(factory, tile)
    assert pads.size > 0
    return factory, tile, pads


@given(volts=hnp.arrays(np.float64, st.tuples(st.integers(1, 6),
                                              st.just(8)),
                        elements=st.floats(0.0, EMULATOR_SUPPLY_V)))
def test_pad_units_are_exactly_zero(padded_tile, volts):
    """A pad unit's post-ReLU output is exactly 0 for every word-line
    voltage in ``[0, v_max]``: padding a tile's kept set to the
    ``HIDDEN_PAD`` grid changes which GEMM shapes run, never a value the
    second layer sees."""
    factory, tile, pads = padded_tile
    hidden = batch_invariant_matmul(factory.prepare_voltages(volts),
                                    tile.w_aug)
    assert np.all(hidden[:, pads] <= 0.0)
    post = np.maximum(hidden[:, pads], 0.0)
    assert post.tobytes() == bytes(post.nbytes)
