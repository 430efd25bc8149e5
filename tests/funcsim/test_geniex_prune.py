"""Dead-unit pruning of GENIEx tiles: soundness, equivalence, invariance.

A programmed GENIEx tile drops every hidden unit whose ReLU provably
outputs 0 for all legal word-line voltages (see
:meth:`repro.core.emulator.GeniexTileFactory.kept_units`). These tests
pin that the proof holds — in exact arithmetic and in the float32 GEMM
the kernel runs — for random emulators, faulty conductances and voltage
ceilings other than the emulator's own supply; that the pruned forward
equals an unpruned one; that pruning keeps the serving contract
(batch-invariant rows, a warm engine == a fresh one bit for bit); and
that the stacked tile-row forward of batch-invariant engines, which pads
every tile to the tile-row's widest kept set, equals each tile's own
forward byte for byte.
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
from repro.funcsim.compiler import ScratchPool
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
    """8x8 emulator whose tiles keep 16 or 32 of 48 hidden units."""
    return random_emulator(8, 8, 48, 1, seed=3, g_gain=3.0)


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

    @pytest.mark.parametrize("invariant", [False, True])
    def test_equals_fresh_engine(self, pruned_emulator, weights, rng,
                                 invariant):
        """Tiles with different kept counts share one kernel: a warm
        engine equals a fresh one at every batch size."""
        engine = self._engine(pruned_emulator, batch_invariant=invariant)
        prepared = engine.prepare(weights)
        assert len(_kept_counts(prepared)) > 1
        for n in (1, 2, 7, 40):
            x = rng.normal(size=(n, 20)) * 0.4
            fresh = self._engine(pruned_emulator, batch_invariant=invariant)
            assert engine.matmul(x, prepared).tobytes() == \
                fresh.matmul(x, fresh.prepare(weights)).tobytes()

    def test_batch_invariant_rows(self, pruned_emulator, weights, rng):
        """Every row equals its single-row result byte for byte, at every
        batch size."""
        engine = self._engine(pruned_emulator, batch_invariant=True)
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
        assert meta[0]["hidden_total"] == 48 * len(_tiles(prepared))
        assert meta[0]["hidden_kept"] == sum(
            m.kept.size for m in _tiles(prepared))
        assert meta[0]["hidden_kept"] < meta[0]["hidden_total"]


@pytest.fixture(scope="module")
def pruned_emulator_2l():
    """Two-hidden-layer twin of ``pruned_emulator`` (a shared tail GEMM)."""
    return random_emulator(8, 8, 48, 2, seed=3, g_gain=3.0)


def _stacked_layer(emulator, invariant=True, seed=0):
    engine = make_engine("geniex", TestPrunedEngine.XCFG, SCFG,
                         emulator=emulator, batch_invariant=invariant)
    weights = np.random.default_rng(seed).normal(size=(20, 13)) * 0.3
    return engine, engine.prepare(weights)


class TestStackedForward:
    """Batch-invariant engines run each tile-row as one stacked forward."""

    def test_chosen_by_batch_invariance(self, pruned_emulator):
        _, prepared = _stacked_layer(pruned_emulator, invariant=True)
        assert all(s is not None for s in prepared.row_stacks)
        _, prepared = _stacked_layer(pruned_emulator, invariant=False)
        assert all(s is None for s in prepared.row_stacks)

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("budget", [compiler_mod.STACK_GEMM_COLUMNS, 40])
    def test_blocks_equal_tile_forward(self, pruned_emulator,
                                       pruned_emulator_2l, monkeypatch,
                                       layers, budget):
        """Each model's block equals that tile's own forward, at every
        batch size, with one or several first-layer GEMM groups and with
        or without a shared tail layer.

        Byte for byte when the padded second layer feeds the 48-wide
        second hidden layer. With one hidden layer it feeds the 8 output
        columns directly, and there OpenBLAS sums a 16-deep product in a
        different order than the same product zero-padded to 32 deep (a
        kernel choice for narrow outputs): blocks then agree to 2 float32
        ulps of the block's largest output.
        """
        emulator = pruned_emulator if layers == 1 else pruned_emulator_2l
        monkeypatch.setattr(compiler_mod, "STACK_GEMM_COLUMNS", budget)
        engine, prepared = _stacked_layer(emulator)
        plan = prepared.plan
        factory = engine.tile_factory
        # Tiles of one tile-row keep different counts: padding is live.
        assert any(len({m.kept.size for m in models}) > 1
                   for models in prepared.row_models)
        if budget == 40:
            assert any(len(s.first) > 1 for s in prepared.row_stacks)
        rng = np.random.default_rng(31)
        scratch = ScratchPool()
        for n in (1, 2, 7, 33):
            levels = rng.integers(0, 2 ** SCFG.stream_bits,
                                  size=(n, plan.rows))
            shared = factory.prepare_voltages(levels * plan.v_lsb)
            for tr, stack in enumerate(prepared.row_stacks):
                models = prepared.row_models[tr]
                out = np.empty((len(models), n, plan.cols))
                stack.forward(shared, out, scratch)
                for mi, model in enumerate(models):
                    own = model.forward(shared)
                    where = f"rows={n} tile-row={tr} model={mi}"
                    if layers == 2:
                        assert out[mi].tobytes() == own.tobytes(), where
                    else:
                        ulp = np.spacing(np.float32(np.abs(own).max()))
                        np.testing.assert_allclose(
                            out[mi], own, rtol=0, atol=2 * float(ulp),
                            err_msg=where)


@pytest.fixture(scope="module")
def stacked_pads(pruned_emulator):
    """(factory, stack, pad columns) of the tile-row with most padding."""
    engine, prepared = _stacked_layer(pruned_emulator, seed=4)
    best = None
    for tr, stack in enumerate(prepared.row_stacks):
        kmax = stack.w2.shape[1]
        pads = np.concatenate([
            np.arange(mi * kmax + m.kept.size, (mi + 1) * kmax)
            for mi, m in enumerate(prepared.row_models[tr])])
        if best is None or pads.size > best[2].size:
            best = (engine.tile_factory, stack, pads)
    assert best[2].size > 0
    return best


@given(volts=hnp.arrays(np.float64, st.tuples(st.integers(1, 6),
                                              st.just(8)),
                        elements=st.floats(0.0, EMULATOR_SUPPLY_V)))
def test_pad_units_are_exactly_zero(stacked_pads, volts):
    """A pad unit's post-ReLU output is exactly 0 for every word-line
    voltage in ``[0, v_max]``: zero voltage weights and bias -1."""
    factory, stack, pads = stacked_pads
    v_aug = factory.prepare_voltages(volts)
    hidden = np.concatenate([batch_invariant_matmul(v_aug, w)
                             for _, w in stack.first], axis=1)
    post = np.maximum(hidden, 0.0)
    assert np.all(hidden[:, pads] == -1.0)
    assert post[:, pads].tobytes() == bytes(post[:, pads].nbytes)
