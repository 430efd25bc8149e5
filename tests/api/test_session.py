"""Session facade: spec-resolved engines are bit-identical to hand-wiring.

The acceptance contract of the API redesign: a spec built from
``Profile.to_spec()`` and the same setup assembled by hand via
``make_engine`` / ``convert_to_mvm`` produce **bit-identical** outputs —
for the geniex, exact and analytical kinds, on one thread and on two.
"""

import dataclasses

import numpy as np
import pytest

import repro.nn as nn
from repro.api import EmulationSpec, Session, build_engine, open_session
from repro.api.spec import RuntimeSpec
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.experiments.common import QUICK
from repro.funcsim.convert import convert_to_mvm
from repro.funcsim.engine import make_engine
from repro.nn.tensor import Tensor, no_grad

#: The quick profile shrunk to seconds: 4x4 crossbars, an 8-unit GENIEx
#: trained for 2 epochs on a 3x4 sweep.
TINY = dataclasses.replace(
    QUICK, name="tiny", base_size=4, dnn_base_size=4, geniex_hidden=8,
    geniex_hidden_layers=1, dnn_geniex_hidden=8, dnn_geniex_hidden_layers=1,
    geniex_n_g=3, geniex_n_v=4, geniex_epochs=2, geniex_batch=8,
    geniex_patience=1)

KINDS = ("geniex", "exact", "analytical")


@pytest.fixture
def zoo(tmp_path):
    return GeniexZoo(cache_dir=str(tmp_path / "zoo"))


def hand_wired_engine(kind, zoo, workers=None):
    """The historical assembly the spec path must reproduce exactly."""
    config = TINY.dnn_crossbar()
    sim = TINY.funcsim()
    emulator = None
    if kind == "geniex":
        emulator = zoo.get_or_train(config, TINY.sampling_spec(0),
                                    TINY.dnn_train_spec(0))
    return make_engine(kind, config, sim, emulator=emulator,
                       workers=workers)


def payload(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((4, 4)) * 0.4,
            rng.standard_normal((6, 4)) * 0.5)


class TestMatmulEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    def test_inline_bit_identical_to_hand_wired(self, kind, zoo):
        weights, x = payload()
        engine = hand_wired_engine(kind, zoo)
        expected = engine.matmul(x, engine.prepare(weights))
        with open_session(TINY.to_spec(kind), zoo=zoo) as session:
            np.testing.assert_array_equal(session.matmul(x, weights),
                                          expected)

    @pytest.mark.parametrize("kind", KINDS)
    def test_workers2_bit_identical_to_hand_wired(self, kind, zoo):
        weights, x = payload(1)
        engine = hand_wired_engine(kind, zoo, workers=2)
        try:
            expected = engine.matmul(x, engine.prepare(weights))
        finally:
            engine.close()
        spec = TINY.to_spec(kind).evolve(runtime={"workers": 2})
        with open_session(spec, zoo=zoo) as session:
            np.testing.assert_array_equal(session.matmul(x, weights),
                                          expected)

    def test_workers2_equals_inline(self, zoo):
        weights, x = payload(2)
        spec = TINY.to_spec("exact")
        with open_session(spec, zoo=zoo) as inline, \
                open_session(spec.evolve(runtime={"workers": 2}),
                             zoo=zoo) as sharded:
            np.testing.assert_array_equal(sharded.matmul(x, weights),
                                          inline.matmul(x, weights))


class TestCompileEquivalence:
    @pytest.mark.parametrize("kind", ("exact", "analytical"))
    def test_converted_model_bit_identical(self, kind, zoo):
        model = nn.Sequential(nn.Linear(4, 3, seed=0)).eval()
        x = Tensor(np.random.default_rng(0).normal(
            size=(5, 4)).astype(np.float32) * 0.5)
        engine = hand_wired_engine(kind, zoo)
        converted = convert_to_mvm(model, engine)
        with no_grad():
            expected = converted(x).data
        with open_session(TINY.to_spec(kind), zoo=zoo) as session:
            with no_grad():
                got = session.compile(model)(x).data
        np.testing.assert_array_equal(got, expected)


class TestSessionBehaviour:
    def test_open_session_accepts_preset_names_and_dicts(self):
        with open_session("quick-exact") as by_name:
            assert by_name.spec.engine == "exact"
        with open_session(by_name.spec.to_dict()) as by_dict:
            assert by_dict.spec == by_name.spec

    def test_prepared_matrices_are_memoised(self, zoo):
        weights, x = payload()
        with open_session(TINY.to_spec("exact"), zoo=zoo) as session:
            assert session.prepare(weights) is session.prepare(
                weights.copy())

    def test_close_degrades_to_inline(self, zoo):
        weights, x = payload()
        spec = TINY.to_spec("exact").evolve(runtime={"workers": 2})
        session = open_session(spec, zoo=zoo)
        before = session.matmul(x, weights)
        session.close()
        session.close()  # idempotent
        np.testing.assert_array_equal(session.matmul(x, weights), before)

    def test_ideal_session_runs(self, zoo):
        weights, x = payload()
        with open_session(TINY.to_spec("ideal"), zoo=zoo) as session:
            out = session.matmul(x, weights)
            assert out.shape == (x.shape[0], weights.shape[1])
            assert np.all(np.isfinite(out))

    def test_solve_batch_matches_circuit_simulator(self, zoo):
        from repro.circuit.simulator import CrossbarCircuitSimulator
        spec = TINY.to_spec("exact")
        config = spec.xbar.to_config()
        rng = np.random.default_rng(3)
        g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
        v = rng.uniform(0, config.v_supply_v, size=(3, config.rows))
        with open_session(spec, zoo=zoo) as session:
            got = session.solve_batch(v, g, mode="full")
        expected = CrossbarCircuitSimulator(config).solve_batch(
            v, g, mode="full")
        np.testing.assert_array_equal(got, expected)

    def test_stats_reports_spec_key_and_counters(self, zoo):
        weights, x = payload()
        with open_session(TINY.to_spec("exact"), zoo=zoo) as session:
            session.matmul(x, weights)
            stats = session.stats()
        assert stats["spec_key"] == session.spec.key()
        assert stats["engine"]["matmuls"] == 1
        assert "tile_cache" in stats

    def test_geniex_resolution_goes_through_zoo(self, zoo):
        spec = TINY.to_spec("geniex")
        with open_session(spec, zoo=zoo) as session:
            assert session.emulator is not None
        # The artifact landed under the spec's model key.
        import os
        assert os.path.exists(
            os.path.join(zoo.cache_dir,
                         f"geniex-{spec.model_key()}.npz"))

    def test_build_engine_requires_resolved_emulator(self):
        with pytest.raises(ConfigError, match="resolved emulator"):
            build_engine(TINY.to_spec("geniex"))

    def test_session_rejects_non_spec(self):
        with pytest.raises(ConfigError, match="EmulationSpec"):
            Session("quick")

    def test_profile_to_spec_runtime(self):
        spec = TINY.to_spec("exact", workers=3)
        assert spec.runtime == RuntimeSpec(workers=3)
        assert spec.xbar.rows == TINY.dnn_base_size


class TestEvaluateModeEquivalence:
    def test_evaluate_mode_matches_hand_wired_engine_path(self, zoo):
        """The rewired evaluate_mode (spec + Session) reproduces the
        historical make_engine + evaluate_engine numbers exactly."""
        from repro.experiments.accuracy import (evaluate_engine,
                                                evaluate_mode)
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(4, 3, seed=0)).eval()
        x = rng.normal(size=(12, 4)).astype(np.float32) * 0.5
        y = rng.integers(0, 3, size=12)
        config, sim = TINY.dnn_crossbar(), TINY.funcsim()
        engine = make_engine("exact", config, sim)
        expected = evaluate_engine(model, x, y, engine, batch=4)
        got = evaluate_mode(model, x, y, "exact", config, sim, batch=4,
                            workers=1)
        assert got == expected

    def test_evaluate_mode_geniex_requires_emulator(self):
        from repro.experiments.accuracy import evaluate_mode
        with pytest.raises(ConfigError, match="trained emulator"):
            evaluate_mode(None, np.zeros((1, 4)), np.zeros(1), "geniex",
                          TINY.dnn_crossbar(), TINY.funcsim())


class TestShardedSessionBounds:
    def test_executor_programs_evict_with_prepared_lru(self, zoo):
        """Streaming many distinct matrices through a threaded session
        keeps the layer programs bounded: they live on the prepared
        matrices, which the session's LRU evicts."""
        from repro.api.session import PREPARED_CACHE_ENTRIES
        rng = np.random.default_rng(0)
        spec = TINY.to_spec("exact").evolve(runtime={"workers": 2})
        x = rng.standard_normal((2, 4)) * 0.5
        with open_session(spec, zoo=zoo) as session:
            for _ in range(PREPARED_CACHE_ENTRIES + 8):
                session.matmul(x, rng.standard_normal((4, 4)) * 0.4)
            assert len(session._prepared) <= PREPARED_CACHE_ENTRIES
            # Evicted matrices re-prepare transparently on reuse.
            w = rng.standard_normal((4, 4)) * 0.4
            y = session.matmul(x, w)
            np.testing.assert_array_equal(session.matmul(x, w), y)
