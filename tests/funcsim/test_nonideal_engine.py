"""Fault injection at the engine layer: determinism and uid separation.

The headline guarantee: perturbation happens once at tile-programming
time with coordinate-keyed RNG streams, so perturbed engines are
bit-identical across worker counts and chunkings, and a perturbed
preparation can never share prepared-matrix uids (and with them
tile-result cache entries or ADC noise streams) with a clean one.
"""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import make_engine
from repro.nonideal import NonidealitySpec, StuckSpec, VariationSpec
from repro.xbar.config import CrossbarConfig

XBAR = CrossbarConfig(rows=8, cols=8)
SIM = FuncSimConfig().with_precision(8)
FAULTS = NonidealitySpec(seed=11, variation=VariationSpec(sigma=0.2),
                         stuck=StuckSpec(p_on=0.05, p_off=0.05))


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, size=(6, 12))
    weights = rng.uniform(-0.5, 0.5, size=(12, 10))
    return x, weights


def run(kind, operands, nonideality=None, workers=None, shard_rows=None,
        **kwargs):
    x, weights = operands
    engine = make_engine(kind, XBAR, SIM, nonideality=nonideality,
                         workers=workers, **kwargs)
    if shard_rows is not None:  # multi-chunk, pooled shards
        engine.shard_rows = shard_rows
        engine.inline_work_threshold = 0
    try:
        prepared = engine.prepare(weights)
        return engine.matmul(x, prepared), prepared.uid
    finally:
        engine.close()


class TestPerturbationSemantics:
    @pytest.mark.parametrize("kind", ["exact", "analytical"])
    def test_faults_change_results_and_uid(self, kind, operands):
        clean_y, clean_uid = run(kind, operands)
        fault_y, fault_uid = run(kind, operands, nonideality=FAULTS)
        assert not np.array_equal(clean_y, fault_y)
        assert clean_uid != fault_uid

    def test_identity_spec_is_bit_neutral(self, operands):
        """Engines built with no node, None, and an explicit identity
        node agree on results *and* prepared-matrix uids byte-for-byte
        (the clean path's tokens are untouched by the refactor)."""
        base_y, base_uid = run("exact", operands)
        ident_y, ident_uid = run("exact", operands,
                                 nonideality=NonidealitySpec(seed=42))
        np.testing.assert_array_equal(base_y, ident_y)
        assert base_uid == ident_uid

    def test_distinct_fault_specs_get_distinct_uids(self, operands):
        _, a = run("exact", operands, nonideality=FAULTS)
        _, b = run("exact", operands, nonideality=NonidealitySpec(
            seed=12, variation=VariationSpec(sigma=0.2),
            stuck=StuckSpec(p_on=0.05, p_off=0.05)))
        assert a != b

    def test_distinct_layers_fault_independently(self):
        """Two different weight matrices map onto physically distinct
        crossbar arrays: their fault draws must not be correlated just
        because tile coordinates coincide — while re-preparing the same
        weights reproduces the same faults exactly."""
        stuck_only = NonidealitySpec(seed=0,
                                     stuck=StuckSpec(p_on=0.3, p_off=0.0))
        engine = make_engine("exact", XBAR, SIM, nonideality=stuck_only)
        # Near-zero weight levels: no cell maps to g_on naturally, so a
        # g_on cell in the programmed tile is exactly a forced fault.
        w1 = np.zeros((8, 8))
        w2 = np.full((8, 8), SIM.weight_format.resolution)

        def stuck_mask(weights):
            tile = engine.prepare(weights).models[(0, 0, 0, 0)]
            return tile.conductance_s == XBAR.g_on_s

        m1, m2, m1_again = stuck_mask(w1), stuck_mask(w2), stuck_mask(w1)
        np.testing.assert_array_equal(m1, m1_again)
        assert 0 < m1.mean() < 1, "stuck-ON faults should have landed"
        assert not np.array_equal(m1, m2), \
            "layers shared a stuck-cell mask"

    def test_two_engines_same_spec_agree_bitwise(self, operands):
        a, _ = run("analytical", operands, nonideality=FAULTS)
        b, _ = run("analytical", operands, nonideality=FAULTS)
        np.testing.assert_array_equal(a, b)

    def test_ideal_rejects_active_faults(self):
        with pytest.raises(ConfigError, match="ideal"):
            make_engine("ideal", XBAR, SIM, nonideality=FAULTS)
        # Identity normalises away and stays accepted.
        make_engine("ideal", XBAR, SIM,
                    nonideality=NonidealitySpec(seed=1))


class TestExecutorDeterminism:
    """Perturbed tiles travel inside the layer program, so every worker
    count and chunking must reproduce the one-thread result bit-for-bit."""

    @pytest.mark.parametrize("kind", ["exact", "analytical"])
    def test_all_backends_and_worker_counts_bit_identical(self, kind,
                                                          operands):
        reference, _ = run(kind, operands, nonideality=FAULTS)
        for workers in (1, 2, 3):
            y, _ = run(kind, operands, nonideality=FAULTS, workers=workers,
                       shard_rows=2)
            np.testing.assert_array_equal(
                y, reference, err_msg=f"{kind}/workers={workers}")

    def test_converted_network_with_faults_matches_across_backends(self):
        import repro.nn as nn
        from repro.funcsim.convert import convert_to_mvm
        from repro.nn.tensor import Tensor, no_grad

        model = nn.Sequential(nn.Linear(12, 10, seed=0), nn.ReLU(),
                              nn.Linear(10, 3, seed=1)).eval()
        x = Tensor(np.random.default_rng(2).normal(
            size=(4, 12)).astype(np.float32) * 0.3)

        def infer(workers=None):
            engine = make_engine("analytical", XBAR, SIM,
                                 nonideality=FAULTS, workers=workers)
            engine.shard_rows = 1
            engine.inline_work_threshold = 0
            converted = convert_to_mvm(model, engine)
            with no_grad():
                out = converted(x).data
            engine.close()
            return out

        inline = infer()
        np.testing.assert_array_equal(inline, infer(workers=2))
        # And the faults actually bite at the network level too.
        clean_engine = make_engine("analytical", XBAR, SIM)
        clean = convert_to_mvm(model, clean_engine)
        with no_grad():
            assert not np.array_equal(inline, clean(x).data)

    def test_batch_invariant_faulty_engine(self, operands):
        x, weights = operands
        full, _ = run("exact", operands, nonideality=FAULTS,
                      batch_invariant=True)
        engine = make_engine("exact", XBAR, SIM, nonideality=FAULTS,
                             batch_invariant=True)
        prepared = engine.prepare(weights)
        row = engine.matmul(x[2:3], prepared)
        np.testing.assert_array_equal(full[2:3], row)
