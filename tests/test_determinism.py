"""Seed-determinism guarantees: same seed, same bits, end to end.

Every stochastic component takes a seed through :mod:`repro.utils.rng`; two
runs from the same seed must agree bit-for-bit — sampling, dataset
construction, GENIEx training and noisy-ADC engine execution. These tests
pin that contract so refactors (batching, caching, vectorisation) cannot
silently introduce hidden global state or order-dependent randomness.
"""

import numpy as np
import pytest

from repro.core.dataset import build_geniex_dataset
from repro.core.sampling import SamplingSpec, VgSampler
from repro.core.trainer import TrainSpec, train_geniex
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import make_engine
from repro.utils.rng import rng_from_seed, spawn_rngs
from repro.xbar.config import CrossbarConfig

CFG = CrossbarConfig(rows=4, cols=4)
SAMPLING = SamplingSpec(n_g_matrices=4, n_v_per_g=6, seed=11)
TRAINING = TrainSpec(hidden=16, epochs=8, batch_size=16, seed=11)


class TestRngDeterminism:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(42).random(100)
        b = rng_from_seed(42).random(100)
        np.testing.assert_array_equal(a, b)

    def test_spawned_children_deterministic(self):
        a = [g.random(10) for g in spawn_rngs(7, 3)]
        b = [g.random(10) for g in spawn_rngs(7, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestSamplingDeterminism:
    def test_sampler_reproducible(self):
        v1, g1, idx1 = VgSampler(CFG, SAMPLING).sample()
        v2, g2, idx2 = VgSampler(CFG, SAMPLING).sample()
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(idx1, idx2)

    def test_different_seed_differs(self):
        v1, _, _ = VgSampler(CFG, SAMPLING).sample()
        v2, _, _ = VgSampler(CFG, SamplingSpec(
            n_g_matrices=4, n_v_per_g=6, seed=12)).sample()
        assert not np.array_equal(v1, v2)

    def test_dataset_reproducible(self):
        d1 = build_geniex_dataset(CFG, SAMPLING, mode="linear")
        d2 = build_geniex_dataset(CFG, SAMPLING, mode="linear")
        np.testing.assert_array_equal(d1.voltages_v, d2.voltages_v)
        np.testing.assert_array_equal(d1.conductances_s, d2.conductances_s)
        np.testing.assert_array_equal(d1.i_nonideal_a, d2.i_nonideal_a)
        assert d1.fr_min == d2.fr_min and d1.fr_max == d2.fr_max


class TestTrainingDeterminism:
    @pytest.fixture(scope="class")
    def dataset(self):
        return build_geniex_dataset(CFG, SAMPLING, mode="linear")

    def test_training_reproducible(self, dataset):
        m1, h1 = train_geniex(dataset, TRAINING)
        m2, h2 = train_geniex(dataset, TRAINING)
        s1, s2 = m1.state_dict(), m2.state_dict()
        assert s1.keys() == s2.keys()
        for key in s1:
            np.testing.assert_array_equal(s1[key], s2[key])
        assert h1.train_loss == h2.train_loss
        assert h1.best_epoch == h2.best_epoch


class TestEngineDeterminism:
    def test_noisy_adc_engine_reproducible(self, rng):
        """Two engines built from the same config replay identical noise."""
        x = rng.normal(size=(4, 12)) * 0.4
        w = rng.normal(size=(12, 6)) * 0.3
        noisy = FuncSimConfig().with_precision(8).replace(
            adc_noise_lsb=0.5, adc_seed=5)
        outs = []
        for _ in range(2):
            engine = make_engine("analytical", CrossbarConfig(rows=8, cols=8),
                                 noisy)
            outs.append(engine.matmul(x, engine.prepare(w)))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_noise_seed_changes_output(self, rng):
        x = rng.normal(size=(4, 12)) * 0.4
        w = rng.normal(size=(12, 6)) * 0.3
        outs = []
        for seed in (5, 6):
            cfg = FuncSimConfig().with_precision(8).replace(
                adc_noise_lsb=2.0, adc_seed=seed)
            engine = make_engine("analytical", CrossbarConfig(rows=8, cols=8),
                                 cfg)
            outs.append(engine.matmul(x, engine.prepare(w)))
        assert not np.array_equal(outs[0], outs[1])

    def test_engine_reproducible_across_runs(self, rng):
        """A second run through a warm engine equals its first run and a
        fresh engine's first run."""
        x = rng.normal(size=(3, 12)) * 0.4
        w = rng.normal(size=(12, 6)) * 0.3
        first = make_engine("analytical", CrossbarConfig(rows=8, cols=8),
                            FuncSimConfig().with_precision(8))
        p = first.prepare(w)
        cold = first.matmul(x, p)
        warm = first.matmul(x, p)
        fresh = make_engine("analytical", CrossbarConfig(rows=8, cols=8),
                            FuncSimConfig().with_precision(8))
        np.testing.assert_array_equal(warm, cold)
        np.testing.assert_array_equal(fresh.matmul(x, fresh.prepare(w)),
                                      cold)
