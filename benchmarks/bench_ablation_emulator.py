"""Ablation: G-term precomputation in the GENIEx emulator.

The functional simulator queries GENIEx thousands of times per layer with a
fixed conductance matrix. Folding the (constant) conductance contribution of
the first layer into a per-tile bias is mathematically identical but avoids
re-multiplying the N^2-wide G part on every call. This bench measures the
speedup and asserts the outputs agree.
"""

import time

import numpy as np

from repro.core.dataset import build_geniex_dataset
from repro.core.emulator import GeniexEmulator
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec, train_geniex
from repro.experiments.common import format_table, get_profile


def run_comparison():
    profile = get_profile()
    config = profile.crossbar(rows=16)
    train = build_geniex_dataset(
        config, SamplingSpec(n_g_matrices=20, n_v_per_g=10, seed=0))
    model, _ = train_geniex(
        train, TrainSpec(hidden=128, hidden_layers=1, epochs=40,
                         batch_size=128, patience=40, seed=0))
    emulator = GeniexEmulator(model)

    rng = np.random.default_rng(9)
    g = train.conductances_s[0]
    v = rng.uniform(0, config.v_supply_v, size=(512, config.rows))

    start = time.perf_counter()
    for _ in range(20):
        general = emulator.predict_currents(v, g)
    t_general = time.perf_counter() - start

    fast_emulator = emulator.for_matrix(g)
    start = time.perf_counter()
    for _ in range(20):
        fast = fast_emulator.currents(v)
    t_fast = time.perf_counter() - start

    max_dev = float(np.max(np.abs(general - fast)))
    return t_general, t_fast, max_dev


def test_precompute_identical_and_faster(run_once):
    t_general, t_fast, max_dev = run_once(run_comparison)
    speedup = t_general / max(t_fast, 1e-12)
    print("\n" + format_table(
        "Ablation: emulator G-term precomputation",
        ["path", "20x512-vector batches", "notes"],
        [["general (re-multiplies G)", f"{t_general * 1e3:.1f} ms", ""],
         ["precomputed for_matrix", f"{t_fast * 1e3:.1f} ms",
          f"speedup {speedup:.1f}x, max deviation {max_dev:.2e} A"]]))
    assert max_dev < 1e-9
    assert t_fast < t_general
