"""Sequential-vs-batched solve throughput across modes and crossbar sizes.

Quantifies the tentpole speedup of the batched solve pipeline: the
*sequential* baseline solves one voltage vector per call exactly as the
pre-batching code did (fresh factorisation per linear solve, one Newton run
per operating point, per-vector GENIEx inference), while the *batched* path
shares one cached LU / one batched Newton run / one NN forward pass across
the whole batch.

Run with ``pytest benchmarks/bench_batched_engine.py -s`` (add
``REPRO_PROFILE=full`` for the larger grid) or directly with
``PYTHONPATH=src python benchmarks/bench_batched_engine.py``. Asserted
invariants: batched results match sequential within 1e-9 relative
tolerance, and linear-mode tile solves reach >= 5x throughput at batch 64.
The full-mode 1e-9 check at 16x16, batch 64 is also a tier-1 test
(``tests/circuit/test_batched_equivalence.py``), so it keeps guarding the
circuit solver's Newton step without this bench.
"""

import os
import time

import numpy as np
import pytest

from repro.circuit.linear_solver import sparse_lu
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.xbar.config import CrossbarConfig

BATCH = 64
RTOL = 1e-9

QUICK_SIZES = (16,)
FULL_SIZES = (16, 32, 64)

# Small, fast-to-train emulator: throughput scaling is what we measure, not
# emulation fidelity.
GENIEX_SAMPLING = SamplingSpec(n_g_matrices=6, n_v_per_g=10, seed=0)
GENIEX_TRAINING = TrainSpec(hidden=32, epochs=15, batch_size=32, seed=0)


def _sizes():
    if os.environ.get("REPRO_PROFILE", "quick") == "full":
        return FULL_SIZES
    return QUICK_SIZES


def _sample(config, batch, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
    v = rng.uniform(0.0, config.v_supply_v, size=(batch, config.rows))
    return v, g


def _time(fn, min_time_s=0.05):
    """Best-of wall-clock over enough repeats to dominate timer noise."""
    fn()  # warm-up (JIT-free, but primes caches and allocators)
    best = np.inf
    elapsed_total = 0.0
    while elapsed_total < min_time_s:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        elapsed_total += elapsed
    return best


def _report(rows):
    header = (f"{'mode':<10} {'size':<8} {'batch':<6} "
              f"{'seq vec/s':>12} {'batch vec/s':>12} {'speedup':>9}")
    print()
    print(header)
    print("-" * len(header))
    for mode, size, batch, seq_rate, batch_rate in rows:
        print(f"{mode:<10} {size}x{size:<5} {batch:<6} "
              f"{seq_rate:>12.1f} {batch_rate:>12.1f} "
              f"{batch_rate / seq_rate:>8.1f}x")


@pytest.mark.bench
def test_batched_solve_throughput():
    rows = []
    for size in _sizes():
        config = CrossbarConfig(rows=size, cols=size)
        v, g = _sample(config, BATCH)
        sim = CrossbarCircuitSimulator(config)

        # --- ideal / linear / full circuit modes ------------------------
        for mode in ("ideal", "linear", "full"):
            if mode == "full":
                device = sim.make_cell_device(g)
                seq_out = np.stack([
                    sim._solve_full(vk, g, device=device).currents_a
                    for vk in v])

                def sequential(device=device):
                    for vk in v[:8]:  # full per-vector solves are slow;
                        sim._solve_full(vk, g, device=device)  # time 8, scale

                def batched():
                    sim.solve_batch(v, g, mode="full")

                t_seq = _time(sequential) * (BATCH / 8)
                t_batch = _time(batched)
            else:
                # The pre-batching per-vector path paid one factorisation
                # per linear solve; replicate that with a fresh LU each.
                solver, topo = sim.linear_solver, sim.topology

                def sequential(mode=mode):
                    for vk in v:
                        if mode == "ideal":
                            sim.solve(vk, g, mode=mode)
                        else:
                            lu = sparse_lu(solver.system_matrix(g))
                            topo.output_currents(
                                lu.solve(topo.rhs_for_inputs(vk)))

                def batched(mode=mode):
                    sim.solve_batch(v, g, mode=mode)

                seq_out = np.stack([
                    sim.solve(vk, g, mode=mode).currents_a for vk in v])
                t_seq = _time(sequential)
                t_batch = _time(batched)

            batch_out = sim.solve_batch(v, g, mode=mode)
            scale = np.abs(seq_out).max()
            np.testing.assert_allclose(batch_out, seq_out,
                                       rtol=RTOL, atol=RTOL * scale)
            rows.append((mode, size, BATCH, BATCH / t_seq, BATCH / t_batch))

        # --- geniex emulation ------------------------------------------
        if size == _sizes()[0]:
            zoo = GeniexZoo()
            emulator = zoo.get_or_train(config, GENIEX_SAMPLING,
                                        GENIEX_TRAINING, mode="linear")
            matrix_emulator = emulator.for_matrix(g)

            def sequential():
                for vk in v:
                    matrix_emulator.currents(vk)

            def batched():
                matrix_emulator.currents(v)

            seq_out = np.concatenate(
                [matrix_emulator.currents(vk) for vk in v])
            batch_out = matrix_emulator.currents(v)
            np.testing.assert_allclose(
                batch_out, seq_out, rtol=1e-6,
                atol=1e-6 * np.abs(seq_out).max())
            rows.append(("geniex", size, BATCH,
                         BATCH / _time(sequential), BATCH / _time(batched)))

    _report(rows)

    # Acceptance: linear-mode tile solves gain >= 5x at batch >= 64.
    linear = [r for r in rows if r[0] == "linear"]
    assert linear, "no linear-mode measurements collected"
    for _, size, _, seq_rate, batch_rate in linear:
        assert batch_rate >= 5.0 * seq_rate, (
            f"linear-mode batched speedup below 5x at {size}x{size}: "
            f"{batch_rate / seq_rate:.1f}x")


if __name__ == "__main__":
    test_batched_solve_throughput()
