import threading
import weakref

import numpy as np
import pytest

import repro.core.dataset as dataset_mod
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.core.dataset import build_geniex_dataset, label_groups
from repro.core.sampling import SamplingSpec, VgSampler
from repro.errors import ConfigError, ConvergenceError
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm


@pytest.fixture(scope="module")
def dataset():
    cfg = CrossbarConfig(rows=6, cols=6)
    spec = SamplingSpec(n_g_matrices=3, n_v_per_g=5, seed=0)
    return build_geniex_dataset(cfg, spec)


class TestBuildDataset:
    def test_sizes(self, dataset):
        assert len(dataset) == 15
        assert dataset.voltages_v.shape == (15, 6)
        assert dataset.conductances_s.shape == (3, 6, 6)
        assert dataset.fr.shape == (15, 6)

    def test_ideal_currents_consistent(self, dataset):
        k = 7
        g = dataset.conductances_s[dataset.group_index[k]]
        np.testing.assert_allclose(dataset.i_ideal_a[k],
                                   ideal_mvm(dataset.voltages_v[k], g))

    def test_fr_labels_match_currents(self, dataset):
        mask = dataset.mask
        lhs = dataset.i_ideal_a[mask] / dataset.fr[mask]
        np.testing.assert_allclose(lhs, dataset.i_nonideal_a[mask],
                                   rtol=1e-9)

    def test_features_layout(self, dataset):
        feats = dataset.features()
        assert feats.shape == (15, 6 + 36)
        assert feats.dtype == np.float32
        assert feats.min() >= -1e-6 and feats.max() <= 1.0 + 1e-6

    def test_labels_normalised(self, dataset):
        labels = dataset.labels()
        assert labels.min() >= 0.0 and labels.max() <= 1.0

    def test_weights_match_mask(self, dataset):
        np.testing.assert_array_equal(dataset.weights(),
                                      dataset.mask.astype(np.float32))

    def test_indices_subset(self, dataset):
        sub = dataset.features(np.array([0, 3]))
        assert sub.shape[0] == 2

    def test_linear_mode_labels(self):
        cfg = CrossbarConfig(rows=4, cols=4)
        spec = SamplingSpec(n_g_matrices=2, n_v_per_g=3, seed=1)
        full = build_geniex_dataset(cfg, spec, mode="full")
        linear = build_geniex_dataset(cfg, spec, mode="linear")
        assert not np.allclose(full.i_nonideal_a, linear.i_nonideal_a)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            build_geniex_dataset(CrossbarConfig(rows=4, cols=4),
                                 SamplingSpec(n_g_matrices=1, n_v_per_g=1),
                                 mode="ideal")


SWEEP_CONFIG = CrossbarConfig(rows=6, cols=5, v_supply_v=0.5)
SWEEP_SPEC = SamplingSpec(n_g_matrices=5, n_v_per_g=4, seed=3)
LABELS = ("i_ideal_a", "i_nonideal_a", "fr", "mask")


def at_cpus(monkeypatch, cpus):
    """Make the labeller see ``cpus`` CPUs in the process's affinity set."""
    monkeypatch.setattr(dataset_mod, "_affinity_cpus", lambda: cpus)


class TestThreadedLabelling:
    """One labeller, on a thread pool sized by the affinity CPUs."""

    @pytest.fixture(scope="class")
    def serial(self):
        with pytest.MonkeyPatch.context() as mp:
            at_cpus(mp, 1)
            return build_geniex_dataset(SWEEP_CONFIG, SWEEP_SPEC)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_labels_byte_identical_at_any_thread_count(self, monkeypatch,
                                                       serial, cpus):
        built_in, foreign_calls, dropped_home = [], [], []

        def dropped(home):
            dropped_home.append(threading.current_thread() is home)

        class Recording(CrossbarCircuitSimulator):
            def __init__(self, config):
                self.thread = threading.current_thread()
                built_in.append(self.thread.name)
                weakref.finalize(self, dropped, self.thread)
                super().__init__(config)

            def solve_batch(self, *args, **kwargs):
                if threading.current_thread() is not self.thread:
                    foreign_calls.append(self.thread.name)
                return super().solve_batch(*args, **kwargs)

        monkeypatch.setattr(dataset_mod, "CrossbarCircuitSimulator",
                            Recording)
        at_cpus(monkeypatch, cpus)
        threaded = build_geniex_dataset(SWEEP_CONFIG, SWEEP_SPEC)
        for name in LABELS:
            assert getattr(threaded, name).tobytes() == \
                getattr(serial, name).tobytes(), name
        # Each simulator runs and is dropped on the thread that built it
        # (SciPy leaks a SuperLU factor freed on another thread), and the
        # pool never holds more threads than CPUs or groups.
        assert not foreign_calls
        assert dropped_home == [True] * len(built_in)
        assert 1 <= len(built_in) <= min(cpus, SWEEP_SPEC.n_g_matrices)
        if cpus == 1:  # the calling thread labels alone
            assert built_in == [threading.current_thread().name]

    def test_matches_one_simulator_per_group(self, monkeypatch, serial):
        at_cpus(monkeypatch, 2)
        volts, conds, group_index = VgSampler(SWEEP_CONFIG,
                                              SWEEP_SPEC).sample()
        i_ideal, (i_linear, i_full) = label_groups(
            SWEEP_CONFIG, volts, conds, group_index, ("linear", "full"))
        sim = CrossbarCircuitSimulator(SWEEP_CONFIG)
        for group, g in enumerate(conds):
            rows = group_index == group
            np.testing.assert_array_equal(
                i_ideal[rows], ideal_mvm(volts[rows], g))
            np.testing.assert_array_equal(
                i_linear[rows], sim.solve_batch(volts[rows], g, "linear"))
        assert i_full.tobytes() == serial.i_nonideal_a.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_progress_prints_one_line_per_group(self, monkeypatch, capsys,
                                                cpus):
        at_cpus(monkeypatch, cpus)
        build_geniex_dataset(SWEEP_CONFIG, SWEEP_SPEC, progress=True)
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "[geniex-dataset]" in line]
        assert len(lines) == SWEEP_SPEC.n_g_matrices
        assert lines[-1].split("done, ")[1].startswith(
            f"{SWEEP_SPEC.n_g_matrices}/{SWEEP_SPEC.n_g_matrices}")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_group_error_reaches_caller_and_pool_shuts_down(
            self, monkeypatch, cpus):
        _volts, conds, _index = VgSampler(SWEEP_CONFIG, SWEEP_SPEC).sample()
        failing = conds[2].tobytes()
        original = CrossbarCircuitSimulator.solve_batch

        def solve_batch(self, voltages_v, conductance_s, mode="full"):
            if np.asarray(conductance_s).tobytes() == failing:
                raise ConvergenceError("group 3 did not converge")
            return original(self, voltages_v, conductance_s, mode=mode)

        monkeypatch.setattr(CrossbarCircuitSimulator, "solve_batch",
                            solve_batch)
        at_cpus(monkeypatch, cpus)
        with pytest.raises(ConvergenceError, match="group 3"):
            build_geniex_dataset(SWEEP_CONFIG, SWEEP_SPEC)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("geniex-label")]

    def test_affinity_fallback(self, monkeypatch):
        monkeypatch.delattr(dataset_mod.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(dataset_mod.os, "cpu_count", lambda: 3)
        assert dataset_mod._affinity_cpus() == 3
