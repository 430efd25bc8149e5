"""GENIEx training-set construction: run the simulator, label with fR.

``build_geniex_dataset`` drives the circuit simulator (the HSPICE stand-in)
over a stratified sample of operating points and packages normalised inputs
and labels. The dataset stores conductance matrices once per group and
expands them lazily, because the flattened G component dominates memory for
64x64 crossbars.

:func:`label_groups` is the one labeller of a (V, G) sweep. It solves the
sweep's conductance groups on one thread per CPU the process may run on
(its affinity set), at most one per group, and no knob; the calling
thread is one of them. Each thread takes the next unlabelled group and
keeps its own simulator, since the LU cache and the Newton memo are not
thread-safe; each group writes its own rows of the output, so the labels
are byte-identical at any thread count. The threads pay because
SuperLU's back-substitution, the largest cost of a full-mode solve,
releases the GIL.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.core.metrics import DEFAULT_EPS_CURRENT_A, ratio_fr, valid_mask
from repro.core.sampling import SamplingSpec, VgSampler
from repro.errors import ConfigError
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm
from repro.xbar.mapping import normalize_conductances, normalize_voltages


@dataclass
class GeniexDataset:
    """Normalised (V, G) -> fR dataset for one crossbar configuration.

    Attributes:
        config: The crossbar the data was generated for.
        voltages_v: ``(n, rows)`` raw input voltages.
        conductances_s: ``(n_groups, rows, cols)`` raw conductance matrices.
        group_index: ``(n,)`` map from sample to conductance group.
        i_ideal_a / i_nonideal_a: ``(n, cols)`` reference currents.
        fr: ``(n, cols)`` raw distortion-ratio labels.
        mask: ``(n, cols)`` True where fR is well defined (loss weighting).
        fr_min / fr_max: Label normalisation range (from the masked data).
    """

    config: CrossbarConfig
    voltages_v: np.ndarray
    conductances_s: np.ndarray
    group_index: np.ndarray
    i_ideal_a: np.ndarray
    i_nonideal_a: np.ndarray
    fr: np.ndarray
    mask: np.ndarray
    fr_min: float
    fr_max: float

    def __len__(self) -> int:
        return self.voltages_v.shape[0]

    def features(self, indices=None) -> np.ndarray:
        """Concatenated normalised inputs ``[V_norm | G_norm.ravel()]``.

        Shape ``(n, rows + rows*cols)`` float32 — the paper's NN input
        layout for an N x N crossbar: ``(N + N^2)``-dimensional.
        """
        if indices is None:
            indices = np.arange(len(self))
        indices = np.asarray(indices)
        v_norm = normalize_voltages(self.voltages_v[indices], self.config)
        g_norm = normalize_conductances(
            self.conductances_s[self.group_index[indices]], self.config)
        flat_g = g_norm.reshape(len(indices), -1)
        return np.concatenate([v_norm, flat_g], axis=1).astype(np.float32)

    def labels(self, indices=None) -> np.ndarray:
        """fR labels normalised to [0, 1] over the training range."""
        if indices is None:
            indices = np.arange(len(self))
        span = max(self.fr_max - self.fr_min, 1e-12)
        norm = (self.fr[indices] - self.fr_min) / span
        return np.clip(norm, 0.0, 1.0).astype(np.float32)

    def weights(self, indices=None, current_weighting: bool = False,
                floor: float = 0.1) -> np.ndarray:
        """Loss weights: 0 where fR is undefined, 1 elsewhere.

        With ``current_weighting`` the valid columns are additionally scaled
        by ``floor + (I_ideal / max I_ideal)^2``. An fR error translates to
        an *absolute* current error proportional to I_ideal, and the
        functional simulator's shift-and-add amplifies exactly those
        absolute errors — so weighting the fit by the squared normalised
        current minimises the error that actually reaches the application.
        (The paper trains unweighted; the ablation bench quantifies the
        difference.)
        """
        if indices is None:
            indices = np.arange(len(self))
        base = self.mask[indices].astype(np.float32)
        if not current_weighting:
            return base
        i_max = max(float(np.abs(self.i_ideal_a).max()), 1e-30)
        i_norm = (self.i_ideal_a[indices] / i_max).astype(np.float32)
        return base * (np.float32(floor) + i_norm ** 2)


def build_geniex_dataset(config: CrossbarConfig,
                         spec: SamplingSpec | None = None,
                         mode: str = "full",
                         eps_a: float = DEFAULT_EPS_CURRENT_A,
                         progress: bool = False) -> GeniexDataset:
    """Generate a labelled dataset by simulating every operating point.

    The sweep is labelled by :func:`label_groups`, on every CPU of the
    process's affinity set.

    Args:
        config: Crossbar design to characterise.
        spec: Sampling strategy; defaults to :class:`SamplingSpec` defaults.
        mode: Simulator fidelity for the labels — ``full`` (non-linear,
            the HSPICE stand-in) or ``linear`` (for ablations).
        eps_a: Ideal-current threshold below which fR is masked out.
        progress: Print per-group timing (useful for 64x64 full runs).
    """
    if mode not in ("full", "linear"):
        raise ConfigError(f"label mode must be 'full' or 'linear', got {mode!r}")
    spec = spec or SamplingSpec()
    sampler = VgSampler(config, spec)
    voltages, conductances, group_index = sampler.sample()

    i_ideal, (i_nonideal,) = label_groups(
        config, voltages, conductances, group_index, (mode,), progress)
    fr = ratio_fr(i_ideal, i_nonideal, eps_a)
    mask = valid_mask(i_ideal, eps_a)
    masked = fr[mask]
    if masked.size == 0:
        raise ConfigError(
            "dataset contains no valid fR labels; inputs may be all-zero")
    fr_min = float(masked.min())
    fr_max = float(masked.max())
    return GeniexDataset(config, voltages, conductances, group_index,
                         i_ideal, i_nonideal, fr, mask, fr_min, fr_max)


def _affinity_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def label_groups(config: CrossbarConfig, voltages: np.ndarray,
                 conductances: np.ndarray, group_index: np.ndarray,
                 modes=("full",), progress: bool = False) -> tuple:
    """Ideal and circuit currents of every operating point of a sweep.

    Args:
        config: Crossbar design the sweep samples.
        voltages: ``(n, rows)`` input voltages.
        conductances: ``(n_groups, rows, cols)`` conductance matrices.
        group_index: ``(n,)`` map from sample to conductance group.
        modes: Simulator modes to solve every group in.
        progress: Print one timing line per finished group.

    Returns:
        ``(i_ideal, currents)``: the ``(n, cols)`` ideal currents and a
        list holding the ``(n, cols)`` currents of each mode in ``modes``.
    """
    n_groups = conductances.shape[0]
    i_ideal = np.empty((voltages.shape[0], config.cols))
    currents = [np.empty_like(i_ideal) for _ in modes]
    pending = iter(range(n_groups))
    lock = threading.Lock()
    finished = 0
    failed = False
    start = time.time()

    def next_group():
        with lock:
            return None if failed else next(pending, None)

    def work():
        nonlocal finished, failed
        # One simulator per thread, made and dropped on that thread: its
        # LU cache and Newton memo are not thread-safe, and SciPy frees a
        # SuperLU factor's memory only on the thread that factorised it.
        simulator = CrossbarCircuitSimulator(config)
        # A sweep never returns to a finished group's G, and a cached
        # SuperLU factor holds several MB (its fill estimate), so each
        # thread keeps only the factor of the group it is labelling.
        simulator.linear_solver.lu_cache_size = 1
        try:
            while (group := next_group()) is not None:
                rows = np.nonzero(group_index == group)[0]
                v, g = voltages[rows], conductances[group]
                i_ideal[rows] = ideal_mvm(v, g)
                for out, mode in zip(currents, modes):
                    out[rows] = simulator.solve_batch(v, g, mode=mode)
                if progress:
                    with lock:
                        finished += 1
                        print(f"  [geniex-dataset] group {group + 1} done, "
                              f"{finished}/{n_groups} "
                              f"({finished / n_groups:4.0%}) elapsed "
                              f"{time.time() - start:6.1f}s", flush=True)
        except BaseException:
            failed = True  # the other threads stop after their group
            raise

    # The calling thread labels too, so a 1-CPU process starts no thread.
    helpers = max(0, min(_affinity_cpus(), n_groups) - 1)
    with ThreadPoolExecutor(max(1, helpers),
                            thread_name_prefix="geniex-label") as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    return i_ideal, currents
