"""Figure 5: RMSE of NF — analytical model vs GENIEx, against the circuit.

The paper reports RMSE of the non-ideality factor with respect to HSPICE on
a 64x64 crossbar: analytical 1.73 / 8.99 and GENIEx 0.25 / 0.7 at supply
voltages 0.25 V / 0.5 V — i.e. GENIEx is ~7x / ~12.8x more accurate. The
reproduction trains a GENIEx model per supply voltage (cached in the zoo),
evaluates both models on a held-out operating-point set labelled by the full
circuit simulation, and reports the same two RMSE columns plus their ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analytical.linear_model import AnalyticalLinearModel
from repro.core.dataset import build_geniex_dataset
from repro.core.metrics import rmse_of_nf
from repro.core.sampling import SamplingSpec
from repro.experiments.common import Profile, format_table, get_profile, \
    shared_zoo
from repro.xbar.config import CrossbarConfig

SUPPLY_VOLTAGES = (0.25, 0.5)


@dataclass
class Fig5Row:
    v_supply: float
    rmse_analytical: float
    rmse_geniex: float

    @property
    def ratio(self) -> float:
        return self.rmse_analytical / max(self.rmse_geniex, 1e-12)


@dataclass
class Fig5Result:
    rows: list = field(default_factory=list)

    def format(self) -> str:
        table_rows = [[f"{r.v_supply:g} V", r.rmse_analytical,
                       r.rmse_geniex, f"{r.ratio:.1f}x"] for r in self.rows]
        note = ("paper (64x64, HSPICE): analytical 1.73 / 8.99, GENIEx "
                "0.25 / 0.7 -> 7x / 12.8x")
        return format_table(
            "Fig 5: RMSE of NF w.r.t. circuit simulation",
            ["Vsupply", "analytical", "GENIEx", "improvement"],
            table_rows) + f"\n  {note}"


def evaluate_voltage(config: CrossbarConfig, profile: Profile,
                     progress: bool = False, sampling=None,
                     training=None, mode: str = "full") -> Fig5Row:
    """Train (or load) GENIEx for ``config`` and score both models.

    ``mode`` selects the emulator's characterisation labels (a spec's
    ``emulator.mode``); the held-out test set is always labelled by the
    full circuit simulation — that is the figure's ground truth.
    """
    zoo = shared_zoo()
    emulator = zoo.get_or_train(config,
                                sampling or profile.sampling_spec(seed=0),
                                training or profile.train_spec(seed=0),
                                mode=mode, progress=progress)
    test_spec = SamplingSpec(n_g_matrices=profile.fig5_test_n_g,
                             n_v_per_g=profile.fig5_test_n_v, seed=1234)
    test = build_geniex_dataset(config, test_spec, mode="full")

    analytical = AnalyticalLinearModel(config)
    i_geniex = np.empty_like(test.i_nonideal_a)
    i_analytical = np.empty_like(test.i_nonideal_a)
    for group in range(test_spec.n_g_matrices):
        rows = np.nonzero(test.group_index == group)[0]
        g = test.conductances_s[group]
        i_geniex[rows] = emulator.for_matrix(g).currents(
            test.voltages_v[rows])
        i_analytical[rows] = analytical.predict_currents(
            test.voltages_v[rows], g)
    return Fig5Row(
        config.v_supply_v,
        rmse_of_nf(test.i_ideal_a, test.i_nonideal_a, i_analytical),
        rmse_of_nf(test.i_ideal_a, test.i_nonideal_a, i_geniex))


def run_fig5(profile: Profile | None = None,
             progress: bool = False, spec=None) -> Fig5Result:
    """Reproduce the Fig. 5 RMSE table.

    With a declarative ``spec`` (:class:`repro.api.spec.EmulationSpec`,
    e.g. from ``python -m repro fig fig5 --spec file.json``) the crossbar
    design and the GENIEx sampling/training hyper-parameters come from
    the spec instead of the profile; the supply-voltage sweep and the
    held-out test-set sizes stay the figure's own.
    """
    profile = profile or get_profile()
    result = Fig5Result()
    for v_supply in SUPPLY_VOLTAGES:
        if spec is not None:
            config = spec.xbar.to_config().replace(v_supply_v=v_supply)
            row = evaluate_voltage(config, profile, progress=progress,
                                   sampling=spec.emulator.sampling,
                                   training=spec.emulator.training,
                                   mode=spec.emulator.mode)
        else:
            config = profile.crossbar(rows=profile.fig5_size,
                                      v_supply_v=v_supply)
            row = evaluate_voltage(config, profile, progress=progress)
        result.rows.append(row)
    return result


if __name__ == "__main__":
    print(run_fig5(progress=True).format())
