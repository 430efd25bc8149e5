"""Figure 2: non-ideality factor vs crossbar design parameters.

(a) I_ideal vs I_nonideal correlation/spread for the nominal 64x64 crossbar;
(b) NF distribution vs crossbar size; (c) vs ON resistance; (d) vs
conductance ON/OFF ratio. Paper findings to reproduce: NF grows with
crossbar size, shrinks with higher R_on and higher ON/OFF ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import label_groups
from repro.core.metrics import nonideality_factor, valid_mask
from repro.core.sampling import SamplingSpec, VgSampler
from repro.experiments.common import Profile, format_table, get_profile
from repro.xbar.config import CrossbarConfig


@dataclass
class NfStats:
    """Quartiles of the NF distribution for one configuration."""

    label: str
    q1: float
    median: float
    q3: float
    mean: float

    @classmethod
    def from_currents(cls, label, i_ideal, i_nonideal) -> "NfStats":
        mask = valid_mask(i_ideal)
        nf = nonideality_factor(i_ideal, i_nonideal)[mask]
        return cls(label, float(np.percentile(nf, 25)),
                   float(np.percentile(nf, 50)),
                   float(np.percentile(nf, 75)), float(nf.mean()))

    def row(self) -> list:
        return [self.label, self.q1, self.median, self.q3, self.mean]


@dataclass
class Fig2Result:
    correlation: float
    scatter_mean_nf: float
    by_size: list = field(default_factory=list)
    by_r_on: list = field(default_factory=list)
    by_onoff: list = field(default_factory=list)

    def format(self) -> str:
        headers = ["config", "NF q1", "NF med", "NF q3", "NF mean"]
        parts = [
            "Fig 2(a): ideal-vs-nonideal currents (nominal crossbar)\n"
            f"  pearson r = {self.correlation:.4f}, "
            f"mean NF = {self.scatter_mean_nf:.4f}",
            format_table("Fig 2(b): NF vs crossbar size", headers,
                         [s.row() for s in self.by_size]),
            format_table("Fig 2(c): NF vs ON resistance", headers,
                         [s.row() for s in self.by_r_on]),
            format_table("Fig 2(d): NF vs ON/OFF ratio", headers,
                         [s.row() for s in self.by_onoff]),
        ]
        return "\n\n".join(parts)


def _simulate_nf(config: CrossbarConfig, n_g: int, n_v: int,
                 seed: int = 7) -> tuple:
    """Full-simulation currents for a stratified operating-point sample."""
    spec = SamplingSpec(n_g_matrices=n_g, n_v_per_g=n_v, seed=seed)
    i_ideal, (i_nonideal,) = label_groups(
        config, *VgSampler(config, spec).sample())
    return i_ideal, i_nonideal


def run_fig2(profile: Profile | None = None) -> Fig2Result:
    profile = profile or get_profile()
    n_g, n_v = profile.nf_n_g, profile.nf_n_v

    # (a) scatter statistics at the nominal size (largest in the sweep).
    nominal = profile.crossbar(rows=max(profile.xbar_sizes))
    i_ideal, i_nonideal = _simulate_nf(nominal, n_g, n_v)
    mask = valid_mask(i_ideal)
    corr = float(np.corrcoef(i_ideal[mask], i_nonideal[mask])[0, 1])
    mean_nf = float(nonideality_factor(i_ideal, i_nonideal)[mask].mean())
    result = Fig2Result(corr, mean_nf)

    # (b) size sweep.
    for size in profile.xbar_sizes:
        cfg = profile.crossbar(rows=size)
        result.by_size.append(NfStats.from_currents(
            f"{size}x{size}", *_simulate_nf(cfg, n_g, n_v)))

    # (c) ON-resistance sweep at the base size.
    for r_on in profile.r_on_sweep_ohm:
        cfg = profile.crossbar(r_on_ohm=r_on)
        result.by_r_on.append(NfStats.from_currents(
            f"Ron={r_on / 1e3:g}k", *_simulate_nf(cfg, n_g, n_v)))

    # (d) ON/OFF sweep at the base size.
    for ratio in profile.onoff_sweep:
        cfg = profile.crossbar(onoff_ratio=ratio)
        result.by_onoff.append(NfStats.from_currents(
            f"on/off={ratio:g}", *_simulate_nf(cfg, n_g, n_v)))
    return result


if __name__ == "__main__":
    print(run_fig2().format())
