"""Figure 3: impact of non-linear (data-dependent) non-idealities.

(a) output-current distributions with only linear non-idealities vs with
both linear and non-linear effects, at 0.25 V and 0.5 V supply; (b) the
relative difference between the two cases grows with the maximum supply
voltage — the core argument for a data-dependent model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import label_groups
from repro.core.metrics import valid_mask
from repro.core.sampling import SamplingSpec, VgSampler
from repro.experiments.common import Profile, format_table, get_profile

DEFAULT_VSUPPLY_GRID = (0.1, 0.2, 0.25, 0.3, 0.4, 0.5)


@dataclass
class Fig3Result:
    distributions: list = field(default_factory=list)  # (V, stats dict)
    relative_error: list = field(default_factory=list)  # (V, mean, p95)

    def format(self) -> str:
        dist_rows = [[f"{v:g} V", s["linear_mean"], s["full_mean"],
                      s["linear_std"], s["full_std"]]
                     for v, s in self.distributions]
        err_rows = [[f"{v:g} V", mean, p95]
                    for v, mean, p95 in self.relative_error]
        return "\n\n".join([
            format_table(
                "Fig 3(a): output-current distribution (uA), linear-only vs "
                "full", ["Vsupply", "lin mean", "full mean", "lin std",
                         "full std"], dist_rows),
            format_table(
                "Fig 3(b): relative |full - linear| / linear vs supply "
                "voltage", ["Vsupply", "mean rel err", "p95 rel err"],
                err_rows),
        ])


def run_fig3(profile: Profile | None = None,
             vsupply_grid=DEFAULT_VSUPPLY_GRID) -> Fig3Result:
    profile = profile or get_profile()
    result = Fig3Result()
    for v_supply in vsupply_grid:
        config = profile.crossbar(v_supply_v=v_supply)
        spec = SamplingSpec(n_g_matrices=profile.nf_n_g,
                            n_v_per_g=profile.nf_n_v, seed=11)
        i_ideal, (i_linear, i_full) = label_groups(
            config, *VgSampler(config, spec).sample(), ("linear", "full"))
        mask = valid_mask(i_ideal)
        rel = np.abs(i_full[mask] - i_linear[mask]) / np.maximum(
            np.abs(i_linear[mask]), 1e-15)
        result.relative_error.append(
            (v_supply, float(rel.mean()), float(np.percentile(rel, 95))))
        if v_supply in (0.25, 0.5):
            result.distributions.append((v_supply, {
                "linear_mean": float(i_linear[mask].mean() * 1e6),
                "full_mean": float(i_full[mask].mean() * 1e6),
                "linear_std": float(i_linear[mask].std() * 1e6),
                "full_std": float(i_full[mask].std() * 1e6),
            }))
    return result


if __name__ == "__main__":
    print(run_fig3().format())
