"""First-class non-ideality injection: composable device-fault transforms.

The paper's central claim is generality across non-ideality sources, and
it stresses that crossbar errors "get exacerbated further due to the
device variations". This package makes those fault sources a first-class,
composable axis of the whole stack:

* :mod:`repro.nonideal.transforms` — the registry of seeded perturbation
  transforms over programmed conductance tiles (lognormal programming
  variation, power-law conductance drift, cycle-to-cycle read noise,
  per-tile line-resistance/temperature scaling, stuck-at faults);
* :mod:`repro.nonideal.pipeline` — :class:`NonidealitySpec`, the frozen
  spec node composing them, and :class:`NonidealityPipeline`, its
  deterministic coordinate-keyed application to programmed tiles.

Wiring: :class:`repro.api.spec.EmulationSpec` carries a ``nonideality``
node (folded into every content digest whenever it is non-identity, so a
faulty crossbar can never be cache-aliased with a clean one — in the
GENIEx zoo, the serving registry, or prepared-matrix uids), and
:func:`repro.funcsim.engine.make_engine` applies the pipeline at tile
programming time, so every worker count sees the same perturbed tiles.
See the README's "Non-ideality scenarios" section.
"""

from repro.nonideal.pipeline import (
    NonidealityPipeline,
    NonidealitySpec,
    as_pipeline,
)
from repro.nonideal.transforms import (
    TRANSFORM_KINDS,
    DriftSpec,
    ReadNoiseSpec,
    StuckSpec,
    TemperatureSpec,
    VariationSpec,
)

__all__ = [
    "NonidealitySpec",
    "NonidealityPipeline",
    "as_pipeline",
    "TRANSFORM_KINDS",
    "VariationSpec",
    "DriftSpec",
    "ReadNoiseSpec",
    "TemperatureSpec",
    "StuckSpec",
]
