"""Public API: declarative specs and the session facade.

This package is the single entry point for building emulation engines.
Describe a setup once as a frozen, JSON-serializable
:class:`EmulationSpec` (engine kind, crossbar design, digital precision,
emulator hyper-parameters, runtime policy), then resolve it with
:func:`open_session` — the CLI, the HTTP service, the experiment drivers
and the examples all go through exactly this path, so the same spec
always yields the same engine and hits the same caches.

Three ideas:

* **Spec** — :class:`EmulationSpec` and its nested nodes
  (:class:`DeviceSpec`, :class:`XbarSpec`, :class:`SimSpec`,
  :class:`EmulatorSpec`, :class:`NonidealitySpec`,
  :class:`MitigationSpec`, :class:`RuntimeSpec`) form a validated tree
  with a strict ``to_dict``/``from_dict`` JSON round-trip, named presets
  (:func:`get_preset`, e.g. ``"paper-64x64"``, ``"quick"``) and an
  :meth:`~EmulationSpec.evolve` builder for overrides.
* **Keys** — ``spec.model_key()`` / ``spec.key()`` /
  ``spec.weights_key(W)`` are stable content digests; the GENIEx zoo and
  the serving registry key their caches with them.
* **Session** — :func:`open_session` resolves the spec (get-or-train
  through the zoo), builds the engine and owns the runtime lifecycle;
  it exposes ``matmul``, ``solve_batch``, ``compile`` and ``stats``.

See the README's "Public API" section for a tour and migration notes.
"""

from repro.api.presets import PRESETS, get_preset, preset_names
from repro.api.session import (
    Session,
    build_engine,
    open_session,
    resolve_emulator,
)
from repro.api.spec import (
    DeviceSpec,
    EmulationSpec,
    EmulatorSpec,
    RuntimeSpec,
    SimSpec,
    XbarSpec,
    engine_identity,
    mitigation_from_dict,
    nonideality_from_dict,
    supports_batch_invariance,
    weights_identity,
)
from repro.mitigation.spec import (
    CalibrationSpec,
    MitigationSpec,
    NoiseTrainSpec,
)
from repro.nonideal import NonidealitySpec

__all__ = [
    "EmulationSpec",
    "DeviceSpec",
    "XbarSpec",
    "SimSpec",
    "EmulatorSpec",
    "NonidealitySpec",
    "MitigationSpec",
    "NoiseTrainSpec",
    "CalibrationSpec",
    "RuntimeSpec",
    "Session",
    "open_session",
    "build_engine",
    "resolve_emulator",
    "PRESETS",
    "get_preset",
    "preset_names",
    "engine_identity",
    "weights_identity",
    "nonideality_from_dict",
    "mitigation_from_dict",
    "supports_batch_invariance",
]
