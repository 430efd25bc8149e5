"""Declarative emulation specs: one serializable description of a setup.

:class:`EmulationSpec` is the canonical, frozen description of "an
emulation setup" — which engine kind runs, on which crossbar design, at
which digital precision, backed by which trained emulator, executed with
which runtime policy. Every surface of the repository (CLI, HTTP service,
experiment drivers, notebooks) resolves the same spec to the same engine,
and every cache (the GENIEx zoo, the serving registry's warm tiers) keys
artifacts by the same spec digests, so identical setups are recognised as
identical everywhere.

The spec tree::

    EmulationSpec
    ├── engine: str                  # ideal | exact | geniex | ...
    ├── xbar: XbarSpec               # crossbar design parameters
    │   └── rram: DeviceSpec         # RRAM compact-model constants
    ├── sim: SimSpec                 # digital bit widths (funcsim)
    ├── emulator: EmulatorSpec       # GENIEx characterisation + fit
    │   ├── sampling: SamplingSpec
    │   └── training: TrainSpec
    ├── nonideality: NonidealitySpec # device-fault composition
    │   ├── variation / drift / read_noise / temperature / stuck
    │   └── seed
    ├── mitigation: MitigationSpec   # fault-mitigation recipe
    │   ├── noise: NoiseTrainSpec    # noise-injection / HW-loop training
    │   ├── calibration: CalibrationSpec
    │   └── seed
    └── runtime: RuntimeSpec         # workers / chunking

The design-parameter nodes subclass the validated config dataclasses they
describe (:class:`XbarSpec` extends
:class:`~repro.xbar.config.CrossbarConfig`, :class:`SimSpec` extends
:class:`~repro.funcsim.config.FuncSimConfig`, :class:`DeviceSpec` extends
:class:`~repro.devices.rram.RramParameters`), so field sets, defaults and
validation can never drift apart; ``to_config()`` lowers each node back to
the plain config type the engines consume.

Serialisation is a strict JSON round-trip: ``from_dict(to_dict(s)) == s``,
unknown fields are rejected with a :class:`~repro.errors.ConfigError`
naming the offending dotted path, and ``evolve(**overrides)`` produces a
modified copy (nested dicts or dotted paths like ``"xbar.rows"``), with
evolve overrides taking precedence over preset values, which take
precedence over defaults.

Keys. ``spec.model_key()`` identifies the trained-emulator artifact (the
GENIEx zoo delegates here), ``spec.key()`` the resulting engine behaviour
(the serving registry keys warm engines on it) and
``spec.weights_key(W)`` one prepared weight matrix on that engine. All
are content digests built on :mod:`repro.utils.digest` — stable across
processes, pickling and spawn/fork boundaries.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.devices.rram import RramParameters
from repro.errors import ConfigError
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import ENGINE_KINDS, INVARIANT_KINDS
from repro.mitigation.spec import (
    CalibrationSpec,
    MitigationSpec,
    NoiseTrainSpec,
)
from repro.nonideal.pipeline import NonidealitySpec
from repro.nonideal.transforms import (
    TRANSFORM_KINDS,
    DriftSpec,
    ReadNoiseSpec,
    StuckSpec,
    TemperatureSpec,
    VariationSpec,
)
from repro.utils.digest import content_key
from repro.xbar.config import CrossbarConfig


def supports_batch_invariance(engine: str, sim) -> bool:
    """Whether ``engine`` under ``sim`` runs batch-invariantly.

    True for the closed-form tile models (whose products are always
    batch-invariant) with a deterministic, zero-preserving ADC;
    converter offset or noise makes the per-batch zero-stream skip
    observable and rules invariance out. A property of the setup, not a
    mode: :func:`engine_identity` folds it into ``key()``.
    """
    return (engine in INVARIANT_KINDS
            and sim.adc_offset_lsb == 0.0
            and sim.adc_noise_lsb == 0.0)


# ----------------------------------------------------------------------
# Spec nodes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceSpec(RramParameters):
    """RRAM compact-model constants as a spec node.

    Field-for-field identical to :class:`~repro.devices.rram.
    RramParameters` (it *is* one), so device validation lives in exactly
    one place; :meth:`to_params` lowers to the plain config type.
    """

    def to_params(self) -> RramParameters:
        return RramParameters(**_shallow_dict(self, RramParameters))

    @classmethod
    def from_params(cls, params: RramParameters) -> "DeviceSpec":
        return cls(**_shallow_dict(params, RramParameters))


@dataclass(frozen=True)
class XbarSpec(CrossbarConfig):
    """Crossbar design parameters as a spec node.

    Extends :class:`~repro.xbar.config.CrossbarConfig` with the spec
    codec; the nested device node is a :class:`DeviceSpec` so the whole
    tree serialises uniformly.
    """

    rram: DeviceSpec = field(default_factory=DeviceSpec)

    def to_config(self) -> CrossbarConfig:
        """Lower to the plain :class:`CrossbarConfig` the engines use."""
        kwargs = _shallow_dict(self, CrossbarConfig)
        kwargs["rram"] = self.rram.to_params() \
            if isinstance(self.rram, DeviceSpec) else self.rram
        return CrossbarConfig(**kwargs)

    @classmethod
    def from_config(cls, config: CrossbarConfig) -> "XbarSpec":
        kwargs = _shallow_dict(config, CrossbarConfig)
        kwargs["rram"] = DeviceSpec.from_params(config.rram)
        return cls(**kwargs)


@dataclass(frozen=True)
class SimSpec(FuncSimConfig):
    """Digital-precision parameters as a spec node.

    Field-for-field identical to :class:`~repro.funcsim.config.
    FuncSimConfig`; :meth:`to_config` lowers to the plain config type.
    """

    def to_config(self) -> FuncSimConfig:
        return FuncSimConfig(**_shallow_dict(self, FuncSimConfig))

    @classmethod
    def from_config(cls, config: FuncSimConfig) -> "SimSpec":
        return cls(**_shallow_dict(config, FuncSimConfig))


@dataclass(frozen=True)
class EmulatorSpec:
    """How the GENIEx emulator behind a ``geniex`` engine is obtained.

    ``sampling`` and ``training`` reuse the library's existing frozen
    spec dataclasses; ``mode`` selects the circuit fidelity of the
    characterisation labels (``"full"`` includes device non-linearity,
    ``"linear"`` parasitics only). Ignored by engines that need no
    trained model (``ideal``/``exact``/``analytical``/...).
    """

    sampling: SamplingSpec = SamplingSpec()
    training: TrainSpec = TrainSpec()
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ("full", "linear"):
            raise ConfigError(
                f"emulator mode must be 'full' or 'linear', "
                f"got {self.mode!r}")


@dataclass(frozen=True)
class RuntimeSpec:
    """Execution policy: how a resolved engine runs, not what it computes.

    No field participates in ``spec.key()``: every runtime knob is
    value-neutral by the runtime's determinism contract. Batch
    invariance is not a knob either; it is a property of the engine kind
    and ADC (:func:`supports_batch_invariance`).

    Attributes:
        workers: Threads running one matmul's shards (``make_engine``'s
            ``workers``); results are identical at any count.
        chunk_rows: Conv-layer im2col chunking for converted models.

    Specs naming a removed runtime field (the executor, the tile cache
    size, the array backend, the batch-invariance flag or the fleet
    routing node) are rejected like any other unknown field.
    """

    workers: int = 1
    chunk_rows: int | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_rows is not None and self.chunk_rows < 1:
            raise ConfigError(
                f"chunk_rows must be >= 1 or None, got {self.chunk_rows}")


@dataclass(frozen=True)
class EmulationSpec:
    """The root spec: one complete, serializable emulation setup."""

    engine: str = "geniex"
    xbar: XbarSpec = XbarSpec()
    sim: SimSpec = SimSpec()
    emulator: EmulatorSpec = EmulatorSpec()
    nonideality: NonidealitySpec = NonidealitySpec()
    mitigation: MitigationSpec = MitigationSpec()
    runtime: RuntimeSpec = RuntimeSpec()

    def __post_init__(self):
        if self.engine not in ENGINE_KINDS:
            raise ConfigError(
                f"unknown engine kind {self.engine!r}; expected one of "
                f"{ENGINE_KINDS}")
        if self.engine == "ideal" and not self.nonideality.is_identity:
            # Fail at spec validation, not at engine build: the ideal
            # engine is the digital reference and has no programmed
            # conductances to perturb — a faulty "ideal" spec is a
            # contradiction, not a setup that silently runs clean.
            raise ConfigError(
                "spec.nonideality is active but spec.engine is 'ideal' "
                "(the digital fixed-point reference has no analog state "
                "to perturb); pick an analog engine kind or drop the "
                "nonideality node")

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain JSON-encodable dict (tuples become lists)."""
        return _node_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "EmulationSpec":
        """Strict inverse of :meth:`to_dict`.

        Unknown fields raise :class:`ConfigError` naming the dotted path
        (a typo silently falling back to a default would key a different
        artifact than the caller intended); lists become the tuples the
        frozen dataclasses expect; missing fields take their defaults.
        """
        return _node_from_dict(cls, payload, "spec")

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EmulationSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def preset(cls, name: str) -> "EmulationSpec":
        """A named preset spec (see :mod:`repro.api.presets`)."""
        from repro.api.presets import get_preset
        return get_preset(name)

    def evolve(self, **overrides) -> "EmulationSpec":
        """A copy with the given overrides applied.

        Accepts direct field values (``engine="exact"``), nested dicts
        (``xbar={"rows": 32}``) and dotted paths
        (``**{"xbar.rows": 32}``); lists are converted to tuples.
        Override precedence is outermost-wins: ``evolve`` beats the
        preset the spec came from, which beats the dataclass defaults.
        """
        tree: dict = {}
        for key, value in overrides.items():
            parts = key.split(".")
            node = tree
            for part in parts[:-1]:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(
                        f"override {key!r} descends through a non-spec "
                        f"value at {part!r}")
            if isinstance(value, dict):
                _deep_merge(node.setdefault(parts[-1], {}), value)
            else:
                node[parts[-1]] = value
        return _evolve_node(self, tree, "spec")

    # ------------------------------------------------------------------
    # Content digests
    # ------------------------------------------------------------------
    def model_key(self) -> str:
        """Identity of the trained GENIEx artifact this spec resolves to.

        Depends on the crossbar design, the emulator node and — when one
        is active — the non-ideality composition; exactly what
        :meth:`repro.core.zoo.GeniexZoo.get_or_train` consumes; the
        zoo's ``artifact_key`` delegates here.

        The ``nonideality`` digest is folded in *only when the node is
        non-identity*: clean specs keep the exact pre-node byte digest
        (no spurious zoo/registry re-keying — regression-tested), while
        a faulty crossbar can never alias a clean one in the zoo, the
        serving registry or (via :meth:`key`/:meth:`weights_key`, which
        build on this digest) any warm-engine tier. The characterisation
        sweep itself is nonideality-independent, so the separation is a
        deliberately conservative no-aliasing guarantee, not a claim
        that the trained weights differ; drivers that sweep many fault
        points over one design pass the resolved emulator explicitly
        (``Session(..., emulator=...)``) to pay training once.

        The ``mitigation`` digest folds in under the same rule: a
        mitigated spec can never cache-alias its unmitigated twin at any
        digest level, while identity mitigation (the default) keeps every
        pre-node digest byte-for-byte. The characterisation emulator is
        mitigation-independent, so the zoo strips the node before keying
        its trained-emulator artifacts (``GeniexZoo.artifact_key``) —
        the no-aliasing applies to model/engine/weights/mitigated tiers,
        not to the shared physics characterisation.
        """
        payload = {"xbar": _node_to_dict(self.xbar),
                   "emulator": _node_to_dict(self.emulator)}
        if not self.nonideality.is_identity:
            payload["nonideality"] = self.nonideality.digest()
        if not self.mitigation.is_identity:
            payload["mitigation"] = self.mitigation.digest()
        return content_key("", payload)

    def key(self) -> str:
        """Identity of the engine *behaviour* this spec resolves to.

        Folds in the engine kind, the model identity (crossbar design +
        emulator node, via :meth:`model_key` — matching the legacy
        registry scheme, so non-learned kinds key conservatively on the
        emulator node too rather than risk ever sharing an engine across
        different crossbar designs) and the sim precision. Excludes the
        whole runtime node: worker count and chunking never change
        results (the runtime's determinism contract), so two specs that
        differ only there share warm engines.
        """
        return engine_identity(self.model_key(), self.engine, self.sim)

    def weights_key(self, weights) -> str:
        """Identity of one prepared weight matrix on this spec's engine."""
        return weights_identity(self.key(), weights)


# ----------------------------------------------------------------------
# Digest composition
# ----------------------------------------------------------------------
def engine_identity(model_key: str, engine: str, sim) -> str:
    """Engine-behaviour digest from pre-resolved parts.

    ``model_key`` is the :meth:`EmulationSpec.model_key` digest and
    carries the crossbar design (every kind's values depend on it) plus
    the emulator node. ``sim`` may be a :class:`SimSpec` or a plain
    :class:`~repro.funcsim.config.FuncSimConfig` — both digest to the
    same key (identical field sets). The derived
    :func:`supports_batch_invariance` is folded under the
    ``batch_invariant`` name the flag once had, so every key the serving
    registry ever issued keeps its value. :meth:`EmulationSpec.key`
    bottoms out here.
    """
    return content_key("spec", model_key, engine,
                       {"sim": _node_to_dict(sim),
                        "batch_invariant":
                            supports_batch_invariance(engine, sim)})


def weights_identity(engine_key: str, weights) -> str:
    """Prepared-weights digest on top of an engine-behaviour digest."""
    return content_key("eng", engine_key,
                       np.asarray(weights, dtype=np.float64))


# ----------------------------------------------------------------------
# Generic strict dataclass <-> dict codec
# ----------------------------------------------------------------------
def _shallow_dict(node, cls) -> dict:
    """Field values of ``node`` restricted to ``cls``'s field names."""
    return {f.name: getattr(node, f.name) for f in dataclasses.fields(cls)}


def _node_to_dict(node) -> dict:
    out = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            out[f.name] = _node_to_dict(value)
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def _node_from_dict(cls, payload, path: str):
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ConfigError(
            f"{path} must be a JSON object, got {type(payload).__name__}")
    children = _SPEC_CHILDREN.get(cls, {})
    allowed = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown spec field {path}.{key!r}; expected one of "
                f"{sorted(allowed)}")
        if key in children:
            value = _node_from_dict(children[key], value, f"{path}.{key}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc


def _deep_merge(base: dict, extra: dict) -> None:
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value


def _evolve_node(node, tree: dict, path: str):
    allowed = {f.name for f in dataclasses.fields(node)}
    changes = {}
    for key, value in tree.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown spec field {path}.{key!r}; expected one of "
                f"{sorted(allowed)}")
        current = getattr(node, key)
        if isinstance(value, dict):
            if not dataclasses.is_dataclass(current):
                raise ConfigError(
                    f"spec field {path}.{key!r} is a plain value and "
                    f"cannot take nested overrides")
            changes[key] = _evolve_node(current, value, f"{path}.{key}")
        elif isinstance(value, list):
            changes[key] = tuple(value)
        else:
            if dataclasses.is_dataclass(current) and \
                    not isinstance(value, type(current)):
                raise ConfigError(
                    f"spec field {path}.{key!r} is a nested spec node; "
                    f"override it with a dict (or a "
                    f"{type(current).__name__} instance), not "
                    f"{type(value).__name__}")
            changes[key] = value
    try:
        return dataclasses.replace(node, **changes)
    except ConfigError as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path}: {exc}") from exc


#: Nested spec-node types per parent class, used by the strict decoder.
_SPEC_CHILDREN = {
    EmulationSpec: {"xbar": XbarSpec, "sim": SimSpec,
                    "emulator": EmulatorSpec, "runtime": RuntimeSpec,
                    "nonideality": NonidealitySpec,
                    "mitigation": MitigationSpec},
    XbarSpec: {"rram": DeviceSpec},
    EmulatorSpec: {"sampling": SamplingSpec, "training": TrainSpec},
    MitigationSpec: {"noise": NoiseTrainSpec,
                     "calibration": CalibrationSpec},
    NonidealitySpec: {"variation": VariationSpec, "drift": DriftSpec,
                      "read_noise": ReadNoiseSpec,
                      "temperature": TemperatureSpec, "stuck": StuckSpec},
}
assert set(_SPEC_CHILDREN[NonidealitySpec]) == set(TRANSFORM_KINDS)


def nonideality_from_dict(payload, path: str = "nonideality") \
        -> NonidealitySpec:
    """Strict decode of a bare non-ideality node (wire-format adapters).

    Same codec as :meth:`EmulationSpec.from_dict` restricted to the
    ``nonideality`` subtree — the serve protocol's flat ``model`` object
    uses this to accept a fault composition alongside the legacy fields.
    """
    return _node_from_dict(NonidealitySpec, payload, path)


def mitigation_from_dict(payload, path: str = "mitigation") \
        -> MitigationSpec:
    """Strict decode of a bare mitigation node (wire-format adapters)."""
    return _node_from_dict(MitigationSpec, payload, path)
