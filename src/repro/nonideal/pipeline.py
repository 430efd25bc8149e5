"""The non-ideality spec node and its deterministic application pipeline.

:class:`NonidealitySpec` composes the registered transforms
(:data:`~repro.nonideal.transforms.TRANSFORM_KINDS`) into one frozen,
serializable description of "how this crossbar is faulty". It is a node of
:class:`repro.api.spec.EmulationSpec` (strict JSON round-trip, ``evolve``
overrides, content digests) but lives here so the device layer carries no
dependency on the API layer.

:class:`NonidealityPipeline` turns the spec into perturbed conductances.
Determinism contract (mirrors the ADC-noise scheme of the sharded
runtime): every draw comes from a *coordinate-keyed* RNG seeded by
``(spec seed, transform index, tile coordinates)`` and each transform
draws its whole tile in one fixed-shape call, so every cell position
receives the same perturbation no matter the tile iteration order, the
worker count, or the process that programs the tile — two engines built
anywhere from the same spec hold bit-identical perturbed tiles.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.nonideal.transforms import (
    TRANSFORM_KINDS,
    DriftSpec,
    ReadNoiseSpec,
    StuckSpec,
    TemperatureSpec,
    VariationSpec,
)
from repro.utils.digest import content_key

#: Mask keeping RNG seed-stream components in numpy's accepted range.
_SEED_MASK = (1 << 63) - 1


@dataclass(frozen=True)
class NonidealitySpec:
    """Declarative device-fault composition for one emulation setup.

    One optional slot per registered transform kind, applied in the
    canonical :data:`~repro.nonideal.transforms.TRANSFORM_KINDS` order;
    ``seed`` keys every stochastic draw. The default instance is the
    *identity*: no transform active, and — by contract with the spec
    digests — byte-identical keys to a spec that predates this node.
    """

    seed: int = 0
    variation: VariationSpec = field(default_factory=VariationSpec)
    drift: DriftSpec = field(default_factory=DriftSpec)
    read_noise: ReadNoiseSpec = field(default_factory=ReadNoiseSpec)
    temperature: TemperatureSpec = field(default_factory=TemperatureSpec)
    stuck: StuckSpec = field(default_factory=StuckSpec)

    def __post_init__(self):
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError(
                f"nonideality.seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(
                f"nonideality.seed must be >= 0, got {self.seed}")
        for kind, cls in TRANSFORM_KINDS.items():
            value = getattr(self, kind)
            if not isinstance(value, cls):
                raise ConfigError(
                    f"nonideality.{kind} must be a {cls.__name__}, got "
                    f"{type(value).__name__}")

    @property
    def is_identity(self) -> bool:
        """True when no transform perturbs anything (the clean crossbar)."""
        return all(getattr(self, kind).is_identity
                   for kind in TRANSFORM_KINDS)

    def active(self) -> list:
        """``(stream index, kind, transform)`` for each active transform.

        The stream index is the transform's position in the registry —
        stable even when other transforms toggle between identity and
        active, so enabling a second fault source never re-keys the
        first one's draws.
        """
        return [(index, kind, getattr(self, kind))
                for index, kind in enumerate(TRANSFORM_KINDS)
                if not getattr(self, kind).is_identity]

    def digest(self) -> str:
        """Stable content digest of the *active* fault composition.

        Built over the active transforms' fields only, so adding a new
        transform kind to the registry (always identity by default)
        never re-keys existing faulty specs. The seed participates only
        when an active transform actually draws from it: two drift-only
        specs that differ solely in seed are bit-identical engines and
        key identically (no redundant zoo training, shared warm tiers).
        """
        payload = {}
        for _, kind, transform in self.active():
            payload[kind] = dataclasses.asdict(transform)
        if any(t.is_stochastic for _, _, t in self.active()):
            payload["seed"] = self.seed
        return content_key("ni", payload)


class NonidealityPipeline:
    """Apply a :class:`NonidealitySpec` to programmed conductance tiles."""

    def __init__(self, spec: NonidealitySpec):
        if not isinstance(spec, NonidealitySpec):
            raise ConfigError(
                f"NonidealityPipeline expects a NonidealitySpec, got "
                f"{type(spec).__name__}")
        self.spec = spec
        self._active = spec.active()

    @property
    def is_identity(self) -> bool:
        return not self._active

    def digest(self) -> str:
        return self.spec.digest()

    def perturb(self, conductance_s: np.ndarray, coords: tuple,
                g_min_s: float, g_max_s: float) -> np.ndarray:
        """Perturbed copy of one programmed tile.

        ``coords`` identifies the tile (the engine passes
        ``(sign, slice, tile_row, tile_col)``); it keys the RNG streams,
        so equal coordinates always receive equal draws. Identity
        pipelines return the input unchanged (same object — callers use
        this to skip copies on the clean path).
        """
        if not self._active:
            return conductance_s
        out = np.asarray(conductance_s, dtype=float)
        key_base = [self.spec.seed & _SEED_MASK]
        key_tail = [int(c) & _SEED_MASK for c in coords]
        for index, _, transform in self._active:
            rng = np.random.default_rng(key_base + [index] + key_tail)
            out = transform.apply(out, rng, g_min_s, g_max_s)
        return out


def as_pipeline(nonideality) -> NonidealityPipeline | None:
    """Normalise ``None`` / spec / pipeline into a pipeline (or ``None``).

    ``None`` and identity specs both resolve to ``None`` — the engine's
    clean fast path — so "no node" and "explicit identity node" are
    indistinguishable downstream, exactly as they are in the digests.
    """
    if nonideality is None:
        return None
    if isinstance(nonideality, NonidealityPipeline):
        return None if nonideality.is_identity else nonideality
    if isinstance(nonideality, NonidealitySpec):
        if nonideality.is_identity:
            return None
        return NonidealityPipeline(nonideality)
    raise ConfigError(
        f"nonideality must be a NonidealitySpec or NonidealityPipeline, "
        f"got {type(nonideality).__name__}")
