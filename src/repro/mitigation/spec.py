"""The mitigation spec node: declarative fault-mitigation recipes.

:class:`MitigationSpec` describes *how a model is hardened against* a
spec's crossbar non-idealities — noise-injection (optionally
hardware-in-the-loop) training plus post-training output calibration —
as a node of :class:`repro.api.spec.EmulationSpec` (strict JSON
round-trip, ``evolve`` overrides, content digests). It lives here, next
to the mitigation implementations, so the API layer depends on the
mitigation package and not the other way around (the same layering as
:class:`repro.nonideal.NonidealitySpec`).

The default instance is the *identity*: no mitigation, and — by contract
with the spec digests — byte-identical keys to a spec that predates this
node. A non-identity node folds into ``spec.model_key()`` / ``key()``,
so a mitigated setup can never cache-alias its unmitigated twin in the
zoo, the serving registry, or any tier built on those digests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.digest import content_key


def _require_int(name: str, value, minimum: int = 0) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class NoiseTrainSpec:
    """Noise-injection (re)training recipe.

    Attributes:
        epochs: Training epochs. ``0`` disables the stage (the identity);
            any positive value trains a model from the dataset handle —
            with ``weight_sigma == 0`` that is plain SGD, the clean
            baseline schedule for calibration-only mitigation.
        weight_sigma: Std-dev of the multiplicative weight perturbation
            re-sampled every optimisation step (ignored while
            ``epochs == 0``).
        activation_sigma: Optional multiplicative input-batch noise.
        include_1d: Perturb 1-D parameters (biases, norm scales) too.
            Defaults to ``False`` — the historical contract, matching
            crossbar physics: 1-D parameters live in digital peripherals,
            not programmed conductances.
        hardware: Run every training forward pass through the spec's
            (possibly faulty) funcsim engine via ``convert_to_mvm`` with
            straight-through gradients — training *through* the crossbar
            instead of through a Gaussian proxy of it.
        batch_size: SGD minibatch size.
        lr: Adam learning rate.
    """

    epochs: int = 0
    weight_sigma: float = 0.05
    activation_sigma: float = 0.0
    include_1d: bool = False
    hardware: bool = False
    batch_size: int = 64
    lr: float = 3e-3

    def __post_init__(self):
        _require_int("mitigation.noise.epochs", self.epochs)
        _require_int("mitigation.noise.batch_size", self.batch_size,
                     minimum=1)
        if self.weight_sigma < 0 or self.activation_sigma < 0:
            raise ConfigError("mitigation.noise sigmas must be >= 0")
        if self.lr <= 0:
            raise ConfigError(
                f"mitigation.noise.lr must be > 0, got {self.lr}")

    @property
    def is_identity(self) -> bool:
        """True when this stage trains nothing (``epochs == 0``)."""
        return self.epochs == 0


@dataclass(frozen=True)
class CalibrationSpec:
    """Post-training output-calibration recipe.

    Attributes:
        samples: Calibration inputs taken from the head of the training
            split. ``0`` disables the stage (the identity); the affine
            fit needs at least 2 samples, so ``1`` is rejected outright.
        ridge: L2 regulariser of the per-output affine fit.
        batch: Forward-pass batch size while collecting calibration
            outputs (value-neutral; kept out of the digest).
    """

    samples: int = 0
    ridge: float = 1e-3
    batch: int = 64

    def __post_init__(self):
        _require_int("mitigation.calibration.samples", self.samples)
        if self.samples == 1:
            raise ConfigError(
                "mitigation.calibration.samples must be 0 (disabled) or "
                ">= 2 (the affine fit needs two points)")
        _require_int("mitigation.calibration.batch", self.batch, minimum=1)
        if self.ridge < 0:
            raise ConfigError(
                f"mitigation.calibration.ridge must be >= 0, "
                f"got {self.ridge}")

    @property
    def is_identity(self) -> bool:
        """True when no calibration is fitted (``samples == 0``)."""
        return self.samples == 0


@dataclass(frozen=True)
class MitigationSpec:
    """Declarative mitigation recipe for one emulation setup.

    Composes the two software-side mitigations this package implements;
    ``seed`` keys every stochastic training draw (batch shuffles and
    noise injection) through the same coordinate-keyed RNG discipline as
    :mod:`repro.nonideal`, so mitigated training is bit-identical across
    worker counts and batch-iteration orders.
    """

    seed: int = 0
    noise: NoiseTrainSpec = NoiseTrainSpec()
    calibration: CalibrationSpec = CalibrationSpec()

    def __post_init__(self):
        _require_int("mitigation.seed", self.seed)
        if not isinstance(self.noise, NoiseTrainSpec):
            raise ConfigError(
                f"mitigation.noise must be a NoiseTrainSpec, got "
                f"{type(self.noise).__name__}")
        if not isinstance(self.calibration, CalibrationSpec):
            raise ConfigError(
                f"mitigation.calibration must be a CalibrationSpec, got "
                f"{type(self.calibration).__name__}")

    @property
    def is_identity(self) -> bool:
        """True when neither stage does anything (the unmitigated setup)."""
        return self.noise.is_identity and self.calibration.is_identity

    def digest(self) -> str:
        """Stable content digest of the *active* mitigation recipe.

        Built over the active stages' fields only, so adding a stage to
        this node later (identity by default) never re-keys existing
        mitigated specs. The seed participates only when the noise stage
        actually draws from it: calibration is a deterministic function
        of the dataset, so two calibration-only specs differing solely
        in seed key identically.
        """
        payload = {}
        if not self.noise.is_identity:
            payload["noise"] = dataclasses.asdict(self.noise)
            payload["seed"] = self.seed
        if not self.calibration.is_identity:
            payload["calibration"] = dataclasses.asdict(self.calibration)
        return content_key("mit", payload)
