"""Technology-aware training: noise injection during SGD.

Crossbar non-idealities act (to first order) as data-dependent
multiplicative distortion of each MVM. Training the network with random
multiplicative perturbations of weights (and optionally activations) finds
minima that are flat along exactly those distortion directions, which is the
classic software-side mitigation (cf. Chakraborty et al., TETCI 2018 — the
paper's reference [10]).

The injected noise is re-sampled per forward pass and *not* part of the
stored weights; evaluation uses the clean parameters.

Two refinements over the plain recipe:

* **Coordinate-keyed randomness.** Every draw comes from a generator
  seeded by ``(seed, purpose, epoch, step[, param])`` — the same
  discipline as :mod:`repro.nonideal` — instead of one shared sequential
  stream. A given (epoch, step) consumes exactly its own draws, so
  training is bit-identical regardless of worker count, of how many batches
  an epoch has, or of whether some stage skips its draws.

* **Hardware in the loop.** With ``engine=...`` every training forward
  pass also runs through the (possibly faulty) funcsim engine via
  :func:`repro.funcsim.convert_to_mvm` + ``sync_mvm_model``, and the loss
  is taken on the *hardware* logits with straight-through gradients over
  the float path — training through the crossbar physics instead of
  through a Gaussian proxy of it (cf. TxSim, arXiv:2002.11151).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.nn.losses import cross_entropy
from repro.nn.modules import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import SeedLike

_SEED_MASK = (1 << 63) - 1

# Stable purpose indices of the per-(seed, purpose, coords...) streams.
_STREAM_PERMUTATION = 0
_STREAM_ACTIVATION = 1
_STREAM_WEIGHT = 2


def _normalise_seed(seed: SeedLike) -> int:
    """Collapse any ``SeedLike`` to one base integer for stream keys."""
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(_SEED_MASK))
    if seed is None:
        return int(np.random.default_rng().integers(_SEED_MASK))
    return int(seed) & _SEED_MASK


def _stream(seed: int, *coords) -> np.random.Generator:
    """The generator for one (purpose, coordinates) draw site."""
    return np.random.default_rng(
        [seed] + [int(c) & _SEED_MASK for c in coords])


@dataclass(frozen=True)
class NoiseSpec:
    """Noise-injection configuration.

    Attributes:
        weight_sigma: Std-dev of the multiplicative weight perturbation
            ``w -> w * (1 + sigma * eps)``, ``eps ~ N(0, 1)``, re-sampled
            every optimisation step. The paper's Fig. 2/5 NF spreads
            correspond to a few percent.
        activation_sigma: Optional multiplicative activation noise applied
            to the input batch.
        include_1d: Whether 1-D parameters (biases, norm scales/shifts)
            are perturbed too. Defaults to ``False`` — the historical
            behaviour, and the physically faithful one: 1-D parameters
            live in the digital peripherals, not in programmed
            conductances, so crossbar noise never touches them. Set
            ``True`` for full-parameter robustness training.
    """

    weight_sigma: float = 0.05
    activation_sigma: float = 0.0
    include_1d: bool = False

    def __post_init__(self):
        if self.weight_sigma < 0 or self.activation_sigma < 0:
            raise ConfigError("noise sigmas must be >= 0")


class _WeightPerturbation:
    """Applies and exactly reverts multiplicative weight noise.

    ``rng`` is either a single generator (draws consumed in parameter
    order) or a callable ``param_index -> Generator`` yielding one
    independent stream per parameter, so the draw a parameter sees is a
    property of its position, not of which other parameters drew before
    it. By default only parameters with ``ndim >= 2`` (the ones mapped
    onto crossbars) are perturbed; ``include_1d=True`` extends the noise
    to biases and norm parameters.
    """

    def __init__(self, model: Module, sigma: float, rng,
                 include_1d: bool = False):
        self._entries = []
        if sigma == 0:
            return
        for index, param in enumerate(model.parameters()):
            if param.ndim < 2 and not include_1d:
                continue  # digital-peripheral params stay clean by default
            gen = rng(index) if callable(rng) else rng
            factor = 1.0 + sigma * gen.standard_normal(
                param.data.shape).astype(param.data.dtype)
            original = param.data.copy()
            param.data *= factor
            self._entries.append((param, original, factor))

    def revert_and_project_grads(self):
        """Restore clean weights; gradients stay as computed (straight-
        through estimator w.r.t. the perturbed forward)."""
        for param, original, factor in self._entries:
            param.data[...] = original
            if param.grad is not None:
                # Chain rule through w_noisy = w * factor.
                param.grad = param.grad * factor


def train_with_noise(model: Module, x_train: np.ndarray,
                     y_train: np.ndarray, spec: NoiseSpec,
                     epochs: int = 10, batch_size: int = 64,
                     lr: float = 3e-3, seed: SeedLike = 0,
                     verbose: bool = False, engine=None,
                     chunk_rows: int | None = None) -> list:
    """Train a classifier with injected analog-style noise.

    With ``engine=...`` (a funcsim MVM engine) training is hardware in
    the loop: the model is converted once via
    :func:`repro.funcsim.convert_to_mvm`, re-programmed from the live
    (perturbed) parameters every step via ``sync_mvm_model``, and the
    loss is taken on ``ideal + (hardware - ideal)`` — forward values from
    the crossbar, gradients through the float path (straight-through).
    Engine preparation is content-keyed (faults included), so the run is
    bit-identical across worker counts and repetitions. Re-programming every
    step is exact but costly; intended for the small models of this
    repo's training loops. The hardware pass runs in eval mode, so
    hardware-in-the-loop assumes models without train-time stochasticity.

    Returns the per-epoch mean training loss. The model is left in eval
    mode with *clean* weights.
    """
    base_seed = _normalise_seed(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    converted = None
    if engine is not None:
        from repro.funcsim.convert import convert_to_mvm, sync_mvm_model
        converted = convert_to_mvm(model, engine, chunk_rows=chunk_rows)
    n = len(x_train)
    history = []
    for epoch in range(epochs):
        model.train()
        perm = _stream(base_seed, _STREAM_PERMUTATION,
                       epoch).permutation(n)
        total = 0.0
        for step, start in enumerate(range(0, n, batch_size)):
            idx = perm[start:start + batch_size]
            batch = x_train[idx]
            if spec.activation_sigma > 0:
                gen = _stream(base_seed, _STREAM_ACTIVATION, epoch, step)
                batch = batch * (1.0 + spec.activation_sigma
                                 * gen.standard_normal(batch.shape)
                                 .astype(batch.dtype))
            perturbation = _WeightPerturbation(
                model, spec.weight_sigma,
                lambda index: _stream(base_seed, _STREAM_WEIGHT, epoch,
                                      step, index),
                include_1d=spec.include_1d)
            logits = model(Tensor(batch))
            if converted is not None:
                sync_mvm_model(converted, model)
                with no_grad():
                    hardware = converted(Tensor(batch)).data
                # Straight-through: hardware values, float-path gradients.
                logits = logits + Tensor(hardware - logits.data)
            loss = cross_entropy(logits, y_train[idx])
            optimizer.zero_grad()
            loss.backward()
            perturbation.revert_and_project_grads()
            optimizer.step()
            total += loss.item() * len(idx)
        history.append(total / n)
        if verbose:
            print(f"  [noise-train] epoch {epoch} loss {history[-1]:.4f}",
                  flush=True)
    model.eval()
    if converted is not None:
        sync_mvm_model(converted, model)
    return history
