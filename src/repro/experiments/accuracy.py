"""Reference-network training and non-ideal accuracy evaluation.

Shared by the Fig. 7/8/9 drivers: train a ResNet-style CNN once per
(dataset, profile) pair — cached on disk — then evaluate it through any MVM
engine by converting the trained model with
:func:`repro.funcsim.convert_to_mvm` and measuring top-1 accuracy on the
held-out split.
"""

from __future__ import annotations

import os

import numpy as np

from repro.api.session import open_session
from repro.api.spec import EmulationSpec, RuntimeSpec, SimSpec, XbarSpec
from repro.core.emulator import GeniexEmulator
from repro.datasets import make_shapes_split, make_textures_split
from repro.errors import ConfigError
from repro.experiments.common import Profile, default_workers, dnn_cache_dir
from repro.funcsim import convert_to_mvm
from repro.funcsim.config import FuncSimConfig
from repro.models import ResNet
from repro.nn import Adam, cross_entropy, load_state_dict, save_state_dict
from repro.nn.losses import accuracy
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import rng_from_seed
from repro.xbar.config import CrossbarConfig

DATASETS = ("shapes", "textures")


def load_dataset(name: str, profile: Profile, seed: int = 0) -> tuple:
    """Train/test split of a named dataset at profile sizes."""
    if name == "shapes":
        return make_shapes_split(profile.train_images, profile.eval_images,
                                 image_size=profile.image_size,
                                 num_classes=profile.shapes_classes,
                                 seed=seed)
    if name == "textures":
        return make_textures_split(profile.train_images, profile.eval_images,
                                   image_size=profile.image_size,
                                   num_classes=profile.textures_classes,
                                   noise=0.6, seed=seed)
    raise ConfigError(f"unknown dataset {name!r}; choose from {DATASETS}")


def _network_for(name: str, profile: Profile, num_classes: int,
                 seed: int = 0) -> ResNet:
    return ResNet(profile.cnn_blocks, num_classes, in_channels=1,
                  width=profile.cnn_width, seed=seed)


def _cache_path(name: str, profile: Profile, seed: int) -> str:
    return os.path.join(dnn_cache_dir(),
                        f"{name}-{profile.name}-seed{seed}.npz")


def train_reference_network(name: str, profile: Profile,
                            seed: int = 0, verbose: bool = False) -> tuple:
    """Train (or load) the reference CNN for a dataset.

    Returns:
        ``(model, x_test, y_test, float_accuracy)``.
    """
    x_train, y_train, x_test, y_test = load_dataset(name, profile, seed)
    num_classes = int(y_train.max()) + 1
    model = _network_for(name, profile, num_classes, seed)
    path = _cache_path(name, profile, seed)
    if os.path.exists(path):
        model.load_state_dict(load_state_dict(path))
    else:
        rng = rng_from_seed(seed)
        optimizer = Adam(model.parameters(), lr=3e-3)
        batch = 64
        n = len(x_train)
        for epoch in range(profile.train_epochs):
            perm = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch):
                idx = perm[start:start + batch]
                loss = cross_entropy(model(Tensor(x_train[idx])),
                                     y_train[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                total += loss.item() * len(idx)
            if verbose:
                print(f"  [dnn-train:{name}] epoch {epoch} "
                      f"loss {total / n:.4f}", flush=True)
        save_state_dict(model.state_dict(), path)
    model.eval()
    float_acc = evaluate_float(model, x_test, y_test, profile.eval_batch)
    return model, x_test, y_test, float_acc


def _top1_accuracy(model, x: np.ndarray, y: np.ndarray,
                   batch: int) -> float:
    """Batched top-1 accuracy of any callable model (no grad)."""
    hits = 0
    with no_grad():
        for start in range(0, len(x), batch):
            logits = model(Tensor(x[start:start + batch]))
            hits += int((logits.data.argmax(axis=1)
                         == y[start:start + batch]).sum())
    return hits / len(x)


def evaluate_float(model, x: np.ndarray, y: np.ndarray,
                   batch: int = 64) -> float:
    """Top-1 accuracy of the plain float model."""
    model.eval()
    return _top1_accuracy(model, x, y, batch)


def evaluate_engine(model, x: np.ndarray, y: np.ndarray, engine,
                    batch: int = 64) -> float:
    """Top-1 accuracy of the model converted onto an MVM engine.

    The engine's own ``workers`` decide its threading; the caller owns
    the engine.
    """
    return _top1_accuracy(convert_to_mvm(model, engine), x, y, batch)


def evaluate_spec(model, x: np.ndarray, y: np.ndarray,
                  spec: EmulationSpec, batch: int = 64, zoo=None,
                  emulator: GeniexEmulator | None = None) -> float:
    """Top-1 accuracy of ``model`` evaluated through a declarative spec.

    The canonical evaluation path: the spec resolves through
    :func:`repro.api.open_session` (zoo get-or-train, engine factory,
    runtime workers per ``spec.runtime``) and the model is compiled with
    :meth:`Session.compile`. ``emulator`` short-circuits zoo resolution
    with a ready-trained instance, which the sweep drivers use to train
    their emulators once up front.
    """
    with open_session(spec, zoo=zoo, emulator=emulator) as session:
        return _top1_accuracy(session.compile(model), x, y, batch)


def evaluate_mode(model, x, y, mode: str, xbar: CrossbarConfig,
                  sim: FuncSimConfig, batch: int = 64,
                  emulator: GeniexEmulator | None = None,
                  workers: int | None = None) -> float:
    """Accuracy under a named engine mode (``ideal``/``geniex``/...).

    Thin adapter lowering loose (mode, xbar, sim, workers) arguments
    into an :class:`EmulationSpec` and delegating to
    :func:`evaluate_spec` — bit-identical to the historical hand-wired
    ``make_engine`` + ``convert_to_mvm`` assembly (tested).
    """
    if mode == "geniex" and emulator is None:
        raise ConfigError("geniex evaluation requires a trained emulator")
    spec = EmulationSpec(
        engine=mode,
        xbar=XbarSpec.from_config(xbar),
        sim=SimSpec.from_config(sim),
        runtime=RuntimeSpec(workers=default_workers()
                            if workers is None else max(1, int(workers))))
    return evaluate_spec(model, x, y, spec, batch=batch, emulator=emulator)


__all__ = [
    "DATASETS",
    "load_dataset",
    "train_reference_network",
    "evaluate_float",
    "evaluate_engine",
    "evaluate_spec",
    "evaluate_mode",
    "accuracy",
]
