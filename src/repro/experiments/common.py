"""Shared experiment infrastructure: profiles, tables, cached networks.

Two profiles are provided. ``quick`` (default) runs every experiment at
laptop-CPU scale in minutes; ``full`` uses paper-scale parameters (64x64
crossbars, 500 hidden neurons, larger datasets) and is selected with
``REPRO_PROFILE=full``. All knobs live in :class:`Profile` so the figure
drivers contain no magic numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo, default_cache_dir
from repro.errors import ConfigError
from repro.funcsim.config import FuncSimConfig
from repro.xbar.config import CrossbarConfig


@dataclass(frozen=True)
class Profile:
    """All size knobs of the experiment suite.

    Attributes mirror the paper's experimental setup (Section 6); the quick
    profile scales them down while preserving every qualitative sweep.
    """

    name: str
    # Circuit-level studies (Figs. 2, 3, 5)
    xbar_sizes: tuple
    base_size: int
    r_on_sweep_ohm: tuple
    onoff_sweep: tuple
    nf_n_g: int
    nf_n_v: int
    fig5_size: int
    fig5_test_n_g: int
    fig5_test_n_v: int
    # GENIEx model (fig 5 headline fit)
    geniex_hidden: int
    geniex_hidden_layers: int
    geniex_n_g: int
    geniex_n_v: int
    geniex_epochs: int
    geniex_batch: int
    geniex_lr: float
    geniex_patience: int
    # GENIEx models used inside the functional simulator (figs 7-9): one
    # hidden layer keeps the per-tile forward pass cheap enough for whole-
    # DNN evaluation — the second layer's P x P matmul cannot be shared
    # across tiles and dominates otherwise.
    dnn_geniex_hidden: int
    dnn_geniex_hidden_layers: int
    # DNN accuracy studies (Figs. 7, 8, 9)
    dnn_base_size: int
    dnn_sizes: tuple
    image_size: int
    shapes_classes: int
    textures_classes: int
    cnn_width: int
    cnn_blocks: int
    train_images: int
    train_epochs: int
    eval_images: int
    eval_images_fig9: int
    eval_batch: int

    def crossbar(self, **overrides) -> CrossbarConfig:
        """Base crossbar config (paper nominal values) with overrides."""
        base = dict(rows=self.base_size, cols=self.base_size)
        base.update(overrides)
        if "rows" in overrides and "cols" not in overrides:
            base["cols"] = overrides["rows"]
        return CrossbarConfig(**base)

    def dnn_crossbar(self, **overrides) -> CrossbarConfig:
        """Crossbar used by the DNN accuracy experiments (figs 7-9).

        Devices are programmed with a program-and-verify reference at half
        the supply voltage (the mid-scale read level), so the RRAM sinh
        non-linearity is *centred* over the operating range: it
        under-delivers below V/2 and over-delivers above, a data-dependent
        residual with near-zero mean. Small-signal programming (v_ref = 0)
        would instead make every device systematically super-linear, which
        at 0.5 V supply overwhelms the IR drops and collapses accuracy for
        every faithful model — a programming-calibration artefact, not the
        regime the paper evaluates.
        """
        overrides.setdefault("rows", self.dnn_base_size)
        config = self.crossbar(**overrides)
        if "programming_v_ref_v" not in overrides:
            config = config.replace(
                programming_v_ref_v=config.v_supply_v / 2.0)
        return config

    def sampling_spec(self, seed: int = 0) -> SamplingSpec:
        return SamplingSpec(n_g_matrices=self.geniex_n_g,
                            n_v_per_g=self.geniex_n_v, seed=seed)

    def train_spec(self, seed: int = 0) -> TrainSpec:
        return TrainSpec(hidden=self.geniex_hidden,
                         hidden_layers=self.geniex_hidden_layers,
                         epochs=self.geniex_epochs,
                         batch_size=self.geniex_batch,
                         lr=self.geniex_lr,
                         patience=self.geniex_patience, seed=seed)

    def dnn_train_spec(self, seed: int = 0) -> TrainSpec:
        """Spec of the emulators embedded in the functional simulator."""
        return TrainSpec(hidden=self.dnn_geniex_hidden,
                         hidden_layers=self.dnn_geniex_hidden_layers,
                         epochs=self.geniex_epochs,
                         batch_size=self.geniex_batch,
                         lr=self.geniex_lr,
                         patience=self.geniex_patience, seed=seed)

    def funcsim(self, **overrides) -> FuncSimConfig:
        return FuncSimConfig(**overrides)

    def to_spec(self, engine: str = "geniex", *, seed: int = 0,
                workers: int | None = None, **xbar_overrides):
        """The profile's DNN-accuracy setup as one declarative spec.

        Returns the :class:`repro.api.spec.EmulationSpec` equivalent of
        the hand-wired ``dnn_crossbar()`` + ``funcsim()`` +
        ``dnn_train_spec()`` + ``make_engine`` assembly the figure
        drivers historically performed — resolved through
        :func:`repro.api.open_session`, it produces bit-identical
        results (tested). ``xbar_overrides`` feed
        :meth:`dnn_crossbar` (e.g. ``rows=16`` for the size sweeps);
        ``workers`` defaults to :func:`default_workers` (the
        ``REPRO_WORKERS`` env contract the loose path honoured).
        """
        if workers is None:
            workers = default_workers()
        from repro.api.spec import (EmulationSpec, EmulatorSpec,
                                    RuntimeSpec, SimSpec, XbarSpec)
        return EmulationSpec(
            engine=engine,
            xbar=XbarSpec.from_config(self.dnn_crossbar(**xbar_overrides)),
            sim=SimSpec.from_config(self.funcsim()),
            emulator=EmulatorSpec(sampling=self.sampling_spec(seed),
                                  training=self.dnn_train_spec(seed)),
            runtime=RuntimeSpec(workers=max(1, int(workers))))


QUICK = Profile(
    name="quick",
    xbar_sizes=(16, 32, 64),
    base_size=32,
    r_on_sweep_ohm=(50e3, 100e3, 300e3),
    onoff_sweep=(2.0, 6.0, 10.0),
    nf_n_g=4,
    nf_n_v=8,
    fig5_size=32,
    fig5_test_n_g=8,
    fig5_test_n_v=12,
    geniex_hidden=256,
    geniex_hidden_layers=2,
    geniex_n_g=60,
    geniex_n_v=20,
    geniex_epochs=180,
    geniex_batch=128,
    geniex_lr=2e-3,
    geniex_patience=50,
    dnn_geniex_hidden=192,
    dnn_geniex_hidden_layers=1,
    dnn_base_size=32,
    dnn_sizes=(8, 16, 32),
    image_size=12,
    shapes_classes=8,
    textures_classes=6,
    cnn_width=8,
    cnn_blocks=1,
    train_images=2000,
    train_epochs=12,
    eval_images=128,
    eval_images_fig9=64,
    eval_batch=64,
)

FULL = Profile(
    name="full",
    xbar_sizes=(16, 32, 64),
    base_size=64,
    r_on_sweep_ohm=(50e3, 100e3, 300e3),
    onoff_sweep=(2.0, 6.0, 10.0),
    nf_n_g=6,
    nf_n_v=12,
    fig5_size=64,
    fig5_test_n_g=10,
    fig5_test_n_v=20,
    geniex_hidden=500,
    geniex_hidden_layers=2,
    geniex_n_g=150,
    geniex_n_v=30,
    geniex_epochs=300,
    geniex_batch=128,
    geniex_lr=2e-3,
    geniex_patience=60,
    dnn_geniex_hidden=384,
    dnn_geniex_hidden_layers=1,
    dnn_base_size=64,
    dnn_sizes=(16, 32, 64),
    image_size=16,
    shapes_classes=10,
    textures_classes=8,
    cnn_width=12,
    cnn_blocks=2,
    train_images=4000,
    train_epochs=20,
    eval_images=512,
    eval_images_fig9=256,
    eval_batch=64,
)

_PROFILES = {"quick": QUICK, "full": FULL}


def get_profile(name: str | None = None) -> Profile:
    """Resolve the active profile (arg > ``REPRO_PROFILE`` env > quick)."""
    name = name or os.environ.get("REPRO_PROFILE", "quick")
    try:
        return _PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown profile {name!r}; choose from {sorted(_PROFILES)}")


def default_workers() -> int:
    """Funcsim runtime worker count (``REPRO_WORKERS`` env, default 1).

    Threaded through every accuracy experiment: ``1`` runs every shard on
    the calling thread; ``> 1`` runs converted-model inference on that
    many engine threads (see :mod:`repro.funcsim.engine`). The CLI's
    ``fig --workers`` sets the variable for one invocation.
    """
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", "1")))
    except ValueError:
        raise ConfigError(
            f"REPRO_WORKERS must be an integer, "
            f"got {os.environ.get('REPRO_WORKERS')!r}")


def shared_zoo(verbose: bool = False) -> GeniexZoo:
    """The GENIEx model zoo used by every experiment (disk-cached)."""
    return GeniexZoo(verbose=verbose)


def dnn_cache_dir() -> str:
    """Where trained reference CNNs are cached."""
    return os.path.join(os.path.dirname(default_cache_dir()), "dnn")


def format_table(title: str, headers: list, rows: list) -> str:
    """Fixed-width ASCII table used by every experiment's ``format()``."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[k]) for r in str_rows)) if str_rows
              else len(h) for k, h in enumerate(headers)]
    lines = [title]
    lines.append("  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[k].ljust(widths[k])
                               for k in range(len(headers))))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{value:.4g}"
    return str(value)
