"""Seeded workload inputs, built and cached outside every timed region.

The program under test receives only what this module generates:

* ``cnn-accuracy``: the reference ResNet (1 block, width 8) trained on
  the ``shapes`` dataset, a warm zoo holding the quick profile's DNN
  emulator, and a stream of fresh held-out image batches drawn from the
  seed. The network and the emulator are trained once per checkout:
  training the network once per seed would cost ~20 s of every run.
* ``characterize``: a held-out operating-point set per seed and supply
  voltage, labelled by the full circuit solver.
* ``serve-net``: a warm zoo holding the ``quick`` preset's emulator, the
  MLP to upload and fresh request images drawn from the seed.

Cached inputs live under ``.perfbench/cache`` in the checkout. Building
runs in its own process (``python3 perfbench/inputs.py --workload W
--seed N``) so training memory never counts toward the measured
process's peak RSS.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
CACHE = os.path.join(STATE, "cache")

WORKLOADS = ("cnn-accuracy", "characterize", "serve-net")

CNN_BATCH = 64
REFERENCE_CNN_SEED = 0
SUPPLY_VOLTAGES = (0.25, 0.5)
# 16 x 16 held-out operating points per voltage: the IQR of the NF RMSE
# across seeds is a few percent here, against ~15% at Fig. 5's 8 x 12.
HELDOUT_N_G = 16
HELDOUT_N_V = 16
SERVE_NET_SIZES = (64, 48, 32, 10)
SERVE_NET_SEED = 7


def derived_seed(seed: int, stream: int) -> int:
    """An independent integer seed for one input stream of a workload."""
    return int(np.random.SeedSequence([int(seed), stream]).generate_state(1)[0])


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------
def cnn_zoo_dir() -> str:
    return os.path.join(CACHE, "cnn", "geniex")


def serve_zoo_dir() -> str:
    return os.path.join(CACHE, "serve", "geniex")


def heldout_path(seed: int, v_supply: float) -> str:
    return os.path.join(CACHE, "characterize",
                        f"heldout-seed{seed}-{v_supply:g}V.npz")


def repeat_dir() -> str:
    return os.path.join(CACHE, "repeat")


def work_dir() -> str:
    """A fresh scratch directory for one run (the caller removes it)."""
    base = os.path.join(STATE, "work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def keep_cache_inside() -> None:
    """Default the repo's zoo cache to the checkout, never ``~/.cache``."""
    os.environ["REPRO_CACHE_DIR"] = os.path.join(CACHE, "default")


def use_cnn_cache() -> None:
    """Point the repo's cache env at the benchmark's cnn zoo.

    ``train_reference_network`` caches the trained ResNet next to the
    zoo directory (``<zoo>/../dnn``), so this keeps every artifact
    inside the checkout.
    """
    os.environ["REPRO_CACHE_DIR"] = cnn_zoo_dir()


# ----------------------------------------------------------------------
# Generated inputs (cheap; made fresh on every pass)
# ----------------------------------------------------------------------
def cnn_profile():
    from repro.experiments.common import get_profile
    return get_profile("quick")


def cnn_spec():
    """The quick profile's DNN spec: 32x32 crossbars, 192-unit GENIEx."""
    return cnn_profile().to_spec("geniex", workers=1)


def cnn_batch(seed: int, index: int) -> tuple:
    """Held-out batch ``index``: 64 images never seen in training."""
    from repro.datasets import make_shapes
    profile = cnn_profile()
    return make_shapes(CNN_BATCH, image_size=profile.image_size,
                       num_classes=profile.shapes_classes,
                       seed=(int(seed), 0xC0, int(index)))


def characterize_config(v_supply: float):
    profile = cnn_profile()
    return profile.crossbar(rows=profile.fig5_size, v_supply_v=v_supply)


def serve_spec():
    from repro.api import EmulationSpec
    return EmulationSpec.preset("quick")


def serve_model():
    """The served MLP. Its weights are fixed: how many stream blocks a
    request skips depends on them, so per-seed weights would change the
    work per request from seed to seed."""
    from repro.models.mlp import MLP
    return MLP(list(SERVE_NET_SIZES), seed=SERVE_NET_SEED)


# ----------------------------------------------------------------------
# Cached inputs
# ----------------------------------------------------------------------
def _atomic_savez(path: str, **arrays) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".npz", dir=os.path.dirname(path))
    with os.fdopen(fd, "wb") as handle:
        np.savez(handle, **arrays)
    os.replace(tmp, path)


def build_cnn(seed: int) -> None:
    from repro.api import resolve_emulator
    from repro.core.zoo import GeniexZoo
    load_cnn()
    resolve_emulator(cnn_spec(), zoo=GeniexZoo(cnn_zoo_dir()))


def load_cnn():
    """The trained reference ResNet (trained and cached on first use)."""
    from repro.experiments.accuracy import train_reference_network
    use_cnn_cache()
    model, _x, _y, _acc = train_reference_network(
        "shapes", cnn_profile(), seed=REFERENCE_CNN_SEED)
    return model


def build_characterize(seed: int) -> None:
    from repro.core.dataset import build_geniex_dataset
    from repro.core.sampling import SamplingSpec
    for v_supply in SUPPLY_VOLTAGES:
        path = heldout_path(seed, v_supply)
        if os.path.exists(path):
            continue
        spec = SamplingSpec(n_g_matrices=HELDOUT_N_G, n_v_per_g=HELDOUT_N_V,
                            seed=derived_seed(seed, 0xF5))
        test = build_geniex_dataset(characterize_config(v_supply), spec,
                                    mode="full")
        _atomic_savez(path, voltages_v=test.voltages_v,
                      conductances_s=test.conductances_s,
                      group_index=test.group_index,
                      i_ideal_a=test.i_ideal_a,
                      i_nonideal_a=test.i_nonideal_a)


def load_heldout(seed: int, v_supply: float) -> dict:
    with np.load(heldout_path(seed, v_supply)) as archive:
        return {name: archive[name] for name in archive.files}


def build_serve(seed: int) -> None:
    from repro.api import resolve_emulator
    from repro.core.zoo import GeniexZoo
    resolve_emulator(serve_spec(), zoo=GeniexZoo(serve_zoo_dir()))


BUILDERS = {"cnn-accuracy": build_cnn, "characterize": build_characterize,
            "serve-net": build_serve}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    keep_cache_inside()
    sys.path.insert(0, SRC)
    BUILDERS[args.workload](args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
