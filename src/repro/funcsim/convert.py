"""Model conversion: swap dense/conv layers for their crossbar versions.

``convert_to_mvm`` deep-copies a trained model and replaces every
:class:`~repro.nn.Linear` with :class:`LinearMVM` and every
:class:`~repro.nn.Conv2d` with :class:`Conv2dMVM`, leaving activations,
normalisation and pooling untouched — exactly the ``Model.py ->
Model-mvm.py`` step in the paper's Fig. 6. The converted model is
inference-only.

Conversion is also the network-level *compile* step: every replaced
layer's weights are prepared (programmed into tile models and lowered to
a :class:`~repro.funcsim.planner.LayerProgram`) exactly once, and every
forward pass only executes those programs on the engine — threaded when
the engine has ``workers > 1``.

Fault injection composes transparently: an engine built with a
``nonideality`` spec (see :mod:`repro.nonideal`) perturbs every layer's
tiles during this compile step, so the layer programs carry the faulty
crossbar state — whole-DNN inference under device faults is just
``convert_to_mvm(model, faulty_engine)``.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.errors import ConfigError
from repro.funcsim.layers import Conv2dMVM, LinearMVM
from repro.nn.modules import Conv2d, Linear, Module


def _replace_layers(module: Module, engine, chunk_rows: int | None) -> None:
    for name, child in list(module._modules.items()):
        if isinstance(child, Linear):
            setattr(module, name, LinearMVM.from_linear(child, engine))
        elif isinstance(child, Conv2d):
            kwargs = {} if chunk_rows is None else \
                {"chunk_rows": chunk_rows}
            setattr(module, name, Conv2dMVM.from_conv(child, engine,
                                                      **kwargs))
        else:
            _replace_layers(child, engine, chunk_rows)


def mvm_layers(model: Module) -> list:
    """Every :class:`LinearMVM` / :class:`Conv2dMVM` in forward order."""
    return [m for m in model.modules()
            if isinstance(m, (LinearMVM, Conv2dMVM))]


def _sync_module(converted: Module, source: Module, path: str) -> None:
    for name, src_child in source._modules.items():
        child_path = f"{path}.{name}" if path else name
        mvm_child = converted._modules.get(name)
        if mvm_child is None:
            raise ConfigError(
                f"converted model has no module at {child_path!r}")
        if isinstance(src_child, Linear):
            if not isinstance(mvm_child, LinearMVM):
                raise ConfigError(
                    f"{child_path!r} is Linear in the source but "
                    f"{type(mvm_child).__name__} in the converted model")
            weight = np.asarray(src_child.weight.data, dtype=np.float64)
            mvm_child.prepared = mvm_child.engine.prepare(weight.T)
            mvm_child.bias = None if src_child.bias is None else np.asarray(
                src_child.bias.data, dtype=np.float64)
        elif isinstance(src_child, Conv2d):
            if not isinstance(mvm_child, Conv2dMVM):
                raise ConfigError(
                    f"{child_path!r} is Conv2d in the source but "
                    f"{type(mvm_child).__name__} in the converted model")
            weight = np.asarray(src_child.weight.data, dtype=np.float64)
            mvm_child.prepared = mvm_child.engine.prepare(
                weight.reshape(mvm_child.out_channels, -1).T)
            mvm_child.bias = None if src_child.bias is None else np.asarray(
                src_child.bias.data, dtype=np.float64)
        else:
            for pname, param in src_child._parameters.items():
                target = mvm_child._parameters.get(pname)
                if target is None or target.data.shape != param.data.shape:
                    raise ConfigError(
                        f"converted model has no matching parameter "
                        f"{child_path}.{pname}")
                target.data[...] = param.data
            for bname, buf in src_child._buffers.items():
                target = mvm_child._buffers.get(bname)
                if target is None or target.shape != buf.shape:
                    raise ConfigError(
                        f"converted model has no matching buffer "
                        f"{child_path}.{bname}")
                target[...] = buf
            _sync_module(mvm_child, src_child, child_path)


def sync_mvm_model(converted: Module, source: Module) -> None:
    """Re-program a converted model from ``source``'s live weights.

    ``converted`` must come from ``convert_to_mvm(source_like, engine)``
    with the same module structure as ``source``. Every MVM layer is
    re-prepared on its engine from the source layer's current weights
    (biases re-taken digitally); parameters and buffers of all other
    modules are copied in place. This is the hardware-in-the-loop
    training primitive: mutate the float model, sync, and the next
    forward pass through ``converted`` sees the new weights through the
    full (possibly faulty) crossbar physics.

    Engines prepare deterministically (fault injection included — the
    non-ideality pipeline keys its draws by matrix content, not call
    order), so syncing is safe to repeat and value-stable.
    """
    _sync_module(converted, source, "")


def convert_to_mvm(model: Module, engine,
                   chunk_rows: int | None = None) -> Module:
    """Return an MVM copy of ``model`` running on ``engine``.

    The original model is untouched. The copy is put in eval mode; running
    statistics of normalisation layers are preserved by the deep copy.
    The engine's ``workers`` decide how many threads each layer's matmul
    uses; the caller owns the engine and closes it.
    """
    converted = copy.deepcopy(model)
    _replace_layers(converted, engine, chunk_rows)
    converted.eval()
    return converted
