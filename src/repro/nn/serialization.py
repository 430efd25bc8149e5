"""Saving and loading models: state-dict ``.npz`` archives and the
layer-list wire format used by the serving stack.

The wire format (``repro-net/1``) is a JSON-safe dict describing a model
as an ordered list of layers, each with its structural config and its
state arrays encoded as float64 lists (bit-exact for every dtype the
layer library uses).  :func:`net_from_wire` rebuilds the model as a
:class:`~repro.nn.modules.container.Sequential`, so any model whose leaf
modules run in registration order (``Sequential``, ``MLP``, and friends)
round-trips with a byte-identical forward pass.  :func:`net_digest`
content-addresses the wire — structure plus every parameter — so servers
can cache compiled programs under a stable key.
"""

from __future__ import annotations

import os

import numpy as np

from repro.errors import SerializationError
from repro.utils.digest import canonical_json, content_key
from repro.utils.npz import atomic_savez, load_npz


def save_state_dict(state: dict, path: str) -> None:
    """Atomically write a flat name->array state dict to ``path``
    (``.npz`` is appended when missing, as :func:`numpy.savez` does)."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    atomic_savez(path, {k: np.asarray(v) for k, v in state.items()})


def load_state_dict(path: str) -> dict:
    """Read a state dict previously written by :func:`save_state_dict`;
    a missing or corrupt file raises :class:`SerializationError`."""
    if not os.path.exists(path):
        candidate = path + ".npz"
        if os.path.exists(candidate):
            path = candidate
        else:
            raise SerializationError(f"no state dict at {path}")
    return load_npz(path)


# ---------------------------------------------------------------------------
# Layer-list wire format ("repro-net/1")

NET_WIRE_FORMAT = "repro-net/1"


def _pair_list(value) -> list:
    if isinstance(value, (tuple, list)):
        return [int(v) for v in value]
    return [int(value), int(value)]


def _config_linear(mod) -> dict:
    return {"in_features": mod.in_features, "out_features": mod.out_features,
            "bias": mod.bias is not None}


def _build_linear(cfg):
    from repro.nn.modules.linear import Linear
    return Linear(cfg["in_features"], cfg["out_features"],
                  bias=cfg.get("bias", True))


def _config_conv2d(mod) -> dict:
    return {"in_channels": mod.in_channels, "out_channels": mod.out_channels,
            "kernel_size": list(mod.kernel_size), "stride": list(mod.stride),
            "padding": list(mod.padding), "bias": mod.bias is not None}


def _build_conv2d(cfg):
    from repro.nn.modules.conv import Conv2d
    return Conv2d(cfg["in_channels"], cfg["out_channels"],
                  tuple(cfg["kernel_size"]), stride=tuple(cfg["stride"]),
                  padding=tuple(cfg["padding"]), bias=cfg.get("bias", True))


def _config_pool(mod) -> dict:
    cfg = {"kernel_size": _pair_list(mod.kernel_size)}
    if mod.stride is not None:
        cfg["stride"] = _pair_list(mod.stride)
    return cfg


def _build_pool(cls):
    def build(cfg):
        stride = cfg.get("stride")
        return cls(tuple(cfg["kernel_size"]),
                   stride=None if stride is None else tuple(stride))
    return build


def _config_batch_norm(mod) -> dict:
    return {"num_features": mod.num_features, "momentum": mod.momentum,
            "eps": mod.eps, "affine": mod.affine}


def _build_batch_norm(cls):
    def build(cfg):
        return cls(cfg["num_features"], momentum=cfg.get("momentum", 0.1),
                   eps=cfg.get("eps", 1e-5), affine=cfg.get("affine", True))
    return build


def _wire_kinds() -> dict:
    """kind -> (layer class, config extractor, builder).

    Lazily imported so :mod:`repro.nn.serialization` stays importable
    from the modules package without a cycle.
    """
    from repro.nn.modules import (AvgPool2d, BatchNorm1d, BatchNorm2d,
                                  Conv2d, Dropout, Flatten, GlobalAvgPool2d,
                                  Identity, LeakyReLU, Linear, MaxPool2d,
                                  ReLU, Sigmoid, Tanh)
    return {
        "linear": (Linear, _config_linear, _build_linear),
        "conv2d": (Conv2d, _config_conv2d, _build_conv2d),
        "relu": (ReLU, lambda m: {}, lambda cfg: ReLU()),
        "leaky_relu": (LeakyReLU,
                       lambda m: {"negative_slope": m.negative_slope},
                       lambda cfg: LeakyReLU(cfg.get("negative_slope",
                                                     0.01))),
        "sigmoid": (Sigmoid, lambda m: {}, lambda cfg: Sigmoid()),
        "tanh": (Tanh, lambda m: {}, lambda cfg: Tanh()),
        "max_pool2d": (MaxPool2d, _config_pool, _build_pool(MaxPool2d)),
        "avg_pool2d": (AvgPool2d, _config_pool, _build_pool(AvgPool2d)),
        "global_avg_pool2d": (GlobalAvgPool2d, lambda m: {},
                              lambda cfg: GlobalAvgPool2d()),
        "flatten": (Flatten, lambda m: {}, lambda cfg: Flatten()),
        "identity": (Identity, lambda m: {}, lambda cfg: Identity()),
        "dropout": (Dropout, lambda m: {"p": m.p},
                    lambda cfg: Dropout(cfg.get("p", 0.5))),
        "batch_norm1d": (BatchNorm1d, _config_batch_norm,
                         _build_batch_norm(BatchNorm1d)),
        "batch_norm2d": (BatchNorm2d, _config_batch_norm,
                         _build_batch_norm(BatchNorm2d)),
    }


def encode_state_array(arr) -> dict:
    """JSON-safe encoding of one state array (bit-exact round trip)."""
    arr = np.asarray(arr)
    if arr.dtype.hasobject:
        raise SerializationError("object arrays cannot go on the wire")
    return {"dtype": arr.dtype.name, "shape": [int(s) for s in arr.shape],
            "data": [float(v) for v in arr.reshape(-1).astype(np.float64)]}


def decode_state_array(entry) -> np.ndarray:
    """Inverse of :func:`encode_state_array`.

    Accepts a ready ``ndarray`` unchanged, so wires rebuilt from zoo
    artifacts (whose state entries are raw arrays) flow through the same
    code paths as JSON wires.
    """
    if isinstance(entry, np.ndarray):
        return entry
    try:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(int(s) for s in entry["shape"])
        data = np.asarray(entry["data"], dtype=np.float64)
        arr = data.astype(dtype).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed state array: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise SerializationError("state arrays must be finite")
    return arr


def net_to_wire(model, input_shape=None) -> dict:
    """Serialize ``model`` into the ``repro-net/1`` layer-list wire dict.

    Leaf modules are emitted in registration (pre-)order, which matches
    the forward order for ``Sequential``-structured models; containers
    (modules with children) contribute nothing but their children.
    ``input_shape`` optionally records the per-sample shape (e.g.
    ``(1, 8, 8)`` for image models) so servers can fold flat request
    rows back into the model's native input layout.
    """
    kinds = _wire_kinds()
    kind_by_type = {cls: kind for kind, (cls, _cfg, _b) in kinds.items()}
    layers = []
    for mod in model.modules():
        if mod._modules:
            continue    # container: its children are emitted instead
        kind = kind_by_type.get(type(mod))
        if kind is None:
            raise SerializationError(
                f"{type(mod).__name__} has no wire encoding; supported "
                f"kinds: {', '.join(sorted(kinds))}")
        _cls, config_of, _build = kinds[kind]
        entry = {"kind": kind, "config": config_of(mod)}
        state = mod.state_dict()
        if state:
            entry["state"] = {name: encode_state_array(arr)
                              for name, arr in state.items()}
        layers.append(entry)
    if not layers:
        raise SerializationError("model has no layers to serialize")
    wire = {"format": NET_WIRE_FORMAT, "layers": layers}
    if input_shape is not None:
        wire["input_shape"] = [int(s) for s in input_shape]
    return wire


def _check_wire(wire) -> list:
    if not isinstance(wire, dict):
        raise SerializationError("net wire must be a JSON object")
    if wire.get("format") != NET_WIRE_FORMAT:
        raise SerializationError(
            f"unsupported net wire format {wire.get('format')!r} "
            f"(expected {NET_WIRE_FORMAT!r})")
    layers = wire.get("layers")
    if not isinstance(layers, list) or not layers:
        raise SerializationError("net wire needs a non-empty 'layers' list")
    return layers


def net_from_wire(wire: dict):
    """Rebuild a model (as a ``Sequential``) from a wire dict."""
    from repro.nn.modules.container import Sequential
    kinds = _wire_kinds()
    layers = _check_wire(wire)
    built = []
    for k, entry in enumerate(layers):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SerializationError(f"layer {k}: missing 'kind'")
        kind = entry["kind"]
        if kind not in kinds:
            raise SerializationError(
                f"layer {k}: unknown kind {kind!r}; supported: "
                f"{', '.join(sorted(kinds))}")
        config = entry.get("config", {})
        if not isinstance(config, dict):
            raise SerializationError(f"layer {k}: 'config' must be an object")
        _cls, _cfg, build = kinds[kind]
        try:
            mod = build(config)
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"layer {k} ({kind}): bad config: {exc}") from exc
        state = entry.get("state")
        if state:
            mod.load_state_dict({name: decode_state_array(arr)
                                 for name, arr in state.items()})
        built.append(mod)
    return Sequential(*built)


def net_digest(wire: dict) -> str:
    """Content digest of a wire dict: structure plus every state array.

    Computed from the *decoded* arrays, so the digest is identical
    whether the wire arrived as JSON or was rebuilt from a zoo artifact.
    """
    layers = _check_wire(wire)
    structure = [{"kind": e.get("kind"), "config": e.get("config", {}),
                  "state": sorted(e.get("state", {}))} for e in layers]
    parts = [canonical_json({"format": wire["format"],
                             "layers": structure,
                             "input_shape": wire.get("input_shape")})]
    for entry in layers:
        state = entry.get("state", {})
        for name in sorted(state):
            parts.append(decode_state_array(state[name]))
    return content_key("net", *parts)
