"""Wire format of the emulation service.

Requests and responses are JSON. A *model spec* describes everything needed
to train (or load) a GENIEx emulator — the crossbar configuration plus the
sampling/training hyper-parameters — and maps 1:1 onto the dataclasses the
rest of the library uses, so a spec submitted over HTTP hits exactly the
same zoo cache key as the equivalent in-process call.

All validation failures raise :class:`ProtocolError`, which the server maps
to HTTP 400 with the message in the body.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.api.spec import (
    EmulationSpec,
    EmulatorSpec,
    SimSpec,
    XbarSpec,
    nonideality_from_dict,
)
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.datasets.handles import normalise_handle
from repro.devices.rram import RramParameters
from repro.errors import ConfigError, ReproError
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import ENGINE_KINDS
from repro.nonideal import NonidealitySpec
from repro.xbar.config import CrossbarConfig

MODES = ("full", "linear")


class ProtocolError(ReproError, ValueError):
    """A request payload is malformed or fails validation."""


def _build_dataclass(cls, payload, what: str):
    """Instantiate a config dataclass from a JSON object, strictly.

    Unknown fields are rejected (a typo silently falling back to a default
    would key a *different* zoo artifact than the caller intended); list
    values are converted to the tuples the frozen dataclasses expect.
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, dict):
        raise ProtocolError(f"{what} must be a JSON object, "
                            f"got {type(payload).__name__}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key not in allowed:
            raise ProtocolError(
                f"unknown {what} field {key!r}; expected one of "
                f"{sorted(allowed)}")
        if isinstance(value, list):
            value = tuple(value)
        if key == "rram":
            value = _build_dataclass(RramParameters, value, "rram")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid {what}: {exc}") from exc


@dataclass(frozen=True)
class ModelSpec:
    """The flat ``"model"`` wire object: crossbar + sampling + training +
    mode (+ fault composition).

    The flat JSON shape predates the spec tree and is kept for client
    compatibility. The server turns it into an
    :class:`~repro.api.spec.EmulationSpec` (:meth:`to_spec`) as soon as
    it is parsed; nothing behind the protocol sees this type.
    """

    config: CrossbarConfig
    sampling: SamplingSpec
    training: TrainSpec
    mode: str = "full"
    #: Device-fault composition (identity = the historical clean model).
    nonideality: NonidealitySpec = field(default_factory=NonidealitySpec)

    def to_spec(self, engine: str = "geniex",
                sim: FuncSimConfig | None = None,
                runtime=None) -> EmulationSpec:
        """The equivalent :class:`EmulationSpec` (canonical identity)."""
        kwargs = {} if runtime is None else {"runtime": runtime}
        return EmulationSpec(
            engine=engine,
            xbar=XbarSpec.from_config(self.config),
            sim=SimSpec.from_config(sim or FuncSimConfig()),
            emulator=EmulatorSpec(sampling=self.sampling,
                                  training=self.training, mode=self.mode),
            nonideality=self.nonideality,
            **kwargs)

    @classmethod
    def from_payload(cls, payload) -> "ModelSpec":
        if not isinstance(payload, dict):
            raise ProtocolError("\"model\" must be a JSON object")
        payload = dict(payload)
        sampling = payload.pop("sampling", None)
        training = payload.pop("training", None)
        mode = payload.pop("mode", "full")
        nonideality = payload.pop("nonideality", None)
        if mode not in MODES:
            raise ProtocolError(
                f"unknown mode {mode!r}; expected one of {MODES}")
        try:
            nonideality = nonideality_from_dict(nonideality)
        except ConfigError as exc:
            raise ProtocolError(str(exc)) from exc
        return cls(config=_build_dataclass(CrossbarConfig, payload,
                                           "crossbar config"),
                   sampling=_build_dataclass(SamplingSpec, sampling,
                                             "sampling spec"),
                   training=_build_dataclass(TrainSpec, training,
                                             "training spec"),
                   mode=mode,
                   nonideality=nonideality)


def reject_mixed_identity(body: dict, key_field: str | None = None) -> None:
    """Refuse bodies mixing identity descriptions.

    A spec is self-contained; silently preferring it over an
    accompanying ``model``/``engine``/``sim`` would hide a mismatch from
    a half-migrated caller (the Python client raises the same way —
    this enforces the contract for raw HTTP callers too). Likewise a
    warm-object key (``key_field``, e.g. ``weights_key``) already names
    a fully-built engine; a spec or model riding along would be silently
    ignored, so it is rejected instead.
    """
    if key_field is not None and key_field in body:
        # Payload fields (weights/conductances) count as identity here
        # too: the key already fixed them, and a different array riding
        # along would be silently discarded otherwise.
        mixed = [key for key in ("spec", "model", "engine", "sim",
                                 "weights", "conductances")
                 if key in body]
        if mixed:
            raise ProtocolError(
                f"request carries both {key_field!r} and {mixed}; the key "
                f"already names the warm object — drop the other "
                f"identity fields")
    if "spec" in body:
        mixed = [key for key in ("model", "engine", "sim") if key in body]
        if mixed:
            raise ProtocolError(
                f"request carries both \"spec\" and {mixed}; a spec is "
                f"self-contained — drop the flat fields")


def parse_model_spec(body: dict, *, engine_tier: bool = False
                     ) -> EmulationSpec:
    """The emulation a ``"model"`` object or a full ``"spec"`` names.

    The *emulator-tier* endpoints (``/v1/models``, ``/v1/crossbars``,
    ``/v1/predict_*``) always serve the trained GENIEx model — so a spec
    naming a different engine kind is rejected here rather than silently
    training GENIEx anyway, and flat ``engine``/``sim`` fields are
    ignored. The *engine-tier* endpoints (``/v1/weights``,
    ``/v1/matmul``) pass ``engine_tier=True``: they honour
    ``spec.engine``, and on the flat path ``"engine"`` (default
    ``geniex``) and ``"sim"``.
    """
    if "spec" in body:
        reject_mixed_identity(body)
        spec = parse_emulation_spec(body)
        if not engine_tier and spec.engine != "geniex":
            raise ProtocolError(
                f"this endpoint serves the trained GENIEx emulator; the "
                f"submitted spec names engine {spec.engine!r} — use "
                f"/v1/weights + /v1/matmul for non-geniex engines, or "
                f"set spec.engine to \"geniex\"")
        return spec
    if "model" not in body:
        raise ProtocolError(
            "request requires a \"model\" or \"spec\" object")
    model = ModelSpec.from_payload(body["model"])
    if not engine_tier:
        return model.to_spec()
    return model.to_spec(engine=parse_engine_kind(body),
                         sim=parse_sim_config(body))


def parse_emulation_spec(body: dict) -> EmulationSpec:
    """A full declarative :class:`EmulationSpec` from the ``spec`` object.

    The wire shape is exactly ``EmulationSpec.to_dict()`` — what
    ``python -m repro spec`` prints — so a spec file drives the HTTP
    service unchanged. Strict: unknown fields are rejected with the
    offending dotted path in the message.
    """
    if "spec" not in body:
        raise ProtocolError("request requires a \"spec\" object")
    try:
        return EmulationSpec.from_dict(body["spec"])
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from exc


def parse_mitigate_request(body: dict) -> tuple:
    """Validate a ``POST /v1/mitigate`` body.

    Returns ``(spec, dataset, hidden, model_seed)``. The body carries a
    full ``"spec"`` (whose ``mitigation`` node must be non-identity and
    must train — the server has no local pretrained model to run a
    calibration-only recipe against), a content-addressable ``"dataset"``
    handle (name or dict, see :mod:`repro.datasets.handles`), and an
    optional ``"net"`` object choosing the classifier architecture
    (``{"hidden": [...], "seed": 0}`` — named ``net`` because the flat
    ``model`` field already means the GENIEx model identity).
    """
    reject_mixed_identity(body)
    spec = parse_emulation_spec(body)
    if spec.mitigation.is_identity:
        raise ProtocolError(
            "spec.mitigation is the identity — set mitigation.noise "
            "and/or mitigation.calibration to request a mitigation")
    if spec.mitigation.noise.is_identity:
        raise ProtocolError(
            "spec.mitigation.noise.epochs must be >= 1: the server "
            "trains the classifier itself, and a calibration-only recipe "
            "needs a local pretrained model (use Session.mitigate)")
    if "dataset" not in body:
        raise ProtocolError(
            "request requires a \"dataset\" handle (a dataset name or "
            "{\"name\": ..., \"n_train\": ..., ...} object)")
    try:
        dataset = normalise_handle(body["dataset"])
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from exc
    net = body.get("net", {})
    if not isinstance(net, dict):
        raise ProtocolError("\"net\" must be a JSON object")
    unknown = set(net) - {"hidden", "seed"}
    if unknown:
        raise ProtocolError(
            f"unknown \"net\" field(s) {sorted(unknown)}; expected "
            f"\"hidden\" and/or \"seed\"")
    hidden = net.get("hidden", [32])
    if not isinstance(hidden, list) or not hidden or any(
            not isinstance(h, int) or isinstance(h, bool) or h < 1
            for h in hidden):
        raise ProtocolError(
            "net.hidden must be a non-empty list of positive integers")
    model_seed = net.get("seed", 0)
    if not isinstance(model_seed, int) or isinstance(model_seed, bool) \
            or model_seed < 0:
        raise ProtocolError("net.seed must be a non-negative integer")
    return spec, dataset, tuple(hidden), model_seed


def parse_net_upload(body: dict) -> tuple:
    """Validate a ``POST /v1/nets`` body; returns ``(wire, spec)``.

    The body carries a ``"net"`` layer-list wire dict (see
    :func:`repro.nn.serialization.net_to_wire`) and a full ``"spec"``
    choosing the emulation the network will be compiled against. The
    wire is validated structurally here — by actually rebuilding the
    model — so a malformed upload fails with 400 before it can occupy a
    registry slot or be persisted.
    """
    from repro.errors import SerializationError, ShapeError
    from repro.nn.serialization import net_from_wire
    reject_mixed_identity(body)
    spec = parse_emulation_spec(body)
    if "net" not in body:
        raise ProtocolError(
            "request requires a \"net\" object (the repro-net/1 "
            "layer-list wire format; see repro.nn.serialization)")
    wire = body["net"]
    try:
        net_from_wire(wire)
    except (SerializationError, ShapeError, ConfigError) as exc:
        raise ProtocolError(f"invalid net wire: {exc}") from exc
    return wire, spec


def parse_net_predict(body: dict) -> tuple:
    """Validate a ``POST /v1/net_predict`` body.

    Returns ``(net_key, x, stream, chunk_rows)``. Identity is by
    ``net_key`` only (returned by ``/v1/nets``); re-sending the wire on
    the hot path would defeat the warm-program cache, so it is rejected
    like any other mixed identity.
    """
    reject_mixed_identity(body, key_field="net_key")
    if "net" in body:
        raise ProtocolError(
            "net_predict takes a \"net_key\" (from POST /v1/nets), not "
            "an inline \"net\" wire")
    net_key = body.get("net_key")
    if not isinstance(net_key, str) or not net_key:
        raise ProtocolError(
            "request requires a \"net_key\" string (from POST /v1/nets)")
    x = decode_array(body, "x", ndim=(1, 2))
    stream = body.get("stream", False)
    if not isinstance(stream, bool):
        raise ProtocolError("\"stream\" must be a boolean")
    chunk_rows = body.get("chunk_rows")
    if chunk_rows is not None and (
            not isinstance(chunk_rows, int) or isinstance(chunk_rows, bool)
            or chunk_rows < 1):
        raise ProtocolError("\"chunk_rows\" must be a positive integer")
    return net_key, x, stream, chunk_rows


def parse_sim_config(body: dict) -> FuncSimConfig:
    """Functional-simulator config from the optional ``sim`` object."""
    return _build_dataclass(FuncSimConfig, body.get("sim"), "sim config")


def parse_engine_kind(body: dict) -> str:
    kind = body.get("engine", "geniex")
    if kind not in ENGINE_KINDS:
        raise ProtocolError(
            f"unknown engine {kind!r}; expected one of {ENGINE_KINDS}")
    return kind


def decode_array(body: dict, field: str, ndim: tuple = (1, 2)) -> np.ndarray:
    """Decode a JSON number array into a float64 ndarray, strictly.

    Rejects missing fields, ragged nesting, non-numeric entries and
    non-finite values — a NaN smuggled into a coalesced batch must not be
    able to poison other requests' outputs downstream.
    """
    if field not in body:
        raise ProtocolError(f"request requires a {field!r} array")
    try:
        array = np.asarray(body[field], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{field!r} is not a numeric array: "
                            f"{exc}") from exc
    if array.ndim not in ndim:
        raise ProtocolError(
            f"{field!r} must have {' or '.join(map(str, ndim))} "
            f"dimension(s), got shape {array.shape}")
    if array.size == 0:
        raise ProtocolError(f"{field!r} must not be empty")
    if not np.all(np.isfinite(array)):
        raise ProtocolError(f"{field!r} contains non-finite values")
    return array


def encode_array(array: np.ndarray) -> list:
    """JSON-encodable nested lists; float64 repr round-trips bit-exactly."""
    return np.asarray(array, dtype=np.float64).tolist()
