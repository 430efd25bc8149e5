"""Wire format of the emulation service.

Requests and responses are JSON. Every request that names an emulation
carries it as one ``"spec"`` object: a full declarative
:class:`~repro.api.spec.EmulationSpec` in its ``to_dict()`` shape (what
``python -m repro spec`` prints), so a spec submitted over HTTP hits
exactly the same cache keys as the equivalent in-process call.

All validation failures raise :class:`ProtocolError`, which the server maps
to HTTP 400 with the message in the body.
"""

from __future__ import annotations

import numpy as np

from repro.api.spec import EmulationSpec
from repro.datasets.handles import normalise_handle
from repro.errors import ConfigError, ReproError

#: Registration endpoint of each warm-object key a request may name.
KEY_SOURCES = {"crossbar_key": "/v1/crossbars", "weights_key": "/v1/weights",
               "mitigated_key": "/v1/mitigate", "net_key": "/v1/nets"}


class ProtocolError(ReproError, ValueError):
    """A request payload is malformed or fails validation."""


def reject_flat_identity(body: dict) -> None:
    """Refuse the retired flat ``model``/``engine``/``sim`` fields.

    The emulation is named by ``"spec"`` alone; the server runs this on
    every POST body, so a half-migrated caller gets a 400 naming the
    replacement rather than a 200 computed with its fields ignored.
    """
    flat = [key for key in ("model", "engine", "sim") if key in body]
    if flat:
        raise ProtocolError(
            f"request carries {flat}; name the emulation by a \"spec\" "
            f"object instead (EmulationSpec.to_dict(), what "
            f"`python -m repro spec` prints)")


def parse_key(body: dict, field: str) -> str:
    """The warm-object key ``field`` names: a non-empty string, alone.

    A number, ``null`` or list is this request's 400, never a lookup of
    its string form answered 404. The key already names a fully-built
    object, so a spec or payload array riding along (which would be
    silently discarded) is rejected too.
    """
    key = body.get(field)
    if not isinstance(key, str) or not key:
        raise ProtocolError(
            f"request requires a {field!r} string (from POST "
            f"{KEY_SOURCES[field]})")
    mixed = [name for name in ("spec", "weights", "conductances")
             if name in body]
    if mixed:
        raise ProtocolError(
            f"request carries both {field!r} and {mixed}; the key "
            f"already names the warm object — drop the other identity "
            f"fields")
    return key


def parse_model_spec(body: dict, *, engine_tier: bool = False
                     ) -> EmulationSpec:
    """The emulation a request's ``"spec"`` names.

    The *emulator-tier* endpoints (``/v1/models``, ``/v1/crossbars``,
    ``/v1/predict_*``) always serve the trained GENIEx model — so a spec
    naming a different engine kind is rejected here rather than silently
    training GENIEx anyway. The *engine-tier* endpoints
    (``/v1/weights``, ``/v1/matmul``) pass ``engine_tier=True`` and
    honour ``spec.engine``.
    """
    spec = parse_emulation_spec(body)
    if not engine_tier and spec.engine != "geniex":
        raise ProtocolError(
            f"this endpoint serves the trained GENIEx emulator; the "
            f"submitted spec names engine {spec.engine!r} — use "
            f"/v1/weights + /v1/matmul for non-geniex engines, or "
            f"set spec.engine to \"geniex\"")
    return spec


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
    (``{"hidden": [...], "seed": 0}``).
    """
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
    if "net" in body:
        raise ProtocolError(
            "net_predict takes a \"net_key\" (from POST /v1/nets), not "
            "an inline \"net\" wire")
    net_key = parse_key(body, "net_key")
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


def decode_array(body: dict, field: str, ndim: tuple = (1, 2)) -> np.ndarray:
    """Decode a JSON number array into a float64 ndarray, strictly.

    Rejects missing fields, ragged nesting, non-numeric entries (numeric
    strings and booleans included) and non-finite values — a NaN smuggled into a coalesced batch must not be
    able to poison other requests' outputs downstream.
    """
    if field not in body:
        raise ProtocolError(f"request requires a {field!r} array")
    try:
        array = np.asarray(body[field])
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"{field!r} is not a numeric array: "
                            f"{exc}") from exc
    # JSON numbers decode to int/float; strings, booleans and nulls
    # infer another dtype kind and are refused rather than coerced.
    if array.dtype.kind not in "iuf":
        raise ProtocolError(f"{field!r} is not a numeric array: got "
                            f"{array.dtype.name} entries")
    array = array.astype(np.float64, copy=False)
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
