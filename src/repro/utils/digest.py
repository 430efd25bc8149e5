"""Shared content-digest primitives.

Every cache in the repository — the GENIEx zoo on disk, the serving
registry's warm tiers and prepared-matrix uids — identifies values by
deterministic content digests, so identical inputs land on the same
artifact regardless of which process (or machine) computed the key. This module is the single implementation those keys are
built from; :mod:`repro.api.spec` layers the spec-level key scheme on top.

All helpers are pure functions of their inputs: no process-local counters,
no ``id()``s, no interning — digests survive pickling, ``fork`` *and*
``spawn`` round-trips unchanged (tested).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _update(digest, part) -> None:
    """Fold one key part into a running digest, type-tagged.

    Supported parts: ``str``, ``bytes``, ``ndarray`` (shape + dtype +
    raw bytes, C-contiguous) and JSON-encodable containers (canonical
    encoding: sorted keys, no whitespace). Type tags keep e.g. the string
    ``"1"`` and the JSON number ``1`` from colliding.
    """
    if isinstance(part, bytes):
        digest.update(b"b:")
        digest.update(part)
    elif isinstance(part, str):
        digest.update(b"s:")
        digest.update(part.encode())
    elif isinstance(part, np.ndarray):
        array = np.ascontiguousarray(part)
        digest.update(b"a:")
        digest.update(repr((array.shape, array.dtype.str)).encode())
        digest.update(array.tobytes())
    else:
        digest.update(b"j:")
        digest.update(canonical_json(part).encode())
    digest.update(b"\x00")


def canonical_json(obj) -> str:
    """Canonical JSON encoding: sorted keys, compact separators.

    The canonical form is what digests are computed over, so two dicts
    with the same content always hash equally regardless of insertion
    order.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(prefix: str, *parts, length: int = 20) -> str:
    """Deterministic short key ``"<prefix>-<hex>"`` over the given parts.

    With an empty prefix the bare hex digest is returned (the zoo's
    artifact keys double as file names and carry no prefix).
    """
    digest = hashlib.sha256()
    for part in parts:
        _update(digest, part)
    hexdigest = digest.hexdigest()[:length]
    return f"{prefix}-{hexdigest}" if prefix else hexdigest
