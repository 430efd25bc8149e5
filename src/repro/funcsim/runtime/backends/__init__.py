"""Array backend of the compiled fused kernel.

The compiler (:mod:`repro.funcsim.compiler`) lowers a layer program into
stacked dense tensors and expresses its execution through a tiny op set,
:class:`~repro.funcsim.runtime.backends.numpy_backend.NumpyBackend`. Every
op is specified down to the floating-point operation order, so the
compiled path stays bit-identical to the interpreted reference kernel.

Selection precedence: an explicit spec/engine value beats the
``REPRO_BACKEND`` environment variable, which beats the default
(``numpy``). The value ``"interp"`` (alias ``"interpreted"``/``"off"``)
disables compilation entirely and forces the interpreted kernel. The
names ``"numba"`` and ``"torch"`` are accepted for one release with a
:class:`DeprecationWarning` and mean ``numpy``.
"""

from __future__ import annotations

import os
import warnings

from repro.errors import ConfigError
from repro.funcsim.runtime.backends.numpy_backend import NumpyBackend

#: Array backends :func:`resolve_backend` accepts.
BACKEND_KINDS = ("numpy",)

#: Selector values that disable compilation (interpreted kernel only).
INTERPRETER_KINDS = ("interp", "interpreted", "off")

#: Removed backends that stored specs may still name; they mean numpy.
DEPRECATED_KINDS = ("numba", "torch")

_NUMPY = NumpyBackend()


def warn_deprecated_backend(name: str, stacklevel: int = 3) -> None:
    warnings.warn(
        f"array backend {name!r} has been removed and now means 'numpy'; "
        f"this alias will be rejected in the next release",
        DeprecationWarning, stacklevel=stacklevel)


def resolve_backend(name: str | None = None, path: str = "runtime.backend"):
    """Resolve a backend selector to an instance (``None`` = interpreter).

    ``name=None`` consults ``$REPRO_BACKEND`` and finally defaults to
    ``"numpy"`` — compiled execution is on unless explicitly disabled
    with an interpreter selector (:data:`INTERPRETER_KINDS`). Unknown
    names raise :class:`~repro.errors.ConfigError` citing ``path`` (or
    the environment variable when the value came from there).
    """
    if name is None:
        env = os.environ.get("REPRO_BACKEND")
        if env:
            name, path = env, "$REPRO_BACKEND"
        else:
            name = "numpy"
    kind = str(name).lower()
    if kind in INTERPRETER_KINDS:
        return None
    if kind in DEPRECATED_KINDS:
        warn_deprecated_backend(name)
        kind = "numpy"
    if kind not in BACKEND_KINDS:
        raise ConfigError(
            f"unknown array backend {name!r} at {path}; expected one of "
            f"{BACKEND_KINDS + INTERPRETER_KINDS}")
    return _NUMPY


__all__ = [
    "BACKEND_KINDS",
    "DEPRECATED_KINDS",
    "INTERPRETER_KINDS",
    "NumpyBackend",
    "resolve_backend",
]
