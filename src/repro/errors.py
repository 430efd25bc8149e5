"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish configuration mistakes from numerical failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """An invalid or inconsistent configuration value was supplied."""


class ShapeError(ReproError, ValueError):
    """An array argument has the wrong shape or dimensionality."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative numerical solver failed to converge."""


class NotFittedError(ReproError, RuntimeError):
    """A model was used before being trained / fitted."""


class SerializationError(ReproError, RuntimeError):
    """A model or dataset artifact could not be saved or loaded."""


class StorageFullError(ReproError, OSError):
    """An artifact could not be written: the disk (or quota) is full."""
