"""The one read and write path for every ``.npz`` the program owns.

:func:`atomic_savez` writes an archive so that readers see either the
complete previous file or the complete new one; a full disk surfaces as
:class:`~repro.errors.StorageFullError`. :func:`load_npz` reads one back
into plain arrays: ``np.load``'s zip layer checks each member's CRC-32
as it reads it, so a flipped bit or a truncated archive raises
:class:`~repro.errors.SerializationError` naming the file (and the
member, where the zip directory survived) instead of serving a plausible
wrong value.
"""

from __future__ import annotations

import errno
import os
import tempfile
import zipfile
import zlib

import numpy as np

from repro.errors import SerializationError, StorageFullError

_FULL_DISK = (errno.ENOSPC, errno.EDQUOT)


def atomic_savez(path: str, arrays: dict) -> None:
    """Atomically write an ``.npz`` archive.

    The archive is written to a temporary sibling file and moved into
    place with :func:`os.replace`, so readers either see the complete
    previous artifact or the complete new one — never a half-written
    ``.npz`` — and a crash mid-write leaves the target untouched.
    Concurrent writers race benignly: both produce identical,
    deterministic artifacts and the last rename wins. A full disk (or
    quota) removes the temporary file and raises
    :class:`~repro.errors.StorageFullError`.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        suffix=".npz", prefix=".tmp-", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            # savez would append ".npz" to a bare path; a file object
            # writes exactly where the temp file lives.
            np.savez(handle, **arrays)
        os.replace(tmp_path, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.errno in _FULL_DISK:
            raise StorageFullError(
                exc.errno, f"{os.strerror(exc.errno)}: cannot write "
                f"{os.path.basename(path)}") from exc
        raise


def load_npz(path: str) -> dict:
    """Load every array in an ``.npz`` as ``{name: array}``.

    A corrupt archive (a member failing its CRC-32 check, a broken zip
    structure or ``.npy`` header, a file that is no archive at all)
    raises :class:`~repro.errors.SerializationError` naming the file
    and, when one was being read, the member.
    """
    member = None
    try:
        # Our own handle: np.load leaks its file when the zip directory
        # is unreadable.
        with open(path, "rb") as handle:
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz archive")
            with archive:
                arrays = {}
                for member in archive.zip.namelist():
                    name = member[:-4] if member.endswith(".npy") else member
                    arrays[name] = archive[name]
                return arrays
    except (zipfile.BadZipFile, zlib.error, ValueError, EOFError) as exc:
        where = "" if member is None else f" member {member!r}"
        raise SerializationError(
            f"corrupt artifact {path}{where}: {exc}") from exc


__all__ = ["atomic_savez", "load_npz"]
