"""Zero-copy loading of ``.npz`` archives via ``np.memmap``.

``np.load(path, mmap_mode="r")`` silently ignores ``mmap_mode`` for
``.npz`` files (the zip layer reads members into fresh arrays), so a
fleet of worker processes warm-loading the shared artifact store would
each hold a private copy of every multi-MB weight blob. The zoo writes
archives with :func:`numpy.savez` — members are *stored*, never
deflated — so each member's raw ``.npy`` bytes sit contiguously inside
the archive file and can be mapped read-only straight out of the page
cache, shared across all processes on the host.

:func:`load_npz` parses the zip local headers itself (the central
directory alone does not give the data offset), reads each member's
``.npy`` header, and returns ``np.memmap`` views. Members that cannot
be mapped (compressed, object-dtype, pickled) fall back to a regular
copying load, as does the whole archive when ``mmap=False`` or the
``REPRO_ZOO_MMAP=0`` escape hatch is set — the copy-on-write path for
callers that mutate what they load.

Mapping skips the zip layer's CRC-32 check, so :func:`load_npz` checks
each mapped member's bytes against its recorded CRC itself, once per
process for each state of the file (path, inode, size, mtime): a flipped
bit or a truncated archive raises :class:`~repro.errors.SerializationError`
instead of serving a plausible wrong value.
"""

from __future__ import annotations

import os
import struct
import zipfile
import zlib

import numpy as np

from repro.errors import SerializationError

# Local file header: sig(4) ver(2) flags(2) method(2) time(2) date(2)
# crc(4) csize(4) usize(4) name_len(2) extra_len(2)
_LOCAL_HEADER = struct.Struct("<4s5H3I2H")
_LOCAL_SIG = b"PK\x03\x04"

#: Archive states whose mapped members passed their CRC-32 check in this
#: process, as ``(path, inode, size, mtime_ns)``.
_crc_verified: set = set()
_CRC_CHUNK = 1 << 20


def mmap_enabled(default: bool = True) -> bool:
    """Whether zero-copy zoo loads are enabled (``REPRO_ZOO_MMAP``)."""
    env = os.environ.get("REPRO_ZOO_MMAP")
    if env is None:
        return default
    return env.strip().lower() not in ("0", "false", "no", "off")


def _member_data_offset(handle, info: zipfile.ZipInfo) -> int | None:
    """Absolute file offset of a member's raw data, or None if unmappable.

    The central directory records where the *local* header starts; the
    local header's own name/extra lengths (which may differ from the
    central directory's) give the data start.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    handle.seek(info.header_offset)
    raw = handle.read(_LOCAL_HEADER.size)
    if len(raw) != _LOCAL_HEADER.size:
        return None
    fields = _LOCAL_HEADER.unpack(raw)
    if fields[0] != _LOCAL_SIG:
        return None
    name_len, extra_len = fields[9], fields[10]
    return info.header_offset + _LOCAL_HEADER.size + name_len + extra_len


def _check_crc(handle, path: str, info: zipfile.ZipInfo, offset: int) -> None:
    """Raise unless a stored member's bytes match its recorded CRC-32."""
    handle.seek(offset)
    crc, left = 0, info.compress_size
    while left:
        chunk = handle.read(min(left, _CRC_CHUNK))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        left -= len(chunk)
    if left or crc != info.CRC:
        raise SerializationError(
            f"corrupt artifact {path}: member {info.filename!r} fails its "
            f"CRC-32 check")


def _read_npy_header(handle):
    """Parse a ``.npy`` header at the current offset.

    Returns ``(shape, fortran_order, dtype, data_offset)`` or ``None``
    when the member is not a plain mappable array.
    """
    try:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(
                handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(
                handle)
        else:
            return None
    except ValueError:
        return None
    if dtype.hasobject:
        return None
    return shape, fortran, dtype, handle.tell()


def load_npz(path: str, mmap: bool = True, writable: bool = False) -> dict:
    """Load every array in an ``.npz`` as ``{name: array}``.

    With ``mmap`` (and the env escape hatch unset) arrays are read-only
    ``np.memmap`` views sharing the OS page cache across processes;
    pass ``writable=True`` (or ``mmap=False``) to get private mutable
    copies instead. Any member that cannot be mapped is loaded the
    regular, copying way — the result dict is always complete. A corrupt
    archive (a member failing its CRC-32 check, a broken zip structure)
    raises :class:`~repro.errors.SerializationError` naming the file.
    """
    try:
        if writable or not mmap or not mmap_enabled():
            # Our own handle: np.load leaks its file when the zip
            # directory is unreadable.
            with open(path, "rb") as handle, \
                    np.load(handle, allow_pickle=False) as archive:
                return {name: archive[name] for name in archive.files}
        return _load_mapped(path)
    except zipfile.BadZipFile as exc:
        raise SerializationError(f"corrupt artifact {path}: {exc}") from exc


def _load_mapped(path: str) -> dict:
    """The zero-copy path of :func:`load_npz`."""
    stat = os.stat(path)
    state = (os.path.abspath(path), stat.st_ino, stat.st_size,
             stat.st_mtime_ns)
    verify = state not in _crc_verified
    arrays: dict = {}
    fallback: list = []
    with zipfile.ZipFile(path) as archive, open(path, "rb") as handle:
        for info in archive.infolist():
            name = info.filename
            key = name[:-4] if name.endswith(".npy") else name
            offset = _member_data_offset(handle, info)
            header = None
            if offset is not None:
                if verify:
                    _check_crc(handle, path, info, offset)
                handle.seek(offset)
                header = _read_npy_header(handle)
            if header is None:
                fallback.append(key)
                continue
            shape, fortran, dtype, data_offset = header
            if int(np.prod(shape, dtype=np.int64)) == 0:
                arrays[key] = np.empty(shape, dtype=dtype)
                continue
            arrays[key] = np.memmap(path, mode="r", dtype=dtype,
                                    shape=shape, offset=data_offset,
                                    order="F" if fortran else "C")
    if fallback:
        with np.load(path, allow_pickle=False) as archive:
            for key in fallback:
                arrays[key] = archive[key]
    _crc_verified.add(state)
    return arrays


__all__ = ["load_npz", "mmap_enabled"]
