"""The one ``.npz`` read and write path.

:func:`repro.utils.npz.load_npz` is ``np.load`` on the program's own
handle: values and layouts are exactly what was saved, every array is a
plain mutable copy, and a corrupt archive raises a typed error naming
the file and member instead of serving a plausible wrong value.
:func:`repro.utils.npz.atomic_savez` writes an archive whole or not at
all, and turns a full disk into :class:`StorageFullError`.
"""

import errno
import os
import struct
import zipfile

import numpy as np
import pytest

from repro.errors import ReproError, SerializationError, StorageFullError
from repro.utils.npz import atomic_savez, load_npz


@pytest.fixture
def archive(tmp_path):
    path = str(tmp_path / "blob.npz")
    rng = np.random.default_rng(0)
    arrays = {
        "weights": rng.standard_normal((16, 8)).astype(np.float32),
        "bias": rng.standard_normal(8),
        "counts": np.arange(12, dtype=np.int64).reshape(3, 4),
        "flag": np.array(True),
        "empty": np.zeros((0, 5)),
        "fortran": np.asfortranarray(rng.standard_normal((6, 7))),
    }
    np.savez(path, **arrays)
    return path, arrays


class TestValues:
    def test_matches_np_load_exactly(self, archive):
        path, arrays = archive
        loaded = load_npz(path)
        assert set(loaded) == set(arrays)
        for name, expected in arrays.items():
            got = loaded[name]
            assert got.dtype == expected.dtype, name
            np.testing.assert_array_equal(got, expected)

    def test_fortran_order_preserved(self, archive):
        path, arrays = archive
        got = load_npz(path)["fortran"]
        assert got.flags["F_CONTIGUOUS"]
        np.testing.assert_array_equal(got, arrays["fortran"])

    def test_copy_into_writable_storage_works(self, archive):
        """The state-dict load pattern: ``dst[...] = src``."""
        path, arrays = archive
        src = load_npz(path)["weights"]
        dst = np.zeros_like(arrays["weights"])
        dst[...] = src
        np.testing.assert_array_equal(dst, arrays["weights"])


class TestEscapeHatches:
    """What used to be opt-outs is the only behaviour: every loaded array
    is a plain, private, mutable copy."""

    def test_mmap_false_returns_plain_writable_arrays(self, archive):
        path, arrays = archive
        loaded = load_npz(path)
        assert all(type(value) is np.ndarray for value in loaded.values())
        loaded["weights"][0, 0] = 42.0   # mutable copy
        np.testing.assert_array_equal(loaded["bias"], arrays["bias"])
        np.testing.assert_array_equal(load_npz(path)["weights"],
                                      arrays["weights"])

    def test_writable_true_returns_mutable_copies(self, archive):
        path, _ = archive
        loaded = load_npz(path)
        loaded["counts"][0, 0] = 99
        assert loaded["counts"][0, 0] == 99


class TestCompressedFallback:
    def test_deflated_members_fall_back_to_np_load(self, tmp_path):
        """Deflated archives (not what the program writes) still load."""
        path = str(tmp_path / "packed.npz")
        rng = np.random.default_rng(1)
        arrays = {"a": rng.standard_normal((5, 5)),
                  "b": np.arange(10)}
        np.savez_compressed(path, **arrays)
        loaded = load_npz(path)
        for name, expected in arrays.items():
            np.testing.assert_array_equal(loaded[name], expected)


def _flip_payload_bit(path: str, member: str) -> None:
    """Flip one bit in the middle of ``member``'s stored bytes."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "r+b") as handle:
        # The local header's own name/extra lengths give the data start.
        handle.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<2H", handle.read(4))
        target = (info.header_offset + 30 + name_len + extra_len
                  + info.compress_size // 2)
        handle.seek(target)
        byte = handle.read(1)[0]
        handle.seek(target)
        handle.write(bytes([byte ^ 0x01]))


class TestIntegrity:
    """The zip layer checks each member's CRC-32 as ``np.load`` reads it;
    ``load_npz`` turns every failure into one typed error."""

    @pytest.mark.parametrize("compressed", [True, False])
    def test_flipped_payload_bit_raises(self, tmp_path, compressed):
        path = str(tmp_path / "flip.npz")
        save = np.savez_compressed if compressed else np.savez
        save(path, value=np.linspace(0.0, 493.0, 64), other=np.arange(4.0))
        _flip_payload_bit(path, "value.npy")
        with pytest.raises(SerializationError) as excinfo:
            load_npz(path)
        assert path in str(excinfo.value)
        assert "value.npy" in str(excinfo.value)

    @pytest.mark.parametrize("compressed", [True, False])
    def test_truncated_file_raises(self, archive, compressed):
        path, arrays = archive
        if compressed:
            np.savez_compressed(path, **arrays)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        # Truncation takes the zip directory with it: the error names
        # the file; no member can be named.
        with pytest.raises(SerializationError, match="corrupt artifact") \
                as excinfo:
            load_npz(path)
        assert path in str(excinfo.value)

    @pytest.mark.parametrize("content", [b"", b"not a zip archive"])
    def test_non_archive_raises(self, tmp_path, content):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as handle:
            handle.write(content)
        with pytest.raises(SerializationError, match="corrupt artifact"):
            load_npz(path)

    def test_bare_npy_file_is_not_an_archive(self, tmp_path):
        path = str(tmp_path / "single.npz")
        with open(path, "wb") as handle:
            np.save(handle, np.arange(3))
        with pytest.raises(SerializationError, match="not an .npz"):
            load_npz(path)


def _leftovers(directory) -> list:
    return sorted(os.listdir(directory))


class TestAtomicSavez:
    def test_round_trip_members_are_stored(self, tmp_path):
        path = str(tmp_path / "sub" / "a.npz")
        atomic_savez(path, {"x": np.arange(5.0), "meta_json": np.zeros(2)})
        np.testing.assert_array_equal(load_npz(path)["x"], np.arange(5.0))
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == ["meta_json.npy", "x.npy"]
            assert {info.compress_type for info in archive.infolist()} \
                == {zipfile.ZIP_STORED}
        assert _leftovers(tmp_path / "sub") == ["a.npz"]

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EDQUOT])
    def test_full_disk_is_typed_and_leaves_nothing(self, tmp_path,
                                                   monkeypatch, code):
        path = str(tmp_path / "a.npz")
        atomic_savez(path, {"x": np.arange(3.0)})

        def full_disk(handle, **arrays):
            handle.write(b"PK\x03\x04 partial archive")
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(np, "savez", full_disk)
        with pytest.raises(StorageFullError) as excinfo:
            atomic_savez(path, {"x": np.arange(4.0)})
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.errno == code
        assert "a.npz" in str(excinfo.value)
        # The previous archive is untouched and no temporary file stays.
        assert _leftovers(tmp_path) == ["a.npz"]
        np.testing.assert_array_equal(load_npz(path)["x"], np.arange(3.0))

    def test_other_os_errors_pass_through(self, tmp_path, monkeypatch):
        def io_error(handle, **arrays):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(np, "savez", io_error)
        with pytest.raises(OSError) as excinfo:
            atomic_savez(str(tmp_path / "a.npz"), {"x": np.arange(3.0)})
        assert not isinstance(excinfo.value, StorageFullError)
        assert _leftovers(tmp_path) == []
