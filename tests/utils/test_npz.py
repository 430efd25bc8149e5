"""True memory-mapped loading of ``.npz`` archives.

``np.load(mmap_mode=...)`` silently ignores the request for zip
archives, so :mod:`repro.utils.npz` parses the zip local headers itself
and hands back ``np.memmap`` views of stored members. These tests pin
the properties the zoo relies on: values identical to ``np.load``,
actual memmaps for stored members, working escape hatches
(``mmap=False``, ``writable=True``, ``REPRO_ZOO_MMAP=0``), and corrupt
archives raising a typed error instead of serving wrong values.
"""

import os
import zipfile

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.utils import npz
from repro.utils.npz import load_npz, mmap_enabled


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

    def test_stored_members_are_memmaps(self, archive):
        path, _ = archive
        loaded = load_npz(path)
        assert isinstance(loaded["weights"], np.memmap)
        assert isinstance(loaded["counts"], np.memmap)

    def test_fortran_order_preserved(self, archive):
        path, arrays = archive
        got = load_npz(path)["fortran"]
        assert got.flags["F_CONTIGUOUS"]
        np.testing.assert_array_equal(got, arrays["fortran"])

    def test_memmaps_are_read_only(self, archive):
        path, _ = archive
        loaded = load_npz(path)
        with pytest.raises((ValueError, RuntimeError)):
            loaded["weights"][0, 0] = 1.0

    def test_copy_into_writable_storage_works(self, archive):
        """The state-dict load pattern: ``dst[...] = memmap_src``."""
        path, arrays = archive
        src = load_npz(path)["weights"]
        dst = np.zeros_like(arrays["weights"])
        dst[...] = src
        np.testing.assert_array_equal(dst, arrays["weights"])


class TestEscapeHatches:
    def test_mmap_false_returns_plain_writable_arrays(self, archive):
        path, arrays = archive
        loaded = load_npz(path, mmap=False)
        assert not isinstance(loaded["weights"], np.memmap)
        loaded["weights"][0, 0] = 42.0   # mutable copy
        np.testing.assert_array_equal(loaded["bias"], arrays["bias"])

    def test_writable_true_returns_mutable_copies(self, archive):
        path, _ = archive
        loaded = load_npz(path, writable=True)
        loaded["counts"][0, 0] = 99
        assert loaded["counts"][0, 0] == 99

    def test_env_kill_switch(self, archive, monkeypatch):
        path, _ = archive
        monkeypatch.setenv("REPRO_ZOO_MMAP", "0")
        assert not mmap_enabled()
        loaded = load_npz(path)
        assert not isinstance(loaded["weights"], np.memmap)
        monkeypatch.setenv("REPRO_ZOO_MMAP", "1")
        assert mmap_enabled()


class TestCompressedFallback:
    def test_deflated_members_fall_back_to_np_load(self, tmp_path):
        """Compressed archives cannot be mapped; values must still be
        right (plain arrays via the fallback loader)."""
        path = str(tmp_path / "packed.npz")
        rng = np.random.default_rng(1)
        arrays = {"a": rng.standard_normal((5, 5)),
                  "b": np.arange(10)}
        np.savez_compressed(path, **arrays)
        loaded = load_npz(path)
        for name, expected in arrays.items():
            np.testing.assert_array_equal(loaded[name], expected)


def _flip_payload_bit(path: str, member: str) -> None:
    """Flip one bit in the middle of ``member``'s array data."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    with open(path, "r+b") as handle:
        offset = npz._member_data_offset(handle, info)
        target = offset + info.file_size - 8   # inside the last element
        handle.seek(target)
        byte = handle.read(1)[0]
        handle.seek(target)
        handle.write(bytes([byte ^ 0x01]))


class TestIntegrity:
    """Mapping skips the zip CRC; ``load_npz`` checks it itself."""

    @pytest.mark.parametrize("mmap", [True, False])
    def test_flipped_payload_bit_raises(self, tmp_path, mmap):
        path = str(tmp_path / "flip.npz")
        np.savez(path, value=np.array([493.0]), other=np.arange(4.0))
        _flip_payload_bit(path, "value.npy")
        with pytest.raises(SerializationError) as excinfo:
            load_npz(path, mmap=mmap)
        assert path in str(excinfo.value)
        assert "value.npy" in str(excinfo.value)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_truncated_file_raises(self, archive, mmap):
        path, _ = archive
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(SerializationError, match="corrupt artifact"):
            load_npz(path, mmap=mmap)

    def test_checked_once_per_file_state(self, archive, monkeypatch):
        """An unchanged file is verified once per process; a rewritten
        one is verified again."""
        path, _ = archive
        calls = []
        check = npz._check_crc
        monkeypatch.setattr(npz, "_check_crc",
                            lambda *args: calls.append(1) or check(*args))
        load_npz(path)
        first = len(calls)
        assert first > 0
        load_npz(path)
        assert len(calls) == first
        _flip_payload_bit(path, "bias.npy")
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns,
                           stat.st_mtime_ns + 1_000_000_000))
        with pytest.raises(SerializationError, match="bias.npy"):
            load_npz(path)
