"""A damaged zoo artifact is never served, for every artifact kind.

A flipped payload bit or a truncated file ends in a retrain (trained
emulators) or an absent read that the next save repairs (mitigated
models, net programs) — never in a plausible wrong value.
"""

import os
import struct
import zipfile

import numpy as np
import pytest

from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.errors import SerializationError
from repro.models.mlp import MLP
from repro.nn.serialization import net_digest, net_to_wire
from repro.xbar.config import CrossbarConfig

CONFIG = CrossbarConfig(rows=4, cols=4)
SAMPLING = SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=0)
TRAINING = TrainSpec(hidden=8, epochs=2, batch_size=8, seed=0)


def corrupt(path: str, how: str) -> None:
    """Flip one bit in the middle of the largest member, cut the file in
    half, or replace it with bytes that are no archive."""
    if how == "truncate":
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        return
    if how == "garbage":
        with open(path, "wb") as handle:
            handle.write(b"not a zip archive")
        return
    with zipfile.ZipFile(path) as archive:
        info = max(archive.infolist(), key=lambda i: i.compress_size)
    with open(path, "r+b") as handle:
        handle.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<2H", handle.read(4))
        target = (info.header_offset + 30 + name_len + extra_len
                  + info.compress_size // 2)
        handle.seek(target)
        byte = handle.read(1)[0]
        handle.seek(target)
        handle.write(bytes([byte ^ 0x10]))


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "zoo")


@pytest.mark.parametrize("how", ["flip", "truncate", "garbage"])
class TestPolicyPerKind:
    def test_emulator_is_retrained_and_rewritten(self, cache_dir, how):
        trained = GeniexZoo(cache_dir).get_or_train(CONFIG, SAMPLING,
                                                    TRAINING)
        path = GeniexZoo(cache_dir)._path(GeniexZoo.artifact_key(
            CONFIG, SAMPLING, TRAINING, "full"))
        corrupt(path, how)
        with pytest.raises(SerializationError, match="corrupt"):
            GeniexZoo.load_model(path)

        zoo = GeniexZoo(cache_dir)   # a fresh process over the same dir
        again = zoo.get_or_train(CONFIG, SAMPLING, TRAINING)
        assert zoo.counters()["trains"] == 1
        assert zoo.counters()["disk_loads"] == 0
        reloaded = GeniexZoo.load_model(path)   # rewritten, loadable
        for name, value in trained.model.state_dict().items():
            np.testing.assert_array_equal(
                reloaded.state_dict()[name], value)
            np.testing.assert_array_equal(
                again.model.state_dict()[name], value)

    def test_mitigated_reads_as_absent_until_resaved(self, cache_dir, how):
        zoo = GeniexZoo(cache_dir)
        state = {"model::weight": np.arange(64.0).reshape(8, 8)}
        zoo.save_mitigated("m", state, {"sizes": [8, 8]})
        corrupt(zoo._mitigated_path("m"), how)
        assert zoo.load_mitigated("m") is None
        zoo.save_mitigated("m", state, {"sizes": [8, 8]})
        loaded, meta = zoo.load_mitigated("m")
        np.testing.assert_array_equal(loaded["model::weight"],
                                      state["model::weight"])
        assert meta == {"sizes": [8, 8]}

    def test_net_program_reads_as_absent_until_resaved(self, cache_dir,
                                                       how):
        zoo = GeniexZoo(cache_dir)
        wire = net_to_wire(MLP([5, 7, 3], seed=2))
        assert zoo.save_net_program("n", wire, {})
        corrupt(zoo._net_path("n"), how)
        assert zoo.load_net_program("n") is None
        assert zoo.save_net_program("n", wire, {})
        loaded, _ = zoo.load_net_program("n")
        assert net_digest(loaded) == net_digest(wire)
