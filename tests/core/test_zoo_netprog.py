"""Zoo persistence for uploaded networks and trained emulators.

The fleet's artifact store: one worker compiles an uploaded network,
every other worker rebuilds it from the shared ``<net_key>.npz`` (net
keys start with ``netprog-``), and
the digest computed from the disk wire must equal the digest of the
original JSON wire, or cache keys would diverge across workers.
"""

import os

import numpy as np
import pytest

from repro.core.zoo import GeniexZoo
from repro.models.mlp import MLP
from repro.nn.serialization import net_digest, net_from_wire, net_to_wire
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture
def zoo(tmp_path):
    return GeniexZoo(cache_dir=str(tmp_path / "zoo"))


def logits(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data.copy()


class TestNetProgramRoundTrip:
    def test_wire_survives_disk_with_identical_digest(self, zoo):
        model = MLP([5, 7, 3], seed=2)
        wire = net_to_wire(model)
        meta = {"spec": {"engine": "exact"}, "net_digest": net_digest(wire)}
        zoo.save_net_program("k1", wire, meta)
        loaded_wire, loaded_meta = zoo.load_net_program("k1")
        assert loaded_meta == meta
        # Digest parity across the JSON and disk representations is what
        # keeps one net_key valid fleet-wide.
        assert net_digest(loaded_wire) == net_digest(wire)
        x = np.random.default_rng(0).standard_normal((4, 5))
        np.testing.assert_array_equal(
            logits(net_from_wire(loaded_wire), x), logits(model, x))

    def test_absent_key_is_none(self, zoo):
        assert zoo.load_net_program("never-saved") is None

    def test_first_writer_wins(self, zoo):
        wire_a = net_to_wire(MLP([5, 7, 3], seed=2))
        wire_b = net_to_wire(MLP([5, 7, 3], seed=9))
        assert zoo.save_net_program("k4", wire_a, {"writer": "a"})
        assert not zoo.save_net_program("k4", wire_b, {"writer": "b"})
        _, meta = zoo.load_net_program("k4")
        assert meta == {"writer": "a"}

    def test_corrupt_artifact_reads_as_absent(self, zoo, tmp_path):
        wire = net_to_wire(MLP([5, 7, 3], seed=2))
        zoo.save_net_program("k5", wire, {})
        with open(zoo._net_path("k5"), "wb") as handle:
            handle.write(b"not a zip archive")
        assert zoo.load_net_program("k5") is None


class TestNetProgramFileName:
    """``<key>.npz`` is written; the ``netprog-<key>.npz`` name earlier
    versions wrote is still read when the new one is absent."""

    KEY = "netprog-0123abcd"

    def legacy_path(self, zoo):
        return os.path.join(zoo.cache_dir, f"netprog-{self.KEY}.npz")

    def test_writes_the_key_as_file_name(self, zoo):
        wire = net_to_wire(MLP([5, 7, 3], seed=2))
        assert zoo.save_net_program(self.KEY, wire, {})
        assert [name for name in os.listdir(zoo.cache_dir)
                if name.endswith(".npz")] == [f"{self.KEY}.npz"]

    def test_old_name_artifact_still_serves(self, zoo):
        wire = net_to_wire(MLP([5, 7, 3], seed=2))
        zoo.save_net_program(self.KEY, wire, {"writer": "old"})
        os.rename(zoo._net_path(self.KEY), self.legacy_path(zoo))
        loaded_wire, meta = zoo.load_net_program(self.KEY)
        assert meta == {"writer": "old"}
        assert net_digest(loaded_wire) == net_digest(wire)
        # A readable old-name artifact is a disk hit: nothing is rewritten.
        assert not zoo.save_net_program(self.KEY, wire, {"writer": "new"})
        assert not os.path.exists(zoo._net_path(self.KEY))

    def test_reupload_over_corrupt_old_name_writes_new_name(self, zoo):
        wire = net_to_wire(MLP([5, 7, 3], seed=2))
        os.makedirs(zoo.cache_dir)
        with open(self.legacy_path(zoo), "wb") as handle:
            handle.write(b"not a zip archive")
        assert zoo.load_net_program(self.KEY) is None
        assert zoo.save_net_program(self.KEY, wire, {"writer": "new"})
        assert os.path.exists(zoo._net_path(self.KEY))
        _, meta = zoo.load_net_program(self.KEY)
        assert meta == {"writer": "new"}

    @pytest.mark.parametrize("key", ["../escape", "a/b"])
    def test_key_with_a_path_is_absent(self, zoo, key):
        assert zoo.load_net_program(key) is None


class TestEmulatorArtifactMmap:
    def test_trained_model_loads_memory_mapped_and_predicts(self, zoo):
        """A reload of the persisted GENIEx weights produces the
        identical model."""
        from repro.core.sampling import SamplingSpec
        from repro.core.trainer import TrainSpec
        from repro.xbar.config import CrossbarConfig
        config = CrossbarConfig(rows=4, cols=4)
        sampling = SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=0)
        training = TrainSpec(hidden=8, epochs=2, batch_size=8, seed=0)
        emulator = zoo.get_or_train(config, sampling, training)
        path = zoo._path(zoo.artifact_key(config, sampling, training,
                                          "full"))
        reloaded = zoo.load_model(path)
        first = {k: np.asarray(v)
                 for k, v in emulator.model.state_dict().items()}
        second = reloaded.state_dict()
        assert set(first) == set(second)
        for name in first:
            np.testing.assert_array_equal(first[name],
                                          np.asarray(second[name]))
