"""The /v1/mitigate endpoint, asserted live over HTTP.

Boots one real server (random port, background thread) and proves the
mitigation acceptance contract at the wire: a faulty spec mitigated
through the endpoint measurably improves accuracy over its unmitigated
baseline, the mitigated artifact is cached under its own digest (repeat
requests are warm hits, never retrains), and the usual strictness — 404
for unknown keys, 400 for identity or untrainable recipes.
"""

import numpy as np
import pytest

from repro.api import get_preset
from repro.core.zoo import GeniexZoo
from repro.datasets import resolve_handle
from repro.serve.client import ServeClient, ServerError
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread

#: Faulty analytical crossbar + active mitigation node — no emulator
#: training, so the server-side run stays test-sized.
SPEC = get_preset("quick-mitigated")
DATASET = {"name": "blobs", "n_train": 256, "n_test": 128}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    registry = ModelRegistry(zoo)
    server = EmulationServer(registry, max_batch_rows=16)
    with ServerThread(server) as handle:
        yield handle, registry


@pytest.fixture
def client(served):
    handle, _ = served
    with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
        yield c


@pytest.fixture(scope="module")
def mitigated(served):
    """The one expensive server-side run, shared by every test."""
    handle, _ = served
    with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
        return c.mitigate(spec=SPEC, dataset=DATASET)


class TestMitigateEndpoint:
    def test_mitigation_improves_over_unmitigated_baseline(self, mitigated):
        metrics = mitigated["metrics"]
        assert metrics["mitigated_accuracy"] > metrics["baseline_accuracy"]
        assert metrics["float_accuracy"] >= metrics["mitigated_accuracy"]

    def test_mitigated_key_is_its_own_digest(self, mitigated):
        key = mitigated["mitigated_key"]
        assert key.startswith("mit-")
        assert key != mitigated["spec_key"]
        assert key != SPEC.key() and key != SPEC.model_key()

    def test_repeat_is_warm_hit_not_retrain(self, served, client,
                                            mitigated):
        _, registry = served
        size = client.metrics()["registry"]["mitigated"]["size"]
        again = client.mitigate(spec=SPEC, dataset=DATASET)
        assert again["mitigated_key"] == mitigated["mitigated_key"]
        assert again["metrics"] == mitigated["metrics"]
        assert client.metrics()["registry"]["mitigated"]["size"] == size

    def test_different_net_keys_apart(self, client, mitigated):
        other = client.mitigate(spec=SPEC, dataset=DATASET,
                                hidden=[32], seed=1)
        assert other["mitigated_key"] != mitigated["mitigated_key"]


class TestMitigatedPredict:
    def test_round_trip_matches_reported_accuracy(self, client, mitigated):
        _, _, x_test, y_test = resolve_handle(DATASET)
        logits = client.mitigated_predict(
            x_test, mitigated_key=mitigated["mitigated_key"])
        assert logits.shape == (len(x_test), mitigated["sizes"][-1])
        accuracy = float((logits.argmax(axis=1) == y_test).mean())
        assert accuracy == pytest.approx(
            mitigated["metrics"]["mitigated_accuracy"])

    def test_single_vector_path(self, client, mitigated):
        _, _, x_test, _ = resolve_handle(DATASET)
        single = client.mitigated_predict(
            x_test[0], mitigated_key=mitigated["mitigated_key"])
        batch = client.mitigated_predict(
            x_test[:1], mitigated_key=mitigated["mitigated_key"])
        np.testing.assert_array_equal(single, batch[0])

    def test_unknown_key_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client.mitigated_predict(np.zeros(16), mitigated_key="nope")
        assert err.value.status == 404

    def test_feature_mismatch_is_400(self, client, mitigated):
        with pytest.raises(ServerError) as err:
            client.mitigated_predict(
                np.zeros(3), mitigated_key=mitigated["mitigated_key"])
        assert err.value.status == 400


class TestStrictness:
    def test_identity_mitigation_is_400(self, client):
        from repro.api import MitigationSpec

        plain = SPEC.evolve(mitigation=MitigationSpec())
        with pytest.raises(ServerError) as err:
            client.mitigate(spec=plain, dataset=DATASET)
        assert err.value.status == 400

    def test_calibration_only_is_400(self, client):
        from repro.api import MitigationSpec

        cal_only = SPEC.evolve(mitigation=MitigationSpec()).evolve(
            mitigation={"calibration": {"samples": 32}})
        with pytest.raises(ServerError) as err:
            client.mitigate(spec=cal_only, dataset=DATASET)
        assert err.value.status == 400
        assert "epochs" in err.value.message

    def test_missing_dataset_is_400(self, client):
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/mitigate",
                            {"spec": SPEC.to_dict()})
        assert err.value.status == 400
        assert "dataset" in err.value.message

    def test_bad_net_is_400(self, client):
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/mitigate",
                            {"spec": SPEC.to_dict(), "dataset": DATASET,
                             "net": {"hidden": [0]}})
        assert err.value.status == 400

    def test_unknown_dataset_is_400(self, client):
        with pytest.raises(ServerError) as err:
            client.mitigate(spec=SPEC, dataset="no-such-dataset")
        assert err.value.status == 400
