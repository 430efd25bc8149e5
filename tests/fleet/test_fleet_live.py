"""Live fleet tests: byte-identity, shared artifact store, worker death.

Boots a real fleet — front-end plus two ``python -m repro serve`` worker
subprocesses sharing one zoo cache directory — next to a single-process
reference server, and asserts over actual HTTP:

* every routed response is **byte-identical** to the single-process
  server's for a fixed spec+payload corpus (the front-end forwards
  bodies verbatim and workers run batch-invariant engines);
* the shared content-addressed store trains each model exactly once
  fleet-wide (zoo counters federated through the front-end prove it),
  and a model trained through one worker serves from another via a disk
  load, never a retrain;
* killing a worker mid-traffic re-hashes the ring, retries in-flight
  requests on a replica, and keeps answers byte-identical.

Ordering note: the worker-kill drill mutates the module-scoped fleet,
so it lives in the last test class of the file.
"""

import http.client
import json
import threading

import numpy as np
import pytest

from repro.api import get_preset
from repro.core.zoo import GeniexZoo
from repro.obs import fleet_report, format_fleet_report
from repro.serve.client import ServeClient
from repro.serve.protocol import ModelSpec
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread
from repro.fleet import FleetThread

MODEL = {
    "rows": 4, "cols": 4,
    "sampling": {"n_g_matrices": 3, "n_v_per_g": 4, "seed": 0},
    "training": {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": 0},
}
SPEC = ModelSpec.from_payload(MODEL)
MITIGATED_SPEC = get_preset("quick-mitigated")
DATASET = {"name": "blobs", "n_train": 256, "n_test": 128}


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Front-end + 2 workers over one shared artifact store.

    ``replication=2`` puts both workers in every key's replica set, so
    traffic can land on either — the setup the shared zoo must survive.
    """
    handle = FleetThread(
        2, str(tmp_path_factory.mktemp("fleet-zoo")),
        frontend_kwargs={"replication": 2},
        worker_args=["--max-batch", "16"])
    handle.start()
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def direct(tmp_path_factory):
    """The single-process reference server (its own zoo)."""
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("direct-zoo")))
    server = EmulationServer(ModelRegistry(zoo), max_batch_rows=16)
    with ServerThread(server) as handle:
        yield handle


@pytest.fixture
def fleet_client(fleet):
    with ServeClient("127.0.0.1", fleet.port, timeout=300) as c:
        yield c


@pytest.fixture
def direct_client(direct):
    with ServeClient("127.0.0.1", direct.port, timeout=300) as c:
        yield c


def raw_post(port: int, path: str, payload: dict):
    """One POST over a fresh connection; returns (status, body, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        conn.request("POST", path, body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


def random_g(seed):
    cfg = SPEC.config
    return np.random.default_rng(seed).uniform(cfg.g_off_s, cfg.g_on_s,
                                               size=cfg.shape)


def random_v(seed, shape):
    return np.random.default_rng(seed).uniform(0.0, SPEC.config.v_supply_v,
                                               size=shape)


def corpus():
    """The fixed spec+payload corpus asserted byte-identical."""
    g = random_g(1).tolist()
    w = np.random.default_rng(2).uniform(-1, 1, size=(4, 4)).tolist()
    return [
        ("/v1/predict_fr",
         {"model": MODEL, "conductances": g,
          "voltages": random_v(3, (3, 4)).tolist()}),
        ("/v1/predict_currents",
         {"model": MODEL, "conductances": g,
          "voltages": random_v(4, (2, 4)).tolist()}),
        ("/v1/matmul",
         {"model": MODEL, "weights": w,
          "x": np.random.default_rng(5).uniform(-1, 1, (3, 4)).tolist()}),
    ]


class TestByteIdentity:
    def test_corpus_routed_equals_direct(self, fleet, direct,
                                         fleet_client, direct_client):
        fleet_client.load_model(MODEL)
        direct_client.load_model(MODEL)
        for path, payload in corpus():
            f_status, f_body, f_headers = raw_post(fleet.port, path, payload)
            d_status, d_body, _ = raw_post(direct.port, path, payload)
            assert f_status == d_status == 200, (path, f_body)
            assert f_body == d_body, f"{path} differs routed vs direct"
            assert f_headers.get("X-Repro-Worker") in ("w0", "w1")

    def test_key_addressed_follow_up_routes_to_the_same_state(
            self, fleet, direct, fleet_client, direct_client):
        g = random_g(7)
        key_f = fleet_client.register_crossbar(MODEL, g)
        key_d = direct_client.register_crossbar(MODEL, g)
        assert key_f == key_d   # content digests agree across topologies
        payload = {"crossbar_key": key_f,
                   "voltages": random_v(8, (2, 4)).tolist()}
        _, f_body, _ = raw_post(fleet.port, "/v1/predict_fr", payload)
        _, d_body, _ = raw_post(direct.port, "/v1/predict_fr", payload)
        assert f_body == d_body

    def test_matmul_by_weights_key(self, fleet, direct, fleet_client,
                                   direct_client):
        w = np.random.default_rng(9).uniform(-1, 1, size=(4, 4))
        key = fleet_client.register_weights(MODEL, w)
        assert key == direct_client.register_weights(MODEL, w)
        x = np.random.default_rng(10).uniform(-1, 1, (2, 4))
        np.testing.assert_array_equal(
            fleet_client.matmul(x, weights_key=key),
            direct_client.matmul(x, weights_key=key))

    def test_mitigate_agrees_with_direct(self, fleet_client,
                                         direct_client):
        routed = fleet_client.mitigate(spec=MITIGATED_SPEC, dataset=DATASET)
        ref = direct_client.mitigate(spec=MITIGATED_SPEC, dataset=DATASET)
        assert routed["mitigated_key"] == ref["mitigated_key"]
        assert routed["metrics"] == ref["metrics"]
        x = np.random.default_rng(11).normal(size=(3, 16))
        np.testing.assert_array_equal(
            fleet_client.mitigated_predict(
                x, mitigated_key=routed["mitigated_key"]),
            direct_client.mitigated_predict(
                x, mitigated_key=ref["mitigated_key"]))

    def test_worker_errors_pass_through_verbatim(self, fleet, direct):
        bad = {"crossbar_key": "no-such-key", "voltages": [[0.0] * 4]}
        f_status, f_body, _ = raw_post(fleet.port, "/v1/predict_fr", bad)
        d_status, d_body, _ = raw_post(direct.port, "/v1/predict_fr", bad)
        assert f_status == d_status == 404
        assert f_body == d_body
        malformed = {"voltages": [[0.0] * 4]}   # no identity at all
        f_status, f_body, _ = raw_post(fleet.port, "/v1/predict_fr",
                                       malformed)
        d_status, d_body, _ = raw_post(direct.port, "/v1/predict_fr",
                                       malformed)
        assert f_status == d_status == 400
        assert f_body == d_body


class TestSharedArtifactStore:
    def test_exactly_one_train_fleet_wide(self, fleet, fleet_client):
        fleet_client.load_model(MODEL)
        metrics = fleet_client.metrics()
        trains = {wid: entry["zoo"]["trains"]
                  for wid, entry in metrics["workers"].items()}
        assert sum(trains.values()) == 1, trains

    def test_model_trained_through_one_worker_serves_from_another(
            self, fleet, fleet_client):
        fleet_client.load_model(MODEL)
        before = {wid: entry["zoo"]
                  for wid, entry in fleet_client.metrics()["workers"].items()}
        cold_wid = next(wid for wid, zoo in before.items()
                        if zoo["trains"] == 0)
        # Hit the cold worker *directly* on its own port: it must serve
        # the model its peer trained, via a disk load — never a retrain.
        worker = fleet.supervisor.workers[cold_wid]
        with ServeClient(worker.host, worker.port, timeout=300) as c:
            loaded = c.load_model(MODEL)
            assert loaded["rows"] == 4
            y = c.predict_fr(random_v(3, (2, 4)),
                             model=MODEL, conductances=random_g(1))
            assert y.shape == (2, 4)
        after = fleet_client.metrics()["workers"]
        assert after[cold_wid]["zoo"]["trains"] == 0
        assert after[cold_wid]["zoo"]["disk_loads"] >= 1
        total = sum(entry["zoo"]["trains"] for entry in after.values())
        assert total == 1


class TestFleetObservability:
    def test_json_metrics_shape(self, fleet_client):
        metrics = fleet_client.metrics()
        assert set(metrics) >= {"fleet", "ring", "workers", "families"}
        assert metrics["ring"]["members"] == ["w0", "w1"]
        assert metrics["ring"]["replication"] == 2
        assert metrics["fleet"]["workers"] == 2
        assert any(name.startswith("repro_fleet_")
                   for name in metrics["families"])
        for entry in metrics["workers"].values():
            assert entry["healthy"] is True
            assert "queue_rows" in entry and "zoo" in entry

    def test_prometheus_federates_worker_families(self, fleet_client):
        text = fleet_client.prometheus_metrics()
        assert "repro_fleet_requests_total" in text
        assert "repro_fleet_forwards_total" in text
        # Worker families appear relabelled with worker="..."
        assert 'worker="w0"' in text and 'worker="w1"' in text
        assert "repro_http_requests_total" in text

    def test_topology_endpoint(self, fleet):
        conn = http.client.HTTPConnection("127.0.0.1", fleet.port,
                                          timeout=30)
        try:
            conn.request("GET", "/v1/fleet")
            response = conn.getresponse()
            topo = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 200
        assert topo["ring"]["members"] == ["w0", "w1"]
        assert set(topo["workers"]) == {"w0", "w1"}

    def test_models_fans_out_and_dedupes(self, fleet_client):
        fleet_client.load_model(MODEL)
        models = fleet_client.models()
        keys = [m["model_key"] for m in models]
        assert len(keys) == len(set(keys))
        assert any(m["rows"] == 4 for m in models)

    def test_traces_record_route_and_forward(self, fleet_client):
        fleet_client.load_model(MODEL)
        traces = fleet_client.traces()
        routed = [t for t in traces if t["name"] == "POST /v1/models"][-1]
        # One trace shape with the server: a single ``http`` root span,
        # with the front-end's stages as its children.
        (http,) = routed["spans"]
        assert http["name"] == "http"
        kids = [c["name"] for c in http.get("children", [])]
        assert {"route", "forward"} <= set(kids)
        assert routed["meta"]["status"] == 200

    def test_fleet_report_renders_per_worker_table(self, fleet_client):
        report = fleet_report(fleet_client.metrics())
        assert set(report) == {"w0", "w1"}
        for row in report.values():
            assert row["scraped"] and row["healthy"]
            assert "p95_ms" in row and "warm_keys" in row
        table = format_fleet_report(report)
        lines = table.splitlines()
        assert lines[0].split()[:3] == ["worker", "healthy", "address"]
        assert len(lines) == 4   # header + rule + one row per worker


class TestWorkerDeath:
    """Mutates the fleet (kills w?); keep this class last in the file."""

    def test_kill_mid_traffic_rehashes_and_stays_byte_identical(
            self, fleet, direct, fleet_client, direct_client):
        fleet_client.load_model(MODEL)
        direct_client.load_model(MODEL)
        path, payload = corpus()[0]
        _, want, _ = raw_post(direct.port, path, payload)

        errors = []
        answers = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, body, _ = raw_post(fleet.port, path, payload)
                    answers.append((status, body))
                except Exception as exc:   # pragma: no cover - failure path
                    errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        # Let traffic flow, then kill whichever worker last answered.
        _, _, headers = raw_post(fleet.port, path, payload)
        victim = headers["X-Repro-Worker"]
        fleet.kill_worker(victim)
        # Keep hammering through the death + rehash window.
        deadline = threading.Event()
        deadline.wait(1.5)
        stop.set()
        for t in threads:
            t.join(30)
        assert not errors
        assert answers
        # Every single response — including requests in flight during the
        # kill, retried on the surviving replica — is byte-identical.
        for status, body in answers:
            assert status == 200
            assert body == want
        survivor = {"w0", "w1"} - {victim}
        topo = fleet_client.metrics()
        assert topo["ring"]["members"] == sorted(survivor)
        fleet_stats = topo["fleet"]
        assert fleet_stats["rehashes"] >= 1

    def test_traffic_after_death_served_by_survivor(self, fleet, direct,
                                                    fleet_client):
        for path, payload in corpus():
            f_status, f_body, f_headers = raw_post(fleet.port, path, payload)
            d_status, d_body, _ = raw_post(direct.port, path, payload)
            assert f_status == d_status == 200
            assert f_body == d_body
            assert f_headers["X-Repro-Worker"] in \
                fleet_client.metrics()["ring"]["members"]
