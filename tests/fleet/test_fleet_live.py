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
* concurrent key-addressed follow-ups reach the worker that holds the
  key (zero 404s), one client's registered keys spread over both
  workers, and clients spread over both workers;
* killing a worker mid-traffic evicts it, retries in-flight requests on
  the survivor, and keeps answers byte-identical.

Ordering note: the worker-kill drill mutates the module-scoped fleet,
so it lives in the last test class of the file.
"""

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import EmulationSpec, get_preset
from repro.core.zoo import GeniexZoo
from repro.models.mlp import MLP
from repro.obs import fleet_report, format_fleet_report
from repro.serve.client import ServeClient
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread
from repro.fleet import FleetThread

SPEC = EmulationSpec.from_dict({
    "engine": "geniex", "xbar": {"rows": 4, "cols": 4},
    "emulator": {
        "sampling": {"n_g_matrices": 3, "n_v_per_g": 4, "seed": 0},
        "training": {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": 0}}})
CONFIG = SPEC.xbar.to_config()
MITIGATED_SPEC = get_preset("quick-mitigated")
DATASET = {"name": "blobs", "n_train": 256, "n_test": 128}


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """Front-end + 2 workers over one shared artifact store.

    Concurrent traffic lands on either worker — the setup the shared zoo
    and the key pins must survive.
    """
    handle = FleetThread(
        2, str(tmp_path_factory.mktemp("fleet-zoo")),
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


def topology(port: int) -> dict:
    """The front-end's ``GET /v1/fleet``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/v1/fleet")
        response = conn.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        conn.close()


def live_workers(metrics: dict) -> set:
    return {wid for wid, entry in metrics["workers"].items()
            if entry["healthy"]}


def random_g(seed):
    cfg = CONFIG
    return np.random.default_rng(seed).uniform(cfg.g_off_s, cfg.g_on_s,
                                               size=cfg.shape)


def random_v(seed, shape):
    return np.random.default_rng(seed).uniform(0.0, CONFIG.v_supply_v,
                                               size=shape)


def corpus():
    """The fixed spec+payload corpus asserted byte-identical."""
    g = random_g(1).tolist()
    w = np.random.default_rng(2).uniform(-1, 1, size=(4, 4)).tolist()
    return [
        ("/v1/predict_fr",
         {"spec": SPEC.to_dict(), "conductances": g,
          "voltages": random_v(3, (3, 4)).tolist()}),
        ("/v1/predict_currents",
         {"spec": SPEC.to_dict(), "conductances": g,
          "voltages": random_v(4, (2, 4)).tolist()}),
        ("/v1/matmul",
         {"spec": SPEC.to_dict(), "weights": w,
          "x": np.random.default_rng(5).uniform(-1, 1, (3, 4)).tolist()}),
    ]


class TestByteIdentity:
    def test_corpus_routed_equals_direct(self, fleet, direct,
                                         fleet_client, direct_client):
        fleet_client.load_model(SPEC)
        direct_client.load_model(SPEC)
        for path, payload in corpus():
            f_status, f_body, f_headers = raw_post(fleet.port, path, payload)
            d_status, d_body, _ = raw_post(direct.port, path, payload)
            assert f_status == d_status == 200, (path, f_body)
            assert f_body == d_body, f"{path} differs routed vs direct"
            assert f_headers.get("X-Repro-Worker") in ("w0", "w1")

    def test_key_addressed_follow_up_routes_to_the_same_state(
            self, fleet, direct, fleet_client, direct_client):
        g = random_g(7)
        key_f = fleet_client.register_crossbar(SPEC, g)
        key_d = direct_client.register_crossbar(SPEC, g)
        assert key_f == key_d   # content digests agree across topologies
        payload = {"crossbar_key": key_f,
                   "voltages": random_v(8, (2, 4)).tolist()}
        _, f_body, _ = raw_post(fleet.port, "/v1/predict_fr", payload)
        _, d_body, _ = raw_post(direct.port, "/v1/predict_fr", payload)
        assert f_body == d_body

    def test_matmul_by_weights_key(self, fleet, direct, fleet_client,
                                   direct_client):
        w = np.random.default_rng(9).uniform(-1, 1, size=(4, 4))
        key = fleet_client.register_weights(SPEC, w)
        assert key == direct_client.register_weights(SPEC, w)
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
        fleet_client.load_model(SPEC)
        metrics = fleet_client.metrics()
        trains = {wid: entry["zoo"]["trains"]
                  for wid, entry in metrics["workers"].items()}
        assert sum(trains.values()) == 1, trains

    def test_model_trained_through_one_worker_serves_from_another(
            self, fleet, fleet_client):
        fleet_client.load_model(SPEC)
        before = {wid: entry["zoo"]
                  for wid, entry in fleet_client.metrics()["workers"].items()}
        cold_wid = next(wid for wid, zoo in before.items()
                        if zoo["trains"] == 0)
        # Hit the cold worker *directly* on its own port: it must serve
        # the model its peer trained, via a disk load — never a retrain.
        worker = fleet.supervisor.workers[cold_wid]
        with ServeClient(worker.host, worker.port, timeout=300) as c:
            loaded = c.load_model(SPEC)
            assert loaded["rows"] == 4
            y = c.predict_fr(random_v(3, (2, 4)),
                             spec=SPEC, conductances=random_g(1))
            assert y.shape == (2, 4)
        after = fleet_client.metrics()["workers"]
        assert after[cold_wid]["zoo"]["trains"] == 0
        assert after[cold_wid]["zoo"]["disk_loads"] >= 1
        total = sum(entry["zoo"]["trains"] for entry in after.values())
        assert total == 1


class TestFleetObservability:
    def test_json_metrics_shape(self, fleet_client):
        metrics = fleet_client.metrics()
        assert set(metrics) == {"fleet", "workers", "families"}
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
        topo = topology(fleet.port)
        assert set(topo) == {"workers", "pinned_keys"}
        assert set(topo["workers"]) == {"w0", "w1"}
        assert all(w["healthy"] for w in topo["workers"].values())

    def test_models_fans_out_and_dedupes(self, fleet_client):
        fleet_client.load_model(SPEC)
        models = fleet_client.models()
        keys = [m["model_key"] for m in models]
        assert len(keys) == len(set(keys))
        assert any(m["rows"] == 4 for m in models)

    def test_traces_record_route_and_forward(self, fleet_client):
        fleet_client.load_model(SPEC)
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


class TestPool:
    def test_concurrent_key_addressed_follow_ups_never_404(
            self, fleet, direct, direct_client):
        """Memory-only keys registered concurrently (so on either worker)
        and then used concurrently all reach the worker holding them:
        zero 404s, and every body equals the direct server's."""
        def register(i):
            with ServeClient("127.0.0.1", fleet.port, timeout=300) as c:
                w = np.random.default_rng(40 + i).uniform(-1, 1, (4, 4))
                g = random_g(50 + i)
                return (c.register_weights(SPEC, w),
                        c.register_crossbar(SPEC, g), w, g)

        with ThreadPoolExecutor(4) as pool:
            registered = list(pool.map(register, range(4)))
        with ServeClient("127.0.0.1", fleet.port, timeout=300) as c:
            mitigated = c.mitigate(spec=MITIGATED_SPEC,
                                   dataset=DATASET)["mitigated_key"]
        requests = [("/v1/mitigated_predict",
                     {"mitigated_key": mitigated,
                      "x": np.random.default_rng(60).normal(
                          size=(2, 16)).tolist()})]
        for i, (weights_key, crossbar_key, w, g) in enumerate(registered):
            assert weights_key == direct_client.register_weights(SPEC, w)
            assert crossbar_key == direct_client.register_crossbar(SPEC, g)
            requests.append(("/v1/matmul", {
                "weights_key": weights_key,
                "x": np.random.default_rng(70 + i).uniform(
                    -1, 1, (2, 4)).tolist()}))
            requests.append(("/v1/predict_fr", {
                "crossbar_key": crossbar_key,
                "voltages": random_v(80 + i, (2, 4)).tolist()}))
        direct_client.mitigate(spec=MITIGATED_SPEC, dataset=DATASET)
        want = []
        for path, payload in requests:
            status, body, _ = raw_post(direct.port, path, payload)
            assert status == 200, body
            want.append(body)

        def follow_ups(_thread):
            return [raw_post(fleet.port, path, payload)[:2]
                    for _ in range(5) for path, payload in requests]

        with ThreadPoolExecutor(4) as pool:
            answers = [a for part in pool.map(follow_ups, range(4))
                       for a in part]
        statuses = [status for status, _ in answers]
        assert statuses.count(404) == 0, statuses
        assert set(statuses) == {200}
        assert [body for _, body in answers] == want * 20

    def test_one_clients_keys_spread_over_both_workers(
            self, fleet, direct, direct_client):
        """Keys one sequential client registers, with unpinned traffic
        in between, land on both workers (fewest pins wins a load tie),
        and their follow-ups reach both with zero 404s."""
        before = {wid: w["pins"]
                  for wid, w in topology(fleet.port)["workers"].items()}
        # The lighter worker catches up first; two more keys reach both.
        n_keys = abs(before["w0"] - before["w1"]) + 2
        requests = []
        with ServeClient("127.0.0.1", fleet.port, timeout=300) as c:
            for i in range(n_keys):
                c.load_model(SPEC)
                w = np.random.default_rng(90 + i).uniform(-1, 1, (4, 4))
                key = c.register_weights(SPEC, w)
                assert key == direct_client.register_weights(SPEC, w)
                requests.append({"weights_key": key,
                                 "x": np.random.default_rng(i).uniform(
                                     -1, 1, (1, 4)).tolist()})
        after = {wid: w["pins"]
                 for wid, w in topology(fleet.port)["workers"].items()}
        assert abs(after["w0"] - after["w1"]) <= 1, (before, after)
        seen = set()
        for payload in requests:
            want = raw_post(direct.port, "/v1/matmul", payload)[1]
            status, body, headers = raw_post(fleet.port, "/v1/matmul",
                                             payload)
            assert (status, body) == (200, want)
            seen.add(headers["X-Repro-Worker"])
        assert seen == {"w0", "w1"}

    def test_net_predicts_spread_over_both_workers(self, fleet):
        """Load ties rotate, so two clients reach both workers whether
        or not their requests overlap in time."""
        spec = EmulationSpec.from_dict({"engine": "exact"})
        with ServeClient("127.0.0.1", fleet.port, timeout=300) as c:
            key = c.upload_net(MLP([8, 12, 4], seed=0),
                               spec=spec)["net_key"]
        payload = {"net_key": key, "x": np.random.default_rng(0)
                   .standard_normal((1, 8)).tolist()}

        def client(_thread):
            conn = http.client.HTTPConnection("127.0.0.1", fleet.port,
                                              timeout=300)
            seen = []
            try:
                for _ in range(40):
                    conn.request("POST", "/v1/net_predict",
                                 body=json.dumps(payload),
                                 headers={"Content-Type":
                                          "application/json"})
                    response = conn.getresponse()
                    response.read()
                    assert response.status == 200
                    seen.append(response.getheader("X-Repro-Worker"))
            finally:
                conn.close()
            return seen

        with ThreadPoolExecutor(2) as pool:
            seen = [wid for part in pool.map(client, range(2))
                    for wid in part]
        assert set(seen) == {"w0", "w1"}, seen


class TestSpecOnlyWire:
    """The worker's spec-only checks hold through the front-end: a
    retired flat body and a mistyped warm-object key are the worker's
    400, relayed verbatim."""

    @pytest.mark.parametrize("path", [
        "/v1/models", "/v1/crossbars", "/v1/predict_fr",
        "/v1/predict_currents", "/v1/weights", "/v1/matmul"])
    def test_flat_model_body_is_400(self, fleet, direct, path):
        flat = {"model": {"rows": 4, "cols": 4}, "engine": "exact",
                "sim": {"adc_bits": 3},
                "conductances": random_g(1).tolist(),
                "voltages": random_v(3, (1, 4)).tolist(),
                "weights": np.eye(4).tolist(), "x": [[0.1] * 4]}
        f_status, f_body, _ = raw_post(fleet.port, path, flat)
        d_status, d_body, _ = raw_post(direct.port, path, flat)
        assert f_status == d_status == 400
        assert f_body == d_body and b'\\"spec\\"' in f_body, f_body

    @pytest.mark.parametrize("value", [5, None, "", []])
    @pytest.mark.parametrize("path,field", [
        ("/v1/predict_fr", "crossbar_key"),
        ("/v1/predict_currents", "crossbar_key"),
        ("/v1/matmul", "weights_key"),
        ("/v1/mitigated_predict", "mitigated_key"),
        ("/v1/net_predict", "net_key")])
    def test_non_string_key_is_400(self, fleet, direct, path, field,
                                   value):
        body = {field: value, "x": [[0.1] * 4],
                "voltages": [[0.1] * 4]}
        f_status, f_body, _ = raw_post(fleet.port, path, body)
        d_status, d_body, _ = raw_post(direct.port, path, body)
        assert f_status == d_status == 400
        assert f_body == d_body and field.encode() in f_body, f_body


class TestWorkerDeath:
    """Mutates the fleet (kills w?); keep this class last in the file."""

    def test_kill_mid_traffic_retries_and_stays_byte_identical(
            self, fleet, direct, fleet_client, direct_client):
        fleet_client.load_model(SPEC)
        direct_client.load_model(SPEC)
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
        # Keep hammering through the death + eviction window.
        deadline = threading.Event()
        deadline.wait(1.5)
        stop.set()
        for t in threads:
            t.join(30)
        assert not errors
        assert answers
        # Every single response — including requests in flight during the
        # kill, retried on the surviving worker — is byte-identical.
        for status, body in answers:
            assert status == 200
            assert body == want
        survivor = {"w0", "w1"} - {victim}
        topo = fleet_client.metrics()
        assert live_workers(topo) == survivor
        assert topo["fleet"]["evictions"] >= 1

    def test_traffic_after_death_served_by_survivor(self, fleet, direct,
                                                    fleet_client):
        for path, payload in corpus():
            f_status, f_body, f_headers = raw_post(fleet.port, path, payload)
            d_status, d_body, _ = raw_post(direct.port, path, payload)
            assert f_status == d_status == 200
            assert f_body == d_body
            assert f_headers["X-Repro-Worker"] in \
                live_workers(fleet_client.metrics())
