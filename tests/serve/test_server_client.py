"""End-to-end HTTP tests: round-trips, equivalence, errors, backpressure.

The module boots one real server (random port, background thread) with a
tiny fast-to-train GENIEx model and drives it through
:class:`repro.serve.client.ServeClient` — the same path the CI smoke job
and the load benchmark use.

The equivalence tests assert **byte-identical** agreement with direct
in-process calls: predictions go through the (batch-invariant)
:class:`~repro.core.emulator.GeniexTileModel` of the programmed crossbar,
so a response must match a direct per-request call bit-for-bit even when
the scheduler coalesced it with other traffic.
"""

import threading

import numpy as np
import pytest

from repro.api.spec import EmulationSpec
from repro.core.emulator import GeniexTileModel
from repro.core.zoo import GeniexZoo
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import make_engine
from repro.serve.client import ServeClient, ServerBusyError, ServerError
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread

SPEC = EmulationSpec.from_dict({
    "engine": "geniex", "xbar": {"rows": 4, "cols": 4},
    "emulator": {
        "sampling": {"n_g_matrices": 3, "n_v_per_g": 4, "seed": 0},
        "training": {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": 0}}})
SIM = {"weight_bits": 8, "weight_frac_bits": 5,
       "activation_bits": 8, "activation_frac_bits": 5}
CONFIG = SPEC.xbar.to_config()


def engine_spec(kind: str) -> EmulationSpec:
    """SPEC run by engine ``kind`` at the 8-bit SIM precision."""
    return SPEC.evolve(engine=kind, sim=SIM)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    server = EmulationServer(ModelRegistry(zoo), max_batch_rows=16)
    with ServerThread(server) as handle:
        with ServeClient("127.0.0.1", handle.port) as client:
            client.load_model(SPEC)  # warm once for the whole module
            yield handle, zoo


@pytest.fixture
def client(served):
    handle, _ = served
    with ServeClient("127.0.0.1", handle.port) as c:
        yield c


def trained(zoo: GeniexZoo):
    """The GENIEx emulator SPEC names, trained (or loaded) in-process."""
    emulator = SPEC.emulator
    return zoo.get_or_train(CONFIG, emulator.sampling, emulator.training,
                            mode=emulator.mode)


def direct_matrix_emulator(zoo: GeniexZoo, conductances: np.ndarray):
    """The exact object the server predicts with, built in-process."""
    return trained(zoo).for_matrix(conductances)


def geniex_engine(zoo: GeniexZoo):
    return make_engine("geniex", CONFIG, FuncSimConfig(**SIM),
                       emulator=trained(zoo))


def random_g(seed):
    cfg = CONFIG
    return np.random.default_rng(seed).uniform(cfg.g_off_s, cfg.g_on_s,
                                               size=cfg.shape)


def random_v(seed, shape):
    return np.random.default_rng(seed).uniform(0.0, CONFIG.v_supply_v,
                                               size=shape)


class TestBasics:
    def test_health(self, client):
        assert client.health() == {"status": "ok"}

    def test_model_listed_after_load(self, client):
        models = client.models()
        assert len(models) == 1
        assert models[0]["rows"] == 4 and models[0]["cols"] == 4

    def test_load_model_is_idempotent(self, client):
        first = client.load_model(SPEC)
        second = client.load_model(SPEC)
        assert first == second

    def test_register_crossbar_is_deterministic(self, client):
        g = random_g(7)
        assert client.register_crossbar(SPEC, g) == \
            client.register_crossbar(SPEC, g)


class TestPredictionEquivalence:
    def test_single_vector_byte_identical(self, client, served):
        _, zoo = served
        g, v = random_g(1), random_v(2, 4)
        out = client.predict_currents(v, spec=SPEC, conductances=g)
        direct = direct_matrix_emulator(zoo, g).currents(v)[0]
        np.testing.assert_array_equal(out, direct)
        assert out.shape == (4,)

    def test_batch_request_byte_identical(self, client, served):
        _, zoo = served
        g, v = random_g(3), random_v(4, (6, 4))
        out = client.predict_currents(v, spec=SPEC, conductances=g)
        direct = direct_matrix_emulator(zoo, g).currents(v)
        np.testing.assert_array_equal(out, direct)

    def test_predict_fr_byte_identical(self, client, served):
        _, zoo = served
        g, v = random_g(5), random_v(6, (3, 4))
        key = client.register_crossbar(SPEC, g)
        out = client.predict_fr(v, crossbar_key=key)
        direct = direct_matrix_emulator(zoo, g).fr(v)
        np.testing.assert_array_equal(out, direct)

    def test_coalesced_concurrent_requests_byte_identical(self, served):
        """The acceptance property: microbatching must be invisible.

        32 threads fire single-vector requests at one crossbar; whatever
        way the scheduler coalesces them, every response must equal the
        direct single-request computation bit-for-bit.
        """
        handle, zoo = served
        g = random_g(8)
        voltages = random_v(9, (32, 4))
        with ServeClient("127.0.0.1", handle.port) as warmup:
            key = warmup.register_crossbar(SPEC, g)
        results = [None] * 32
        errors = []
        barrier = threading.Barrier(32)

        def worker(i):
            try:
                with ServeClient("127.0.0.1", handle.port) as c:
                    barrier.wait()
                    results[i] = c.predict_currents(voltages[i],
                                                    crossbar_key=key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        warm = direct_matrix_emulator(zoo, g)
        for i in range(32):
            direct = warm.currents(voltages[i])[0]
            np.testing.assert_array_equal(results[i], direct)

    def test_coalescing_actually_happened(self, client):
        """The previous test's traffic must have formed multi-row batches."""
        histogram = client.metrics()["microbatch"]["rows_histogram"]
        assert any(int(rows) > 1 for rows in histogram)


class TestMatmulEquivalence:
    def test_exact_engine_byte_identical(self, client, served):
        weights = np.random.default_rng(0).standard_normal((4, 4)) * 0.4
        x = np.random.default_rng(1).standard_normal((5, 4))
        y = client.matmul(x, spec=engine_spec("exact"), weights=weights)
        engine = make_engine("exact", CONFIG, FuncSimConfig(**SIM))
        direct = engine.matmul(x, engine.prepare(weights))
        np.testing.assert_array_equal(y, direct)

    def test_geniex_engine_via_weights_key(self, client, served):
        _, zoo = served
        weights = np.random.default_rng(2).standard_normal((4, 4)) * 0.4
        x = np.random.default_rng(3).standard_normal((3, 4))
        key = client.register_weights(engine_spec("geniex"), weights)
        y = client.matmul(x, weights_key=key)
        engine = geniex_engine(zoo)
        direct = engine.matmul(x, engine.prepare(weights))
        np.testing.assert_array_equal(y, direct)

    def test_coalesced_matmul_byte_identical(self, served):
        """Engine responses must also be coalescing-invariant."""
        handle, zoo = served
        weights = np.random.default_rng(4).standard_normal((4, 4)) * 0.4
        xs = np.random.default_rng(5).standard_normal((16, 4))
        with ServeClient("127.0.0.1", handle.port) as warmup:
            key = warmup.register_weights(engine_spec("geniex"), weights)
        results = [None] * 16
        errors = []
        barrier = threading.Barrier(16)

        def worker(i):
            try:
                with ServeClient("127.0.0.1", handle.port) as c:
                    barrier.wait()
                    results[i] = c.matmul(xs[i], weights_key=key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        engine = geniex_engine(zoo)
        prepared = engine.prepare(weights)
        for i in range(16):
            direct = engine.matmul(xs[i:i + 1], prepared)[0]
            np.testing.assert_array_equal(results[i], direct)

    def test_single_vector_matmul_shape(self, client):
        weights = np.eye(4) * 0.3
        y = client.matmul(np.ones(4) * 0.1, spec=engine_spec("exact"),
                          weights=weights)
        assert y.shape == (4,)


class TestErrorMapping:
    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/v1/nothing")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/v1/predict_currents")
        assert excinfo.value.status == 405

    def test_bad_json_400(self, client):
        conn = client._connection()
        conn.request("POST", "/v1/models", body="{nope",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        assert response.status == 400

    def test_unknown_crossbar_key_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.predict_currents(np.zeros(4), crossbar_key="xb-nope")
        assert excinfo.value.status == 404

    def test_unknown_weights_key_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.matmul(np.zeros(4), weights_key="eng-nope")
        assert excinfo.value.status == 404

    def test_wrong_voltage_width_400(self, client):
        key = client.register_crossbar(SPEC, random_g(11))
        with pytest.raises(ServerError) as excinfo:
            client.predict_currents(np.zeros(5), crossbar_key=key)
        assert excinfo.value.status == 400

    def test_bad_model_spec_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.load_model({"xbar": {"rows": -3}})
        assert excinfo.value.status == 400

    def test_oversized_request_line_drops_connection(self, served, client):
        """A >64 KiB request line must not crash the connection handler."""
        import socket
        handle, _ = served
        with socket.create_connection(("127.0.0.1", handle.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n")
            assert sock.recv(4096) == b""  # server closed, no traceback
        # The server keeps serving afterwards.
        assert client.health() == {"status": "ok"}

    def test_non_finite_voltages_400(self, client):
        key = client.register_crossbar(SPEC, random_g(11))
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/predict_currents",
                            {"crossbar_key": key,
                             "voltages": [0.1, None, 0.1, 0.1]})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("bad", [-0.01, 1.2])
    def test_out_of_range_voltage_400_names_range(self, client, bad):
        key = client.register_crossbar(SPEC, random_g(11))
        v = random_v(12, 4)
        v[2] = bad * CONFIG.v_supply_v
        with pytest.raises(ServerError) as excinfo:
            client.predict_currents(v, crossbar_key=key)
        assert excinfo.value.status == 400
        assert f"[0, {CONFIG.v_supply_v}] V" in excinfo.value.message

    def test_out_of_range_request_never_fails_its_batch(self, served):
        """Out-of-range requests are rejected before they are queued: the
        in-range requests sent at the same time on the same crossbar_key
        still get the in-process bytes."""
        handle, zoo = served
        g = random_g(13)
        good = random_v(14, (8, 4))
        bad = random_v(15, (8, 4))
        bad[:, 1] = 1.5 * CONFIG.v_supply_v
        with ServeClient("127.0.0.1", handle.port) as warmup:
            key = warmup.register_crossbar(SPEC, g)
        results, statuses = [None] * 8, [None] * 8
        barrier = threading.Barrier(16)

        def send_good(i):
            with ServeClient("127.0.0.1", handle.port) as c:
                barrier.wait()
                results[i] = c.predict_currents(good[i], crossbar_key=key)

        def send_bad(i):
            with ServeClient("127.0.0.1", handle.port) as c:
                barrier.wait()
                try:
                    c.predict_currents(bad[i], crossbar_key=key)
                except ServerError as exc:
                    statuses[i] = exc.status

        threads = [threading.Thread(target=fn, args=(i,))
                   for i in range(8) for fn in (send_good, send_bad)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert statuses == [400] * 8
        warm = direct_matrix_emulator(zoo, g)
        for i in range(8):
            assert results[i].tobytes() == warm.currents(good[i])[0].tobytes()


class TestBackpressure:
    def test_full_queue_maps_to_429(self, tmp_path, monkeypatch):
        """A saturated per-key queue rejects with 429 + Retry-After."""
        started, release = threading.Event(), threading.Event()
        predict = GeniexTileModel.currents

        def gated(self, voltages_v):
            started.set()
            assert release.wait(10), "gate never released"
            return predict(self, voltages_v)

        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        server = EmulationServer(ModelRegistry(zoo), max_batch_rows=8,
                                 max_queue_rows=8)
        with ServerThread(server) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.load_model(SPEC)
                g = random_g(1)
                key = client.register_crossbar(SPEC, g)
                monkeypatch.setattr(GeniexTileModel, "currents", gated)

                def send(rows, seed):
                    with ServeClient("127.0.0.1", handle.port) as c:
                        c.predict_currents(random_v(seed, (rows, 4)),
                                           crossbar_key=key)

                # One row holds the key busy; 6 rows queue behind it…
                senders = [threading.Thread(target=send, args=(1, 2))]
                senders[0].start()
                try:
                    assert started.wait(10)
                    senders.append(threading.Thread(target=send,
                                                    args=(6, 0)))
                    senders[1].start()
                    import time
                    deadline = time.monotonic() + 10
                    while server.scheduler.queue_rows < 6:
                        assert time.monotonic() < deadline
                        time.sleep(0.005)
                    # …so a 3-row probe must bounce: 6 + 3 > 8.
                    with pytest.raises(ServerBusyError) as excinfo:
                        client.predict_currents(random_v(1, (3, 4)),
                                                crossbar_key=key)
                    assert excinfo.value.status == 429
                finally:
                    release.set()
                    for sender in senders:
                        sender.join()


class TestIdleConnections:
    def test_silent_connection_is_reaped_and_client_recovers(self,
                                                             tmp_path):
        import socket
        import time
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        server = EmulationServer(ModelRegistry(zoo), idle_timeout_s=0.2)
        with ServerThread(server) as handle:
            # A client that connects and never sends anything must not pin
            # a handler forever.
            sock = socket.create_connection(("127.0.0.1", handle.port),
                                            timeout=10)
            assert sock.recv(4096) == b""  # closed by the idle timeout
            sock.close()
            # A keep-alive client whose connection was reaped while idle
            # reconnects transparently on the next request.
            with ServeClient("127.0.0.1", handle.port) as client:
                assert client.health() == {"status": "ok"}
                time.sleep(0.4)
                assert client.health() == {"status": "ok"}


class TestWeightsKeyEcho:
    def test_weights_key_lookup_reports_actual_engine(self, client):
        weights = np.eye(4) * 0.3
        first = client._request("POST", "/v1/weights",
                                {"spec": SPEC.evolve(
                                    engine="analytical").to_dict(),
                                 "weights": weights.tolist()})
        assert first["engine"] == "analytical"
        # Re-fetching by key (no engine field in the body) must report the
        # engine actually serving the key, not the request default.
        again = client._request("POST", "/v1/weights",
                                {"weights_key": first["weights_key"]})
        assert again["engine"] == "analytical"
        assert again["n_in"] == 4 and again["n_out"] == 4


class TestOversizedRequest:
    def test_request_larger_than_queue_is_400_not_429(self, tmp_path):
        """A request that can never fit must not tell the client to retry."""
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        server = EmulationServer(ModelRegistry(zoo), max_batch_rows=8,
                                 max_queue_rows=8)
        with ServerThread(server) as handle:
            with ServeClient("127.0.0.1", handle.port) as client:
                client.load_model(SPEC)
                key = client.register_crossbar(SPEC, random_g(1))
                with pytest.raises(ServerError) as excinfo:
                    client.predict_currents(random_v(0, (9, 4)),
                                            crossbar_key=key)
                assert excinfo.value.status == 400
                assert not isinstance(excinfo.value, ServerBusyError)


class TestMetricsEndpoint:
    def test_metrics_structure(self, client):
        snapshot = client.metrics()
        assert {"requests", "responses", "microbatch", "queue",
                "registry"} <= set(snapshot)
        micro = snapshot["microbatch"]
        assert micro["batches"] >= 1
        assert micro["rows"] >= micro["batches"]
        assert micro["mean_rows_per_batch"] > 0
        assert sum(micro["rows_histogram"].values()) == micro["batches"]
        registry = snapshot["registry"]
        assert registry["crossbars"]["hits"] > 0
        assert 0.0 <= registry["crossbars"]["hit_rate"] <= 1.0
        assert snapshot["queue"]["rows_peak"] >= 1


class TestDeclarativeSpec:
    """A client-submitted EmulationSpec JSON round-trips through the
    registry with cache hits keyed by the spec digest scheme."""

    def _spec(self, engine="exact"):
        return engine_spec(engine)

    def _weights(self, seed=0):
        return np.random.default_rng(seed).standard_normal((4, 4)) * 0.4

    def test_register_weights_round_trip_hits_warm_engine(self, client):
        espec, w = self._spec(), self._weights()
        key_first = client.register_weights(spec=espec, weights=w)
        before = client.metrics()["registry"]["engines"]["hits"]
        key_second = client.register_weights(spec=espec, weights=w)
        after = client.metrics()["registry"]["engines"]["hits"]
        assert key_first == key_second
        assert after >= before + 1

    def test_warm_key_is_spec_weights_key(self, client):
        """The wire key equals spec.weights_key under the server-side
        runtime policy — computable client-side without the server."""
        espec, w = self._spec(), self._weights(1)
        expected = ModelRegistry(GeniexZoo()).serving_spec(
            espec).weights_key(w)
        assert client.register_weights(spec=espec, weights=w) == expected

    def test_predict_currents_via_spec_byte_identical(self, client,
                                                      served):
        _, zoo = served
        g, v = random_g(21), random_v(22, (3, 4))
        out = client.predict_currents(v, spec=self._spec("geniex"),
                                      conductances=g)
        direct = direct_matrix_emulator(zoo, g).currents(v)
        np.testing.assert_array_equal(out, direct)

    def test_unknown_spec_field_is_http_400_with_path(self, client):
        with pytest.raises(ServerError) as err:
            client.matmul(np.zeros((1, 4)),
                          spec={"xbar": {"rowz": 4}},
                          weights=np.eye(4))
        assert err.value.status == 400
        assert "rowz" in err.value.message

    def test_conflicting_identity_arguments_rejected(self, client):
        """The spec is the client's one identity argument: no flat
        model=/engine=/sim= keyword rides along it."""
        espec, w = self._spec(), self._weights()
        with pytest.raises(TypeError):
            client.register_weights(espec, w, engine="analytical")
        with pytest.raises(TypeError):
            client.matmul(np.zeros((1, 4)), spec=espec, weights=w,
                          sim=SIM)
        with pytest.raises(TypeError):
            client.load_model(model={"rows": 4})
        with pytest.raises(ValueError, match="spec"):
            client.register_crossbar(None, random_g(1))

    def test_server_rejects_mixed_identity_fields(self, client):
        """A raw HTTP body naming a retired flat identity field next to
        its spec is a 400 naming "spec", not a 200 that ignored it."""
        espec = self._spec()
        body = {"spec": espec.to_dict(), "engine": "analytical",
                "weights": np.eye(4).tolist(), "x": [[0.1] * 4]}
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/matmul", body)
        assert err.value.status == 400
        assert "\"spec\"" in err.value.message

    def test_key_addressing_rejects_extra_identity(self, client):
        espec, w = self._spec(), self._weights()
        key = client.register_weights(spec=espec, weights=w)
        with pytest.raises(ValueError, match="weights_key= already"):
            client.matmul(np.zeros((1, 4)), weights_key=key, spec=espec)
        with pytest.raises(ValueError, match="crossbar_key= already"):
            client.predict_currents(np.zeros(4), crossbar_key="xb-x",
                                    spec=SPEC)

    def test_server_rejects_key_plus_identity_bodies(self, client):
        """Raw HTTP bodies combining a warm-object key with a spec are 400, not silently resolved by the key."""
        espec, w = self._spec(), self._weights()
        key = client.register_weights(spec=espec, weights=w)
        body = {"weights_key": key, "spec": espec.to_dict(),
                "x": [[0.1] * 4]}
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/matmul", body)
        assert err.value.status == 400
        assert "already names the warm object" in err.value.message

    def test_server_rejects_payload_alongside_key(self, client):
        """A weights array riding along weights_key would be silently
        discarded; the server refuses instead."""
        espec, w = self._spec(), self._weights()
        key = client.register_weights(spec=espec, weights=w)
        body = {"weights_key": key, "weights": (w * 2).tolist(),
                "x": [[0.1] * 4]}
        with pytest.raises(ServerError) as err:
            client._request("POST", "/v1/matmul", body)
        assert err.value.status == 400
        assert "weights" in err.value.message

    def test_client_rejects_payload_kwargs_alongside_keys(self, client):
        espec, w = self._spec(), self._weights()
        key = client.register_weights(spec=espec, weights=w)
        with pytest.raises(ValueError, match="weights_key= already"):
            client.matmul(np.zeros((1, 4)), weights_key=key, weights=w)
        with pytest.raises(ValueError, match="crossbar_key= already"):
            client.predict_currents(np.zeros(4), crossbar_key="xb-x",
                                    conductances=np.eye(4))

    def test_emulator_tier_rejects_non_geniex_specs(self, client):
        """/v1/predict_* serve the trained GENIEx model; a spec naming
        another engine is 400, not silently trained as geniex."""
        with pytest.raises(ServerError) as err:
            client.predict_currents(np.zeros(4),
                                    spec=self._spec("analytical"),
                                    conductances=random_g(5))
        assert err.value.status == 400
        assert "analytical" in err.value.message
