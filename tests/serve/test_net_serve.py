"""Model-level serving: upload → compile → cached program → microbatched
inference.

Boots one real server (random port, background thread) and drives the
``/v1/nets`` + ``/v1/net_predict`` endpoints through
:class:`repro.serve.client.ServeClient`. The core acceptance criterion
is **byte-identity**: logits from the server — where the scheduler
coalesces concurrent requests into one stacked forward pass per layer —
must equal a direct in-process ``convert_to_mvm`` forward bit-for-bit,
for every engine kind and with active non-idealities.
"""

import asyncio
import concurrent.futures
import errno
import http.client
import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import EmulationSpec, get_preset
from repro.api.session import build_engine, resolve_emulator
from repro.core.zoo import GeniexZoo
from repro.funcsim.convert import convert_to_mvm
from repro.models.mlp import MLP
from repro.nn.serialization import net_digest, net_to_wire
from repro.nn.tensor import Tensor, no_grad
from repro.serve.client import ServeClient, ServerError
from repro.serve.registry import ModelRegistry
from repro.serve.server import EmulationServer, ServerThread

TINY_GENIEX = EmulationSpec.from_dict({
    "engine": "geniex",
    "xbar": {"rows": 4, "cols": 4},
    "emulator": {"sampling": {"n_g_matrices": 3, "n_v_per_g": 4,
                              "seed": 0},
                 "training": {"hidden": 8, "epochs": 2, "batch_size": 8,
                              "seed": 0}},
})
FAULTS = {"seed": 5, "variation": {"sigma": 0.2},
          "stuck": {"p_on": 0.05, "p_off": 0.05}}

N_IN, N_OUT = 6, 3


def tiny_mlp(seed: int = 3) -> MLP:
    return MLP([N_IN, 8, N_OUT], seed=seed)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    registry = ModelRegistry(zoo)
    server = EmulationServer(registry, max_batch_rows=32)
    with ServerThread(server) as handle:
        yield handle, registry, zoo


@pytest.fixture
def client(served):
    handle, _, _ = served
    with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
        yield c


def local_logits(registry: ModelRegistry, zoo: GeniexZoo,
                 spec: EmulationSpec, model, x: np.ndarray) -> np.ndarray:
    """The reference: direct in-process inference under the *server's*
    runtime policy (``serving_spec``), sharing the server's zoo so a
    geniex emulator resolves to the identical trained artifact."""
    sspec = registry.serving_spec(spec)
    emulator = resolve_emulator(sspec, zoo=zoo) \
        if sspec.engine == "geniex" else None
    engine = build_engine(sspec, emulator=emulator)
    try:
        converted = convert_to_mvm(model, engine)
        with no_grad():
            return converted(Tensor(np.asarray(x, dtype=np.float64))) \
                .data.astype(np.float64)
    finally:
        engine.close()


def restore_with_runtime_field(served, client, seed, field, value):
    """Re-store an uploaded program with a removed runtime ``field`` in
    its spec, then assert a fresh registry serves its key unchanged."""
    _, _, zoo = served
    model = tiny_mlp(seed=seed)
    spec = EmulationSpec.from_dict({"engine": "analytical"})
    key = client.upload_net(model, spec=spec)["net_key"]
    x = np.random.default_rng(5).standard_normal((3, N_IN))
    warm_logits = client.net_predict(x, net_key=key)
    wire, meta = zoo.load_net_program(key)
    for entry in wire["layers"]:
        entry["state"] = {name: np.array(value)
                          for name, value in entry.get("state",
                                                       {}).items()}
    assert field not in meta["spec"]["runtime"]
    meta["spec"]["runtime"][field] = value
    os.remove(zoo._net_path(key))  # the first writer wins otherwise
    zoo.save_net_program(key, wire, meta)

    cold = EmulationServer(ModelRegistry(GeniexZoo(
        cache_dir=zoo.cache_dir)))
    with ServerThread(cold) as handle2:
        with ServeClient("127.0.0.1", handle2.port, timeout=300) as c2:
            cold_logits = c2.net_predict(x, net_key=key)
    np.testing.assert_array_equal(cold_logits, warm_logits)


class TestUploadAndCompile:
    def test_upload_reports_program_shape(self, client):
        resp = client.upload_net(tiny_mlp(), spec=EmulationSpec.from_dict(
            {"engine": "exact"}))
        assert resp["net_key"].startswith("netprog-")
        assert resp["engine"] == "exact"
        assert resp["n_in"] == N_IN
        assert resp["n_mvm_layers"] == 2
        assert resp["n_layers"] == 3          # linear, relu, linear
        assert resp["compile_seconds"] >= 0.0

    def test_reupload_is_a_cache_hit(self, client):
        spec = EmulationSpec.from_dict({"engine": "exact"})
        first = client.upload_net(tiny_mlp(), spec=spec)
        again = client.upload_net(tiny_mlp(), spec=spec)
        assert again["net_key"] == first["net_key"]
        assert again["from_cache"] is True

    def test_different_weights_get_different_keys(self, client):
        spec = EmulationSpec.from_dict({"engine": "exact"})
        a = client.upload_net(tiny_mlp(seed=3), spec=spec)
        b = client.upload_net(tiny_mlp(seed=4), spec=spec)
        assert a["net_key"] != b["net_key"]

    def test_different_spec_gets_different_key(self, client):
        model = tiny_mlp()
        a = client.upload_net(model, spec=EmulationSpec.from_dict(
            {"engine": "exact"}))
        b = client.upload_net(model, spec=EmulationSpec.from_dict(
            {"engine": "analytical"}))
        assert a["net_key"] != b["net_key"]


class TestByteIdentity:
    @pytest.mark.parametrize("spec", [
        EmulationSpec.from_dict({"engine": "exact"}),
        EmulationSpec.from_dict({"engine": "analytical"}),
        TINY_GENIEX,
        TINY_GENIEX.evolve(nonideality=FAULTS),
    ], ids=["exact", "analytical", "geniex", "geniex-nonideal"])
    def test_server_logits_match_local_inference(self, served, client,
                                                 spec):
        _, registry, zoo = served
        model = tiny_mlp()
        rng = np.random.default_rng(11)
        x = rng.standard_normal((7, N_IN))
        key = client.upload_net(model, spec=spec)["net_key"]
        got = client.net_predict(x, net_key=key)
        ref = local_logits(registry, zoo, spec, model, x)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("spec", [
        EmulationSpec.from_dict({"engine": "exact",
                                 "xbar": {"rows": 4, "cols": 4}}),
        TINY_GENIEX,
    ], ids=["exact", "geniex"])
    def test_tile_row_ranges_match_batched_forward(self, served, client,
                                                   spec):
        """Every layer spans three 4-row tile-rows, and the input's second
        tile-row block is all zero. Served logits at batch 1, 2 and 40
        equal the rows of one in-process 40-row forward byte for byte,
        whether a layer ran its tile-rows as one shard or one each."""
        _, registry, zoo = served
        model = MLP([12, 12, N_OUT], seed=5)
        x = np.random.default_rng(17).standard_normal((40, 12))
        x[:, 4:8] = 0.0
        key = client.upload_net(model, spec=spec)["net_key"]
        ref = local_logits(registry, zoo, spec, model, x)
        for batch in (1, 2, 40):
            got = client.net_predict(x[:batch], net_key=key)
            assert got.tobytes() == ref[:batch].tobytes(), f"batch={batch}"

    def test_concurrent_requests_coalesce_and_stay_byte_identical(
            self, served, client):
        """Eight concurrent clients hit one net; the scheduler stacks
        their rows into shared per-layer batches, and every response
        still equals the sequential reference bit-for-bit."""
        handle, registry, zoo = served
        model = tiny_mlp(seed=9)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        rng = np.random.default_rng(5)
        batches = [rng.standard_normal((3, N_IN)) for _ in range(8)]
        refs = [local_logits(registry, zoo, spec, model, x)
                for x in batches]

        before = client.metrics()["net"]
        def one(i):
            with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
                return c.net_predict(batches[i], net_key=key)
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            outs = list(pool.map(one, range(8)))
        for got, ref in zip(outs, refs):
            np.testing.assert_array_equal(got, ref)
        after = client.metrics()["net"]
        execs = after["layer_executions"] - before["layer_executions"]
        # 8 requests x 2 MVM layers each would be 16 executions run
        # sequentially; coalescing must do strictly better, i.e. the
        # mean rows per layer execution exceeds one request's 3 rows.
        assert execs < 16
        mean_rows = 8 * 3 * 2 / execs
        assert mean_rows > 3.0, \
            f"no cross-request coalescing (mean layer rows {mean_rows})"

    def test_streaming_equals_plain(self, served, client):
        _, registry, zoo = served
        model = tiny_mlp(seed=7)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        x = np.random.default_rng(2).standard_normal((10, N_IN))
        plain = client.net_predict(x, net_key=key)
        streamed = client.net_predict(x, net_key=key, stream=True,
                                      chunk_rows=3)
        np.testing.assert_array_equal(streamed, plain)
        ref = local_logits(registry, zoo, spec, model, x)
        np.testing.assert_array_equal(plain, ref)

    def test_streamed_request_is_traced_to_its_last_byte(self, client,
                                                          monkeypatch):
        """Latency, rows and queue spans cover the whole stream, not just
        the creation of the stream object."""
        batch_fn = EmulationServer._net_batch_fn

        def slow(self, warm):
            run = batch_fn(self, warm)

            def sleepy(stacked):
                time.sleep(0.2)
                return run(stacked)
            return sleepy

        monkeypatch.setattr(EmulationServer, "_net_batch_fn", slow)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(tiny_mlp(seed=9), spec=spec)["net_key"]
        x = np.random.default_rng(4).standard_normal((9, N_IN))
        client.net_predict(x, net_key=key, stream=True, chunk_rows=3)
        trace = [t for t in client.traces()
                 if t["name"] == "POST /v1/net_predict"][-1]
        assert trace["meta"]["duration_ms"] >= 600
        assert trace["meta"]["rows"] == 9
        (http,) = trace["spans"]
        assert http["name"] == "http"
        waits = [c for c in http.get("children", [])
                 if c["name"] == "queue-wait"]
        assert len(waits) >= 3

    def test_single_row_round_trip(self, client):
        model = tiny_mlp()
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        x = np.random.default_rng(3).standard_normal(N_IN)
        y = client.net_predict(x, net_key=key)
        assert y.shape == (N_OUT,)


class TestDiskPersistence:
    def test_cold_registry_serves_learned_key_from_the_zoo(self, served,
                                                           client):
        """A fresh server process over the same artifact store resolves a
        ``net_key`` it never compiled — the fleet's cold-worker path —
        and answers byte-identically."""
        _, registry, zoo = served
        model = tiny_mlp(seed=13)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(model, spec=spec)["net_key"]
        x = np.random.default_rng(4).standard_normal((4, N_IN))
        warm_logits = client.net_predict(x, net_key=key)

        cold = EmulationServer(ModelRegistry(GeniexZoo(
            cache_dir=zoo.cache_dir)))
        with ServerThread(cold) as handle2:
            with ServeClient("127.0.0.1", handle2.port,
                             timeout=300) as c2:
                cold_logits = c2.net_predict(x, net_key=key)
                # And a re-upload there is a disk hit, not a recompile.
                again = c2.upload_net(model, spec=spec)
        np.testing.assert_array_equal(cold_logits, warm_logits)
        assert again["from_cache"] is True

    def test_program_stored_with_runtime_flag_still_serves(self, served,
                                                            client):
        """A program saved while batch invariance was a runtime flag
        stores ``runtime.batch_invariant`` in its spec; its key never
        moved, so a fresh registry must load and serve it."""
        restore_with_runtime_field(served, client, 17,
                                   "batch_invariant", False)

    def test_program_stored_with_fleet_node_still_serves(self, served,
                                                          client):
        """Every program saved while the fleet had a routing node stores
        ``runtime.fleet``; no runtime field enters its key, so a fresh
        registry must load and serve it."""
        restore_with_runtime_field(served, client, 18,
                                   "fleet", {"replication": 1})

    def test_program_naming_a_removed_kind_is_400(self, served, client):
        """A stored program whose spec names the removed ``decoupled``
        kind fails its compile with the unknown-engine 400 on a fresh
        registry, never a 500, and the server keeps serving."""
        _, _, zoo = served
        key = client.upload_net(tiny_mlp(seed=19), spec=EmulationSpec(
            engine="exact"))["net_key"]
        wire, meta = zoo.load_net_program(key)
        meta["spec"]["engine"] = "decoupled"
        os.remove(zoo._net_path(key))  # the first writer wins otherwise
        zoo.save_net_program(key, wire, meta)

        cold = EmulationServer(ModelRegistry(GeniexZoo(
            cache_dir=zoo.cache_dir)))
        with ServerThread(cold) as handle2:
            with ServeClient("127.0.0.1", handle2.port,
                             timeout=300) as c2:
                with pytest.raises(ServerError) as excinfo:
                    c2.net_predict(np.ones(N_IN), net_key=key)
                assert c2.health() == {"status": "ok"}
        assert excinfo.value.status == 400
        assert "unknown engine kind 'decoupled'" in str(excinfo.value)

    def test_reupload_repairs_a_corrupt_artifact(self, tmp_path):
        """A garbage ``netprog-*.npz`` (a torn write, a flipped sector)
        is no disk hit: the upload compiles, rewrites the file and
        reports ``compiled``."""
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        registry = ModelRegistry(zoo)
        model = tiny_mlp(seed=23)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = registry.net_key(net_digest(net_to_wire(model)), spec)
        os.makedirs(zoo.cache_dir)
        with open(zoo._net_path(key), "wb") as handle:
            handle.write(b"not a zip archive")
        with ServerThread(EmulationServer(registry)) as handle:
            with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
                up = c.upload_net(model, spec=spec)
                text = c.prometheus_metrics()
        assert up["net_key"] == key
        assert up["from_cache"] is False
        assert 'repro_net_uploads_total{outcome="compiled"} 1' in text
        assert 'outcome="disk_hit"' not in text
        loaded = zoo.load_net_program(key)
        assert loaded is not None, "the corrupt artifact was not rewritten"
        assert net_digest(loaded[0]) == net_digest(net_to_wire(model))

    def test_unknown_net_key_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.net_predict(np.ones(4), net_key="netprog-deadbeef")
        assert excinfo.value.status == 404
        assert "netprog-deadbeef" in str(excinfo.value)


def full_disk(handle, **arrays):
    """``np.savez`` on a disk that fills up mid-write."""
    handle.write(b"PK\x03\x04 partial archive")
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def raw_post(port: int, path: str, payload: dict) -> tuple:
    """``(status, headers, body)`` of one POST; the client hides headers."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        conn.request("POST", path, json.dumps(payload),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        return (response.status, dict(response.getheaders()),
                json.loads(response.read()))
    finally:
        conn.close()


class TestFullDiskDrill:
    """A full disk on any zoo write answers 507 with ``Retry-After``,
    caches nothing and leaves no file; once space returns, the retry
    answers the same key."""

    def drill(self, tmp_path, monkeypatch, path, payload, tier, prefix):
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        registry = ModelRegistry(zoo)

        def leftovers():
            if not os.path.isdir(zoo.cache_dir):
                return []
            return sorted(name for name in os.listdir(zoo.cache_dir)
                          if name.endswith(".npz"))

        with ServerThread(EmulationServer(registry)) as handle:
            with monkeypatch.context() as patch:
                patch.setattr(np, "savez", full_disk)
                status, headers, body = raw_post(handle.port, path, payload)
            assert status == 507
            assert headers["Retry-After"] == "30"
            assert body["error"].startswith(
                f"[Errno 28] No space left on device: cannot write {prefix}")
            assert registry.stats()[tier]["size"] == 0
            assert leftovers() == []
            status, _, first = raw_post(handle.port, path, payload)
            assert status == 200
            _, _, again = raw_post(handle.port, path, payload)
        assert [name.startswith(prefix) for name in leftovers()] == [True]
        return first, again

    def test_enospc_during_emulator_write(self, tmp_path, monkeypatch):
        first, again = self.drill(
            tmp_path, monkeypatch, "/v1/models",
            {"spec": TINY_GENIEX.to_dict()}, "models", "geniex-")
        assert first["model_key"] == again["model_key"] == \
            TINY_GENIEX.model_key()

    def test_enospc_during_mitigated_write(self, tmp_path, monkeypatch):
        payload = {"spec": get_preset("quick-mitigated").to_dict(),
                   "dataset": {"name": "blobs", "n_train": 256,
                               "n_test": 128}}
        first, again = self.drill(tmp_path, monkeypatch, "/v1/mitigate",
                                  payload, "mitigated", "mitigated-")
        assert first["mitigated_key"] == again["mitigated_key"]
        assert first["from_cache"] is False

    def test_enospc_during_program_write(self, tmp_path, monkeypatch):
        """A full disk while ``POST /v1/nets`` persists the program is a
        507 naming the OS error and the file; nothing is cached or left
        on disk, and once space returns the same upload compiles,
        persists and gets the same ``net_key``."""
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        registry = ModelRegistry(zoo)
        model = tiny_mlp(seed=19)
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = registry.net_key(net_digest(net_to_wire(model)), spec)
        real_savez = np.savez

        def leftovers():
            if not os.path.isdir(zoo.cache_dir):
                return []
            return sorted(name for name in os.listdir(zoo.cache_dir)
                          if name.startswith(".tmp-")
                          or (name.startswith("netprog-")
                              and name.endswith(".npz")))

        with ServerThread(EmulationServer(registry)) as handle:
            with ServeClient("127.0.0.1", handle.port, timeout=300) as c:
                monkeypatch.setattr(np, "savez", full_disk)
                with pytest.raises(ServerError) as excinfo:
                    c.upload_net(model, spec=spec)
                assert excinfo.value.status == 507
                assert excinfo.value.message == \
                    "[Errno 28] No space left on device: cannot write " \
                    f"{key}.npz"
                assert registry.stats()["nets"]["size"] == 0
                assert leftovers() == []

                monkeypatch.setattr(np, "savez", real_savez)
                up = c.upload_net(model, spec=spec)
                x = np.random.default_rng(6).standard_normal((2, N_IN))
                served_logits = c.net_predict(x, net_key=up["net_key"])
        assert up["from_cache"] is False
        assert up["net_key"] == key
        assert leftovers() == [f"{up['net_key']}.npz"]
        np.testing.assert_array_equal(
            served_logits, local_logits(registry, zoo, spec, model, x))


class TestProtocolErrors:
    def test_wrong_feature_count_is_400(self, client):
        key = client.upload_net(tiny_mlp(), spec=EmulationSpec.from_dict(
            {"engine": "exact"}))["net_key"]
        with pytest.raises(ServerError) as excinfo:
            client.net_predict(np.ones(N_IN + 1), net_key=key)
        assert excinfo.value.status == 400

    def test_malformed_wire_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/nets", {
                "spec": {"engine": "exact"},
                "net": {"format": "repro-net/1", "layers": [
                    {"kind": "warp-drive", "config": {}}]}})
        assert excinfo.value.status == 400
        assert "warp-drive" in str(excinfo.value)

    def test_net_predict_rejects_inline_net(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/net_predict", {
                "net_key": "netprog-x", "net": {"format": "repro-net/1"},
                "x": [1.0]})
        assert excinfo.value.status == 400

    def test_upload_requires_net(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/v1/nets",
                            {"spec": {"engine": "exact"}})
        assert excinfo.value.status == 400

    def test_removed_fleet_node_is_400(self, client):
        """``runtime.fleet`` is gone: a ``/v1/nets`` spec naming it gets
        the unknown-field 400."""
        with pytest.raises(ServerError) as excinfo:
            client.upload_net(tiny_mlp(), spec={
                "engine": "exact", "runtime": {"fleet": {"replication": 2}}})
        assert excinfo.value.status == 400
        assert "unknown spec field spec.runtime.'fleet'" in \
            str(excinfo.value)

    def test_removed_engine_kind_is_400(self, client):
        """``decoupled`` is no longer an engine kind: a spec naming it
        gets the unknown-engine 400."""
        calls = [
            lambda: client.upload_net(tiny_mlp(),
                                      spec={"engine": "decoupled"}),
            lambda: client.register_weights(spec={"engine": "decoupled"},
                                            weights=np.eye(4)),
        ]
        for call in calls:
            with pytest.raises(ServerError) as excinfo:
                call()
            assert excinfo.value.status == 400
            assert "unknown engine" in str(excinfo.value)
            assert "'decoupled'" in str(excinfo.value)


class TestNetMetrics:
    def test_snapshot_and_prometheus_expose_net_families(self, client):
        spec = EmulationSpec.from_dict({"engine": "exact"})
        key = client.upload_net(tiny_mlp(), spec=spec)["net_key"]
        client.net_predict(np.ones((2, N_IN)), net_key=key)
        snap = client.metrics()["net"]
        assert snap["requests"] >= 1
        assert snap["rows"] >= 2
        assert snap["layer_executions"] >= 2
        assert snap["mean_layer_rows"] > 0
        text = client.prometheus_metrics()
        for family in ("repro_net_uploads_total",
                       "repro_net_predict_requests_total",
                       "repro_net_predict_rows_total",
                       "repro_net_compile_seconds",
                       "repro_net_layer_executions_total",
                       "repro_net_layer_rows"):
            assert family in text, f"{family} missing from exposition"


class TestIdempotentRetryPath:
    """``predict_fr``/``predict_currents`` ride the shared ``_request``
    retry: a keep-alive connection reaped by the server's idle timeout
    reconnects and re-sends transparently (the one provably-safe retry),
    and the re-sent request still answers correctly."""

    def test_predicts_survive_idle_reaped_connection(self, tmp_path):
        import time
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        server = EmulationServer(ModelRegistry(zoo), idle_timeout_s=0.2)
        spec = EmulationSpec.from_dict({
            "xbar": {"rows": 4, "cols": 4},
            "emulator": {"sampling": {"n_g_matrices": 3, "n_v_per_g": 4,
                                      "seed": 0},
                         "training": {"hidden": 8, "epochs": 2,
                                      "batch_size": 8, "seed": 0}}})
        rng = np.random.default_rng(0)
        g = rng.uniform(1.7e-6, 1e-5, size=(4, 4))
        v = rng.uniform(0.0, 0.25, size=(2, 4))
        with ServerThread(server) as handle:
            with ServeClient("127.0.0.1", handle.port,
                             timeout=300) as client:
                key = client.register_crossbar(spec, g)
                fr_before = client.predict_fr(v, crossbar_key=key)
                cur_before = client.predict_currents(v, crossbar_key=key)
                time.sleep(0.5)   # server reaps the idle keep-alive
                # Same client object: the first re-send hits the dead
                # socket and must retry on a fresh connection.
                fr_after = client.predict_fr(v, crossbar_key=key)
                time.sleep(0.5)
                cur_after = client.predict_currents(v, crossbar_key=key)
        np.testing.assert_array_equal(fr_after, fr_before)
        np.testing.assert_array_equal(cur_after, cur_before)


class TestClientDropsMidStream:
    """A client that closes after the first NDJSON chunk: the server
    closes the stream generator, its in-flight count returns to 0 (so a
    drain returns at once), and the key keeps serving the same bytes."""

    def test_stream_closed_and_key_keeps_serving(self, tmp_path,
                                                 monkeypatch):
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo"))
        server = EmulationServer(ModelRegistry(zoo))
        spec = EmulationSpec.from_dict({"engine": "exact"})
        x = np.random.default_rng(6).standard_normal((9, N_IN))
        flushes = []
        closed = threading.Event()
        batch_fn = EmulationServer._net_batch_fn
        net_stream = EmulationServer._net_stream

        def slow(self, warm):
            run = batch_fn(self, warm)

            def sleepy(stacked):
                flushes.append(stacked.shape[0])
                time.sleep(0.05)
                return run(stacked)
            return sleepy

        async def tracked(self, *args):
            try:
                async for item in net_stream(self, *args):
                    yield item
            finally:
                closed.set()

        with ServerThread(server) as handle:
            with ServeClient("127.0.0.1", handle.port,
                             timeout=300) as client:
                key = client.upload_net(tiny_mlp(seed=5),
                                        spec=spec)["net_key"]
                before = client.net_predict(x, net_key=key)
            monkeypatch.setattr(EmulationServer, "_net_batch_fn", slow)
            monkeypatch.setattr(EmulationServer, "_net_stream", tracked)
            body = json.dumps({"net_key": key, "x": x.tolist(),
                               "stream": True, "chunk_rows": 1}).encode()
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=10) as sock:
                sock.sendall(b"POST /v1/net_predict HTTP/1.1\r\n"
                             b"Content-Length: %d\r\n\r\n" % len(body)
                             + body)
                seen = b""
                while b'"chunk": 0' not in seen:
                    part = sock.recv(65536)
                    assert part, "server closed before the first chunk"
                    seen += part
            assert closed.wait(10), "stream generator was never closed"
            deadline = time.monotonic() + 10
            while server._inflight:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert len(flushes) < 9, "the stream ran on for nobody"
            monkeypatch.setattr(EmulationServer, "_net_batch_fn", batch_fn)
            monkeypatch.setattr(EmulationServer, "_net_stream", net_stream)
            with ServeClient("127.0.0.1", handle.port,
                             timeout=300) as client:
                after = client.net_predict(x, net_key=key)
            assert after.tobytes() == before.tobytes()
            t0 = time.monotonic()
            asyncio.run_coroutine_threadsafe(
                server.drain(grace_s=30), handle._loop).result(timeout=10)
            assert time.monotonic() - t0 < 1.0
