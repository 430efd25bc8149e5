"""Unit tests for the hash ring, routing-key resolution and quotas."""

import pytest

from repro.api import EmulationSpec, FleetSpec, RuntimeSpec
from repro.errors import ConfigError
from repro.fleet.ring import HashRing
from repro.fleet.routing import (
    ROUTED_ENDPOINTS,
    TokenBucket,
    fallback_key,
    requested_replication,
    routing_key,
)

MODEL = {
    "rows": 4, "cols": 4,
    "sampling": {"n_g_matrices": 3, "n_v_per_g": 4, "seed": 0},
    "training": {"hidden": 8, "epochs": 2, "batch_size": 8, "seed": 0},
}


class TestHashRing:
    def test_lookup_deterministic(self):
        a, b = HashRing(32), HashRing(32)
        for member in ("w0", "w1", "w2"):
            a.add(member)
            b.add(member)
        keys = [f"key-{i}" for i in range(50)]
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]

    def test_all_members_receive_keys(self):
        ring = HashRing(64)
        for member in ("w0", "w1", "w2", "w3"):
            ring.add(member)
        owners = {ring.lookup(f"key-{i}")[0] for i in range(200)}
        assert owners == {"w0", "w1", "w2", "w3"}

    def test_removal_remaps_only_the_dead_members_slice(self):
        ring = HashRing(64)
        for member in ("w0", "w1", "w2"):
            ring.add(member)
        keys = [f"key-{i}" for i in range(300)]
        before = {k: ring.lookup(k)[0] for k in keys}
        ring.remove("w1")
        for key, owner in before.items():
            if owner != "w1":
                # Consistent hashing: survivors keep their keys.
                assert ring.lookup(key)[0] == owner
            else:
                assert ring.lookup(key)[0] in ("w0", "w2")

    def test_replica_lookup_returns_distinct_members(self):
        ring = HashRing(64)
        for member in ("w0", "w1", "w2"):
            ring.add(member)
        for i in range(50):
            replicas = ring.lookup(f"key-{i}", 2)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2
        # n beyond the member count is capped, not an error.
        assert sorted(ring.lookup("k", 10)) == ["w0", "w1", "w2"]

    def test_empty_ring_and_idempotent_membership(self):
        ring = HashRing(8)
        assert ring.lookup("anything") == []
        ring.add("w0")
        ring.add("w0")
        assert len(ring) == 1 and ring.describe()["points"] == 8
        ring.remove("missing")
        ring.remove("w0")
        ring.remove("w0")
        assert len(ring) == 0 and ring.lookup("anything") == []

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)


class TestRoutingKey:
    def test_spec_body_routes_by_model_key(self):
        spec = EmulationSpec()
        kind, key = routing_key({"spec": spec.to_dict(), "x": [1.0]})
        assert kind == "model" and key == spec.model_key()

    def test_flat_model_body_routes_by_model_key(self):
        kind, key = routing_key({"model": MODEL, "voltages": [0.1] * 4})
        assert kind == "model" and len(key) > 8

    def test_runtime_policy_does_not_change_the_route(self):
        base = EmulationSpec()
        tuned = EmulationSpec(runtime=RuntimeSpec(
            workers=4, chunk_rows=16,
            fleet=FleetSpec(replication=2)))
        assert routing_key({"spec": base.to_dict()}) \
            == routing_key({"spec": tuned.to_dict()})

    def test_key_addressed_bodies_are_derived(self):
        for field in ("crossbar_key", "weights_key", "mitigated_key"):
            kind, key = routing_key({field: "abc123", "x": [1.0]})
            assert kind == "derived" and key == "abc123"

    def test_malformed_identity_raises_for_caller_fallback(self):
        with pytest.raises(Exception):
            routing_key({"spec": {"engine": "no-such-engine"}})
        with pytest.raises(Exception):
            routing_key({"voltages": [0.1]})

    def test_fallback_key_deterministic(self):
        assert fallback_key("abc") == fallback_key(b"abc")
        assert fallback_key("abc") != fallback_key("abd")
        assert fallback_key("abc").startswith("fb-")

    def test_routed_endpoints_cover_the_wire_protocol(self):
        assert set(ROUTED_ENDPOINTS) == {
            "/v1/models", "/v1/crossbars", "/v1/predict_fr",
            "/v1/predict_currents", "/v1/weights", "/v1/matmul",
            "/v1/mitigate", "/v1/mitigated_predict", "/v1/nets",
            "/v1/net_predict"}

    def test_net_key_routes_as_derived(self):
        kind, key = routing_key({"net_key": "netprog-abc", "x": [1.0]})
        assert kind == "derived" and key == "netprog-abc"


class TestRequestedReplication:
    def test_well_formed(self):
        body = {"spec": {"runtime": {"fleet": {"replication": 3}}}}
        assert requested_replication(body) == 3

    @pytest.mark.parametrize("body", [
        {},
        {"spec": None},
        {"spec": {"runtime": None}},
        {"spec": {"runtime": {"fleet": "nope"}}},
        {"spec": {"runtime": {"fleet": {"replication": 0}}}},
        {"spec": {"runtime": {"fleet": {"replication": "two"}}}},
        {"spec": {"runtime": {"fleet": {"replication": True}}}},
    ])
    def test_lenient_on_anything_else(self, body):
        assert requested_replication(body) is None


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.admit(0.0)
        assert bucket.admit(0.0)
        assert not bucket.admit(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.admit(0.0) and bucket.admit(0.0)
        assert not bucket.admit(0.1)
        assert bucket.admit(0.6)   # 0.5s * 2/s = 1 token refilled
        assert not bucket.admit(0.6)

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=10.0, burst=1.0, now=0.0)
        assert bucket.admit(100.0)
        assert not bucket.admit(100.0)


class TestFleetSpec:
    def test_digest_neutral(self):
        base = EmulationSpec()
        replicated = EmulationSpec(runtime=RuntimeSpec(
            fleet=FleetSpec(replication=4)))
        assert base.model_key() == replicated.model_key()
        assert base.key() == replicated.key()

    def test_round_trips_through_dict(self):
        spec = EmulationSpec.from_dict(
            {"runtime": {"fleet": {"replication": 2}}})
        assert spec.runtime.fleet.replication == 2
        assert EmulationSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ConfigError):
            FleetSpec(replication=0)
        with pytest.raises(ConfigError):
            EmulationSpec.from_dict(
                {"runtime": {"fleet": {"replication": -1}}})
        with pytest.raises(ConfigError):
            EmulationSpec.from_dict(
                {"runtime": {"fleet": {"bogus": 1}}})
