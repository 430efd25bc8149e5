"""Unit tests for least-loaded routing, key pins and quotas."""

import asyncio

import pytest

from repro.fleet.frontend import FleetFrontend
from repro.fleet.routing import (
    KEYED_ENDPOINTS,
    PIN_FIELDS,
    ROUTED_ENDPOINTS,
    TokenBucket,
    pinned_key,
)


class TestRoutingKey:
    def test_routed_endpoints_cover_the_wire_protocol(self):
        assert set(ROUTED_ENDPOINTS) == {
            "/v1/models", "/v1/crossbars", "/v1/predict_fr",
            "/v1/predict_currents", "/v1/weights", "/v1/matmul",
            "/v1/mitigate", "/v1/mitigated_predict", "/v1/nets",
            "/v1/net_predict"}


class TestPinnedKey:
    def test_key_addressed_bodies_are_pinned(self):
        for field in ("crossbar_key", "weights_key", "mitigated_key"):
            assert pinned_key({field: "abc123", "x": [1.0]}, field) \
                == "abc123"

    def test_net_key_is_not_pinned(self):
        # Any worker rebuilds a compiled net from the shared zoo.
        assert "/v1/net_predict" not in KEYED_ENDPOINTS
        assert "net_key" not in PIN_FIELDS.values()

    @pytest.mark.parametrize("body", [
        None, [], "abc", {}, {"weights_key": ""}, {"weights_key": 7},
        {"spec": {"xbar": {"rows": 4}}, "weights": [[1.0]]},
    ])
    def test_malformed_or_model_bodies_are_not_pinned(self, body):
        assert pinned_key(body, "weights_key") is None

    def test_every_keyed_field_has_a_registration_endpoint(self):
        assert set(KEYED_ENDPOINTS.values()) == set(PIN_FIELDS.values())
        assert set(KEYED_ENDPOINTS) | set(PIN_FIELDS) \
            <= set(ROUTED_ENDPOINTS)


def pool(*wids):
    """A front-end with registered (unreachable) workers, no loop."""
    frontend = FleetFrontend()
    for port, wid in enumerate(wids, start=1):
        frontend.add_worker(wid, "127.0.0.1", port)
    return frontend


class TestLeastLoaded:
    def test_ties_rotate_over_the_pool(self):
        # A lone sequential client (nothing in flight) alternates.
        frontend = pool("w0", "w1", "w2")
        chosen = [frontend._choose(None, set()).wid for _ in range(4)]
        assert chosen == ["w0", "w1", "w2", "w0"]

    def test_fewest_inflight_wins(self):
        frontend = pool("w0", "w1", "w2")
        frontend.workers["w0"].inflight = 2
        frontend.workers["w1"].inflight = 1
        frontend.workers["w2"].inflight = 1
        assert frontend._choose(None, set()).wid == "w1"

    def test_every_live_worker_takes_concurrent_load(self):
        frontend = pool("w0", "w1", "w2", "w3")
        chosen = []
        for _ in range(4):   # four requests in flight at once
            worker = frontend._choose(None, set())
            worker.inflight += 1
            chosen.append(worker.wid)
        assert chosen == ["w0", "w1", "w2", "w3"]

    def test_retry_skips_attempted_and_dead_workers(self):
        frontend = pool("w0", "w1", "w2")
        frontend._mark_dead("w1", "test")
        assert frontend._choose(None, {"w0"}).wid == "w2"
        assert frontend._choose(None, {"w0", "w2"}) is None
        assert pool()._choose(None, set()) is None

    def test_pinned_worker_wins_over_load(self):
        frontend = pool("w0", "w1")
        w1 = frontend.workers["w1"]
        w1.inflight = 5
        assert frontend._choose(w1, set()) is w1

    def test_dead_or_respawned_workers_pins_stop_routing(self):
        frontend = pool("w0", "w1", "w2")
        w1, w2 = frontend.workers["w1"], frontend.workers["w2"]
        frontend._pins.put("k1", w1)
        frontend._pins.put("k2", w2)
        frontend._mark_dead("w1", "test")
        # The dead worker's key goes to the least-loaded live worker
        # (whose honest 404 tells the client to re-register); the
        # survivor keeps its pin.
        assert frontend._choose(frontend._pins.get("k1"), set()).wid == "w0"
        assert frontend._choose(frontend._pins.get("k2"), set()) is w2
        # A respawn re-registers a new process: the old pins stay dead.
        frontend.add_worker("w2", "127.0.0.1", 99)
        assert frontend._choose(w2, set()) is not w2

    def test_registrations_break_ties_toward_the_fewest_pins(self):
        frontend = pool("w0", "w1", "w2")
        w0, w1 = frontend.workers["w0"], frontend.workers["w1"]
        frontend._pin("weights_key", b'{"weights_key": "k1"}', w0)
        frontend._pin("crossbar_key", b'{"crossbar_key": "k2"}', w1)
        # Whatever the rotation, a registration goes to the pin-free
        # worker; unpinned traffic ignores pins.
        for _ in range(3):
            assert frontend._choose(None, set(), registers=True).wid \
                == "w2"
        assert {frontend._choose(None, set()).wid
                for _ in range(3)} == {"w0", "w1", "w2"}
        # Load still comes first.
        frontend.workers["w2"].inflight = 1
        assert frontend._choose(None, set(), registers=True).wid \
            in ("w0", "w1")

    def test_pin_counts_follow_moves_and_evictions(self):
        frontend = FleetFrontend(pinned_keys=2)
        frontend.add_worker("w0", "127.0.0.1", 1)
        frontend.add_worker("w1", "127.0.0.1", 2)
        w0, w1 = frontend.workers["w0"], frontend.workers["w1"]
        frontend._pin("weights_key", b'{"weights_key": "k1"}', w0)
        frontend._pin("weights_key", b'{"weights_key": "k2"}', w0)
        frontend._pin("weights_key", b'{"weights_key": "k2"}', w0)
        assert (w0.pins, w1.pins) == (2, 0)
        # Re-registered on another worker: the pin moves.
        frontend._pin("weights_key", b'{"weights_key": "k1"}', w1)
        assert (w0.pins, w1.pins) == (1, 1)
        # A third key evicts the least recently pinned (k2, on w0).
        frontend._pin("weights_key", b'{"weights_key": "k3"}', w1)
        assert (w0.pins, w1.pins) == (0, 2)
        assert frontend._pins.get("k2") is None

    def test_pin_learned_only_from_a_registration_response(self):
        async def scenario():
            frontend = pool("w0", "w1")
            w1 = frontend.workers["w1"]
            frontend._pin("weights_key", b'{"weights_key": "eng-1"}', w1)
            frontend._pin("weights_key", b"not json", w1)
            body = b'{"weights_key": "eng-1", "x": [1.0]}'
            return (await frontend._pinned_worker("/v1/matmul", body),
                    await frontend._pinned_worker("/v1/net_predict", body),
                    await frontend._pinned_worker("/v1/matmul", b"{bad"),
                    w1, len(frontend._pins))

        on_matmul, on_nets, malformed, w1, n_pins = asyncio.run(scenario())
        assert on_matmul is w1
        assert on_nets is None and malformed is None
        assert n_pins == 1


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
