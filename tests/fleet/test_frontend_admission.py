"""Front-end admission control, asserted over real sockets.

These tests boot a :class:`FleetFrontend` with *no workers* (admission
decisions all happen before any forward), drive it with raw HTTP via the
shared httpio helpers, and check the shedding/drain/error surface: 503
with an empty ring or while draining, 429 with ``Retry-After`` for
over-quota tenants, 404/405 parity with the single-process server. The
connection loop both services share (413, dropped requests, idle reaping,
drain) is tested against both in ``tests/serve/test_http_service.py``.
"""

import asyncio
import json

import pytest

from repro.fleet.frontend import FleetFrontend
from repro.serve.httpio import encode_request, read_response


def run(coro):
    return asyncio.run(coro)


async def boot(**kwargs):
    frontend = FleetFrontend(**kwargs)
    await frontend.start("127.0.0.1", 0)
    return frontend


async def roundtrip(frontend, method, path, payload=None, headers=None):
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   frontend.port)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        writer.write(encode_request(method, path, body, headers))
        await writer.drain()
        status, rheaders, rbody, _keep = await read_response(reader)
        return status, rheaders, rbody
    finally:
        writer.close()


class TestAdmission:
    def test_empty_ring_sheds_503(self):
        async def scenario():
            frontend = await boot()
            try:
                status, _h, body = await roundtrip(
                    frontend, "POST", "/v1/predict_fr", {"voltages": [0.1]})
                return status, json.loads(body)
            finally:
                await frontend.close()

        status, body = run(scenario())
        assert status == 503
        assert "no live workers" in body["error"]

    def test_draining_sheds_503(self):
        async def scenario():
            frontend = await boot()
            frontend._draining = True
            try:
                status, _h, _b = await roundtrip(
                    frontend, "POST", "/v1/matmul", {"x": [1.0]})
                return status
            finally:
                await frontend.close()

        assert run(scenario()) == 503

    def test_over_quota_tenant_gets_429_with_retry_after(self):
        async def scenario():
            frontend = await boot(quota_rate=0.001, quota_burst=1.0)
            try:
                first = await roundtrip(
                    frontend, "POST", "/v1/predict_fr", {"voltages": [0.1]},
                    headers={"X-Repro-Tenant": "alice"})
                second = await roundtrip(
                    frontend, "POST", "/v1/predict_fr", {"voltages": [0.1]},
                    headers={"X-Repro-Tenant": "alice"})
                other = await roundtrip(
                    frontend, "POST", "/v1/predict_fr", {"voltages": [0.1]},
                    headers={"X-Repro-Tenant": "bob"})
                return first, second, other, frontend.metrics.summary()
            finally:
                await frontend.close()

        first, second, other, summary = run(scenario())
        assert first[0] == 503          # admitted, then empty ring
        assert second[0] == 429         # alice's bucket is dry
        assert second[1].get("retry-after") == "1"
        assert "quota" in json.loads(second[2])["error"]
        assert other[0] == 503          # bob has his own bucket
        assert summary["shed"] == {"quota": 1}

    def test_global_inflight_bound_sheds_queue(self):
        async def scenario():
            frontend = await boot(max_inflight=0)
            try:
                status, headers, body = await roundtrip(
                    frontend, "POST", "/v1/predict_fr", {"voltages": [0.1]})
                return status, headers, json.loads(body), \
                    frontend.metrics.summary()
            finally:
                await frontend.close()

        status, headers, body, summary = run(scenario())
        assert status == 429
        assert headers.get("retry-after") == "1"
        assert "capacity" in body["error"]
        assert summary["shed"] == {"queue": 1}

    def test_unknown_path_404_and_wrong_method_405(self):
        async def scenario():
            frontend = await boot()
            try:
                missing = await roundtrip(frontend, "GET", "/nope")
                wrong = await roundtrip(frontend, "GET", "/v1/matmul")
                local = await roundtrip(frontend, "POST", "/healthz",
                                        {"x": 1})
                return missing[0], wrong[0], local[0]
            finally:
                await frontend.close()

        assert run(scenario()) == (404, 405, 405)

    def test_healthz_names_the_role(self):
        async def scenario():
            frontend = await boot()
            try:
                _s, _h, body = await roundtrip(frontend, "GET", "/healthz")
                return json.loads(body)
            finally:
                await frontend.close()

        body = run(scenario())
        assert body["role"] == "fleet-frontend" and body["workers"] == 0


class TestRingStateTransitions:
    def test_mark_dead_rehashes_and_counts(self):
        async def scenario():
            frontend = await boot()
            frontend.add_worker("w0", "127.0.0.1", 1)
            frontend.add_worker("w1", "127.0.0.1", 2)
            frontend._mark_dead("w0", "test")
            frontend._mark_dead("w0", "again")   # idempotent
            summary = frontend.metrics.summary()
            members = frontend.ring.members()
            await frontend.close()
            return summary, members

        summary, members = run(scenario())
        assert members == ["w1"]
        assert summary["rehashes"] == 1
        assert summary["workers"] == 1

    def test_reregistration_replaces_a_respawned_worker(self):
        async def scenario():
            frontend = await boot()
            frontend.add_worker("w0", "127.0.0.1", 1)
            frontend._mark_dead("w0", "test")
            frontend.add_worker("w0", "127.0.0.1", 99)
            state = frontend.workers["w0"]
            members = frontend.ring.members()
            await frontend.close()
            return state, members

        state, members = run(scenario())
        assert members == ["w0"]
        assert state.port == 99 and state.healthy

    def test_replication_validation(self):
        with pytest.raises(ValueError):
            FleetFrontend(replication=0)
