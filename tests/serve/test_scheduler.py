"""Unit tests for the dynamic microbatching scheduler."""

import asyncio
import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import MicrobatchScheduler, QueueFullError


def run(coro):
    return asyncio.run(coro)


def double(batch):
    return np.asarray(batch) * 2.0


def negate(batch):
    return -np.asarray(batch)


class Gate:
    """Batch function that doubles its batch once released.

    Submitting through it holds the key busy: arrivals queue behind the
    in-flight batch instead of flushing on submit.
    """

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = []

    def __call__(self, batch):
        self.calls.append(batch.shape[0])
        self.started.set()
        assert self.release.wait(10), "gate never released"
        return double(batch)

    async def hold(self, sched, key="k"):
        """Occupy ``key`` with a one-row batch; return its task."""
        task = asyncio.ensure_future(
            sched.submit(key, np.zeros((1, 2)), self))
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 10
        while not self.started.is_set():
            assert loop.time() < deadline, "gated batch never started"
            await asyncio.sleep(0.001)
        return task


class TestIdleFlush:
    def test_lone_request_is_not_held(self):
        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=64)
            loop = asyncio.get_running_loop()
            start = loop.time()
            await sched.submit("k", np.zeros((1, 2)), double)
            elapsed = loop.time() - start
            await sched.close()
            return elapsed

        # One lone request must not wait for a full batch that never comes.
        assert run(scenario()) < 1.0

    def test_lone_request_flushes_on_submit(self):
        """A partial batch on an idle key flushes at once, as ``idle``."""
        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=64)
            task = asyncio.ensure_future(
                sched.submit("k", np.ones((1, 2)), double))
            await asyncio.sleep(0)  # submit runs up to its await
            launched = sched.metrics.snapshot()["microbatch"]
            queued = sched.queue_rows
            result = await task
            await sched.close()
            return launched, queued, result

        launched, queued, result = run(scenario())
        assert launched["flush_reasons"] == {"idle": 1}
        assert launched["rows_histogram"] == {"1": 1}
        assert queued == 0
        np.testing.assert_array_equal(result, np.full((1, 2), 2.0))

    def test_full_flush_at_max_batch_rows(self):
        calls = []

        def batch_fn(batch):
            calls.append(batch.shape)
            return batch * 2.0

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=4)
            result = await sched.submit("k", np.ones((4, 3)), batch_fn)
            await sched.close()
            return result, sched.metrics.snapshot()["microbatch"]

        result, snap = run(scenario())
        assert calls == [(4, 3)]
        np.testing.assert_array_equal(result, np.full((4, 3), 2.0))
        assert snap["flush_reasons"] == {"full": 1}


class TestCoalescing:
    def test_full_batch_coalesces_into_one_call(self):
        """max_batch requests submitted while a slow batch is in flight
        flush together, as one completion batch, the moment it ends."""
        gate = Gate()

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=16)
            blocker = await gate.hold(sched)
            waiting = [asyncio.ensure_future(
                sched.submit("k", np.full((1, 2), float(i)), gate))
                for i in range(16)]
            await asyncio.sleep(0)
            queued = sched.queue_rows
            gate.release.set()
            results = await asyncio.gather(blocker, *waiting)
            await sched.close()
            return queued, results, sched.metrics.snapshot()["microbatch"]

        queued, results, snap = run(scenario())
        assert queued == 16
        assert gate.calls == [1, 16]
        assert snap["flush_reasons"] == {"idle": 1, "completion": 1}
        for i, result in enumerate(results[1:]):
            np.testing.assert_array_equal(result, np.full((1, 2), 2.0 * i))

    def test_excess_requests_roll_into_second_batch(self):
        gate = Gate()

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=4)
            blocker = await gate.hold(sched)
            rows = [np.full((1, 2), float(i)) for i in range(6)]
            waiting = [sched.submit("k", r, gate) for r in rows]
            gate.release.set()
            results = await asyncio.gather(blocker, *waiting)
            await sched.close()
            return results, sched.metrics.snapshot()["microbatch"]

        results, snap = run(scenario())
        assert gate.calls == [1, 4, 2]
        assert snap["rows"] == 7
        for i, result in enumerate(results[1:]):
            np.testing.assert_array_equal(result, np.full((1, 2), 2.0 * i))

    def test_requests_are_never_split_across_flushes(self):
        """A request straddling the boundary keeps its rows together."""
        calls = []

        def batch_fn(batch):
            calls.append(batch.shape[0])
            return batch

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=8)
            await asyncio.gather(
                sched.submit("k", np.zeros((5, 2)), batch_fn),
                sched.submit("k", np.ones((5, 2)), batch_fn))
            await sched.close()

        run(scenario())
        assert calls == [5, 5]

    def test_oversized_request_flushes_alone(self):
        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=4)
            result = await sched.submit("k", np.ones((10, 2)), double)
            await sched.close()
            return result, sched.metrics.snapshot()["microbatch"]

        result, snap = run(scenario())
        np.testing.assert_array_equal(result, np.full((10, 2), 2.0))
        assert snap["rows_histogram"] == {"10": 1}
        assert snap["flush_reasons"] == {"full": 1}


class TestKeyIsolation:
    def test_keys_never_share_batches(self):
        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=4)
            a = [sched.submit("a", np.full((1, 2), float(i)), double)
                 for i in range(3)]
            b = [sched.submit("b", np.full((1, 2), float(i)), negate)
                 for i in range(3)]
            results = await asyncio.gather(*a, *b)
            await sched.close()
            return results, sched.metrics.snapshot()["microbatch"]

        results, snap = run(scenario())
        # One worker: key a's first request flushes at once; key b finds
        # the worker busy, waits, and flushes its three rows together
        # before a's last two (keys are served in arrival order).
        assert snap["flush_reasons"] == {"idle": 1, "completion": 2}
        assert snap["rows_histogram"] == {"1": 1, "3": 1, "2": 1}
        for i in range(3):
            np.testing.assert_array_equal(results[i],
                                          np.full((1, 2), 2.0 * i))
            np.testing.assert_array_equal(results[3 + i],
                                          np.full((1, 2), -float(i)))

    def test_queue_depths_reported_per_key(self):
        gate = Gate()

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=64,
                                        max_queue_rows=64)
            blocker = await gate.hold(sched, "a")
            pending = asyncio.ensure_future(
                sched.submit("a", np.zeros((2, 2)), gate))
            await asyncio.sleep(0)
            depths = dict(sched.queue_depths())
            total = sched.queue_rows
            gate.release.set()
            await asyncio.gather(blocker, pending)
            await sched.close()
            return depths, total

        depths, total = run(scenario())
        assert depths == {"a": 2} and total == 2


class TestBackpressure:
    def test_full_queue_raises(self):
        gate = Gate()

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=8,
                                        max_queue_rows=8)
            blocker = await gate.hold(sched)
            waiting = asyncio.ensure_future(
                sched.submit("k", np.zeros((6, 2)), gate))
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await sched.submit("k", np.zeros((3, 2)), gate)
            # A different key still has capacity (per-key isolation).
            other = asyncio.ensure_future(
                sched.submit("other", np.zeros((3, 2)), double))
            await asyncio.sleep(0)
            gate.release.set()
            await asyncio.gather(blocker, waiting)
            await sched.close()
            return await other

        assert run(scenario()).shape == (3, 2)

    def test_oversized_request_is_a_permanent_error(self):
        """A request that can never fit must not look like backpressure.

        429 + Retry-After would send the client into an infinite retry
        loop; a request larger than the whole queue is a caller bug and
        surfaces as ConfigError (HTTP 400), without leaking queue state.
        """
        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=8,
                                        max_queue_rows=8)
            with pytest.raises(ConfigError):
                await sched.submit("fresh", np.zeros((9, 2)), double)
            depths = sched.queue_depths()
            total = sched.queue_rows
            await sched.close()
            return depths, total, len(sched._queues)

        depths, total, n_queues = run(scenario())
        assert depths == {} and total == 0 and n_queues == 0

    def test_rejected_request_leaves_queue_state_intact(self):
        """A backpressure bounce must not disturb the pending queue."""
        gate = Gate()

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=8,
                                        max_queue_rows=8)
            blocker = await gate.hold(sched)
            waiting = asyncio.ensure_future(
                sched.submit("k", np.zeros((6, 2)), gate))
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await sched.submit("k", np.zeros((4, 2)), gate)
            depths = dict(sched.queue_depths())
            gate.release.set()
            await asyncio.gather(blocker, waiting)
            await sched.close()
            return depths

        assert run(scenario()) == {"k": 6}

    def test_queue_drains_after_flush(self):
        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=4,
                                        max_queue_rows=4)
            await sched.submit("k", np.zeros((4, 2)), double)
            # The previous batch flushed; the queue accepts new rows again.
            result = await sched.submit("k", np.ones((4, 2)), double)
            await sched.close()
            return result

        np.testing.assert_array_equal(run(scenario()), np.full((4, 2), 2.0))


class TestPerKeySerialization:
    def test_same_key_batches_never_overlap_with_many_workers(self):
        """Tile models are not thread-safe: one in-flight batch per key."""
        import threading
        import time
        active = {"now": 0, "peak": 0}
        guard = threading.Lock()

        def slow(batch):
            with guard:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.02)
            with guard:
                active["now"] -= 1
            return batch

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=2,
                                        max_workers=4)
            await asyncio.gather(
                *[sched.submit("k", np.zeros((1, 2)), slow)
                  for _ in range(8)])
            await sched.close()

        run(scenario())
        assert active["peak"] == 1

    def test_different_keys_run_in_parallel_with_many_workers(self):
        import threading
        import time
        active = {"now": 0, "peak": 0}
        guard = threading.Lock()

        def slow(batch):
            with guard:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time.sleep(0.05)
            with guard:
                active["now"] -= 1
            return batch

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=1,
                                        max_workers=4)
            await asyncio.gather(
                *[sched.submit(f"k{i}", np.zeros((1, 2)), slow)
                  for i in range(4)])
            await sched.close()

        run(scenario())
        assert active["peak"] > 1


class TestErrorHandling:
    def test_batch_fn_exception_propagates_to_every_request(self):
        def broken(batch):
            raise ValueError("model exploded")

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=2)
            results = await asyncio.gather(
                sched.submit("k", np.zeros((1, 2)), broken),
                sched.submit("k", np.zeros((1, 2)), broken),
                return_exceptions=True)
            await sched.close()
            return results

        results = run(scenario())
        assert all(isinstance(r, ValueError) for r in results)

    def test_wrong_row_count_is_an_error(self):
        def truncating(batch):
            return batch[:-1]

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=2)
            results = await asyncio.gather(
                sched.submit("k", np.zeros((2, 2)), truncating),
                return_exceptions=True)
            await sched.close()
            return results

        assert isinstance(run(scenario())[0], RuntimeError)

    def test_submit_after_close_rejected(self):
        async def scenario():
            sched = MicrobatchScheduler()
            await sched.close()
            with pytest.raises(RuntimeError):
                await sched.submit("k", np.zeros((1, 2)), double)

        run(scenario())

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigError):
            MicrobatchScheduler(max_batch_rows=0)
        with pytest.raises(ConfigError):
            MicrobatchScheduler(max_batch_rows=8, max_queue_rows=4)


class TestClose:
    def test_close_drains_pending_requests(self):
        """Requests queued behind in-flight batches on several keys all
        run when the scheduler closes, flushed as ``drain``."""
        gates = {"a": Gate(), "b": Gate()}

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=64, max_workers=2)
            blockers = [await gate.hold(sched, key)
                        for key, gate in gates.items()]
            pending = [asyncio.ensure_future(
                sched.submit(key, np.ones((2, 2)), gate))
                for key, gate in gates.items()]
            await asyncio.sleep(0)
            closing = asyncio.ensure_future(sched.close())
            await asyncio.sleep(0)
            for gate in gates.values():
                gate.release.set()
            await closing
            results = await asyncio.gather(*pending)
            await asyncio.gather(*blockers)
            return results, sched.metrics.snapshot()["microbatch"], \
                sched.queue_rows

        results, snap, queued = run(scenario())
        for result in results:
            np.testing.assert_array_equal(result, np.full((2, 2), 2.0))
        assert snap["flush_reasons"] == {"idle": 2, "drain": 2}
        assert queued == 0

    def test_metrics_queue_gauge_returns_to_zero(self):
        metrics = ServeMetrics()

        async def scenario():
            sched = MicrobatchScheduler(max_batch_rows=4,
                                        metrics=metrics)
            await asyncio.gather(
                *[sched.submit("k", np.zeros((1, 2)), double)
                  for _ in range(6)])
            await sched.close()

        run(scenario())
        snap = metrics.snapshot()["queue"]
        assert snap["rows"] == 0 and snap["rows_peak"] >= 4
