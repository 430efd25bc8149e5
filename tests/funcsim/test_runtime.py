"""Plan/execute split and the engine's sharded schedule.

Covers the determinism contract of :mod:`repro.funcsim.runtime`: every
worker count and chunk size must produce bit-identical outputs in
batch-invariant mode; with ADC noise the coordinate-keyed noise streams
must make results worker-count independent, fresh on every call and
statistically equivalent across chunkings. Also covers the thread pool's
lifecycle, the content-digest prepared-matrix uids and mergeable engine
statistics.
"""

import pickle
import threading

import numpy as np
import pytest

from repro.api.spec import RuntimeSpec
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.funcsim import (
    EngineStats,
    FuncSimConfig,
    IdealMvmEngine,
    TileResultCache,
    make_engine,
)
from repro.funcsim.planner import plan_layer
from repro.funcsim.runtime import chunk_ranges
from repro.xbar.config import CrossbarConfig

XCFG = CrossbarConfig(rows=8, cols=8)
SCFG = FuncSimConfig()


@pytest.fixture
def operands(rng):
    x = rng.normal(size=(23, 20)) * 0.4
    w = rng.normal(size=(20, 13)) * 0.3
    return x, w


@pytest.fixture(scope="module")
def tiny_emulator(tmp_path_factory):
    zoo = GeniexZoo(cache_dir=str(tmp_path_factory.mktemp("zoo")))
    return zoo.get_or_train(
        XCFG, SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=0),
        TrainSpec(hidden=8, epochs=2, batch_size=8, seed=0))


def _engine(kind, emulator=None, **kwargs):
    return make_engine(kind, XCFG, SCFG, emulator=emulator,
                       batch_invariant=True, **kwargs)


def _pooled(engine, shard_rows):
    """Force multi-chunk, pooled execution even at these small sizes."""
    engine.shard_rows = shard_rows
    engine.inline_work_threshold = 0
    return engine


def _legacy_workers(executor, workers):
    """Worker count a stored runtime node naming a removed executor
    resolves to: the field is accepted with a warning and ignored."""
    with pytest.warns(DeprecationWarning, match="executor"):
        return RuntimeSpec(executor=executor, workers=workers or 1).workers


class TestBackendEquivalence:
    """Every worker count and chunking, bit for bit, in invariant mode.

    Parametrised by the executors stored specs may still name: each runs
    the engine's one schedule (``workers > 1`` = threads).
    """

    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("threads", 2), ("threads", 3), ("process", 2),
    ])
    def test_exact_bit_identical(self, operands, backend, workers):
        x, w = operands
        ref_engine = _engine("exact")
        ref = ref_engine.matmul(x, ref_engine.prepare(w))
        engine = _pooled(_engine(
            "exact", workers=_legacy_workers(backend, workers)), 5)
        out = engine.matmul(x, engine.prepare(w))
        np.testing.assert_array_equal(out, ref)
        engine.close()

    @pytest.mark.parametrize("backend", ["threads", "process"])
    def test_geniex_bit_identical(self, operands, tiny_emulator, backend):
        x, w = operands
        ref_engine = _engine("geniex", tiny_emulator)
        ref = ref_engine.matmul(x, ref_engine.prepare(w))
        engine = _pooled(_engine("geniex", tiny_emulator,
                                 workers=_legacy_workers(backend, 2)), 7)
        out = engine.matmul(x, engine.prepare(w))
        np.testing.assert_array_equal(out, ref)
        engine.close()

    def test_shard_size_invariant(self, operands):
        """Batch-invariant results do not depend on the chunk decomposition."""
        x, w = operands
        outputs = []
        for shard_rows in (3, 8, 64):
            engine = _engine("exact")
            engine.shard_rows = shard_rows
            outputs.append(engine.matmul(x, engine.prepare(w)))
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(outputs[0], outputs[2])

    def test_stats_identical_across_backends(self, operands):
        x, w = operands
        snapshots = []
        for workers in (1, 2):
            engine = _pooled(_engine("exact", workers=workers), 6)
            engine.matmul(x, engine.prepare(w))
            snapshots.append(engine.stats.snapshot())
            engine.close()
        assert snapshots[0] == snapshots[1]

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["exact", "analytical", "decoupled"])
    def test_all_kinds_process_matches_serial(self, operands, kind):
        """Heavier sweep: every CPU tile kind, a stored ``process`` spec
        (threads now) vs a ``serial`` one."""
        x, w = operands
        outs = {}
        for backend, workers in (("serial", None), ("process", 2)):
            engine = _pooled(make_engine(
                kind, XCFG, SCFG,
                workers=_legacy_workers(backend, workers)), 6)
            outs[backend] = engine.matmul(x, engine.prepare(w))
            engine.close()
        np.testing.assert_array_equal(outs["serial"], outs["process"])


class TestNoiseDeterminism:
    """Keyed ADC noise streams: reproducible at any worker count."""

    NOISY = FuncSimConfig(adc_noise_lsb=0.5, adc_seed=7)

    def _noisy_engine(self, **kwargs):
        return make_engine("exact", XCFG, self.NOISY, **kwargs)

    def test_worker_count_invariant(self, operands):
        x, w = operands
        outputs = []
        for workers in (1, 2, 4):
            engine = _pooled(self._noisy_engine(workers=workers), 5)
            outputs.append(engine.matmul(x, engine.prepare(w)))
            engine.close()
        np.testing.assert_array_equal(outputs[0], outputs[1])
        np.testing.assert_array_equal(outputs[0], outputs[2])

    def test_statistically_equivalent_to_inline(self, operands):
        """Multi-chunk noisy outputs track the noiseless reference as
        closely as a one-chunk (whole batch) call does: different noise
        streams, same noise distribution."""
        x, w = operands
        clean_engine = make_engine("exact", XCFG, SCFG)
        clean = clean_engine.matmul(x, clean_engine.prepare(w))
        inline = self._noisy_engine()
        sharded = _pooled(self._noisy_engine(workers=2), 5)
        err_inline = np.abs(
            inline.matmul(x, inline.prepare(w)) - clean).mean()
        err_sharded = np.abs(
            sharded.matmul(x, sharded.prepare(w)) - clean).mean()
        sharded.close()
        assert err_inline > 0 and err_sharded > 0
        assert 0.3 < err_sharded / err_inline < 3.0

    def test_sequence_number_varies_noise(self, operands):
        """Two successive noisy matmuls must not reuse noise samples."""
        x, w = operands
        engine = self._noisy_engine()
        prepared = engine.prepare(w)
        a = engine.matmul(x, prepared)
        b = engine.matmul(x, prepared)
        assert not np.array_equal(a, b)


class TestPreparedUid:
    def test_content_digest_is_stable(self, operands):
        _, w = operands
        engine = _engine("exact")
        assert engine.prepare(w).uid == engine.prepare(w).uid

    def test_distinct_weights_distinct_uids(self, operands):
        _, w = operands
        engine = _engine("exact")
        assert engine.prepare(w).uid != engine.prepare(w + 0.01).uid

    def test_engine_config_in_uid(self, operands):
        _, w = operands
        a = _engine("exact").prepare(w)
        b = make_engine("exact", XCFG, SCFG.with_precision(8),
                        batch_invariant=True).prepare(w)
        assert a.uid != b.uid

    def test_uid_stable_across_processes(self, operands):
        """The fork-safety property: a child process derives the same uid."""
        import multiprocessing

        _, w = operands

        def child(queue, w):
            from repro.funcsim import make_engine as mk
            eng = mk("exact", XCFG, SCFG, batch_invariant=True)
            queue.put(eng.prepare(w).uid)

        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=child, args=(queue, w))
        proc.start()
        child_uid = queue.get(timeout=60)
        proc.join()
        assert child_uid == _engine("exact").prepare(w).uid


class TestEngineStats:
    def test_merge_accumulates(self):
        a, b = EngineStats(), EngineStats()
        a.merge({"readouts": 3, "cache_hits": 1})
        b.merge({"readouts": 4, "matmuls": 2})
        a.merge(b)
        assert a.readouts == 7 and a.matmuls == 2 and a.cache_hits == 1

    def test_merge_rejects_unknown_counter(self):
        with pytest.raises(ConfigError):
            EngineStats().merge({"bogus": 1})

    def test_concurrent_merge_is_coherent(self):
        stats = EngineStats()
        threads = [threading.Thread(
            target=lambda: [stats.merge({"readouts": 1})
                            for _ in range(500)]) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.readouts == 2000

    def test_pickle_roundtrip(self):
        stats = EngineStats()
        stats.merge({"readouts": 5})
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.readouts == 5
        clone.merge({"readouts": 1})  # lock restored and functional
        assert clone.readouts == 6

    def test_cache_counters_thread_safe(self):
        cache = TileResultCache(64)
        value = np.zeros(1)

        def worker():
            for k in range(200):
                if cache.get(("k", k % 8)) is None:
                    cache.put(("k", k % 8), value)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hits, misses = cache.counters()
        assert hits + misses == 4 * 200


class TestPrograms:
    def test_program_attached_at_prepare(self, operands):
        _, w = operands
        engine = _engine("exact")
        prepared = engine.prepare(w)
        assert prepared.program is not None
        plan = prepared.program.plan
        assert (plan.n_in, plan.n_out) == (20, 13)
        assert plan.cost.readouts > 0

    def test_plan_layer_matches_engine_constants(self, operands):
        _, w = operands
        engine = _engine("exact")
        prepared = engine.prepare(w)
        plan = plan_layer(engine, prepared).plan
        assert plan.v_lsb == engine._v_lsb
        assert plan.adc_lsb_a == engine.adc.lsb_a


class TestExecutorApi:
    """The engine-owned thread pool: lifecycle and error paths."""

    def test_unknown_layer_rejected(self, operands):
        """A prepared matrix without a layer program (prepared by the
        ideal engine) cannot run on a crossbar engine."""
        _, w = operands
        with pytest.raises(ConfigError, match="layer program"):
            _engine("exact").matmul(np.zeros((1, 20)),
                                    IdealMvmEngine(SCFG).prepare(w))

    def test_closed_executor_degrades_to_inline(self, operands):
        """Closing releases the pool but keeps matmuls working (identical
        results): queued serve batches on evicted engines must complete."""
        x, w = operands
        engine = _pooled(_engine("exact", workers=2), 5)
        prepared = engine.prepare(w)
        before = engine.matmul(x, prepared)
        assert engine._pool is not None
        engine.close()
        after = engine.matmul(x, prepared)
        np.testing.assert_array_equal(before, after)
        assert engine._pool is None  # and no pool resurrected
        engine.close()  # idempotent

    def test_chunk_ranges(self):
        assert chunk_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_ranges(3, 64) == [(0, 3)]

    def test_workers_select_thread_pool(self, operands):
        x, w = operands
        engine = _pooled(make_engine("exact", XCFG, SCFG, workers=2), 5)
        engine.matmul(x, engine.prepare(w))
        assert engine._pool._max_workers == 2
        engine.close()

    def test_small_calls_stay_on_calling_thread(self, operands):
        """``_should_inline``: calls too small to pay for dispatch never
        create the pool; a single-worker engine never does."""
        x, w = operands
        engine = _engine("exact", workers=2)
        engine.matmul(x, engine.prepare(w))
        assert engine._pool is None
        single = _pooled(_engine("exact"), 5)
        single.matmul(x, single.prepare(w))
        assert single._pool is None

    def test_ideal_ignores_workers(self):
        engine = make_engine("ideal", XCFG, SCFG, workers=4)
        assert isinstance(engine, IdealMvmEngine)

    def test_invalid_kind_does_not_leak_executor(self):
        before = threading.active_count()
        with pytest.raises(ConfigError):
            make_engine("hspice", XCFG, SCFG, workers=4)
        assert threading.active_count() == before

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            make_engine("exact", XCFG, SCFG, workers=0)

    def test_reprepared_layer_keeps_worker_pool(self, rng):
        """matmul(x, raw_weights) re-prepares per call; the pool belongs
        to the engine and survives every call."""
        # Big enough batch to clear the small-work inline fallback.
        x = rng.normal(size=(2000, 20)) * 0.4
        w = rng.normal(size=(20, 13)) * 0.3
        engine = _engine("exact", workers=2)
        engine.shard_rows = 500
        ref = engine.matmul(x, w)  # raw weights: prepare() inside
        pool = engine._pool
        assert pool is not None
        out = engine.matmul(x, w)  # re-prepared, same content
        assert engine._pool is pool
        np.testing.assert_array_equal(out, ref)
        engine.close()


class TestThreadStress:
    def test_concurrent_callers_and_close_conserve_stats(self, rng):
        """More shard threads than cores, several callers sharing one
        engine and a close racing them: every call completes with the
        single-thread output and no counter update is lost."""
        import sys

        x = rng.normal(size=(40, 20)) * 0.4
        w = rng.normal(size=(20, 13)) * 0.3
        # No tile cache: repeated calls would turn read-outs into hits.
        ref_engine = _pooled(_engine("exact", tile_cache_size=0), 3)
        prepared = ref_engine.prepare(w)
        ref = ref_engine.matmul(x, prepared)
        per_call = ref_engine.stats.snapshot()
        engine = _pooled(_engine("exact", workers=8, tile_cache_size=0), 3)
        prepared = engine.prepare(w)
        outputs, calls = [], 6

        def caller():
            for _ in range(calls):
                outputs.append(engine.matmul(x, prepared))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            engine.close(wait=False)
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(outputs) == 4 * calls
        for out in outputs:
            np.testing.assert_array_equal(out, ref)
        snap = engine.stats.snapshot()
        assert snap == {k: v * 4 * calls for k, v in per_call.items()}


class TestFactoryTokens:
    def test_emulator_identity_in_uid(self, operands, tiny_emulator,
                                      tmp_path):
        """Differently trained emulators must never share prepared uids."""
        _, w = operands
        zoo = GeniexZoo(cache_dir=str(tmp_path / "zoo2"))
        other = zoo.get_or_train(
            XCFG, SamplingSpec(n_g_matrices=3, n_v_per_g=4, seed=1),
            TrainSpec(hidden=8, epochs=2, batch_size=8, seed=1))
        uid_a = _engine("geniex", tiny_emulator).prepare(w).uid
        uid_b = _engine("geniex", other).prepare(w).uid
        assert uid_a != uid_b

    def test_batch_invariance_in_uid(self, operands):
        _, w = operands
        invariant = make_engine("exact", XCFG, SCFG, batch_invariant=True)
        plain = make_engine("exact", XCFG, SCFG)
        assert invariant.prepare(w).uid != plain.prepare(w).uid
