"""Warm-model registry: async-safe LRU caches layered on the GENIEx zoo.

Three tiers, all keyed by deterministic content digests so identical
requests — from any client, in any order — land on the same warm object
(and therefore the same microbatching queue):

* **models** — trained :class:`GeniexEmulator` instances, keyed by the zoo
  artifact key of the model spec. Misses train (or load) through
  :class:`GeniexZoo` on an executor thread; an asyncio per-key lock
  collapses concurrent misses into one training run while the event loop
  keeps serving other traffic.
* **crossbars** — :class:`MatrixEmulator` instances for a programmed
  conductance matrix, keyed by (model key, G digest). Always built with
  ``batch_invariant=True`` so coalesced predictions are byte-identical to
  direct per-request calls.
* **engines** — prepared :class:`CrossbarMvmEngine` pipelines (engine +
  :class:`PreparedMatrix`), keyed by ``spec.weights_key(weights)`` — the
  :class:`~repro.api.spec.EmulationSpec` digest scheme every other
  surface uses. Preparing programs every (sign, slice, tile) model, so
  it also runs on the executor under a per-key lock. Engines are built
  through :func:`repro.api.session.build_engine` from the spec, under a
  server-owned runtime policy (batch-invariant whenever possible,
  thread sharding, bounded tile cache).
* **mitigated** — whole mitigated classifiers (noise-trained weights on
  a live engine, output calibration applied), keyed by
  :func:`repro.mitigation.runner.mitigated_key` — full spec digest
  (which folds the mitigation node) × dataset handle × architecture, so
  a mitigated model can never alias the raw model serving the same
  physics. Builds run :func:`~repro.mitigation.runner.run_mitigation`
  on the executor; the zoo persists the artifact, so a registry restart
  rebuilds from disk instead of retraining.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.api.session import Session, build_engine
from repro.api.spec import (
    EmulationSpec,
    engine_identity,
    supports_batch_invariance,
    weights_identity,
)
from repro.core.emulator import GeniexEmulator, MatrixEmulator
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError, ShapeError
from repro.funcsim.config import FuncSimConfig
from repro.funcsim.convert import convert_to_mvm, mvm_layers
from repro.funcsim.engine import EngineStats
from repro.mitigation.runner import mitigated_key, run_mitigation
from repro.nn.serialization import net_digest, net_from_wire
from repro.nonideal import as_pipeline
from repro.obs import counter_family, gauge_family, span
from repro.serve.protocol import ModelSpec
from repro.utils.cache import LruDict
from repro.utils.digest import content_key


@dataclass
class PreparedEngine:
    """One servable engine pipeline: the engine plus its prepared weights."""

    key: str
    kind: str
    engine: object
    prepared: object
    n_in: int
    n_out: int

    def matmul(self, x: np.ndarray) -> np.ndarray:
        return self.engine.matmul(x, self.prepared)

    def close(self, wait: bool = True) -> None:
        """Release the engine's shard threads (if any).

        The engine stays usable (single-threaded) afterwards, so
        microbatches queued against an evicted engine still complete.
        """
        self.engine.close(wait=wait)


@dataclass
class MitigatedModel:
    """One warm mitigated classifier bound to its own session engine."""

    key: str
    spec_key: str
    sizes: tuple
    metrics: dict
    from_cache: bool
    _session: Session
    _serving: object

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mitigated logits for a batch (through the session engine)."""
        from repro.nn.tensor import Tensor, no_grad
        with no_grad():
            return np.asarray(self._serving(Tensor(np.atleast_2d(x))).data,
                              dtype=np.float64)

    def close(self, wait: bool = True) -> None:
        """Release the session's shard threads (engine stays usable)."""
        self._session.close(wait=wait)


@dataclass
class CompiledNet:
    """One warm compiled network: converted MVM model + fused programs.

    The whole network shares one engine (every layer's weights prepared
    on it during :func:`convert_to_mvm`); ``predict`` is row-independent
    under batch-invariant modes, so microbatched calls are byte-identical
    to sequential per-request runs.
    """

    key: str
    net_digest: str
    model_key: str
    spec_key: str
    engine_kind: str
    batch_invariant: bool
    n_layers: int
    n_mvm_layers: int
    n_in: int
    input_shape: tuple | None
    compile_seconds: float
    _model: object
    _engine: object

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Logits for a stacked batch of flat rows (float64 out).

        Runs layer by layer so each MVM layer's fused kernel call gets a
        ``layer-execute`` span — the scheduler grafts these into every
        coalesced request's trace (the call genuinely served them all).
        """
        from repro.funcsim.layers import Conv2dMVM, LinearMVM
        from repro.nn.tensor import Tensor, no_grad
        data = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.input_shape is not None:
            data = data.reshape(data.shape[0], *self.input_shape)
        rows = data.shape[0]
        with no_grad():
            out = Tensor(data)
            for name, layer in self._model._modules.items():
                if isinstance(layer, (LinearMVM, Conv2dMVM)):
                    with span(f"layer-execute:{name}", rows=rows):
                        out = layer(out)
                else:
                    out = layer(out)
            out = np.asarray(out.data, dtype=np.float64)
        return out.reshape(out.shape[0], -1)

    def close(self, wait: bool = True) -> None:
        """Release the engine's runtime workers (degrades inline)."""
        self._engine.close(wait=wait)


def _net_input_features(wire: dict) -> tuple:
    """``(n_in, input_shape)`` a net expects per request row.

    ``input_shape`` (per-sample, e.g. ``[1, 8, 8]``) is authoritative
    when present — request rows are folded back into it before the
    forward pass. Without it the first layer must pin the feature count
    (a linear's ``in_features``); spatial layers ahead of any linear
    need the shape and are rejected at upload time.
    """
    input_shape = wire.get("input_shape")
    if input_shape is not None:
        shape = tuple(int(s) for s in input_shape)
        if not shape or any(s < 1 for s in shape):
            raise ConfigError("input_shape must be positive dimensions")
        return int(np.prod(shape)), shape
    spatial = ("conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d",
               "batch_norm2d")
    for entry in wire["layers"]:
        kind = entry["kind"]
        if kind == "linear":
            return int(entry["config"]["in_features"]), None
        if kind == "batch_norm1d":
            return int(entry["config"]["num_features"]), None
        if kind in spatial:
            raise ConfigError(
                f"net starts with spatial layer {kind!r}; the wire needs "
                f"an \"input_shape\" (per-sample, e.g. [1, 28, 28]) so "
                f"flat request rows can be folded back into it")
    raise ConfigError(
        "cannot infer the net's input width; add an \"input_shape\" to "
        "the wire")


class _CacheStats:
    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0


def _close_off_loop(warm) -> None:
    """Close a warm object off the event loop thread.

    Eviction hooks fire inside ``LruDict.put``; when the put happens on
    the event loop (the mitigated tier's does), running the session
    close inline would stall every in-flight request behind runtime-pool
    teardown. With a running loop the close is handed to the default
    executor; on a plain thread (tests, shutdown paths) it runs inline.
    """
    try:
        loop = asyncio.get_running_loop()
    except RuntimeError:
        warm.close(wait=False)
        return
    loop.run_in_executor(None, lambda: warm.close(wait=False))


class ModelRegistry:
    """LRU registry of warm emulators, crossbars and prepared engines."""

    def __init__(self, zoo: GeniexZoo | None = None, *,
                 max_models: int = 8, max_crossbars: int = 128,
                 max_engines: int = 16, max_mitigated: int = 8,
                 max_nets: int = 8, tile_cache_size: int = 256,
                 engine_workers: int = 1, backend: str | None = None):
        self.zoo = zoo or GeniexZoo()
        self.tile_cache_size = int(tile_cache_size)
        # > 1 shards every prepared engine's matmuls over that many
        # funcsim threads (they compose with the asyncio executor
        # threads running the batched calls).
        self.engine_workers = max(1, int(engine_workers))
        # Array backend of the compiled fused kernel for every warm
        # engine (None resolves through $REPRO_BACKEND to numpy);
        # every backend selector is bit-identical, so this is server
        # policy, not part of any cache key.
        self.backend = backend
        self._models = LruDict(max_models)      # model key -> emulator
        self._crossbars = LruDict(max_crossbars)
        # Evicted engines release their shard thread pools without
        # blocking the event loop (wait=False); the closed engine still
        # answers queued microbatches on the calling thread.
        self._engines = LruDict(
            max_engines, on_evict=lambda _key, warm: warm.close(wait=False))
        # Mitigated models own a whole session; eviction releases its
        # shard threads the same way (the zoo artifact survives, so a
        # re-request rebuilds from disk, not from scratch). Unlike the
        # engines tier — whose puts happen on executor threads — the
        # mitigated tier is populated from the event loop, so the close
        # is pushed to the executor instead of stalling the loop.
        self._mitigated = LruDict(
            max_mitigated,
            on_evict=lambda _key, warm: _close_off_loop(warm))
        # Warm compiled networks (model-level serving). Populated from
        # the event loop like the mitigated tier, so eviction pushes the
        # engine close to the executor; the zoo artifact survives and a
        # re-request disk-loads + recompiles instead of re-uploading.
        self._nets = LruDict(
            max_nets, on_evict=lambda _key, warm: _close_off_loop(warm))
        self._stats = {"models": _CacheStats(), "crossbars": _CacheStats(),
                       "engines": _CacheStats(),
                       "mitigated": _CacheStats(), "nets": _CacheStats()}
        # Per-key locks are only touched from the event loop, so a plain
        # dict is safe; the slow work they guard runs on executor threads.
        self._locks: dict = {}

    # ------------------------------------------------------------------
    # Keys — all delegate to the spec digest scheme (repro.api.spec),
    # so an in-process Session, a CLI run and an HTTP request that
    # describe the same setup agree on every cache key.
    # ------------------------------------------------------------------
    @staticmethod
    def model_key(spec: ModelSpec) -> str:
        return spec.to_spec().model_key()

    @staticmethod
    def crossbar_key(model_key: str, conductance_s: np.ndarray) -> str:
        return content_key(
            "xb", model_key,
            np.ascontiguousarray(conductance_s, dtype=np.float64))

    @staticmethod
    def engine_key(model_key: str, kind: str, sim_config: FuncSimConfig,
                   weights: np.ndarray) -> str:
        """Deprecated shim: prefer ``EmulationSpec.weights_key``.

        Composes the same spec digests the registry uses internally, so
        a key computed here matches the one a full spec produces for the
        same setup: ``model_key`` (crossbar design + emulator node)
        always participates, exactly as it did in the legacy scheme.
        """
        invariant = supports_batch_invariance(kind, sim_config)
        engine_id = engine_identity(model_key, kind, sim_config, invariant)
        return weights_identity(engine_id, weights)

    def _lock_for(self, key: str) -> asyncio.Lock:
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = asyncio.Lock()
        return lock

    def _drop_lock(self, key: str) -> None:
        """Forget a per-key lock once it is idle.

        Keeps the lock table bounded by in-flight work instead of growing
        with every distinct key ever served. If a waiter raced the drop it
        still holds a reference to the old lock; the worst case is one
        redundant (idempotent, cache-guarded) build, not corruption.
        """
        lock = self._locks.get(key)
        if lock is not None and not lock.locked():
            del self._locks[key]

    def _lookup(self, cache_name: str, key: str):
        value = getattr(self, f"_{cache_name}").get(key)
        stats = self._stats[cache_name]
        if value is None:
            stats.misses += 1
        else:
            stats.hits += 1
        return value

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------
    async def emulator(self, spec: ModelSpec) -> tuple:
        """Warm (or train) the emulator for a model spec.

        Returns ``(model_key, emulator)``. Training runs on an executor
        thread; concurrent requests for the same key await one shared run.
        """
        key = self.model_key(spec)
        emulator = self._lookup("models", key)
        if emulator is not None:
            return key, emulator
        try:
            async with self._lock_for("model:" + key):
                emulator = self._models.get(key)
                if emulator is None:
                    loop = asyncio.get_running_loop()
                    emulator = await loop.run_in_executor(
                        None, lambda: self.zoo.get_or_train(
                            spec.config, spec.sampling, spec.training,
                            mode=spec.mode,
                            nonideality=spec.nonideality))
                    self._models.put(key, emulator)
                return key, emulator
        finally:
            self._drop_lock("model:" + key)

    async def matrix_emulator(self, spec: ModelSpec,
                              conductance_s: np.ndarray) -> tuple:
        """Warm the batch-invariant :class:`MatrixEmulator` for (spec, G).

        ``conductance_s`` is the *intended* programmed matrix; an active
        fault composition on the spec perturbs it (deterministically,
        stream key ``(0,)`` — one registered crossbar is one physical
        array) before the emulator is bound, so a faulty spec is served
        faulty physics rather than silently answering clean. The cache
        key folds the fault composition through ``model_key``, so clean
        and faulty registrations of the same matrix never alias.
        """
        model_key = self.model_key(spec)
        key = self.crossbar_key(model_key, conductance_s)
        warm = self._lookup("crossbars", key)
        if warm is not None:
            return key, warm
        # Validate the shape before (possibly) paying for training.
        if conductance_s.shape != spec.config.shape:
            raise ShapeError(
                f"conductances must have shape {spec.config.shape}, "
                f"got {conductance_s.shape}")
        pipeline = as_pipeline(spec.nonideality)
        if pipeline is not None:
            conductance_s = pipeline.perturb(
                conductance_s, (0,), spec.config.g_off_s,
                spec.config.g_on_s)
        _, emulator = await self.emulator(spec)
        warm = emulator.for_matrix(conductance_s, batch_invariant=True)
        self._crossbars.put(key, warm)
        return key, warm

    def crossbar(self, key: str) -> MatrixEmulator | None:
        """Fetch a previously registered crossbar by key (or ``None``)."""
        return self._lookup("crossbars", key)

    async def engine(self, spec: ModelSpec, kind: str,
                     sim_config: FuncSimConfig,
                     weights: np.ndarray) -> PreparedEngine:
        """Warm a prepared MVM engine for (spec, kind, sim, weights).

        Thin adapter over :meth:`engine_from_spec` for the flat wire
        format; both paths share one key scheme and one build path.
        """
        return await self.engine_from_spec(
            spec.to_spec(engine=kind, sim=sim_config), weights)

    def serving_spec(self, spec: EmulationSpec) -> EmulationSpec:
        """Normalise a client spec to this registry's execution policy.

        Public: ``registry.serving_spec(spec).weights_key(w)`` is the
        wire-visible warm-engine key, so clients that want to predict
        server cache keys call this (see the README's Public API notes).

        The runtime node is server-owned: warm engines run
        batch-invariantly whenever the kind/ADC combination allows it —
        so coalesced microbatch responses are byte-identical to direct
        per-request calls — with the registry's tile-cache size, shard
        threads and array backend. Clients cannot steer the server onto
        more threads or an unbounded cache by submitting a creative
        runtime node.
        """
        invariant = supports_batch_invariance(spec.engine,
                                              spec.sim.to_config())
        return spec.evolve(runtime={
            "batch_invariant": invariant,
            "tile_cache_size": self.tile_cache_size,
            "workers": self.engine_workers,
            "backend": self.backend,
        })

    async def engine_from_spec(self, spec: EmulationSpec,
                               weights: np.ndarray) -> PreparedEngine:
        """Warm a prepared MVM engine for a declarative spec + weights.

        The cache key is ``spec.weights_key(weights)`` under the
        server-side runtime policy, so identical setups submitted as
        flat wire payloads, spec JSON or in-process specs all land on
        the same warm engine (and the same microbatching queue).
        """
        spec = self.serving_spec(spec)
        key = spec.weights_key(weights)
        warm = self._lookup("engines", key)
        if warm is not None:
            return warm
        try:
            async with self._lock_for("engine:" + key):
                warm = self._engines.get(key)
                if warm is not None:
                    return warm
                emulator = None
                if spec.engine == "geniex":
                    _, emulator = await self.emulator(
                        ModelSpec.from_spec(spec))
                loop = asyncio.get_running_loop()

                def build() -> PreparedEngine:
                    engine = build_engine(spec, emulator=emulator)
                    prepared = engine.prepare(weights)
                    return PreparedEngine(key=key, kind=spec.engine,
                                          engine=engine, prepared=prepared,
                                          n_in=prepared.n_in,
                                          n_out=prepared.n_out)

                warm = await loop.run_in_executor(None, build)
                self._engines.put(key, warm)
                return warm
        finally:
            self._drop_lock("engine:" + key)

    def prepared_engine(self, key: str) -> PreparedEngine | None:
        """Fetch a previously prepared engine by key (or ``None``)."""
        return self._lookup("engines", key)

    async def mitigate(self, spec: EmulationSpec, dataset,
                       hidden=(32,), model_seed: int = 0) -> MitigatedModel:
        """Warm (or run) the mitigation a spec + dataset handle describe.

        The cache key is :func:`~repro.mitigation.runner.mitigated_key`
        under the server-side runtime policy — the full spec digest
        already folds the mitigation node, so mitigated models never
        collide with the raw engines/crossbars serving the same physics.
        The run itself (training, conversion, calibration, persistence)
        happens on an executor thread under a per-key lock; the zoo makes
        repeat requests a disk load and same-process repeats a pure
        cache hit.
        """
        spec = self.serving_spec(spec)
        key = mitigated_key(spec, dataset, hidden=hidden,
                            model_seed=model_seed)
        warm = self._lookup("mitigated", key)
        if warm is not None:
            return warm
        try:
            async with self._lock_for("mitigated:" + key):
                warm = self._mitigated.get(key)
                if warm is not None:
                    return warm
                emulator = None
                if spec.engine == "geniex":
                    # Warm the characterisation emulator through the
                    # model tier first (mitigation-independent key), so
                    # it shares the cache with every other endpoint.
                    _, emulator = await self.emulator(
                        ModelSpec.from_spec(spec))
                loop = asyncio.get_running_loop()

                def build() -> MitigatedModel:
                    session = Session(spec, zoo=self.zoo,
                                      emulator=emulator)
                    try:
                        result = run_mitigation(
                            spec, dataset, hidden=hidden,
                            model_seed=model_seed, zoo=self.zoo,
                            session=session)
                    except BaseException:
                        session.close(wait=False)
                        raise
                    return MitigatedModel(
                        key=key, spec_key=spec.key(),
                        sizes=tuple(result.sizes),
                        metrics=dict(result.metrics),
                        from_cache=result.from_cache,
                        _session=session, _serving=result.serving)

                warm = await loop.run_in_executor(None, build)
                self._mitigated.put(key, warm)
                return warm
        finally:
            self._drop_lock("mitigated:" + key)

    def mitigated_model(self, key: str) -> MitigatedModel | None:
        """Fetch a previously built mitigated model by key (or ``None``)."""
        return self._lookup("mitigated", key)

    # ------------------------------------------------------------------
    # Compiled networks (model-level serving)
    # ------------------------------------------------------------------
    def net_key(self, digest: str, spec: EmulationSpec) -> str:
        """The warm-program key for (net digest, spec).

        The issue-level identity is ``(net_digest, model_key)``; the
        cache key additionally folds the engine kind, sim precision and
        batch-invariance through ``serving_spec(spec).key()`` so two
        specs sharing a trained model but differing in execution can
        never alias one compiled program.
        """
        return content_key("netprog", digest,
                           self.serving_spec(spec).key())

    async def net(self, wire: dict, spec: EmulationSpec,
                  persist: bool = True) -> tuple:
        """Warm (or compile) the network a wire + spec describe.

        Returns ``(warm, outcome)`` where ``outcome`` is one of
        ``"memory_hit"``, ``"disk_hit"`` or ``"compiled"``. Compilation
        (rebuild + per-layer weight preparation)
        runs on an executor thread under a per-key lock; the zoo
        persists the wire so every other fleet worker — and a restarted
        server — rebuilds from disk instead of needing the upload again.
        """
        digest = net_digest(wire)
        key = self.net_key(digest, spec)
        warm = self._lookup("nets", key)
        if warm is not None:
            return warm, "memory_hit"
        try:
            async with self._lock_for("net:" + key):
                warm = self._nets.get(key)
                if warm is not None:
                    return warm, "memory_hit"
                on_disk = await asyncio.get_running_loop().run_in_executor(
                    None, lambda: self.zoo.load_net_program(key) is not None)
                warm = await self._build_net(key, digest, wire, spec)
                if persist and not on_disk:
                    meta = {"spec": spec.to_dict(), "net_digest": digest,
                            "model_key": spec.model_key()}
                    await asyncio.get_running_loop().run_in_executor(
                        None, lambda: self.zoo.save_net_program(
                            key, wire, meta))
                self._nets.put(key, warm)
                return warm, ("disk_hit" if on_disk else "compiled")
        finally:
            self._drop_lock("net:" + key)

    async def compiled_net(self, key: str) -> CompiledNet | None:
        """Warm compiled network by key; falls back to the zoo artifact.

        This is how a fleet worker that never saw the original upload
        serves ``net_predict`` for a learned route: the shared artifact
        store holds the wire + spec, so the worker disk-loads and
        compiles once, then stays warm. ``None`` means the key is
        unknown fleet-wide (the caller answers 404).
        """
        warm = self._lookup("nets", key)
        if warm is not None:
            return warm
        try:
            async with self._lock_for("net:" + key):
                warm = self._nets.get(key)
                if warm is not None:
                    return warm
                loaded = await asyncio.get_running_loop().run_in_executor(
                    None, lambda: self.zoo.load_net_program(key))
                if loaded is None:
                    return None
                wire, meta = loaded
                spec = EmulationSpec.from_dict(meta["spec"])
                warm = await self._build_net(key, meta["net_digest"],
                                             wire, spec)
                self._nets.put(key, warm)
                return warm
        finally:
            self._drop_lock("net:" + key)

    async def _build_net(self, key: str, digest: str, wire: dict,
                         spec: EmulationSpec) -> CompiledNet:
        """Compile a wire into a :class:`CompiledNet` (executor thread).

        Caller holds the per-key lock. The GENIEx emulator is warmed
        through the model tier first so uploads share it with every
        other endpoint; the engine itself is dedicated to this network
        (each layer's weights are prepared on it during conversion).
        """
        sspec = self.serving_spec(spec)
        n_in, input_shape = _net_input_features(wire)
        emulator = None
        if sspec.engine == "geniex":
            _, emulator = await self.emulator(ModelSpec.from_spec(sspec))
        loop = asyncio.get_running_loop()

        def build() -> CompiledNet:
            started = time.perf_counter()
            model = net_from_wire(wire)
            engine = build_engine(sspec, emulator=emulator)
            try:
                converted = convert_to_mvm(
                    model, engine, chunk_rows=sspec.runtime.chunk_rows)
            except BaseException:
                engine.close(wait=False)
                raise
            return CompiledNet(
                key=key, net_digest=digest, model_key=sspec.model_key(),
                spec_key=sspec.key(), engine_kind=sspec.engine,
                batch_invariant=sspec.runtime.batch_invariant,
                n_layers=len(wire["layers"]),
                n_mvm_layers=len(mvm_layers(converted)),
                n_in=n_in, input_shape=input_shape,
                compile_seconds=time.perf_counter() - started,
                _model=converted, _engine=engine)

        return await loop.run_in_executor(None, build)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def list_models(self) -> list:
        out = []
        for key in self._models.keys():
            emulator: GeniexEmulator = self._models.get(key)
            out.append({"model_key": key, "rows": emulator.rows,
                        "cols": emulator.cols})
        return out

    def stats(self) -> dict:
        caches = {}
        for name, stats in self._stats.items():
            cache: LruDict = getattr(self, f"_{name}")
            total = stats.hits + stats.misses
            caches[name] = {
                "size": len(cache),
                "capacity": cache.max_entries,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hits / total if total else 0.0,
            }
        return caches

    def obs_families(self) -> dict:
        """Registry-owned figures as obs metric families.

        Registered as a snapshot-time collector on the server's metrics
        registry: LRU tier hit/miss/size/capacity, aggregate
        ``EngineStats`` and tile-cache events over the *warm* engines
        (gauges, since eviction shrinks the population), and the zoo's
        get-or-train outcome counters. Reading never touches recency
        (``LruDict.values`` is a pure snapshot), so scraping cannot
        perturb eviction order.
        """
        tiers = self.stats()
        engine_events = dict.fromkeys(EngineStats.FIELDS, 0)
        tile_events = {"hits": 0, "misses": 0}
        warm_engines = [warm.engine for warm in self._engines.values()]
        warm_engines += [warm._engine for warm in self._nets.values()]
        for engine in warm_engines:
            for field, value in engine.stats.snapshot().items():
                engine_events[field] = engine_events.get(field, 0) + value
            cache = getattr(engine, "tile_cache", None)
            if cache is not None:
                hits, misses = cache.counters()
                tile_events["hits"] += hits
                tile_events["misses"] += misses
        return {
            "repro_registry_cache_hits_total": counter_family(
                "Warm-tier cache hits, by registry tier.",
                [({"tier": name}, s["hits"]) for name, s in tiers.items()]),
            "repro_registry_cache_misses_total": counter_family(
                "Warm-tier cache misses, by registry tier.",
                [({"tier": name}, s["misses"])
                 for name, s in tiers.items()]),
            "repro_registry_cache_size": gauge_family(
                "Entries currently warm, by registry tier.",
                [({"tier": name}, s["size"]) for name, s in tiers.items()]),
            "repro_registry_cache_capacity": gauge_family(
                "Configured capacity, by registry tier.",
                [({"tier": name}, s["capacity"])
                 for name, s in tiers.items()]),
            "repro_engine_events": gauge_family(
                "EngineStats events summed over warm prepared engines.",
                [({"event": field}, value)
                 for field, value in engine_events.items()]),
            "repro_tile_cache_events": gauge_family(
                "Tile-result cache events summed over warm engines.",
                [({"event": name}, value)
                 for name, value in tile_events.items()]),
            "repro_zoo_requests_total": counter_family(
                "GENIEx zoo get-or-train calls, by outcome.",
                [({"outcome": name}, value)
                 for name, value in self.zoo.counters().items()]),
        }
