"""Warm-object registry: async-safe LRU tiers layered on the GENIEx zoo.

Each tier warms one kind of object by a deterministic content key, so
identical requests — from any client, in any order — land on the same
warm object (and therefore the same microbatching queue):

* **models** — trained :class:`GeniexEmulator` instances, keyed by the
  zoo artifact key (:meth:`ModelRegistry.model_key`: crossbar design,
  emulator node and fault composition; the engine, sim, runtime and
  mitigation nodes do not enter it). Misses get or train through
  :func:`repro.api.session.resolve_emulator`, like every other surface.
* **crossbars** — the :class:`GeniexTileModel` of a programmed
  conductance matrix (:meth:`GeniexEmulator.for_matrix`: the engine's
  folded, pruned tile), keyed by (model key, G digest).
* **engines** — prepared :class:`CrossbarMvmEngine` pipelines (engine +
  :class:`PreparedMatrix`), keyed by
  ``serving_spec(spec).weights_key(weights)`` and built through
  :func:`repro.api.session.build_engine` with the registry's shard
  threads.
* **mitigated** — whole mitigated classifiers (noise-trained weights on
  a live engine, output calibration applied), keyed by
  :func:`repro.mitigation.runner.mitigated_key`, which folds the
  mitigation node, so a mitigated model never aliases the raw model
  serving the same physics. The zoo persists the artifact.
* **nets** — compiled networks, keyed by :meth:`ModelRegistry.net_key`.
  The zoo persists the uploaded wire, so a restarted server or another
  fleet worker rebuilds from disk.

Every tier is one :class:`_Tier`. A miss starts one build task and every
concurrent miss of the same key awaits it (single flight); the task is
shielded, so a cancelled request never cancels a build others wait on.
Blocking build steps run on executor threads while the event loop keeps
serving. A failed build is not cached: every waiter gets its exception
and the next request builds again. The tiers whose values own shard
threads (engines, mitigated, nets) share one eviction hook, which closes
the evicted value off the event loop; a closed value still answers
queued microbatches on the calling thread.

Where the spec supports it
(:func:`~repro.api.spec.supports_batch_invariance`), each row is
byte-identical whatever batch it is coalesced into. No runtime field
enters ``key()``, so :meth:`ModelRegistry.serving_spec` moves no key.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.api.session import Session, build_engine, resolve_emulator
from repro.api.spec import EmulationSpec, supports_batch_invariance
from repro.core.emulator import GeniexEmulator, GeniexTileModel
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError, ShapeError
from repro.funcsim.convert import convert_to_mvm, mvm_layers
from repro.funcsim.engine import EngineStats
from repro.mitigation.runner import mitigated_key, run_mitigation
from repro.nn.serialization import net_digest, net_from_wire
from repro.nonideal import as_pipeline
from repro.obs import counter_family, gauge_family, span
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
    whenever the spec supports batch invariance (``batch_invariant``), so
    microbatched calls are byte-identical to sequential per-request runs.
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


def _current_spec(stored: dict) -> dict:
    """A stored net program's spec dict in today's schema.

    Programs saved while batch invariance was a runtime flag store
    ``runtime.batch_invariant``, and programs saved while the fleet had
    a routing node store ``runtime.fleet``. No runtime field ever
    entered a key, so both are dropped, not rejected; a client that
    submits either still gets the unknown-field error.
    """
    runtime = {k: v for k, v in stored.get("runtime", {}).items()
               if k not in ("batch_invariant", "fleet")}
    return {**stored, "runtime": runtime}


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


def _close_off_loop(warm) -> None:
    """Close a warm object off the event loop thread.

    The eviction hook of every tier whose values own shard threads.
    Hooks fire inside ``LruDict.put``, and tiers put from the event
    loop; running the close inline would stall every in-flight request
    behind thread-pool teardown. With a running loop the close is handed
    to the default executor; on a plain thread (tests, shutdown paths)
    it runs inline.
    """
    try:
        loop = asyncio.get_running_loop()
    except RuntimeError:
        warm.close(wait=False)
        return
    loop.run_in_executor(None, lambda: warm.close(wait=False))


async def _off_loop(fn):
    """Run a blocking build step on the event loop's default executor."""
    return await asyncio.get_running_loop().run_in_executor(None, fn)


class _Tier:
    """One warm tier: an LRU of built values, its hit and miss counts,
    and the builds in flight (touched only from the event loop)."""

    def __init__(self, capacity: int, closes: bool = False):
        self.cache = LruDict(
            capacity,
            on_evict=(lambda _key, warm: _close_off_loop(warm))
            if closes else None)
        self.hits = 0
        self.misses = 0
        self.inflight: dict = {}    # key -> build task

    def get(self, key):
        """The warm value for ``key`` or ``None``; counts a hit or miss."""
        value = self.cache.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    async def get_or_build(self, key, build):
        """The warm value for ``key``; a miss awaits ``build()``.

        Every concurrent miss of ``key`` awaits one build task. A built
        value other than ``None`` is cached before any waiter resumes.
        """
        value = self.get(key)
        if value is not None:
            return value
        task = self.inflight.get(key)
        # A done task still listed was cancelled before it ever ran (a
        # loop shut down under it), so its ``finally`` never unlisted it.
        if task is None or task.done():
            task = self.inflight[key] = asyncio.ensure_future(
                self._build(key, build))
        return await asyncio.shield(task)

    async def _build(self, key, build):
        try:
            value = await build()
            if value is not None:
                self.cache.put(key, value)
            return value
        finally:
            self.inflight.pop(key, None)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {"size": len(self.cache), "capacity": self.cache.max_entries,
                "hits": self.hits, "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0}


class ModelRegistry:
    """LRU registry of warm emulators, crossbars, prepared engines,
    mitigated models and compiled networks."""

    def __init__(self, zoo: GeniexZoo | None = None, *,
                 max_models: int = 8, max_crossbars: int = 128,
                 max_engines: int = 16, max_mitigated: int = 8,
                 max_nets: int = 8, engine_workers: int = 1):
        self.zoo = zoo or GeniexZoo()
        # > 1 shards every prepared engine's matmuls over that many
        # funcsim threads (they compose with the asyncio executor
        # threads running the batched calls).
        self.engine_workers = max(1, int(engine_workers))
        self._tiers = {
            "models": _Tier(max_models),
            "crossbars": _Tier(max_crossbars),
            "engines": _Tier(max_engines, closes=True),
            "mitigated": _Tier(max_mitigated, closes=True),
            "nets": _Tier(max_nets, closes=True),
        }

    # ------------------------------------------------------------------
    # Keys — all delegate to the spec digest scheme (repro.api.spec),
    # so an in-process Session, a CLI run and an HTTP request that
    # describe the same setup agree on every cache key.
    # ------------------------------------------------------------------
    @staticmethod
    def model_key(spec: EmulationSpec) -> str:
        """The models-tier key: the zoo artifact key of the spec's
        trained emulator. Unlike ``spec.model_key()`` it ignores the
        mitigation node, which does not change the characterisation."""
        return GeniexZoo.artifact_key(
            spec.xbar.to_config(), spec.emulator.sampling,
            spec.emulator.training, spec.emulator.mode,
            nonideality=spec.nonideality)

    @staticmethod
    def crossbar_key(model_key: str, conductance_s: np.ndarray) -> str:
        return content_key(
            "xb", model_key,
            np.ascontiguousarray(conductance_s, dtype=np.float64))

    def serving_spec(self, spec: EmulationSpec) -> EmulationSpec:
        """Normalise a client spec to this registry's execution policy.

        Public: ``registry.serving_spec(spec).weights_key(w)`` is the
        wire-visible warm-engine key, so clients that want to predict
        server cache keys call this (see the README's Public API notes).

        The runtime node is server-owned: warm engines run with the
        registry's shard threads, so clients cannot steer the server onto
        more threads by submitting a creative runtime node. No runtime
        field enters ``key()``, so this never moves a key.
        """
        return spec.evolve(runtime={"workers": self.engine_workers})

    def net_key(self, digest: str, spec: EmulationSpec) -> str:
        """The warm-program key for (net digest, spec).

        The issue-level identity is ``(net_digest, model_key)``; the
        cache key additionally folds the engine kind and sim precision
        through ``serving_spec(spec).key()`` so two specs sharing a
        trained model but differing in execution can never alias one
        compiled program.
        """
        return content_key("netprog", digest,
                           self.serving_spec(spec).key())

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------
    async def emulator(self, spec: EmulationSpec) -> tuple:
        """Warm (or train) the GENIEx emulator a spec describes.

        Returns ``(model_key, emulator)``.
        """
        key = self.model_key(spec)
        emulator = await self._tiers["models"].get_or_build(
            key, lambda: _off_loop(lambda: resolve_emulator(spec, self.zoo)))
        return key, emulator

    async def _engine_emulator(self, spec: EmulationSpec):
        """The warm emulator a ``geniex`` engine needs (``None`` for the
        other kinds), shared with every other endpoint."""
        if spec.engine != "geniex":
            return None
        return (await self.emulator(spec))[1]

    async def matrix_emulator(self, spec: EmulationSpec,
                              conductance_s: np.ndarray) -> tuple:
        """Warm the crossbar tile model for (spec, G).

        Returns ``(crossbar_key, tile)``, ``tile`` being
        ``emulator.for_matrix(G)``: the
        :class:`GeniexTileModel` whose ``fr``/``currents`` serve
        ``/v1/predict_fr`` and ``/v1/predict_currents``.

        ``conductance_s`` is the *intended* programmed matrix; an active
        fault composition on the spec perturbs it (deterministically,
        stream key ``(0,)`` — one registered crossbar is one physical
        array) before the emulator is bound, so a faulty spec is served
        faulty physics rather than silently answering clean. The cache
        key folds the fault composition through ``model_key``, so clean
        and faulty registrations of the same matrix never alias.
        """
        key = self.crossbar_key(self.model_key(spec), conductance_s)

        async def build() -> GeniexTileModel:
            config = spec.xbar.to_config()
            # Validate the shape before (possibly) paying for training.
            if conductance_s.shape != config.shape:
                raise ShapeError(
                    f"conductances must have shape {config.shape}, "
                    f"got {conductance_s.shape}")
            g = conductance_s
            pipeline = as_pipeline(spec.nonideality)
            if pipeline is not None:
                g = pipeline.perturb(g, (0,), config.g_off_s,
                                     config.g_on_s)
            _, emulator = await self.emulator(spec)
            return await _off_loop(lambda: emulator.for_matrix(g))

        return key, await self._tiers["crossbars"].get_or_build(key, build)

    def crossbar(self, key: str) -> GeniexTileModel | None:
        """Fetch a previously registered crossbar by key (or ``None``)."""
        return self._tiers["crossbars"].get(key)

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

        async def build() -> PreparedEngine:
            emulator = await self._engine_emulator(spec)

            def prepare() -> PreparedEngine:
                engine = build_engine(spec, emulator=emulator)
                prepared = engine.prepare(weights)
                return PreparedEngine(key=key, kind=spec.engine,
                                      engine=engine, prepared=prepared,
                                      n_in=prepared.n_in,
                                      n_out=prepared.n_out)

            return await _off_loop(prepare)

        return await self._tiers["engines"].get_or_build(key, build)

    def prepared_engine(self, key: str) -> PreparedEngine | None:
        """Fetch a previously prepared engine by key (or ``None``)."""
        return self._tiers["engines"].get(key)

    async def mitigate(self, spec: EmulationSpec, dataset,
                       hidden=(32,), model_seed: int = 0) -> MitigatedModel:
        """Warm (or run) the mitigation a spec + dataset handle describe.

        The cache key is :func:`~repro.mitigation.runner.mitigated_key`
        under the server-side runtime policy — the full spec digest
        already folds the mitigation node, so mitigated models never
        collide with the raw engines/crossbars serving the same physics.
        The run itself (training, conversion, calibration, persistence)
        happens on an executor thread; the zoo makes repeat requests a
        disk load and same-process repeats a pure cache hit.
        """
        spec = self.serving_spec(spec)
        key = mitigated_key(spec, dataset, hidden=hidden,
                            model_seed=model_seed)

        async def build() -> MitigatedModel:
            emulator = await self._engine_emulator(spec)

            def run() -> MitigatedModel:
                session = Session(spec, zoo=self.zoo, emulator=emulator)
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

            return await _off_loop(run)

        return await self._tiers["mitigated"].get_or_build(key, build)

    def mitigated_model(self, key: str) -> MitigatedModel | None:
        """Fetch a previously built mitigated model by key (or ``None``)."""
        return self._tiers["mitigated"].get(key)

    # ------------------------------------------------------------------
    # Compiled networks (model-level serving)
    # ------------------------------------------------------------------
    async def net(self, wire: dict, spec: EmulationSpec) -> tuple:
        """Warm (or compile) the network a wire + spec describe.

        Returns ``(warm, outcome)`` where ``outcome`` is one of
        ``"memory_hit"``, ``"disk_hit"`` (a readable artifact was
        already persisted) or ``"compiled"`` (this build wrote it); a
        request that joined another's build in flight reads
        ``"memory_hit"``. The zoo persists the wire so every other fleet
        worker — and a restarted server — rebuilds from disk instead of
        needing the upload again.
        """
        digest = net_digest(wire)
        key = self.net_key(digest, spec)
        meta = {"spec": spec.to_dict(), "net_digest": digest,
                "model_key": spec.model_key()}
        outcome = "memory_hit"

        async def build() -> CompiledNet:
            nonlocal outcome
            warm = await self._build_net(key, wire, meta)
            try:
                wrote = await _off_loop(
                    lambda: self.zoo.save_net_program(key, wire, meta))
            except BaseException:
                warm.close(wait=False)
                raise
            outcome = "compiled" if wrote else "disk_hit"
            return warm

        warm = None
        while warm is None:
            # None: this upload joined a by-key load (compiled_net) that
            # found no artifact; build the upload itself then.
            warm = await self._tiers["nets"].get_or_build(key, build)
        return warm, outcome

    async def compiled_net(self, key: str) -> CompiledNet | None:
        """Warm compiled network by key; falls back to the zoo artifact.

        This is how a fleet worker that never saw the original upload
        serves ``net_predict`` for a learned route: the shared artifact
        store holds the wire + spec, so the worker disk-loads and
        compiles once, then stays warm. ``None`` means the key is
        unknown fleet-wide (the caller answers 404).
        """
        async def build() -> CompiledNet | None:
            loaded = await _off_loop(lambda: self.zoo.load_net_program(key))
            if loaded is None:
                return None
            wire, meta = loaded
            return await self._build_net(key, wire, meta)

        return await self._tiers["nets"].get_or_build(key, build)

    async def _build_net(self, key: str, wire: dict,
                         meta: dict) -> CompiledNet:
        """The one net compile path; :meth:`net` persists the result
        before the tier caches it.

        ``meta`` is the record the zoo stores next to the wire. The
        GENIEx emulator is warmed through the model tier first, so
        uploads share it with every other endpoint; the engine itself is
        dedicated to this network (each layer's weights are prepared on
        it during conversion).
        """
        sspec = self.serving_spec(
            EmulationSpec.from_dict(_current_spec(meta["spec"])))
        n_in, input_shape = _net_input_features(wire)
        emulator = await self._engine_emulator(sspec)

        def compile_net() -> CompiledNet:
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
                key=key, net_digest=meta["net_digest"],
                model_key=sspec.model_key(), spec_key=sspec.key(),
                engine_kind=sspec.engine,
                batch_invariant=supports_batch_invariance(sspec.engine,
                                                          sspec.sim),
                n_layers=len(wire["layers"]),
                n_mvm_layers=len(mvm_layers(converted)),
                n_in=n_in, input_shape=input_shape,
                compile_seconds=time.perf_counter() - started,
                _model=converted, _engine=engine)

        return await _off_loop(compile_net)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def list_models(self) -> list:
        models = self._tiers["models"].cache
        out = []
        for key in models.keys():
            emulator: GeniexEmulator = models.get(key)
            out.append({"model_key": key, "rows": emulator.rows,
                        "cols": emulator.cols})
        return out

    def stats(self) -> dict:
        return {name: tier.stats() for name, tier in self._tiers.items()}

    def obs_families(self) -> dict:
        """Registry-owned figures as obs metric families.

        Registered as a snapshot-time collector on the server's metrics
        registry: LRU tier hit/miss/size/capacity, aggregate
        ``EngineStats`` over the *warm* engines (gauges, since eviction
        shrinks the population), and the zoo's get-or-train outcome
        counters. Reading never touches recency
        (``LruDict.values`` is a pure snapshot), so scraping cannot
        perturb eviction order.
        """
        tiers = self.stats()
        engine_events = dict.fromkeys(EngineStats.FIELDS, 0)
        warm_engines = [warm.engine
                        for warm in self._tiers["engines"].cache.values()]
        warm_engines += [warm._engine
                         for warm in self._tiers["nets"].cache.values()]
        for engine in warm_engines:
            for field, value in engine.stats.snapshot().items():
                engine_events[field] = engine_events.get(field, 0) + value
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
            "repro_zoo_requests_total": counter_family(
                "GENIEx zoo get-or-train calls, by outcome.",
                [({"outcome": name}, value)
                 for name, value in self.zoo.counters().items()]),
        }
