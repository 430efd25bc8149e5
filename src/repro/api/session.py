"""Session facade: resolve a spec into a live, managed engine.

:func:`open_session` is the single entry point for turning a declarative
:class:`~repro.api.spec.EmulationSpec` into something that computes:

* the GENIEx emulator is resolved through a
  :class:`~repro.core.zoo.GeniexZoo` (get-or-train, disk-cached, one
  training run per artifact key under the zoo's per-key locks);
* the engine is constructed by the same
  :func:`~repro.funcsim.engine.make_engine` factory every other surface
  uses, so a session is bit-identical to the hand-wired pipeline (tested);
* the session owns the engine lifecycle: leaving the ``with`` block (or
  calling :meth:`Session.close`) releases the engine's shard thread pool,
  after which the engine keeps running single-threaded rather than
  breaking — the same evict-degrade semantics the serving registry
  relies on.

Typical use::

    from repro.api import EmulationSpec, open_session

    spec = EmulationSpec.preset("quick").evolve(**{"xbar.rows": 32})
    with open_session(spec) as session:
        y = session.matmul(x, weights)          # bit-sliced crossbar MVM
        net = session.compile(model)            # whole-DNN conversion
        print(session.stats())
"""

from __future__ import annotations

import numpy as np

from repro.api.spec import EmulationSpec
from repro.core.zoo import GeniexZoo
from repro.errors import ConfigError
from repro.funcsim.convert import convert_to_mvm
from repro.funcsim.engine import PreparedMatrix, make_engine
from repro.obs import span
from repro.utils.cache import LruDict

#: Prepared weight matrices memoised per session (keyed by content
#: digest, so re-submitting the same weights never re-programs tiles).
PREPARED_CACHE_ENTRIES = 32


def resolve_emulator(spec: EmulationSpec, zoo: GeniexZoo | None = None,
                     progress: bool = False):
    """Get-or-train the GENIEx emulator a spec's ``geniex`` engine needs.

    Goes through the zoo's per-key training locks and disk cache; the
    artifact key is ``spec.model_key()`` with the mitigation node
    stripped (the characterisation sweep is mitigation-independent — see
    ``GeniexZoo.artifact_key``), so every surface that resolves the same
    physics shares one trained model.
    """
    zoo = zoo or GeniexZoo()
    return zoo.get_or_train(spec.xbar.to_config(), spec.emulator.sampling,
                            spec.emulator.training, mode=spec.emulator.mode,
                            nonideality=spec.nonideality, progress=progress)


def build_engine(spec: EmulationSpec, emulator=None):
    """Construct the engine a spec describes (no zoo resolution).

    ``emulator`` must be supplied for ``geniex`` specs — use
    :func:`open_session` (or :func:`resolve_emulator`) to obtain it; the
    serving registry passes its warm-tier emulator here directly.
    """
    if spec.engine == "geniex" and emulator is None:
        raise ConfigError(
            "building a geniex engine requires a resolved emulator; "
            "open_session(spec) resolves one through the zoo")
    runtime = spec.runtime
    return make_engine(spec.engine, spec.xbar.to_config(),
                       spec.sim.to_config(), emulator=emulator,
                       tile_cache_size=runtime.tile_cache_size,
                       batch_invariant=runtime.batch_invariant,
                       workers=runtime.workers,
                       nonideality=spec.nonideality,
                       backend=runtime.backend)


class Session:
    """A live emulation setup: spec + resolved emulator + engine.

    Context-managed; closing releases the engine's shard threads (the
    engine stays usable afterwards). Prefer :func:`open_session` over
    constructing directly.
    """

    def __init__(self, spec: EmulationSpec, *, zoo: GeniexZoo | None = None,
                 emulator=None, progress: bool = False):
        if not isinstance(spec, EmulationSpec):
            raise ConfigError(
                f"Session expects an EmulationSpec, got "
                f"{type(spec).__name__}; open_session also accepts preset "
                f"names and spec dicts")
        self.spec = spec
        self.zoo = zoo
        with span("session-build", engine=spec.engine):
            if spec.engine == "geniex" and emulator is None:
                emulator = resolve_emulator(spec, zoo=zoo, progress=progress)
            self.emulator = emulator
            self.engine = build_engine(spec, emulator=emulator)
        self._prepared = LruDict(PREPARED_CACHE_ENTRIES)
        self._simulator = None
        self._closed = False

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def prepare(self, weights) -> PreparedMatrix:
        """Compile a weight matrix for this session's engine (memoised).

        Accepts a ready :class:`PreparedMatrix` (returned unchanged) or a
        ``(K, M)`` array; preparing is content-keyed, so resubmitting
        equal weights reuses the programmed tiles — and mutating an
        array in place correctly re-prepares it. The memoisation hash
        touches every byte of the array per call; for hot loops over
        huge matrices, call ``prepare`` once and pass the returned
        :class:`PreparedMatrix` to :meth:`matmul` directly.
        """
        if isinstance(weights, PreparedMatrix):
            return weights
        key = self.spec.weights_key(weights)
        prepared = self._prepared.get(key)
        if prepared is None:
            prepared = self.engine.prepare(np.asarray(weights))
            self._prepared.put(key, prepared)
        return prepared

    def matmul(self, x, weights) -> np.ndarray:
        """Bit-sliced crossbar product of ``x`` with ``weights``."""
        return self.engine.matmul(x, self.prepare(weights))

    def solve_batch(self, voltages_v, conductance_s,
                    mode: str = "full") -> np.ndarray:
        """Circuit-level ground truth for this spec's crossbar design.

        Solves the (batched) crossbar circuit at the spec's design
        parameters — the oracle GENIEx emulates — independent of the
        engine kind, so any session can check its own fidelity.
        """
        if self._simulator is None:
            from repro.circuit.simulator import CrossbarCircuitSimulator
            self._simulator = CrossbarCircuitSimulator(
                self.spec.xbar.to_config())
        return self._simulator.solve_batch(voltages_v, conductance_s,
                                           mode=mode)

    def compile(self, model, chunk_rows: int | None = None):
        """An MVM copy of ``model`` running on this session's engine.

        Wraps :func:`~repro.funcsim.convert.convert_to_mvm`; the
        converted layers run on the session's engine (threaded when the
        spec configures workers), and the session — not the returned
        model — owns the engine lifecycle.
        """
        if chunk_rows is None:
            chunk_rows = self.spec.runtime.chunk_rows
        return convert_to_mvm(model, self.engine, chunk_rows=chunk_rows)

    def mitigate(self, data, *, hidden=(32,), model_seed: int = 0,
                 model=None, baseline: bool = True,
                 progress: bool = False):
        """Run this spec's ``mitigation`` recipe against its engine.

        Wraps :func:`repro.mitigation.runner.run_mitigation` with this
        session (its engine, zoo and runtime policy). ``data`` is a
        dataset handle (name or dict — see
        :mod:`repro.datasets.handles`) or raw ``(x_train, y_train,
        x_test, y_test)`` arrays. Returns a
        :class:`~repro.mitigation.runner.MitigationResult` whose
        ``serving`` model runs on this session's engine; the artifact is
        persisted in (and on re-runs reloaded from) the zoo under its
        mitigated-model digest.
        """
        from repro.mitigation.runner import run_mitigation
        return run_mitigation(self.spec, data, hidden=hidden,
                              model_seed=model_seed, model=model,
                              zoo=self.zoo, session=self,
                              baseline=baseline, progress=progress)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Unified observability snapshot of this session.

        Always carries ``spec_key`` and the engine's event counters
        (``engine``); adds ``tile_cache`` counters when the engine keeps
        a tile-result cache. Reading the snapshot never perturbs caches
        or counters.
        """
        out = {"spec_key": self.spec.key(),
               "engine": self.engine.stats.snapshot()
               if hasattr(self.engine, "stats") else {}}
        cache = getattr(self.engine, "tile_cache", None)
        if cache is not None:
            hits, misses = cache.counters()
            out["tile_cache"] = {"hits": hits, "misses": misses,
                                 "size": len(cache)}
        return out

    def close(self, wait: bool = True) -> None:
        """Release the engine's shard threads; the engine stays usable.

        Idempotent. Matmuls issued after ``close()`` still complete
        (single-threaded), mirroring the serving registry's evict-degrade
        contract, so a session handed to background work cannot strand
        queued calls.
        """
        if not self._closed:
            self._closed = True
            self.engine.close(wait=wait)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self):
        return (f"Session(engine={self.spec.engine!r}, "
                f"xbar={self.spec.xbar.rows}x{self.spec.xbar.cols}, "
                f"key={self.spec.key()!r}, closed={self._closed})")


def open_session(spec, *, zoo: GeniexZoo | None = None, emulator=None,
                 progress: bool = False) -> Session:
    """Open a :class:`Session` for a spec, preset name or spec dict.

    ``spec`` may be an :class:`EmulationSpec`, a preset name
    (``"quick"``, ``"paper-64x64"``, ...) or a ``to_dict()``-shaped
    dict (e.g. parsed from a ``--spec file.json``). ``zoo`` defaults to
    the shared disk-backed zoo; ``emulator`` overrides resolution with a
    ready-made instance (the experiment drivers pass their pre-trained
    models through here).
    """
    if isinstance(spec, str):
        spec = EmulationSpec.preset(spec)
    elif isinstance(spec, dict):
        spec = EmulationSpec.from_dict(spec)
    return Session(spec, zoo=zoo, emulator=emulator, progress=progress)
