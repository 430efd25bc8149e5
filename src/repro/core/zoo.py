"""Disk-backed registry of trained GENIEx models.

Characterising a crossbar (circuit sweeps + MLP training) costs minutes;
every experiment that touches the same configuration should pay it once.
The zoo keys artifacts by a hash of (crossbar config, sampling spec, train
spec, label mode) and stores the model state dict plus the normaliser in a
single ``.npz``, so cached models reload in milliseconds and are fully
self-contained.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import threading

try:
    import fcntl
except ImportError:   # non-POSIX: per-process locks only
    fcntl = None

import numpy as np

from repro.core.dataset import build_geniex_dataset
from repro.core.emulator import GeniexEmulator
from repro.core.model import GeniexNet, Normalizer
from repro.core.sampling import SamplingSpec
from repro.core.trainer import TrainSpec, train_geniex
from repro.errors import SerializationError
from repro.utils.cache import LruDict
from repro.utils.npz import atomic_savez, load_npz
from repro.xbar.config import CrossbarConfig

_log = logging.getLogger("repro.zoo")


def default_cache_dir() -> str:
    """Honour ``REPRO_CACHE_DIR``; fall back to ``~/.cache/repro/geniex``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "geniex")


class GeniexZoo:
    """Train-once cache of :class:`GeniexEmulator` instances."""

    def __init__(self, cache_dir: str | None = None, verbose: bool = False,
                 max_memory_entries: int = 32):
        self.cache_dir = cache_dir or default_cache_dir()
        self.verbose = verbose
        # Bounded LRU: evicted emulators reload from disk in milliseconds,
        # while an unbounded dict would pin every trained network a
        # long-running process (e.g. the serving registry) ever touched.
        self._memory = LruDict(max_memory_entries)
        # ``_mutex`` guards the per-key lock table; per-key locks serialise
        # concurrent get-or-train calls for the same artifact so
        # characterisation + training runs at most once.
        self._mutex = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}
        # get-or-train outcome counters (guarded by ``_mutex``); exposed
        # via :meth:`counters` so the serving registry can federate them
        # into its metrics namespace.
        self._counters = {"calls": 0, "memory_hits": 0, "disk_loads": 0,
                          "trains": 0}

    def _count(self, outcome: str) -> None:
        with self._mutex:
            self._counters["calls"] += 1
            self._counters[outcome] += 1

    def counters(self) -> dict:
        """Snapshot of get-or-train outcome counts."""
        with self._mutex:
            return dict(self._counters)

    def _lock_for(self, key: str) -> threading.Lock:
        with self._mutex:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def artifact_key(config: CrossbarConfig, sampling: SamplingSpec,
                     training: TrainSpec, mode: str,
                     nonideality=None) -> str:
        """Content key of one trained artifact.

        Delegates to :meth:`repro.api.spec.EmulationSpec.model_key` so
        the zoo, the serving registry and session-resolved specs all
        agree on what "the same trained model" means — one digest
        scheme, stable across processes and spawn/fork boundaries.

        ``nonideality`` (a :class:`repro.nonideal.NonidealitySpec`, or
        ``None`` / identity for the historical clean key) participates
        whenever it is non-identity: a faulty crossbar's artifact is
        keyed apart from the clean design's, so the two can never alias
        in any cache built on this key. The characterisation sweep does
        not depend on the fault composition, so separated keys may hold
        identical weights — the cost of one redundant training run buys
        an unconditional no-aliasing guarantee.

        Note: this digest scheme replaced the pre-1.1 repr-based one, so
        artifacts trained by older versions key differently and are
        retrained on first use (the old ``.npz`` files are simply left
        unused on disk).
        """
        # Imported lazily: repro.api resolves sessions *through* the zoo.
        from repro.api.spec import EmulationSpec, EmulatorSpec, XbarSpec
        kwargs = {} if nonideality is None else {"nonideality": nonideality}
        spec = EmulationSpec(
            xbar=XbarSpec.from_config(config),
            emulator=EmulatorSpec(sampling=sampling, training=training,
                                  mode=mode),
            **kwargs)
        return spec.model_key()

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"geniex-{key}.npz")

    @contextlib.contextmanager
    def _file_lock(self, path: str):
        """Cross-process single-writer lock for one artifact path.

        Fleet workers share one cache directory; an ``flock`` on a
        sidecar ``.lock`` file extends the per-key thread lock across
        processes, so exactly one worker fleet-wide pays the training
        run while the others block briefly and then disk-load the
        persisted artifact. Degrades to the thread lock alone where
        ``fcntl`` is unavailable (the atomic-rename writer keeps even
        racing trainers safe there — just not single-writer).
        """
        if fcntl is None:
            yield
            return
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        handle = open(path + ".lock", "a+b")
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            # Unlock-then-close keeps the release explicit; the sidecar
            # file is left in place (deleting it would race a waiter that
            # already opened it, splitting the lock identity).
            fcntl.flock(handle, fcntl.LOCK_UN)
            handle.close()

    def _mitigated_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"mitigated-{key}.npz")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @staticmethod
    def _save_artifact(path: str, state: dict, meta: dict) -> None:
        """Atomically write an artifact of any kind (see
        :func:`~repro.utils.npz.atomic_savez`): a ``param::<name>``
        member per ``state`` array plus ``meta`` as JSON in ``meta_json``
        (member names are a stored format)."""
        arrays = {f"param::{k}": np.asarray(v) for k, v in state.items()}
        arrays["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8)
        atomic_savez(path, arrays)

    @staticmethod
    def _load_artifact(path: str) -> tuple[dict, dict]:
        """``(state, meta)`` of an artifact; raises on an unreadable one,
        which each kind's loader treats as an error or as absent."""
        archive = load_npz(path)
        meta = json.loads(bytes(archive["meta_json"]).decode())
        state = {k[len("param::"):]: archive[k]
                 for k in archive if k.startswith("param::")}
        return state, meta

    @staticmethod
    def save_model(model: GeniexNet, path: str) -> None:
        """Atomically write a model artifact (see :meth:`_save_artifact`)."""
        if model.normalizer is None:
            raise SerializationError("cannot save a model without normalizer")
        GeniexZoo._save_artifact(path, model.state_dict(), {
            "rows": model.rows,
            "cols": model.cols,
            "hidden": model.hidden,
            "hidden_layers": model.hidden_layers,
            "normalizer": model.normalizer.to_dict(),
        })

    @staticmethod
    def load_model(path: str) -> GeniexNet:
        if not os.path.exists(path):
            raise SerializationError(f"no GENIEx artifact at {path}")
        try:
            state, meta = GeniexZoo._load_artifact(path)
            # Construction stays inside the wrapper: a schema-mismatched
            # artifact (missing meta key, wrong parameter shapes) is just
            # as unusable as a truncated one and must also surface as
            # SerializationError so get_or_train falls back to retraining.
            model = GeniexNet(meta["rows"], meta["cols"],
                              hidden=meta["hidden"],
                              hidden_layers=meta.get("hidden_layers", 1),
                              normalizer=Normalizer(**meta["normalizer"]))
            model.load_state_dict(state)
        except SerializationError:
            raise
        except Exception as exc:
            raise SerializationError(
                f"corrupt, unreadable or schema-mismatched GENIEx "
                f"artifact at {path}: {exc}") from exc
        model.eval()
        return model

    # ------------------------------------------------------------------
    # Mitigated-model artifacts
    # ------------------------------------------------------------------
    def save_mitigated(self, key: str, state: dict, meta: dict) -> None:
        """Atomically persist one mitigated-model artifact.

        ``key`` is the mitigated-model digest (see
        :func:`repro.mitigation.runner.mitigated_key` — it folds in the
        full spec identity including the mitigation node, the dataset
        handle and the model architecture, so a mitigated artifact can
        never alias a raw model or a differently-mitigated one).
        ``state`` maps names to arrays (the trained state dict plus any
        fitted calibration buffers); ``meta`` is a small JSON-encodable
        record (sizes, metrics, handle) needed to rebuild and audit it.
        """
        self._save_artifact(self._mitigated_path(key), state, meta)

    def load_mitigated(self, key: str) -> tuple[dict, dict] | None:
        """Load a mitigated artifact as ``(state, meta)``; None if absent.

        An unreadable artifact (crashed legacy writer) behaves like a
        missing one — the caller simply re-runs mitigation and the
        atomic re-save repairs the file.
        """
        try:
            return self._load_artifact(self._mitigated_path(key))
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Compiled-network artifacts (model-level serving)
    # ------------------------------------------------------------------
    def _net_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"netprog-{key}.npz")

    def save_net_program(self, key: str, wire: dict, meta: dict) -> bool:
        """Atomically persist one uploaded-network artifact unless a
        readable one is already there; returns whether it wrote.

        ``key`` is the warm-program key (net digest + serving-spec
        identity); ``wire`` is a ``repro-net/1`` layer-list dict (state
        entries may be JSON-encoded or raw arrays); ``meta`` is a small
        JSON record (spec dict, net digest, model key) that lets any
        fleet worker rebuild and recompile the network from disk without
        ever having seen the original upload. Layer ``i``'s array
        ``name`` is stored as state ``"<i>::<name>"``. Artifacts are
        content-addressed, so a readable file is the same bytes and the
        first writer wins fleet-wide; an unreadable one is rewritten.
        """
        from repro.nn.serialization import decode_state_array
        layers_meta = []
        state = {}
        for i, entry in enumerate(wire["layers"]):
            layer_state = entry.get("state", {})
            layers_meta.append({"kind": entry["kind"],
                                "config": entry.get("config", {}),
                                "state": sorted(layer_state)})
            for name, value in layer_state.items():
                state[f"{i}::{name}"] = decode_state_array(value)
        record = {"format": wire["format"], "layers": layers_meta,
                  "input_shape": wire.get("input_shape"), "meta": meta}
        path = self._net_path(key)
        with self._file_lock(path):
            if self.load_net_program(key) is not None:
                return False
            self._save_artifact(path, state, record)
            return True

    def load_net_program(self, key: str) -> tuple[dict, dict] | None:
        """Load an uploaded-network artifact as ``(wire, meta)``.

        Returns ``None`` when absent or unreadable (the caller answers
        404 / recompiles from a fresh upload). State arrays come back
        raw, not JSON-encoded.
        """
        try:
            state, record = self._load_artifact(self._net_path(key))
            layers = []
            for i, layer_meta in enumerate(record["layers"]):
                entry = {"kind": layer_meta["kind"],
                         "config": layer_meta["config"]}
                if layer_meta["state"]:
                    entry["state"] = {name: state[f"{i}::{name}"]
                                      for name in layer_meta["state"]}
                layers.append(entry)
            wire = {"format": record["format"], "layers": layers}
            if record.get("input_shape") is not None:
                wire["input_shape"] = record["input_shape"]
            return wire, record["meta"]
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def get_or_train(self, config: CrossbarConfig,
                     sampling: SamplingSpec | None = None,
                     training: TrainSpec | None = None,
                     mode: str = "full",
                     nonideality=None,
                     progress: bool = False) -> GeniexEmulator:
        """Return a (possibly cached) emulator for a crossbar configuration.

        ``nonideality`` only *keys* the artifact (see
        :meth:`artifact_key`); the characterisation sweep and training
        are fault-independent, so callers sweeping many fault points
        over one design should resolve the clean emulator once and hand
        it to sessions directly rather than paying one training run per
        grid point.
        """
        sampling = sampling or SamplingSpec()
        training = training or TrainSpec()
        key = self.artifact_key(config, sampling, training, mode,
                                nonideality=nonideality)
        cached = self._memory.get(key)
        if cached is not None:
            self._count("memory_hits")
            return cached
        try:
            with self._lock_for(key):
                # Re-check under the key lock: a concurrent caller may have
                # trained (or loaded) the artifact while we waited.
                cached = self._memory.get(key)
                if cached is not None:
                    self._count("memory_hits")
                    return cached
                path = self._path(key)
                with self._file_lock(path):
                    # Re-check under the *file* lock too: another process
                    # (a fleet worker sharing this cache dir) may have
                    # trained and persisted the artifact while we waited.
                    emulator = self._load_if_present(path)
                    if emulator is None:
                        _log.log(
                            logging.INFO if (self.verbose or progress)
                            else logging.DEBUG,
                            "training model for %dx%d r_on=%g onoff=%g "
                            "v=%g (key %s)", config.rows, config.cols,
                            config.r_on_ohm, config.onoff_ratio,
                            config.v_supply_v, key)
                        dataset = build_geniex_dataset(config, sampling,
                                                       mode=mode,
                                                       progress=progress)
                        model, _ = train_geniex(dataset, training,
                                                verbose=progress)
                        self.save_model(model, path)
                        emulator = GeniexEmulator(model)
                        self._count("trains")
                    else:
                        self._count("disk_loads")
                self._memory.put(key, emulator)
                return emulator
        finally:
            # Drop idle per-key locks so the table is bounded by in-flight
            # training runs, not by every key ever requested. A waiter that
            # raced the drop keeps its reference and at worst repeats the
            # (idempotent, atomically-saved) load/train.
            with self._mutex:
                lock = self._key_locks.get(key)
                if lock is not None and not lock.locked():
                    del self._key_locks[key]

    def _load_if_present(self, path: str) -> GeniexEmulator | None:
        """Load an artifact if it exists and is readable.

        A missing file means "train it"; so does an unreadable one (e.g.
        an artifact from an older, non-atomic writer that crashed mid-save)
        — retraining simply rewrites it atomically.
        """
        try:
            return GeniexEmulator(self.load_model(path))
        except SerializationError:
            return None
