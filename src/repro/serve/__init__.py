"""Async crossbar-emulation service with dynamic microbatching.

The serving subsystem exposes the GENIEx stack over a stdlib-only JSON/HTTP
API. Concurrent single-vector requests for the same programmed crossbar are
coalesced by :class:`~repro.serve.scheduler.MicrobatchScheduler` into exactly
the large batches a programmed crossbar's
:class:`~repro.core.emulator.GeniexTileModel` and
:class:`~repro.funcsim.engine.CrossbarMvmEngine` are fast at, with bounded
queues, backpressure and a ``/metrics`` endpoint.

Layers:

* :mod:`repro.serve.protocol` — wire format: every request names its
  emulation by one :class:`~repro.api.spec.EmulationSpec` (``"spec"``)
  or by a warm-object key; arrays; errors;
* :mod:`repro.serve.metrics` — thread-safe serving counters/histograms;
* :mod:`repro.serve.scheduler` — per-key dynamic microbatching;
* :mod:`repro.serve.registry` — warm-object LRU tiers over
  :class:`GeniexZoo` (models, crossbars, engines, mitigated models,
  compiled nets), keyed by spec digests, one single-flight build per key;
* :mod:`repro.serve.httpio` — the HTTP/1.1 front door (connection loop,
  response writer, tracing, drain) shared with the :mod:`repro.fleet`
  front-end;
* :mod:`repro.serve.server` — the asyncio HTTP server;
* :mod:`repro.serve.client` — a small blocking HTTP client.
"""

from repro.serve.client import (
    ClientConnectionError,
    ClientTimeoutError,
    ServeClient,
    ServerBusyError,
    ServerError,
)
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MicrobatchScheduler, QueueFullError
from repro.serve.server import EmulationServer, ServerThread

__all__ = [
    "ClientConnectionError",
    "ClientTimeoutError",
    "EmulationServer",
    "MicrobatchScheduler",
    "ModelRegistry",
    "QueueFullError",
    "ServeClient",
    "ServerBusyError",
    "ServerError",
    "ServerThread",
]
