"""repro.fleet — a least-loaded pool of serve worker processes.

Scales :mod:`repro.serve` horizontally without touching its wire
protocol: a stdlib-only asyncio front-end (:mod:`repro.fleet.frontend`)
sends each request to the live worker with the fewest in-flight
forwards, and a request naming a memory-only key to the worker that
returned the key (:mod:`repro.fleet.routing`). Workers run the
unmodified single-process server, supervised by
:mod:`repro.fleet.supervisor`, and share one content-addressed artifact
store (the zoo's ``--cache-dir``), so a model trained through any worker
is served by all of them — exactly one training run fleet-wide per
model key.

``python -m repro fleet --workers N`` boots the whole topology; a
:class:`~repro.serve.client.ServeClient` pointed at the front-end works
unchanged.
"""

from repro.fleet.frontend import FleetFrontend, FleetMetrics, WorkerState
from repro.fleet.routing import TokenBucket
from repro.fleet.supervisor import FleetError, FleetSupervisor, \
    FleetThread, WorkerProcess

__all__ = [
    "FleetError",
    "FleetFrontend",
    "FleetMetrics",
    "FleetSupervisor",
    "FleetThread",
    "TokenBucket",
    "WorkerProcess",
    "WorkerState",
]
