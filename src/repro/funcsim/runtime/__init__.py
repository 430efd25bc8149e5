"""Execution kernel of the functional simulator.

The planner (:mod:`repro.funcsim.planner`) compiles prepared layers into
static tile programs; this package executes them. Work is decomposed into
(tile-row, batch-chunk) shards evaluated by one kernel
(:mod:`repro.funcsim.runtime.kernel`);
:meth:`~repro.funcsim.engine.CrossbarMvmEngine.matmul` schedules the
shards, on the calling thread or on the engine's thread pool.

Determinism: the shard decomposition depends only on the workload and
``shard_rows`` — never on the worker count — so every worker count
returns bit-identical outputs, and with ADC noise the coordinate-keyed
noise streams make results reproducible too (see
:mod:`repro.funcsim.runtime.kernel`).

Each shard runs through :func:`~repro.funcsim.runtime.kernel.run_tile_row`,
which dispatches to the compiled fused kernel when the program carries one
(see :mod:`repro.funcsim.compiler`) and to the interpreted reference kernel
otherwise — bit-identically either way. The fused kernel's array ops come
from :mod:`~repro.funcsim.runtime.backends`.
"""

from repro.funcsim.runtime.backends import resolve_backend
from repro.funcsim.runtime.kernel import (
    DEFAULT_SHARD_ROWS,
    chunk_ranges,
    execute_tile_row,
    merge_tile_rows,
    quantize_input,
    run_tile_row,
    shard_adc,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "resolve_backend",
    "chunk_ranges",
    "execute_tile_row",
    "merge_tile_rows",
    "quantize_input",
    "run_tile_row",
    "shard_adc",
]
