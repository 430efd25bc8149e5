"""Execution kernel of the functional simulator.

The planner (:mod:`repro.funcsim.planner`) lowers prepared layers into
static tile programs and the compile pass (:mod:`repro.funcsim.compiler`)
into their one executable form; this package executes them. Work is
decomposed into (tile-row, batch-chunk) shards, each run by
:func:`~repro.funcsim.runtime.kernel.run_tile_row` through the layer's
compiled kernel — the same kernel for every engine kind;
:meth:`~repro.funcsim.engine.CrossbarMvmEngine.matmul` schedules the
shards, on the calling thread or on the engine's thread pool.

Determinism: the shard decomposition depends only on the workload,
``shard_rows`` and the layer's chunk cap — never on the worker count —
so every worker count returns bit-identical outputs, and with ADC noise
the coordinate-keyed noise streams make results reproducible too (see
:mod:`repro.funcsim.runtime.kernel`).
"""

from repro.funcsim.runtime.kernel import (
    DEFAULT_SHARD_ROWS,
    chunk_ranges,
    merge_tile_rows,
    quantize_input,
    run_tile_row,
    shard_adc,
)

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "chunk_ranges",
    "merge_tile_rows",
    "quantize_input",
    "run_tile_row",
    "shard_adc",
]
