"""Exact linear solve of the parasitic crossbar with ohmic cells.

With every cell reduced to a fixed conductance the nodal system is linear, so
a single sparse LU factorisation per conductance matrix answers any number of
input-voltage vectors. This is simultaneously:

* the *linear simulation mode* of the circuit simulator ("case (i): only
  linear non-idealities" in the paper's Section 3 analysis), and
* the paper's *analytical baseline model* (matrix-inversion modelling of
  parasitic resistances, cf. Jain et al., CxDNN), wrapped with a friendlier
  API in :mod:`repro.analytical.linear_model`.

The factorisation is memoised per conductance matrix (a small LRU keyed by
the matrix bytes), so repeated solves against the same programmed crossbar —
the access pattern of both dataset generation and the functional simulator —
pay the LU cost once and back-substitute whole voltage batches afterwards.

Every sparse LU in the circuit solver, here and in the full-mode Newton
steps, goes through :func:`sparse_lu` and so uses one fill-reducing column
ordering, :data:`LU_ORDERING`. The nodal matrix is structurally symmetric,
so minimum degree on ``A^T + A`` fills it less than SuperLU's default
``COLAMD``: 10088 -> 8450 L+U nonzeros at 16x16, 63446 -> 53056 at 32x32
and 402072 -> 321288 at 64x64, and back-substitution gets cheaper with
them (a 20-RHS solve at 32x32: 2.6 -> 1.9 ms).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.utils.cache import LruDict
from repro.utils.validation import check_matrix
from repro.xbar.config import CrossbarConfig
from repro.circuit.topology import CrossbarTopology

# SuperLU column ordering of every factorisation in the circuit solver.
LU_ORDERING = "MMD_AT_PLUS_A"


def sparse_lu(matrix):
    """SuperLU factors of a nodal matrix, ordered by :data:`LU_ORDERING`."""
    return splu(matrix, permc_spec=LU_ORDERING)


class LinearCrossbarSolver:
    """Sparse direct solver for the linear parasitic crossbar.

    ``lu_cache_size`` bounds the number of retained LU factorisations;
    each cache entry is keyed by the conductance matrix *values*, so a hit
    is always numerically exact.
    """

    def __init__(self, config: CrossbarConfig, lu_cache_size: int = 8):
        self.config = config
        self.topology = CrossbarTopology(config)
        self._lu_cache = LruDict(lu_cache_size)

    @property
    def lu_cache_size(self) -> int:
        return self._lu_cache.max_entries

    @lu_cache_size.setter
    def lu_cache_size(self, n: int) -> None:
        self._lu_cache.max_entries = int(n)

    def system_matrix(self, conductance_s: np.ndarray) -> sparse.csc_matrix:
        """Nodal matrix with the given ohmic cell conductances stamped in."""
        topo = self.topology
        g = np.asarray(conductance_s, dtype=float).ravel()
        an, bn = topo.cell_row_nodes, topo.cell_col_nodes
        rows = np.concatenate([topo.parasitic_rows, an, bn, an, bn])
        cols = np.concatenate([topo.parasitic_cols, an, bn, bn, an])
        vals = np.concatenate([topo.parasitic_vals, g, g, -g, -g])
        shape = (topo.n_nodes, topo.n_nodes)
        return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsc()

    def factorization(self, conductance_s):
        """Cached sparse LU of the nodal system for this conductance matrix.

        The cache is an LRU of ``lu_cache_size`` factorisations keyed by the
        matrix bytes; every distinct programmed crossbar is factorised once
        and all subsequent (batched) solves reuse the factors.
        """
        conductance_s = check_matrix("conductance_s", conductance_s,
                                     self.config.shape)
        key = conductance_s.tobytes()
        lu = self._lu_cache.get(key)
        if lu is None:
            lu = sparse_lu(self.system_matrix(conductance_s))
            self._lu_cache.put(key, lu)
        return lu

    def solve_node_voltages(self, voltages_v, conductance_s) -> np.ndarray:
        """Full nodal solution; accepts a single vector or a batch.

        Returns shape ``(n_nodes,)`` for 1-D input or ``(batch, n_nodes)``
        for 2-D input (including ``batch = 0``). The cached factorisation is
        shared across the batch: one LU, one multi-RHS back-substitution.
        """
        voltages_v = np.asarray(voltages_v, dtype=float)
        rhs = self.topology.rhs_for_inputs(voltages_v)
        if rhs.ndim == 2 and rhs.shape[0] == 0:
            # Still validate G so an empty batch raises the same errors a
            # non-empty one would (no factorisation is needed, though).
            check_matrix("conductance_s", conductance_s, self.config.shape)
            return np.zeros_like(rhs)
        lu = self.factorization(conductance_s)
        if rhs.ndim == 1:
            return lu.solve(rhs)
        # splu solves column-wise: stack the batch as columns.
        return lu.solve(rhs.T).T

    def solve(self, voltages_v, conductance_s) -> np.ndarray:
        """Bit-line output currents for one voltage vector or a batch."""
        node_v = self.solve_node_voltages(voltages_v, conductance_s)
        return self.topology.output_currents(node_v)

    def solve_batch(self, voltages_v, conductance_s) -> np.ndarray:
        """Batched bit-line currents, always shaped ``(batch, cols)``.

        Accepts ``(rows,)`` or ``(batch, rows)`` voltages (``batch = 0``
        included); one cached factorisation answers the whole batch.
        """
        voltages_v = np.atleast_2d(np.asarray(voltages_v, dtype=float))
        return self.solve(voltages_v, conductance_s)

    def transfer_matrix(self, conductance_s) -> np.ndarray:
        """The linear map ``I = V @ T`` of the parasitic network.

        Because the network is linear, solving one unit-voltage problem per
        input row yields a ``(rows, cols)`` transfer matrix ``T`` that
        answers any number of input vectors with a plain matmul — this is
        the "matrix inversion" formulation of the analytical baseline
        (CxDNN) and what makes the analytical MVM engine fast.

        The factorisation is deliberately *not* cached: callers keep the
        transfer matrix, not the LU, so inserting these one-shot factors
        would only evict entries the repeated-solve paths still reuse.
        """
        conductance_s = check_matrix("conductance_s", conductance_s,
                                     self.config.shape)
        topo = self.topology
        lu = sparse_lu(self.system_matrix(conductance_s))
        rhs = np.zeros((topo.n_nodes, self.config.rows))
        rhs[topo.source_nodes, np.arange(self.config.rows)] = \
            topo.g_source_s
        node_v = lu.solve(rhs)  # (n_nodes, rows)
        return (topo.g_sink_s * node_v[topo.sink_nodes, :]).T
