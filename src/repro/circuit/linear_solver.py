"""Exact linear solve of the parasitic crossbar with ohmic cells.

With every cell reduced to a fixed conductance the nodal system is linear, so
a single sparse LU factorisation per conductance matrix answers any number of
input-voltage vectors. This is simultaneously:

* the *linear simulation mode* of the circuit simulator ("case (i): only
  linear non-idealities" in the paper's Section 3 analysis), and
* the paper's *analytical baseline model* (matrix-inversion modelling of
  parasitic resistances, cf. Jain et al., CxDNN), wrapped with a friendlier
  API in :mod:`repro.analytical.linear_model`.

The solver keeps one factor: that of the last conductance matrix it
factorised, keyed by the matrix bytes. Repeated solves against the same
programmed crossbar — the access pattern of dataset generation — pay the
LU cost once and back-substitute whole voltage batches afterwards. No
caller returns to an older matrix, and a SuperLU factor holds several MB
(its fill estimate), so older factors are dropped rather than kept.

Every nodal matrix of the circuit solver, here and in the full-mode Newton
steps, is assembled by :meth:`LinearCrossbarSolver.system_matrix` on one
precomputed :class:`StampPattern`. Every sparse LU goes through
:func:`sparse_lu` and so uses one fill-reducing column ordering,
:data:`LU_ORDERING`. The nodal matrix is structurally symmetric,
so minimum degree on ``A^T + A`` fills it less than SuperLU's default
``COLAMD``: 10088 -> 8450 L+U nonzeros at 16x16, 63446 -> 53056 at 32x32
and 402072 -> 321288 at 64x64, and back-substitution gets cheaper with
them (a 20-RHS solve at 32x32: 2.6 -> 1.9 ms).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from repro.utils.validation import check_matrix
from repro.xbar.config import CrossbarConfig
from repro.circuit.topology import CrossbarTopology

# SuperLU column ordering of every factorisation in the circuit solver.
LU_ORDERING = "MMD_AT_PLUS_A"


def sparse_lu(matrix):
    """SuperLU factors of a nodal matrix, ordered by :data:`LU_ORDERING`."""
    return splu(matrix, permc_spec=LU_ORDERING)


class StampPattern:
    """Precomputed CSC sparsity pattern for parasitics + cell stamps.

    Assembling the nodal matrix from COO triplets costs a sort and a
    duplicate reduction per call. The pattern of the nodal matrix never
    changes for a given topology, so this helper computes the CSC structure
    (and where every COO entry lands in it) once; per matrix, assembly
    reduces to one ``bincount`` over the cell stamp values plus the
    constant parasitic contribution. It is the one assembler of the
    circuit solver: the linear network's matrix (ohmic cells) and the
    full-mode Newton Jacobian (per-cell device conductances) alike.
    """

    def __init__(self, topology: CrossbarTopology):
        an, bn = topology.cell_row_nodes, topology.cell_col_nodes
        rows = np.concatenate([topology.parasitic_rows, an, bn, an, bn])
        cols = np.concatenate([topology.parasitic_cols, an, bn, bn, an])
        n = topology.n_nodes
        order = np.lexsort((rows, cols))
        rows_sorted, cols_sorted = rows[order], cols[order]
        keys = cols_sorted.astype(np.int64) * n + rows_sorted
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        positions_sorted = np.cumsum(first) - 1
        positions = np.empty(order.size, dtype=np.int64)
        positions[order] = positions_sorted
        self.nnz = int(positions_sorted[-1]) + 1
        self.shape = (n, n)
        self.indices = rows_sorted[first].astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(cols_sorted[first], minlength=n))]
        ).astype(np.int64)
        n_parasitic = topology.parasitic_vals.size
        self._parasitic_data = np.bincount(
            positions[:n_parasitic], weights=topology.parasitic_vals,
            minlength=self.nnz)
        self._stamp_positions = positions[n_parasitic:]

    def assemble(self, g_cells: np.ndarray) -> sparse.csc_matrix:
        """CSC nodal matrix for flat per-cell conductances ``g_cells``."""
        vals = np.concatenate([g_cells, g_cells, -g_cells, -g_cells])
        data = self._parasitic_data + np.bincount(
            self._stamp_positions, weights=vals, minlength=self.nnz)
        return sparse.csc_matrix((data, self.indices, self.indptr),
                                 shape=self.shape)


class LinearCrossbarSolver:
    """Sparse direct solver for the linear parasitic crossbar.

    The LU memo is keyed by the conductance matrix *values*, so a hit is
    always numerically exact.
    """

    def __init__(self, config: CrossbarConfig):
        self.config = config
        self.topology = CrossbarTopology(config)
        self.pattern = StampPattern(self.topology)
        #: ``(matrix bytes, LU)`` of the last conductance matrix factorised.
        self._last_lu = (None, None)

    def system_matrix(self, conductance_s: np.ndarray) -> sparse.csc_matrix:
        """Nodal matrix with the given ohmic cell conductances stamped in."""
        return self.pattern.assemble(
            np.asarray(conductance_s, dtype=float).ravel())

    def factorization(self, conductance_s):
        """Sparse LU of the nodal system for this conductance matrix.

        The factor of the last matrix is kept, so back-to-back (batched)
        solves against one programmed crossbar factorise it once. The memo
        is read once per call and replaced whole, so threads sharing a
        solver each get a factor of the matrix they asked for.
        """
        conductance_s = check_matrix("conductance_s", conductance_s,
                                     self.config.shape)
        key = conductance_s.tobytes()
        last_key, lu = self._last_lu
        if last_key != key:
            lu = sparse_lu(self.system_matrix(conductance_s))
            self._last_lu = (key, lu)
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

    def transfer_matrix(self, conductance_s) -> np.ndarray:
        """The linear map ``I = V @ T`` of the parasitic network.

        Because the network is linear, solving one unit-voltage problem per
        input row yields a ``(rows, cols)`` transfer matrix ``T`` that
        answers any number of input vectors with a plain matmul — this is
        the "matrix inversion" formulation of the analytical baseline
        (CxDNN) and what makes the analytical MVM engine fast.

        The factorisation is deliberately *not* memoised: callers keep the
        transfer matrix, not the LU, so keeping this one-shot factor would
        only replace the one the repeated-solve paths still reuse.
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
