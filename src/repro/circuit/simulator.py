"""Full non-linear crossbar DC simulator (the HSPICE stand-in).

For a given conductance matrix the simulator programs a filamentary RRAM
device per cell (optionally behind an access transistor), assembles the
parasitic nodal system, and solves the non-linear DC operating point with
damped Newton-Raphson, seeded from the exact linear solution. The public API
deliberately mirrors what the paper extracts from HSPICE: bit-line output
currents for (V, G) pairs, in ``ideal``, ``linear`` and ``full`` modes.

:meth:`CrossbarCircuitSimulator.solve_batch` is the high-throughput path:
whole voltage batches share one cached LU factorisation in linear mode and
one batched Newton run (per-system convergence mask, vectorised device
evaluation) in full mode. A full-mode Newton step factorises nothing: every
active operating point's step comes out of one batched preconditioned
conjugate-gradient run, preconditioned by that same cached linear LU, at
a cost of a few matrix-free Jacobian products and multi-RHS
back-substitutions. Only an operating point that reaches the iteration cap
``CG_MAX_ITER`` takes the exact step (Jacobian assembled on the
precomputed sparsity pattern and factorised with
:func:`~repro.circuit.linear_solver.sparse_lu`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.devices import (
    AccessTransistor,
    FilamentaryRram,
    SeriesStack,
    TwoTerminalDevice,
)
from repro.errors import ConfigError
from repro.utils.validation import check_matrix, check_vector
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm
from repro.circuit.linear_solver import LinearCrossbarSolver, sparse_lu
from repro.circuit.newton import (
    NewtonOptions,
    solve_newton,
    solve_newton_batch,
)
from repro.circuit.topology import CrossbarTopology

MODES = ("ideal", "linear", "full")

# Batched conjugate-gradient Newton steps (see
# CrossbarCircuitSimulator._newton_steps): relative stopping threshold on
# the step residual's infinity norm, and the iteration cap past which a
# system takes the exact sparse-LU step.
CG_RTOL = 1e-9
CG_MAX_ITER = 60


class _StampPattern:
    """Precomputed CSC sparsity pattern for parasitics + device stamps.

    Assembling the Jacobian from COO triplets costs a sort and a duplicate
    reduction per call. The pattern of the nodal matrix never changes for a
    given topology, so this helper computes the CSC structure (and where
    every COO entry lands in it) once; per system, assembly reduces to one
    ``bincount`` over the device stamp values plus the constant parasitic
    contribution. The batched solver assembles only for its exact-step
    fallback.
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

    def assemble(self, g_dev: np.ndarray) -> sparse.csc_matrix:
        """CSC nodal Jacobian for per-cell device conductances ``g_dev``."""
        vals = np.concatenate([g_dev, g_dev, -g_dev, -g_dev])
        data = self._parasitic_data + np.bincount(
            self._stamp_positions, weights=vals, minlength=self.nnz)
        return sparse.csc_matrix((data, self.indices, self.indptr),
                                 shape=self.shape)


@dataclass
class CrossbarSolution:
    """Result of one non-ideal crossbar solve.

    Attributes:
        currents_a: Bit-line output currents, shape ``(cols,)``.
        node_voltages_v: Full nodal solution (``None`` in ideal mode).
        iterations: Newton iterations used (0 for linear/ideal modes).
        mode: Simulation mode that produced this solution.
    """

    currents_a: np.ndarray
    node_voltages_v: np.ndarray | None
    iterations: int
    mode: str


class CrossbarCircuitSimulator:
    """DC operating-point simulator for one crossbar configuration."""

    def __init__(self, config: CrossbarConfig,
                 newton_options: NewtonOptions | None = None):
        self.config = config
        self.topology = CrossbarTopology(config)
        self.linear_solver = LinearCrossbarSolver(config)
        self.newton_options = newton_options or NewtonOptions()
        self._stamp_pattern = _StampPattern(self.topology)
        topo = self.topology
        self._parasitic_csr = sparse.coo_matrix(
            (topo.parasitic_vals, (topo.parasitic_rows, topo.parasitic_cols)),
            shape=(topo.n_nodes, topo.n_nodes)).tocsr()

    # ------------------------------------------------------------------
    # Device construction
    # ------------------------------------------------------------------
    def make_cell_device(self, conductance_s: np.ndarray) -> TwoTerminalDevice:
        """Build the vectorised per-cell device stack for a G matrix."""
        g_flat = np.asarray(conductance_s, dtype=float).ravel()
        cfg = self.config
        if not cfg.with_access_transistor:
            return FilamentaryRram.from_conductance(
                g_flat, cfg.rram, v_ref=cfg.programming_v_ref_v)
        # With an access transistor the program-and-verify loop sees the
        # *stack* conductance; compensate so the stack's small-signal
        # conductance equals the target (series g: 1/g = 1/g_t + 1/g_r).
        transistor = AccessTransistor(r_on_ohm=cfg.access_r_on_ohm,
                                      v_ov_v=cfg.access_v_ov_v,
                                      gmin_s=cfg.gmin_s)
        g_t = transistor.small_signal_conductance()
        if np.any(g_flat >= g_t):
            raise ConfigError(
                "target cell conductance exceeds the access transistor's "
                "on-conductance; lower g_on or the transistor resistance")
        g_rram = g_flat * g_t / (g_t - g_flat)
        rram = FilamentaryRram.from_conductance(
            g_rram, cfg.rram, v_ref=cfg.programming_v_ref_v)
        return SeriesStack(transistor, rram)

    # ------------------------------------------------------------------
    # Solvers
    # ------------------------------------------------------------------
    def solve(self, voltages_v, conductance_s,
              mode: str = "full") -> CrossbarSolution:
        """Solve one (V, G) operating point in the requested mode."""
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        conductance_s = check_matrix("conductance_s", conductance_s,
                                     self.config.shape)
        voltages_v = check_vector("voltages_v", voltages_v, self.config.rows)

        if mode == "ideal":
            return CrossbarSolution(ideal_mvm(voltages_v, conductance_s),
                                    None, 0, mode)
        if mode == "linear":
            node_v = self.linear_solver.solve_node_voltages(voltages_v,
                                                            conductance_s)
            return CrossbarSolution(self.topology.output_currents(node_v),
                                    node_v, 0, mode)
        return self._solve_full(voltages_v, conductance_s)

    def solve_batch(self, voltages_v, conductance_s,
                    mode: str = "full") -> np.ndarray:
        """Output currents for a batch of voltage vectors, shape (B, cols).

        The conductance matrix is shared across the batch, as it is during
        inference on a programmed crossbar. Linear and ideal modes share one
        (cached) factorisation / one matmul; full mode runs one *batched*
        damped-Newton solve that iterates every operating point
        simultaneously, seeded from the batched linear solution. Empty
        batches (``B = 0``) return an empty ``(0, cols)`` array.
        """
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        conductance_s = check_matrix("conductance_s", conductance_s,
                                     self.config.shape)
        voltages_v = np.atleast_2d(np.asarray(voltages_v, dtype=float))
        if mode == "ideal":
            return ideal_mvm(voltages_v, conductance_s)
        if mode == "linear":
            return self.linear_solver.solve(voltages_v, conductance_s)
        return self._solve_full_batch(voltages_v, conductance_s)

    def cell_voltage_matrix(self, solution: CrossbarSolution) -> np.ndarray:
        """Per-cell voltage differences ``V_a(i,j) - V_b(i,j)``.

        The (rows, cols) map of effective device drive after IR drops —
        the spatial signature of the linear non-idealities (cells far from
        the driver and the sink see the least voltage).
        """
        if solution.node_voltages_v is None:
            raise ConfigError(
                "ideal-mode solutions carry no node voltages")
        x = solution.node_voltages_v
        topo = self.topology
        return (x[topo.cell_row_nodes]
                - x[topo.cell_col_nodes]).reshape(self.config.shape)

    def _residual_and_jacobian_factory(self, device, rhs):
        topo = self.topology
        an, bn = topo.cell_row_nodes, topo.cell_col_nodes
        shape = (topo.n_nodes, topo.n_nodes)
        para = self._parasitic_csr
        stamp_rows = np.concatenate([an, bn, an, bn])
        stamp_cols = np.concatenate([an, bn, bn, an])

        def residual_and_jacobian(x):
            vd = x[an] - x[bn]
            i_dev, g_dev = device.current_and_conductance(vd)
            f = para @ x - rhs
            f[an] += i_dev
            f[bn] -= i_dev
            vals = np.concatenate([g_dev, g_dev, -g_dev, -g_dev])
            jac = para + sparse.coo_matrix(
                (vals, (stamp_rows, stamp_cols)), shape=shape).tocsr()
            return f, jac

        return residual_and_jacobian

    def _batched_callbacks(self, device, rhs, lu):
        """Residual / step callbacks for :func:`solve_newton_batch`.

        ``rhs`` has shape ``(B, n_nodes)``; the callbacks receive the
        original batch indices so per-system RHS rows line up with the
        (shrinking) active working set. Device evaluation is vectorised over
        ``(M, n_cells)`` voltage-difference arrays and happens once per
        iterate: the residual computes I and dI/dV together (the 1T1R
        series stack solves its internal node once for both) and memoises
        the conductances, which the step callback — always invoked at
        iterates the line search just evaluated — picks up by value.

        The step solves ``J p = -F`` for all active systems in one batched
        preconditioned conjugate-gradient run (see :meth:`_newton_steps`),
        preconditioned by ``lu``, the linear network's factorisation.
        """
        topo = self.topology
        an, bn = topo.cell_row_nodes, topo.cell_col_nodes
        para = self._parasitic_csr
        # vd-bytes -> per-cell conductance rows seen since the last step
        # (one outer Newton iteration's line search).
        g_memo: dict = {}

        def residual(x, idx):
            vd = x[:, an] - x[:, bn]
            i_dev, g_dev = device.current_and_conductance(vd)
            for k in range(x.shape[0]):
                g_memo[vd[k].tobytes()] = g_dev[k]
            f = (para @ x.T).T - rhs[idx]
            f[:, an] += i_dev
            f[:, bn] -= i_dev
            return f

        def step(x, idx, f):
            vd = x[:, an] - x[:, bn]
            g_dev = np.empty_like(vd)
            for k in range(x.shape[0]):
                g_row = g_memo.get(vd[k].tobytes())
                if g_row is None:  # never hit in practice; stay correct
                    g_row = device.conductance(vd[k])
                g_dev[k] = g_row
            g_memo.clear()
            return self._newton_steps(g_dev, f, lu)

        return residual, step

    def _newton_steps(self, g_dev, f, lu) -> np.ndarray:
        """Newton steps ``p_k = -J_k^{-1} f_k`` for a batch of systems.

        ``J_k`` is the parasitic matrix plus the cell stamps of the
        per-cell device conductances ``g_dev[k]``: a symmetric positive
        definite M-matrix (every device current strictly increases with
        its voltage). It differs from the linear network's matrix, whose
        factorisation ``lu`` the batch already holds, only in the cell
        stamps, so ``lu`` is a close preconditioner and conjugate
        gradients converge in a handful of iterations. Each iteration is
        one matrix-free ``J p`` product and one multi-RHS ``lu.solve``
        over the systems still iterating; a system stops once
        ``max|r| <= CG_RTOL * max|f|``. A system still short of that at
        ``CG_MAX_ITER`` iterations takes the exact step instead: its
        Jacobian assembled on the precomputed pattern and factorised with
        ``sparse_lu``.
        """
        topo = self.topology
        an, bn = topo.cell_row_nodes, topo.cell_col_nodes
        para = self._parasitic_csr

        def apply_jacobian(p, g):
            d = g * (p[:, an] - p[:, bn])
            out = (para @ p.T).T
            out[:, an] += d
            out[:, bn] -= d
            return out

        def precondition(r):
            return lu.solve(r.T).T

        steps = np.zeros_like(f)
        tol = CG_RTOL * np.max(np.abs(f), axis=1)
        active = np.arange(f.shape[0])
        r = -f
        p = precondition(r)
        rz = np.einsum("ij,ij->i", r, p)
        for _ in range(CG_MAX_ITER):
            ap = apply_jacobian(p, g_dev[active])
            alpha = rz / np.einsum("ij,ij->i", p, ap)
            steps[active] += alpha[:, None] * p
            r = r - alpha[:, None] * ap
            going = np.max(np.abs(r), axis=1) > tol[active]
            active, r, p, rz = active[going], r[going], p[going], rz[going]
            if not active.size:
                break
            z = precondition(r)
            rz_next = np.einsum("ij,ij->i", r, z)
            p = z + (rz_next / rz)[:, None] * p
            rz = rz_next
        for k in active:
            steps[k] = sparse_lu(
                self._stamp_pattern.assemble(g_dev[k])).solve(-f[k])
        return steps

    def _solve_full_batch(self, voltages_v, conductance_s) -> np.ndarray:
        """Batched non-linear solve; one Newton run for the whole batch."""
        if voltages_v.shape[0] == 0:
            return np.zeros((0, self.config.cols))
        return self.topology.output_currents(
            self._newton_batch(voltages_v, conductance_s).x)

    def _newton_batch(self, voltages_v, conductance_s):
        """:class:`NewtonBatchResult` of a non-empty full-mode batch."""
        device = self.make_cell_device(conductance_s)
        x0 = self.linear_solver.solve_node_voltages(voltages_v, conductance_s)
        lu = self.linear_solver.factorization(conductance_s)
        rhs = self.topology.rhs_for_inputs(voltages_v)
        scale = np.max(np.abs(rhs), axis=1)
        residual, step = self._batched_callbacks(device, rhs, lu)
        return solve_newton_batch(residual, step, x0, self.newton_options,
                                  scale=scale)

    def _solve_full(self, voltages_v, conductance_s,
                    device: TwoTerminalDevice | None = None) -> CrossbarSolution:
        if device is None:
            device = self.make_cell_device(conductance_s)
        # Seed Newton with the exact solution of the small-signal linear
        # network; for on-state 1T1R stacks this is already very close.
        x0 = self.linear_solver.solve_node_voltages(voltages_v, conductance_s)
        rhs = self.topology.rhs_for_inputs(voltages_v)
        fn = self._residual_and_jacobian_factory(device, rhs)
        scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
        result = solve_newton(fn, x0, self.newton_options, scale=scale)
        currents = self.topology.output_currents(result.x)
        return CrossbarSolution(currents, result.x, result.iterations, "full")
