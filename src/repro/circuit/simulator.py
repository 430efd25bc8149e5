"""Full non-linear crossbar DC simulator (the HSPICE stand-in).

For a given conductance matrix the simulator programs a filamentary RRAM
device per cell (optionally behind an access transistor), assembles the
parasitic nodal system, and solves the non-linear DC operating point with
damped Newton-Raphson, seeded from the exact linear solution. The public API
deliberately mirrors what the paper extracts from HSPICE: bit-line output
currents for (V, G) pairs, in ``ideal``, ``linear`` and ``full`` modes.

Every full-mode solve is one run of the batched Newton driver
(:func:`~repro.circuit.newton.solve_newton_batch`):
:meth:`CrossbarCircuitSimulator.solve_batch` runs it on the whole voltage
batch and :meth:`CrossbarCircuitSimulator.solve` on a batch of one. The
linear mode shares one cached LU factorisation across a batch. A
full-mode Newton step factorises nothing: every active operating point's
step comes out of one batched preconditioned conjugate-gradient run,
preconditioned by that same linear LU, at a cost of a few matrix-free
Jacobian products and multi-RHS back-substitutions. Only an operating
point that reaches the iteration cap ``CG_MAX_ITER`` takes the exact step:
its Jacobian assembled by the one nodal assembler,
:meth:`~repro.circuit.linear_solver.LinearCrossbarSolver.system_matrix`,
with the device conductances in place of the ohmic ones, and factorised
with :func:`~repro.circuit.linear_solver.sparse_lu`.
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
    NewtonBatchResult,
    NewtonOptions,
    solve_newton_batch,
)

MODES = ("ideal", "linear", "full")

# Batched conjugate-gradient Newton steps (see
# CrossbarCircuitSimulator._newton_steps): relative stopping threshold on
# the step residual's infinity norm, and the iteration cap past which a
# system takes the exact sparse-LU step.
CG_RTOL = 1e-9
CG_MAX_ITER = 60


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
        self.linear_solver = LinearCrossbarSolver(config)
        self.topology = topo = self.linear_solver.topology
        self.newton_options = newton_options or NewtonOptions()
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
        """Solve one (V, G) operating point in the requested mode.

        Full mode runs the batched Newton driver on a batch of one.
        """
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
        result = self._newton_batch(voltages_v[None, :], conductance_s)
        node_v = result.x[0]
        return CrossbarSolution(self.topology.output_currents(node_v),
                                node_v, int(result.iterations[0]), mode)

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
        if voltages_v.shape[0] == 0:
            return np.zeros((0, self.config.cols))
        return self.topology.output_currents(
            self._newton_batch(voltages_v, conductance_s).x)

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
                self.linear_solver.system_matrix(g_dev[k])).solve(-f[k])
        return steps

    def _newton_batch(self, voltages_v, conductance_s):
        """:class:`NewtonBatchResult` of a non-empty full-mode batch."""
        device = self.make_cell_device(conductance_s)
        lu = self.linear_solver.factorization(conductance_s)
        return self.newton_batch(voltages_v, device, lu)

    def newton_batch(self, voltages_v, device: TwoTerminalDevice,
                     lu) -> NewtonBatchResult:
        """One batched Newton run on a programmed crossbar.

        ``device`` is the crossbar's cell stack, fresh from
        :meth:`make_cell_device` (a 1T1R stack warm-starts from its last
        call), and ``lu`` the factor of its linear network's nodal matrix:
        it seeds every operating point with the exact small-signal linear
        solution (for on-state 1T1R stacks already very close) and
        preconditions every Newton step. ``voltages_v`` has shape
        ``(B, rows)``, ``B = 0`` included. A caller that reads one crossbar
        many times, like a ``circuit`` engine tile, factorises it once.
        """
        rhs = self.topology.rhs_for_inputs(voltages_v)
        x0 = lu.solve(rhs.T).T
        scale = np.max(np.abs(rhs), axis=1)
        residual, step = self._batched_callbacks(device, rhs, lu)
        return solve_newton_batch(residual, step, x0, self.newton_options,
                                  scale=scale)
