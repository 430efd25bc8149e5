"""Independent references for the circuit solver's batched Newton driver.

:func:`solve_newton` is a scalar damped Newton iteration: one system,
residual and Jacobian from one callback, an exact sparse-LU step per
iteration. It shares no code with
:func:`repro.circuit.newton.solve_newton_batch`, the program's one Newton
driver, so the tests compare the driver's iterates and iteration counts
against it.

:func:`residual_and_jacobian` is its crossbar callback, with the Jacobian
assembled by the simulator's one nodal assembler, and
:func:`reference_solve_full` one full-mode operating point solved with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.linear_solver import sparse_lu
from repro.circuit.newton import NewtonOptions
from repro.errors import ConvergenceError


@dataclass
class NewtonResult:
    """Outcome of a Newton solve."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def solve_newton(residual_and_jacobian, x0: np.ndarray,
                 options: NewtonOptions | None = None,
                 scale: float = 0.0) -> NewtonResult:
    """Solve ``F(x) = 0`` by damped Newton iteration.

    Args:
        residual_and_jacobian: Callable ``x -> (F, J)`` with ``F`` a dense
            vector and ``J`` a scipy sparse matrix in a format convertible
            to CSC.
        x0: Initial iterate (a good linearised guess matters; the crossbar
            simulator seeds with the small-signal linear solution).
        options: See :class:`NewtonOptions`.
        scale: Characteristic magnitude of the residual entries (e.g. the
            largest source current); multiplied by ``tol_relative`` and added
            to the absolute tolerance.

    Returns:
        :class:`NewtonResult` with the final iterate and statistics.
    """
    opts = options or NewtonOptions()
    tol = opts.tol_residual + opts.tol_relative * abs(scale)
    x = np.array(x0, dtype=float, copy=True)
    f, jac = residual_and_jacobian(x)
    norm = float(np.max(np.abs(f))) if f.size else 0.0
    stalled = 0

    for iteration in range(1, opts.max_iter + 1):
        if norm <= tol:
            return NewtonResult(x, iteration - 1, norm, True)
        lu = sparse_lu(jac.tocsc())
        step = lu.solve(-f)

        # Backtracking line search on the residual infinity norm.
        t = 1.0
        best = None
        for _ in range(opts.max_backtracks + 1):
            x_try = x + t * step
            f_try, jac_try = residual_and_jacobian(x_try)
            norm_try = float(np.max(np.abs(f_try)))
            if best is None or norm_try < best[0]:
                best = (norm_try, x_try, f_try, jac_try)
            if norm_try <= (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        # Stop early when the residual has hit the float64 floor for this
        # system: three consecutive iterations without meaningful progress.
        stalled = stalled + 1 if best[0] > 0.999 * norm else 0
        norm, x, f, jac = best
        if stalled >= 3:
            break

    if norm <= tol:
        return NewtonResult(x, opts.max_iter, norm, True)
    if opts.raise_on_failure:
        raise ConvergenceError(
            f"Newton failed to converge: residual {norm:.3e} A after "
            f"{opts.max_iter} iterations (tol {tol:.1e} A)")
    return NewtonResult(x, opts.max_iter, norm, False)


def residual_and_jacobian(sim, device, rhs):
    """``x -> (F, J)`` of one crossbar operating point.

    ``F`` is the KCL current residual of the nodal system with right-hand
    side ``rhs`` and the per-cell ``device`` stack; ``J`` is its Jacobian,
    the nodal matrix with the device conductances stamped in by
    ``sim.linear_solver.system_matrix``.
    """
    topo = sim.topology
    an, bn = topo.cell_row_nodes, topo.cell_col_nodes
    para = sim._parasitic_csr

    def fn(x):
        vd = x[an] - x[bn]
        i_dev, g_dev = device.current_and_conductance(vd)
        f = para @ x - rhs
        f[an] += i_dev
        f[bn] -= i_dev
        return f, sim.linear_solver.system_matrix(g_dev)

    return fn


def reference_solve_full(sim, voltages_v, conductance_s, device=None):
    """One full-mode operating point by :func:`solve_newton`.

    Seeded, like the simulator, with the exact linear solution; returns
    the :class:`NewtonResult` (``x`` holds the node voltages).
    """
    if device is None:
        device = sim.make_cell_device(conductance_s)
    x0 = sim.linear_solver.solve_node_voltages(voltages_v, conductance_s)
    rhs = sim.topology.rhs_for_inputs(voltages_v)
    scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    return solve_newton(residual_and_jacobian(sim, device, rhs), x0,
                        sim.newton_options, scale=scale)
