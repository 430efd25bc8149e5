"""Damped Newton-Raphson for sparse nonlinear nodal systems.

The solver accepts a callback returning the residual vector and the sparse
Jacobian at the current iterate and performs Newton steps with a backtracking
(Armijo-style) line search on the infinity norm of the residual. This is the
same class of algorithm a SPICE DC operating-point analysis uses, minus the
continuation heuristics, which the mild non-linearities of on-state 1T1R
cells do not require.

Two drivers share the algorithm:

* :func:`solve_newton` — one system, residual and Jacobian from one callback.
* :func:`solve_newton_batch` — B independent systems iterated
  *simultaneously* with a per-system convergence mask. Residual evaluation
  (the device-model-heavy part) is vectorised across the whole batch, the
  line search shrinks its working set as systems accept their steps, and
  converged or stalled systems drop out of subsequent iterations entirely.
  The Newton step itself comes from a caller-supplied callback that solves
  ``J_k p_k = -F_k`` for every active system at once, so the caller picks
  the linear solver (the crossbar simulator uses a batched preconditioned
  conjugate-gradient solve; a per-system sparse LU also fits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.linear_solver import sparse_lu
from repro.errors import ConvergenceError


@dataclass(frozen=True)
class NewtonOptions:
    """Termination and damping controls for :func:`solve_newton`.

    Attributes:
        max_iter: Maximum number of Newton iterations.
        tol_residual: Absolute convergence threshold on ``max(|F(x)|)``. For
            nodal analysis F is a current residual in Amperes; the default of
            1e-12 A is ~1e-6 relative to the micro-ampere cell currents.
        tol_relative: Additional tolerance proportional to the caller-supplied
            problem scale (largest source current); guards against demanding
            more accuracy than float64 LU can deliver on badly scaled systems.
        max_backtracks: Number of step halvings tried by the line search.
        raise_on_failure: Raise :class:`ConvergenceError` when not converged
            (otherwise return the best iterate with ``converged=False``).
    """

    max_iter: int = 60
    tol_residual: float = 1e-12
    tol_relative: float = 1e-12
    max_backtracks: int = 12
    raise_on_failure: bool = True


@dataclass
class NewtonResult:
    """Outcome of a Newton solve."""

    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


@dataclass
class NewtonBatchResult:
    """Outcome of a batched Newton solve over B independent systems.

    Attributes:
        x: Final iterates, shape ``(B, n)``.
        iterations: Newton steps taken per system, shape ``(B,)``.
        residual: Final residual infinity norms, shape ``(B,)``.
        converged: Per-system convergence flags, shape ``(B,)``.
    """

    x: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray


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


def solve_newton_batch(residual_batch, step_batch, x0: np.ndarray,
                       options: NewtonOptions | None = None,
                       scale=0.0) -> NewtonBatchResult:
    """Solve B independent systems ``F_k(x_k) = 0`` simultaneously.

    Given exact steps, the iteration is algorithmically identical to
    :func:`solve_newton` applied per system (same damping rule and stall
    detection), so the two agree to solver tolerance; the batched form
    exists because residual evaluation and the step solve vectorise across
    systems and converged systems stop paying for further iterations. The
    convergence test always uses the true residual, so an inexact step
    changes the path to the operating point, not the tolerance it meets.

    Args:
        residual_batch: Callable ``(x, idx) -> F`` mapping iterates of shape
            ``(M, n)`` for the systems listed in ``idx`` (an int array of
            original batch positions, used to select per-system constants
            such as RHS vectors) to residuals of shape ``(M, n)``.
        step_batch: Callable ``(x, idx, f) -> p`` returning the Newton
            steps ``p_k = -J_k(x_k)^{-1} f_k``, shape ``(M, n)``, for the
            iterates ``x`` of the systems in ``idx`` and their residuals
            ``f`` (both shape ``(M, n)``). Only called at accepted
            iterates, whose residuals were just evaluated, never inside
            the line search.
        x0: Initial iterates, shape ``(B, n)``; the crossbar simulator seeds
            with the batched linear solution. ``B = 0`` is allowed and
            returns immediately.
        options: See :class:`NewtonOptions`.
        scale: Characteristic residual magnitude, scalar or shape ``(B,)``.

    Returns:
        :class:`NewtonBatchResult` with per-system iterates and statistics.
    """
    opts = options or NewtonOptions()
    x = np.array(x0, dtype=float, copy=True)
    if x.ndim != 2:
        raise ValueError(f"x0 must have shape (B, n), got {x.shape}")
    n_sys, n = x.shape
    tol = opts.tol_residual + opts.tol_relative * np.abs(
        np.broadcast_to(np.asarray(scale, dtype=float), (n_sys,)))
    if n_sys == 0:
        return NewtonBatchResult(x, np.zeros(0, dtype=int), np.zeros(0),
                                 np.ones(0, dtype=bool))

    f = np.asarray(residual_batch(x, np.arange(n_sys)), dtype=float)
    norm = np.max(np.abs(f), axis=1)
    stalled = np.zeros(n_sys, dtype=int)
    iterations = np.zeros(n_sys, dtype=int)
    converged = norm <= tol
    active = ~converged

    for _ in range(opts.max_iter):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        step = np.asarray(step_batch(x[idx], idx, f[idx]), dtype=float)

        # Backtracking line search with a per-system step length; systems
        # leave the working set as soon as their Armijo condition holds.
        t = np.ones(idx.size)
        searching = np.ones(idx.size, dtype=bool)
        base_norm = norm[idx]
        best_norm = np.full(idx.size, np.inf)
        best_x = np.empty((idx.size, n))
        best_f = np.empty((idx.size, n))
        has_best = np.zeros(idx.size, dtype=bool)
        for _backtrack in range(opts.max_backtracks + 1):
            sub = np.nonzero(searching)[0]
            x_try = x[idx[sub]] + t[sub, None] * step[sub]
            f_try = np.asarray(residual_batch(x_try, idx[sub]), dtype=float)
            norm_try = np.max(np.abs(f_try), axis=1)
            # A system's first trial is always kept (even a NaN residual,
            # matching solve_newton's `best is None` rule) so the iterate
            # update below never reads uninitialised storage.
            improved = ~has_best[sub] | (norm_try < best_norm[sub])
            has_best[sub] = True
            upd = sub[improved]
            best_norm[upd] = norm_try[improved]
            best_x[upd] = x_try[improved]
            best_f[upd] = f_try[improved]
            accepted = norm_try <= (1.0 - 1e-4 * t[sub]) * base_norm[sub]
            searching[sub[accepted]] = False
            t[sub[~accepted]] *= 0.5
            if not searching.any():
                break

        stalled[idx] = np.where(best_norm > 0.999 * base_norm,
                                stalled[idx] + 1, 0)
        x[idx] = best_x
        f[idx] = best_f
        norm[idx] = best_norm
        iterations[idx] += 1
        now_converged = norm[idx] <= tol[idx]
        converged[idx] |= now_converged
        active[idx] = ~now_converged & (stalled[idx] < 3)

    if opts.raise_on_failure and not converged.all():
        n_bad = int(np.count_nonzero(~converged))
        worst = float(norm[~converged].max())
        raise ConvergenceError(
            f"Newton failed to converge on {n_bad}/{n_sys} batched systems: "
            f"worst residual {worst:.3e} A (tol {tol.max():.1e} A)")
    return NewtonBatchResult(x, iterations, norm, converged)
