"""Damped Newton-Raphson for batches of sparse nonlinear nodal systems.

:func:`solve_newton_batch` iterates B independent systems ``F_k(x_k) = 0``
*simultaneously*, each with Newton steps and a backtracking (Armijo-style)
line search on the infinity norm of its residual. This is the same class of
algorithm a SPICE DC operating-point analysis uses, minus the continuation
heuristics, which the mild non-linearities of on-state 1T1R cells do not
require.

It is the circuit solver's one Newton driver: a single operating point is
a batch of one. Each system carries its own convergence and stall state.
Residual evaluation (the device-model-heavy part) is vectorised across the
whole batch, the line search shrinks its working set as systems accept
their steps, and converged or stalled systems drop out of subsequent
iterations entirely. The Newton step itself comes from a caller-supplied
callback that solves ``J_k p_k = -F_k`` for every active system at once,
so the caller picks the linear solver (the crossbar simulator uses a
batched preconditioned conjugate-gradient solve; a per-system sparse LU
also fits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError


@dataclass(frozen=True)
class NewtonOptions:
    """Termination and damping controls for :func:`solve_newton_batch`.

    Attributes:
        max_iter: Maximum number of Newton iterations per system.
        tol_residual: Absolute convergence threshold on ``max(|F(x)|)``. For
            nodal analysis F is a current residual in Amperes; the default of
            1e-12 A is ~1e-6 relative to the micro-ampere cell currents.
        tol_relative: Additional tolerance proportional to the caller-supplied
            problem scale (largest source current); guards against demanding
            more accuracy than float64 LU can deliver on badly scaled systems.
        max_backtracks: Number of step halvings tried by the line search.
        raise_on_failure: Raise :class:`ConvergenceError` when any system
            has not converged (otherwise return the best iterates, with
            ``converged=False`` for the systems that did not).
    """

    max_iter: int = 60
    tol_residual: float = 1e-12
    tol_relative: float = 1e-12
    max_backtracks: int = 12
    raise_on_failure: bool = True


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


def solve_newton_batch(residual_batch, step_batch, x0: np.ndarray,
                       options: NewtonOptions | None = None,
                       scale=0.0) -> NewtonBatchResult:
    """Solve B independent systems ``F_k(x_k) = 0`` simultaneously.

    Each system follows scalar damped Newton: the full step, halved up to
    ``max_backtracks`` times until the residual norm drops by the Armijo
    factor (else the trial with the smallest norm is kept), and an early
    exit after three iterations without meaningful progress (the float64
    floor of the system). Batching changes no system's algorithm; it lets
    residual evaluation and the step solve vectorise across systems, and
    converged systems stop paying for further iterations. The convergence
    test always uses the true residual, so an inexact step changes the
    path to the operating point, not the tolerance it meets.

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
            # A system's first trial is always kept (even a NaN residual)
            # so the iterate update below never reads uninitialised
            # storage.
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
