"""The batched Newton driver on small closed-form systems.

Every case runs at ``B = 1`` (a single solve is a batch of one) and at
``B = 3``, whose systems are copies of the first, so each must end exactly
where the single system does.
"""

import numpy as np
import pytest

from repro.circuit.newton import NewtonOptions, solve_newton_batch
from repro.errors import ConvergenceError

BATCHES = (1, 3)


def diagonal_problem(residual, derivative):
    """Batch callbacks for an elementwise system ``F(x) = residual(x)``
    whose Jacobian is ``diag(derivative(x))``: the exact Newton step is
    ``-F / derivative``."""

    def residual_batch(x, idx):
        return residual(x)

    def step_batch(x, idx, f):
        return -f / derivative(x)

    return residual_batch, step_batch


def quadratic_problem(target):
    """F(x) = x^2 - target, elementwise (root sqrt(target))."""
    return diagonal_problem(lambda x: x ** 2 - target, lambda x: 2.0 * x)


def rootless_problem():
    """F(x) = x^2 + 1: no real root."""
    return diagonal_problem(lambda x: x ** 2 + 1.0,
                            lambda x: 2.0 * x + 1e-3)


def floor_problem():
    """An irreducible residual floor, as from finite LU precision."""
    return diagonal_problem(lambda x: np.full_like(x, 1e-7),
                            lambda x: np.ones_like(x))


def solve(problem, x0, batch, options=None, scale=0.0):
    """Run ``batch`` copies of one system; every copy must end alike."""
    residual, step = problem
    x0 = np.tile(np.asarray(x0, dtype=float), (batch, 1))
    result = solve_newton_batch(residual, step, x0, options, scale=scale)
    for k in range(1, batch):
        assert result.x[k].tobytes() == result.x[0].tobytes()
        assert result.iterations[k] == result.iterations[0]
    return result


class TestScalarSystems:
    def test_converges_to_root(self):
        for batch in BATCHES:
            target = np.array([4.0, 9.0, 2.0])
            result = solve(quadratic_problem(target), np.ones(3) * 3.0,
                           batch, NewtonOptions(tol_residual=1e-12))
            np.testing.assert_allclose(
                result.x, np.tile(np.sqrt(target), (batch, 1)), rtol=1e-6)
            assert result.converged.all()
            assert result.x.shape == (batch, 3)

    def test_iteration_count_reported(self):
        for batch in BATCHES:
            result = solve(quadratic_problem(np.array([4.0])), [10.0],
                           batch)
            assert result.iterations.shape == (batch,)
            assert np.all(result.iterations >= 2)

    def test_already_converged(self):
        for batch in BATCHES:
            result = solve(quadratic_problem(np.array([4.0])), [2.0], batch)
            np.testing.assert_array_equal(result.iterations,
                                          np.zeros(batch))
            assert result.converged.all()

    def test_failure_raises(self):
        for batch in BATCHES:
            with pytest.raises(ConvergenceError, match=f"{batch}/{batch}"):
                solve(rootless_problem(), [1.0], batch,
                      NewtonOptions(max_iter=10))

    def test_failure_returns_best_when_not_raising(self):
        for batch in BATCHES:
            result = solve(rootless_problem(), [1.0], batch,
                           NewtonOptions(max_iter=10,
                                         raise_on_failure=False))
            assert not result.converged.any()
            # The best iterate is returned, with its own residual.
            np.testing.assert_array_equal(result.residual,
                                          np.abs(result.x[:, 0] ** 2 + 1.0))

    def test_stall_exit(self):
        """Three iterations without progress end a system's run well
        before the iteration cap."""
        for batch in BATCHES:
            result = solve(floor_problem(), [0.0], batch,
                           NewtonOptions(max_iter=10,
                                         raise_on_failure=False))
            assert not result.converged.any()
            np.testing.assert_array_equal(result.iterations,
                                          np.full(batch, 3))

    def test_relative_tolerance_scale(self):
        """A large problem scale loosens the effective tolerance."""
        for batch in BATCHES:
            with pytest.raises(ConvergenceError):
                solve(floor_problem(), [0.0], batch,
                      NewtonOptions(max_iter=10, tol_residual=1e-12))
            result = solve(floor_problem(), [0.0], batch,
                           NewtonOptions(max_iter=10, tol_residual=1e-12,
                                         tol_relative=1e-12),
                           scale=1e6)
            assert result.converged.all()
            np.testing.assert_array_equal(result.iterations,
                                          np.zeros(batch))

    def test_line_search_handles_overshoot(self):
        """Strongly curved residual needs damping from a far start."""
        for batch in BATCHES:
            result = solve(quadratic_problem(np.array([1e6])), [1.0],
                           batch, NewtonOptions(max_iter=60))
            np.testing.assert_allclose(result.x, np.full((batch, 1), 1e3),
                                       rtol=1e-5)
