"""Property-style equivalence tests: batched solves == per-vector solves.

The batched pipeline (cached-LU linear solve, batched damped Newton, the
simulator's ``solve_batch``) must agree with per-vector solves to solver
tolerance across crossbar sizes, simulation modes and parasitic
configurations, including the ``B = 1`` and empty-batch edge cases. The
batched Newton driver is checked against an independent per-system
reference, the scalar damped Newton of :mod:`newton_reference`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import splu

from newton_reference import reference_solve_full, solve_newton
from repro.circuit.linear_solver import LinearCrossbarSolver
from repro.circuit.newton import NewtonOptions, solve_newton_batch
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.xbar.config import CrossbarConfig

# Relative agreement demanded between batched and per-vector solves; both
# converge to ~1e-12 A absolute residual, so 1e-9 relative is conservative.
RTOL = 1e-9

config_strategy = st.builds(
    CrossbarConfig,
    rows=st.integers(min_value=2, max_value=6),
    cols=st.integers(min_value=2, max_value=5),
    r_wire_ohm=st.sampled_from([0.0, 2.5, 20.0]),
    r_source_ohm=st.sampled_from([50.0, 500.0]),
    r_sink_ohm=st.sampled_from([10.0, 100.0]),
    with_access_transistor=st.booleans(),
)


def lu_steps(jacobians, f):
    """Exact Newton steps ``splu(J_k).solve(-f_k)``, one per system."""
    return np.stack([splu(jac).solve(-f_k) for jac, f_k in zip(jacobians, f)])


def sample_vg(config, batch, seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
    v = rng.uniform(0.0, config.v_supply_v, size=(batch, config.rows))
    return v, g


class TestLinearBatched:
    @given(config=config_strategy,
           batch=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_batched_matches_per_vector(self, config, batch, seed):
        v, g = sample_vg(config, batch, seed)
        solver = LinearCrossbarSolver(config)
        batched = solver.solve(v, g)
        assert batched.shape == (batch, config.cols)
        reference = LinearCrossbarSolver(config)
        for k in range(batch):
            single = reference.solve(v[k], g)
            np.testing.assert_allclose(batched[k], single, rtol=RTOL,
                                       atol=1e-18)

    @given(config=config_strategy,
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_node_voltages_batch_matches(self, config, seed):
        v, g = sample_vg(config, 3, seed)
        solver = LinearCrossbarSolver(config)
        batched = solver.solve_node_voltages(v, g)
        for k in range(3):
            np.testing.assert_allclose(
                batched[k], solver.solve_node_voltages(v[k], g),
                rtol=RTOL, atol=1e-18)

    def test_empty_batch(self):
        config = CrossbarConfig(rows=3, cols=4)
        solver = LinearCrossbarSolver(config)
        v = np.zeros((0, config.rows))
        g = np.full(config.shape, config.g_off_s)
        assert solver.solve(v, g).shape == (0, config.cols)
        assert solver.solve_node_voltages(v, g).shape == \
            (0, solver.topology.n_nodes)

    def test_factorization_cache_reused_and_bounded(self):
        """The solver keeps one factor: the same G reuses it, a new G
        replaces it."""
        config = CrossbarConfig(rows=3, cols=3)
        solver = LinearCrossbarSolver(config)
        rng = np.random.default_rng(0)
        gs = [rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
              for _ in range(2)]
        first = solver.factorization(gs[0])
        assert solver.factorization(gs[0].copy()) is first
        second = solver.factorization(gs[1])
        assert second is not first
        assert solver.factorization(gs[1]) is second
        assert solver.factorization(gs[0]) is not first  # re-factorised
        # A re-factorised matrix still produces the same solution.
        v = rng.uniform(0.0, config.v_supply_v, size=config.rows)
        expected = LinearCrossbarSolver(config).solve(v, gs[0])
        np.testing.assert_allclose(solver.solve(v, gs[0]), expected,
                                   rtol=RTOL)


class TestNewtonBatched:
    """Direct batched-vs-sequential comparison on synthetic 1-D systems.

    ``F_k(x) = i0 * (exp(x / vt) - 1) + g * x - b_k`` — a diode with a
    shunt, one scalar system per batch element, so the batched driver's
    masking logic is exercised with systems that converge at different
    iteration counts.
    """

    def _problem(self, b_values):
        i0, vt, g = 1e-9, 0.05, 1e-4

        def residual_single(b):
            def fn(x):
                f = i0 * np.expm1(x / vt) + g * x - b
                jac = sparse.csc_matrix(
                    np.array([[i0 / vt * np.exp(x[0] / vt) + g]]))
                return f, jac
            return fn

        def residual_batch(x, idx):
            return i0 * np.expm1(x / vt) + g * x - b_values[idx, None]

        def step_batch(x, idx, f):
            return lu_steps((sparse.csc_matrix(
                np.array([[i0 / vt * np.exp(x[k, 0] / vt) + g]]))
                for k in range(x.shape[0])), f)

        return residual_single, residual_batch, step_batch

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           batch=st.integers(min_value=1, max_value=6))
    def test_matches_sequential(self, seed, batch):
        rng = np.random.default_rng(seed)
        b_values = rng.uniform(1e-6, 1e-3, size=batch)
        single, res_b, step_b = self._problem(b_values)
        opts = NewtonOptions(tol_residual=1e-14)
        x0 = np.zeros((batch, 1))
        out = solve_newton_batch(res_b, step_b, x0, opts,
                                 scale=np.abs(b_values))
        assert out.converged.all()
        for k in range(batch):
            ref = solve_newton(single(b_values[k]), np.zeros(1), opts,
                               scale=abs(b_values[k]))
            np.testing.assert_allclose(out.x[k], ref.x, rtol=RTOL,
                                       atol=1e-15)
            assert out.iterations[k] == ref.iterations

    def test_empty_batch(self):
        _, res_b, step_b = self._problem(np.zeros(0))
        out = solve_newton_batch(res_b, step_b, np.zeros((0, 1)))
        assert out.x.shape == (0, 1)
        assert out.converged.shape == (0,)

    def test_failure_raises_with_count(self):
        from repro.errors import ConvergenceError

        def res(x, idx):
            return np.ones_like(x)  # never reducible

        def step(x, idx, f):
            return lu_steps((sparse.identity(x.shape[1], format="csc")
                             for _ in range(x.shape[0])), f)

        with pytest.raises(ConvergenceError, match="2/2"):
            solve_newton_batch(res, step, np.zeros((2, 3)),
                               NewtonOptions(max_iter=3))

    def test_nan_residual_trials_keep_first_iterate(self):
        """Every line-search trial returning NaN must still deterministically
        keep the first trial point (never uninitialised storage)."""
        def res(x, idx):
            return np.where(np.abs(x) > 1e-6, np.nan, x - 20.0)

        def step(x, idx, f):
            return lu_steps((sparse.identity(1, format="csc")
                             for _ in range(x.shape[0])), f)

        out = solve_newton_batch(
            res, step, np.zeros((2, 1)),
            NewtonOptions(max_iter=1, raise_on_failure=False))
        assert not out.converged.any()
        # The full Newton step lands at x = 20 where the residual is NaN;
        # that first trial is kept, exactly as the scalar reference would.
        np.testing.assert_array_equal(out.x, np.full((2, 1), 20.0))

    def test_failure_tolerated_when_not_raising(self):
        def res(x, idx):
            return np.ones_like(x)

        def step(x, idx, f):
            return lu_steps((sparse.identity(x.shape[1], format="csc")
                             for _ in range(x.shape[0])), f)

        out = solve_newton_batch(
            res, step, np.zeros((2, 3)),
            NewtonOptions(max_iter=3, raise_on_failure=False))
        assert not out.converged.any()


class TestSimulatorBatched:
    @given(config=config_strategy,
           mode=st.sampled_from(["ideal", "linear", "full"]),
           batch=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=15)
    def test_batched_matches_per_vector(self, config, mode, batch, seed):
        from repro.errors import ConvergenceError

        v, g = sample_vg(config, batch, seed)
        sim = CrossbarCircuitSimulator(config)
        try:
            batched = sim.solve_batch(v, g, mode=mode)
        except ConvergenceError:
            # Some generated configs (e.g. r_wire = 0 clamps the wire
            # conductance to 1e9 S) are too badly scaled for float64 LU to
            # reach the absolute tolerance. Equivalence then means the
            # per-vector path fails the same way.
            with pytest.raises(ConvergenceError):
                for k in range(batch):
                    sim.solve(v[k], g, mode=mode)
            return
        assert batched.shape == (batch, config.cols)
        for k in range(batch):
            single = sim.solve(v[k], g, mode=mode).currents_a
            np.testing.assert_allclose(batched[k], single, rtol=RTOL,
                                       atol=1e-16)

    @pytest.mark.parametrize("mode", ["ideal", "linear", "full"])
    def test_empty_batch(self, mode):
        config = CrossbarConfig(rows=4, cols=3)
        sim = CrossbarCircuitSimulator(config)
        g = np.full(config.shape, config.g_off_s)
        out = sim.solve_batch(np.zeros((0, config.rows)), g, mode=mode)
        assert out.shape == (0, config.cols)

    @pytest.mark.parametrize("mode", ["ideal", "linear", "full"])
    def test_single_vector_batch(self, mode):
        config = CrossbarConfig(rows=4, cols=4)
        sim = CrossbarCircuitSimulator(config)
        rng = np.random.default_rng(3)
        v, g = sample_vg(config, 1, 3)
        batched = sim.solve_batch(v, g, mode=mode)
        single = sim.solve(v[0], g, mode=mode).currents_a
        np.testing.assert_allclose(batched[0], single, rtol=RTOL)
        # 1-D input is promoted to a single-vector batch.
        promoted = sim.solve_batch(v[0], g, mode=mode)
        assert promoted.shape == (1, config.cols)
        np.testing.assert_allclose(promoted[0], single, rtol=RTOL)

    def test_full_mode_batch_64_matches_per_vector_at_16x16(self):
        """A 16x16 batch of 64 full-mode operating points through the
        batched conjugate-gradient Newton step matches one exact-LU scalar
        Newton solve per vector at 1e-9, and so does each vector solved
        alone (a batch of one), in as many iterations."""
        config = CrossbarConfig(rows=16, cols=16)
        rng = np.random.default_rng(0)
        g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
        v = rng.uniform(0.0, config.v_supply_v, size=(64, config.rows))
        sim = CrossbarCircuitSimulator(config)
        device = sim.make_cell_device(g)
        references = [reference_solve_full(sim, vk, g, device=device)
                      for vk in v]
        per_vector = sim.topology.output_currents(
            np.stack([ref.x for ref in references]))
        batched = sim.solve_batch(v, g, mode="full")
        scale = np.abs(per_vector).max()
        np.testing.assert_allclose(batched, per_vector, rtol=RTOL,
                                   atol=RTOL * scale)
        for vk, ref, expected in zip(v, references, per_vector):
            single = sim.solve(vk, g, mode="full")
            np.testing.assert_allclose(single.currents_a, expected,
                                       rtol=RTOL, atol=RTOL * scale)
            assert single.iterations == ref.iterations
