"""The batched conjugate-gradient Newton step of the full-mode simulator.

``CrossbarCircuitSimulator.solve_batch`` solves each Newton step with a
batched preconditioned conjugate-gradient run and falls back to the exact
sparse-LU step only at the iteration cap. These tests pin the fallback to
the exact-LU algorithm byte for byte, and the CG path to the exact answer
at the geometry that labels the GENIEx training sets.
"""

import numpy as np
import pytest

import repro.circuit.simulator as simulator_mod
from newton_reference import reference_solve_full, residual_and_jacobian
from repro.circuit.linear_solver import sparse_lu
from repro.circuit.newton import solve_newton_batch
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.core.sampling import VgSampler
from repro.experiments.common import get_profile
from repro.xbar.config import CrossbarConfig

RTOL = 1e-9


def exact_lu_solve_batch(sim, v, g):
    """Full-mode batch currents with one sparse LU per Newton step: the
    batched damped Newton with the Jacobian assembled by the simulator's
    nodal assembler and factorised per system, in the solver's ordering."""
    topo = sim.topology
    an, bn = topo.cell_row_nodes, topo.cell_col_nodes
    para = sim._parasitic_csr
    device = sim.make_cell_device(g)
    rhs = topo.rhs_for_inputs(v)
    g_memo = {}

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
        out = np.stack([
            sparse_lu(sim.linear_solver.system_matrix(
                g_memo[vd[k].tobytes()])).solve(-f[k])
            for k in range(x.shape[0])])
        g_memo.clear()
        return out

    x0 = sim.linear_solver.solve_node_voltages(v, g)
    result = solve_newton_batch(residual, step, x0, sim.newton_options,
                                scale=np.max(np.abs(rhs), axis=1))
    return topo.output_currents(result.x)


def count_exact_steps(monkeypatch):
    """Count the simulator's own LU factorisations: its exact-LU fallback
    steps (the linear network's factor is made by the linear solver)."""
    calls = []
    original = simulator_mod.sparse_lu

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(simulator_mod, "sparse_lu", counting)
    return calls


def sample_vg(config, batch, seed):
    rng = np.random.default_rng(seed)
    g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
    v = rng.uniform(0.0, config.v_supply_v, size=(batch, config.rows))
    return v, g


class TestExactFallback:
    @pytest.mark.parametrize("transistor", [True, False])
    def test_cap_zero_is_byte_identical_to_exact_lu(self, monkeypatch,
                                                    transistor):
        config = CrossbarConfig(rows=8, cols=6, v_supply_v=0.5,
                                with_access_transistor=transistor)
        v, g = sample_vg(config, 7, seed=11)
        sim = CrossbarCircuitSimulator(config)
        reference = exact_lu_solve_batch(sim, v, g)
        monkeypatch.setattr(simulator_mod, "CG_MAX_ITER", 0)
        calls = count_exact_steps(monkeypatch)
        got = sim.solve_batch(v, g)
        assert calls, "no step went through splu"
        assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("cap", [1, 2])
    def test_capped_cg_falls_back_and_agrees(self, monkeypatch, cap):
        config = CrossbarConfig(rows=8, cols=8, v_supply_v=0.5)
        v, g = sample_vg(config, 6, seed=5)
        sim = CrossbarCircuitSimulator(config)
        reference = exact_lu_solve_batch(sim, v, g)
        monkeypatch.setattr(simulator_mod, "CG_MAX_ITER", cap)
        calls = count_exact_steps(monkeypatch)
        got = sim.solve_batch(v, g)
        assert calls, f"a {cap}-iteration cap never fell back"
        np.testing.assert_allclose(got, reference, rtol=RTOL, atol=1e-18)


class TestConjugateGradientStep:
    def test_step_matches_lu_solve(self):
        """Cell stamps above the linear conductance (as a driven
        non-linear device has) leave the CG step at the LU step."""
        config = CrossbarConfig(rows=16, cols=16)
        sim = CrossbarCircuitSimulator(config)
        rng = np.random.default_rng(2)
        g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
        lu = sim.linear_solver.factorization(g)
        g_dev = g.ravel() * rng.uniform(1.0, 3.4, size=(5, g.size))
        f = rng.standard_normal((5, sim.topology.n_nodes)) * 1e-6
        steps = sim._newton_steps(g_dev, f, lu)
        for k in range(5):
            jac = sim.linear_solver.system_matrix(g_dev[k])
            exact = sparse_lu(jac).solve(-f[k])
            assert np.max(np.abs(jac @ steps[k] + f[k])) <= \
                simulator_mod.CG_RTOL * np.max(np.abs(f[k])) * 1.01
            np.testing.assert_allclose(steps[k], exact, rtol=1e-6,
                                       atol=1e-9 * np.abs(exact).max())


class TestCharacterizeGeometry:
    """The quick profile's Fig. 5 sweep: 32x32 at 0.25 V and 0.5 V."""

    @pytest.mark.parametrize("v_supply", [0.25, 0.5])
    def test_operating_points_converged_and_exact(self, monkeypatch,
                                                  v_supply):
        profile = get_profile("quick")
        config = profile.crossbar(rows=profile.fig5_size,
                                  v_supply_v=v_supply)
        volts, conds, group_index = VgSampler(
            config, profile.sampling_spec(0)).sample()
        sim = CrossbarCircuitSimulator(config)
        opts = sim.newton_options
        calls = count_exact_steps(monkeypatch)
        for group in range(3):
            v = volts[group_index == group]
            g = conds[group]
            result = sim._newton_batch(v, g)
            assert result.converged.all()
            rhs = sim.topology.rhs_for_inputs(v)
            device = sim.make_cell_device(g)
            currents = sim.topology.output_currents(result.x)
            for k in range(v.shape[0]):
                fn = residual_and_jacobian(sim, device, rhs[k])
                residual = np.max(np.abs(fn(result.x[k])[0]))
                tol = opts.tol_residual + opts.tol_relative * np.max(
                    np.abs(rhs[k]))
                assert residual <= tol
                exact = sim.topology.output_currents(
                    reference_solve_full(sim, v[k], g).x)
                np.testing.assert_allclose(currents[k], exact, rtol=RTOL,
                                           atol=1e-18)
        assert not calls, "the CG step fell back to exact LU"
