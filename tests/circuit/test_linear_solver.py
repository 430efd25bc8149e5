import numpy as np
import pytest
from scipy.sparse.linalg import splu

from repro.circuit.linear_solver import LinearCrossbarSolver, sparse_lu
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm


def dense_reference_currents(config, voltages, conductances):
    """Independent dense nodal solve for tiny crossbars (oracle)."""
    from repro.circuit.topology import CrossbarTopology
    topo = CrossbarTopology(config)
    n = topo.n_nodes
    a = np.zeros((n, n))
    for r, c, v in zip(topo.parasitic_rows, topo.parasitic_cols,
                       topo.parasitic_vals):
        a[r, c] += v
    g = np.asarray(conductances).ravel()
    for k, (an, bn) in enumerate(zip(topo.cell_row_nodes,
                                     topo.cell_col_nodes)):
        a[an, an] += g[k]
        a[bn, bn] += g[k]
        a[an, bn] -= g[k]
        a[bn, an] -= g[k]
    rhs = topo.rhs_for_inputs(np.asarray(voltages))
    x = np.linalg.solve(a, rhs)
    return topo.output_currents(x)


@pytest.fixture
def cfg():
    return CrossbarConfig(rows=4, cols=3)


class TestAgainstDenseOracle:
    def test_matches_dense_solve(self, cfg, rng):
        solver = LinearCrossbarSolver(cfg)
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=(4, 3))
        v = rng.uniform(0, 0.25, size=4)
        np.testing.assert_allclose(solver.solve(v, g),
                                   dense_reference_currents(cfg, v, g),
                                   rtol=1e-9)

    def test_batch_matches_loop(self, cfg, rng):
        solver = LinearCrossbarSolver(cfg)
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=(4, 3))
        vs = rng.uniform(0, 0.25, size=(6, 4))
        batch = solver.solve(vs, g)
        for k in range(6):
            np.testing.assert_allclose(batch[k], solver.solve(vs[k], g),
                                       rtol=1e-10)


class TestLuOrdering:
    """Every circuit LU uses one fill-reducing ordering (``LU_ORDERING``)."""

    @staticmethod
    def _nnz(lu):
        return lu.L.nnz + lu.U.nnz

    @pytest.mark.parametrize("size", [16, 32])
    def test_fewer_nonzeros_than_colamd(self, size, rng):
        config = CrossbarConfig(rows=size, cols=size)
        solver = LinearCrossbarSolver(config)
        g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
        matrix = solver.system_matrix(g)
        ordered = self._nnz(solver.factorization(g))
        assert ordered == self._nnz(sparse_lu(matrix))
        assert ordered < self._nnz(splu(matrix, permc_spec="COLAMD"))

    def test_solve_matches_dense_at_16(self, rng):
        config = CrossbarConfig(rows=16, cols=16)
        solver = LinearCrossbarSolver(config)
        g = rng.uniform(config.g_off_s, config.g_on_s, size=config.shape)
        v = rng.uniform(0, config.v_supply_v, size=(5, 16))
        dense = np.stack([dense_reference_currents(config, vk, g)
                          for vk in v])
        np.testing.assert_allclose(solver.solve(v, g), dense, rtol=1e-9)
        np.testing.assert_allclose(v @ solver.transfer_matrix(g), dense,
                                   rtol=1e-9)


class TestPhysics:
    def test_ideal_limit_with_tiny_parasitics(self, rng):
        cfg = CrossbarConfig(rows=5, cols=5, r_source_ohm=1e-6,
                             r_sink_ohm=1e-6, r_wire_ohm=0.0)
        solver = LinearCrossbarSolver(cfg)
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=(5, 5))
        v = rng.uniform(0.05, 0.25, size=5)
        np.testing.assert_allclose(solver.solve(v, g), ideal_mvm(v, g),
                                   rtol=1e-5)

    def test_currents_below_ideal_with_parasitics(self, rng):
        cfg = CrossbarConfig(rows=8, cols=8)
        solver = LinearCrossbarSolver(cfg)
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=(8, 8))
        v = rng.uniform(0.05, 0.25, size=8)
        out = solver.solve(v, g)
        assert np.all(out < ideal_mvm(v, g))
        assert np.all(out > 0)

    def test_zero_input_zero_output(self, cfg):
        solver = LinearCrossbarSolver(cfg)
        g = np.full((4, 3), 1e-5)
        np.testing.assert_allclose(solver.solve(np.zeros(4), g), 0.0,
                                   atol=1e-18)

    def test_superposition(self, cfg, rng):
        solver = LinearCrossbarSolver(cfg)
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=(4, 3))
        v1 = rng.uniform(0, 0.25, size=4)
        v2 = rng.uniform(0, 0.25, size=4)
        np.testing.assert_allclose(
            solver.solve(v1 + v2, g),
            solver.solve(v1, g) + solver.solve(v2, g), rtol=1e-9)

    def test_monotone_in_conductance(self, cfg):
        solver = LinearCrossbarSolver(cfg)
        v = np.full(4, 0.2)
        low = solver.solve(v, np.full((4, 3), 2e-6))
        high = solver.solve(v, np.full((4, 3), 8e-6))
        assert np.all(high > low)

    def test_bigger_crossbar_higher_nf(self, rng):
        """Paper Fig. 2(b): relative IR-drop loss grows with size."""
        losses = []
        for size in (4, 8, 16):
            cfg = CrossbarConfig(rows=size, cols=size)
            solver = LinearCrossbarSolver(cfg)
            g = np.full((size, size), cfg.g_on_s)
            v = np.full(size, cfg.v_supply_v)
            nf = 1 - solver.solve(v, g) / ideal_mvm(v, g)
            losses.append(nf.mean())
        assert losses[0] < losses[1] < losses[2]
