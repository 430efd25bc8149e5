import numpy as np
import pytest

from newton_reference import residual_and_jacobian
from repro.circuit.simulator import CrossbarCircuitSimulator
from repro.devices.rram import RramParameters
from repro.errors import ConfigError
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm


@pytest.fixture
def cfg():
    return CrossbarConfig(rows=6, cols=6)


@pytest.fixture
def sim(cfg):
    return CrossbarCircuitSimulator(cfg)


def sample_vg(cfg, rng, n=1):
    g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=cfg.shape)
    v = rng.uniform(0, cfg.v_supply_v, size=(n, cfg.rows))
    return (v[0] if n == 1 else v), g


class TestModes:
    def test_ideal_mode_matches_mvm(self, sim, cfg, rng):
        v, g = sample_vg(cfg, rng)
        sol = sim.solve(v, g, mode="ideal")
        np.testing.assert_allclose(sol.currents_a, ideal_mvm(v, g))

    def test_unknown_mode_rejected(self, sim, cfg, rng):
        v, g = sample_vg(cfg, rng)
        with pytest.raises(ConfigError):
            sim.solve(v, g, mode="spice")

    def test_linear_below_ideal(self, sim, cfg, rng):
        v, g = sample_vg(cfg, rng)
        sol = sim.solve(v, g, mode="linear")
        assert np.all(sol.currents_a < ideal_mvm(v, g))

    def test_full_mode_converges_and_differs_from_linear(self, sim, cfg,
                                                         rng):
        v, g = sample_vg(cfg, rng)
        lin = sim.solve(v, g, mode="linear").currents_a
        full = sim.solve(v, g, mode="full")
        assert full.iterations >= 1
        assert not np.allclose(full.currents_a, lin, rtol=1e-3)

    def test_full_without_transistor(self, cfg, rng):
        sim = CrossbarCircuitSimulator(
            cfg.replace(with_access_transistor=False))
        v, g = sample_vg(cfg, rng)
        sol = sim.solve(v, g, mode="full")
        assert np.all(np.isfinite(sol.currents_a))


class TestPhysics:
    def test_ideal_limit(self, rng):
        """No parasitics + near-linear device -> ideal MVM."""
        cfg = CrossbarConfig(rows=5, cols=4, r_source_ohm=1e-6,
                             r_sink_ohm=1e-6, r_wire_ohm=0.0,
                             with_access_transistor=False,
                             rram=RramParameters(v0_v=50.0))
        sim = CrossbarCircuitSimulator(cfg)
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=(5, 4))
        v = rng.uniform(0.05, 0.25, size=5)
        out = sim.solve(v, g, mode="full").currents_a
        np.testing.assert_allclose(out, ideal_mvm(v, g), rtol=1e-5)

    def test_kcl_residual_small(self, sim, cfg, rng):
        """The returned operating point satisfies Kirchhoff's current law."""
        v, g = sample_vg(cfg, rng)
        sol = sim.solve(v, g, mode="full")
        device = sim.make_cell_device(g)
        rhs = sim.topology.rhs_for_inputs(v)
        fn = residual_and_jacobian(sim, device, rhs)
        residual, _ = fn(sol.node_voltages_v)
        assert np.max(np.abs(residual)) < 1e-10

    def test_zero_input(self, sim, cfg):
        g = np.full(cfg.shape, 1e-5)
        sol = sim.solve(np.zeros(cfg.rows), g, mode="full")
        np.testing.assert_allclose(sol.currents_a, 0.0, atol=1e-12)

    def test_nonlinearity_pushes_toward_ideality(self, rng):
        """Paper Fig. 7(d) narrative: the full simulation sits closer to
        ideal than the linear-only one at the nominal operating point."""
        cfg = CrossbarConfig(rows=16, cols=16)
        sim = CrossbarCircuitSimulator(cfg)
        g = rng.uniform(cfg.g_off_s, cfg.g_on_s, size=(16, 16))
        v = rng.uniform(0.1, 0.25, size=16)
        ideal = ideal_mvm(v, g)
        lin = sim.solve(v, g, mode="linear").currents_a
        full = sim.solve(v, g, mode="full").currents_a
        assert np.abs(full - ideal).mean() < np.abs(lin - ideal).mean()

    def test_monotone_in_voltage(self, sim, cfg):
        g = np.full(cfg.shape, 5e-6)
        low = sim.solve(np.full(cfg.rows, 0.1), g, mode="full").currents_a
        high = sim.solve(np.full(cfg.rows, 0.2), g, mode="full").currents_a
        assert np.all(high > low)


class TestBatch:
    def test_batch_matches_single(self, sim, cfg, rng):
        vs, g = sample_vg(cfg, rng, n=4)
        batch = sim.solve_batch(vs, g, mode="full")
        for k in range(4):
            single = sim.solve(vs[k], g, mode="full").currents_a
            np.testing.assert_allclose(batch[k], single, rtol=1e-7)

    def test_batch_all_modes_shapes(self, sim, cfg, rng):
        vs, g = sample_vg(cfg, rng, n=3)
        for mode in ("ideal", "linear", "full"):
            assert sim.solve_batch(vs, g, mode=mode).shape == (3, cfg.cols)

    def test_conductance_exceeding_transistor_rejected(self, cfg):
        sim = CrossbarCircuitSimulator(cfg.replace(access_r_on_ohm=1e6))
        with pytest.raises(ConfigError):
            sim.solve(np.zeros(cfg.rows), np.full(cfg.shape, 1e-5),
                      mode="full")
