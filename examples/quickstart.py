"""Quickstart: declare an emulation setup once, run it everywhere.

The public API in four steps, on a small (16x16) crossbar in about a
minute:

1. describe the setup as a declarative, JSON-serializable
   ``EmulationSpec`` (here: the ``"quick"`` preset, refined with
   ``evolve``);
2. open a ``Session`` — the GENIEx emulator is trained (or loaded from
   the on-disk zoo) and the bit-sliced MVM engine is built for you;
3. run crossbar matmuls and compare the non-ideal result against
   sibling sessions (``exact`` tiles and the linear ``analytical``
   model) derived from the *same* spec;
4. check the emulator against the circuit-level ground truth the
   session exposes, and round-trip the spec through JSON — the file
   form drives the CLI (``repro fig fig5 --spec``) and the HTTP
   service unchanged.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import EmulationSpec, open_session
from repro.core.metrics import nonideality_factor

# 1. One declarative description of the whole setup. evolve() overrides
#    win over the preset, which wins over the dataclass defaults.
spec = EmulationSpec.preset("quick").evolve(**{"runtime.workers": 2})


def main():
    rng = np.random.default_rng(0)
    config = spec.xbar.to_config()
    print(f"spec {spec.key()}: {spec.engine} engine on a "
          f"{config.rows}x{config.cols} crossbar "
          f"(R_on {config.r_on_ohm / 1e3:g}k, ON/OFF "
          f"{config.onoff_ratio:g}, Vdd {config.v_supply_v:g} V)")

    # 2. Resolve it. Training runs once; re-running this script hits the
    #    zoo cache and opens in milliseconds.
    print("opening session (training / loading the GENIEx emulator)...")
    weights = rng.standard_normal((config.rows, config.cols)) * 0.4
    x = rng.standard_normal((8, config.rows)) * 0.5

    with open_session(spec, progress=True) as session:
        y_geniex = session.matmul(x, weights)

        # 3. Sibling setups are one evolve() away and bit-comparable.
        with open_session(spec.evolve(engine="exact")) as oracle, \
                open_session(spec.evolve(engine="analytical")) as linear:
            y_exact = oracle.matmul(x, weights)
            y_analytical = linear.matmul(x, weights)
        print(f"mean matmul deviation from ideal tiles: "
              f"GENIEx {np.abs(y_geniex - y_exact).mean():.5f}   "
              f"analytical {np.abs(y_analytical - y_exact).mean():.5f}")

        # 4a. Circuit-level ground truth from the same session: the
        #     trained emulator tracks the full non-linear solve much
        #     more closely than the linear parasitic model (the paper's
        #     headline claim).
        from repro import AnalyticalLinearModel
        conductances = rng.uniform(config.g_off_s, config.g_on_s,
                                   size=config.shape)
        voltages = rng.uniform(0.0, config.v_supply_v,
                               size=(16, config.rows))
        i_circuit = session.solve_batch(voltages, conductances, mode="full")
        i_ideal = voltages @ conductances
        nf_circuit = nonideality_factor(i_ideal, i_circuit)
        nf_geniex = nonideality_factor(
            i_ideal, session.emulator.for_matrix(
                conductances).currents(voltages))
        nf_analytical = nonideality_factor(
            i_ideal, AnalyticalLinearModel(config).predict_currents(
                voltages, conductances))
        err_g = np.abs(nf_geniex - nf_circuit).mean()
        err_a = np.abs(nf_analytical - nf_circuit).mean()
        print(f"mean NF error vs circuit on fresh operating points: "
              f"GENIEx {err_g:.4f}   analytical {err_a:.4f}   "
              f"({err_a / max(err_g, 1e-9):.1f}x better)")
        print("session stats:", session.stats())

    # 4b. The spec serialises losslessly; the JSON file drives the CLI
    #     (`repro fig fig5 --spec file.json`) and the HTTP service.
    restored = EmulationSpec.from_json(spec.to_json())
    assert restored == spec and restored.key() == spec.key()
    print(f"spec JSON round-trip OK ({len(spec.to_json())} bytes, "
          f"key {restored.key()})")


if __name__ == "__main__":
    main()
