"""The paper's analytical baseline: exact linear parasitic model.

Jain et al. (CxDNN) model crossbar parasitics by solving the linear resistive
network with matrix-inversion techniques. That is exactly the ``linear`` mode
of our circuit simulator, so this class is a thin, intention-revealing
wrapper: it predicts non-ideal output currents under the assumption that
every cell is a perfect ohmic conductance — i.e. it knows about IR drops but
not about the transistor/RRAM non-linearities.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.linear_solver import LinearCrossbarSolver
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm


class AnalyticalLinearModel:
    """Linear-non-ideality-only crossbar model (the paper's baseline)."""

    name = "analytical-linear"

    def __init__(self, config: CrossbarConfig):
        self.config = config
        self._solver = LinearCrossbarSolver(config)

    def predict_currents(self, voltages_v, conductance_s) -> np.ndarray:
        """Non-ideal bit-line currents for a vector or batch of inputs."""
        return self._solver.solve(voltages_v, conductance_s)

    def predict_ratio(self, voltages_v, conductance_s,
                      eps_a: float = 1e-18) -> np.ndarray:
        """Predicted distortion ratio fR = I_ideal / I_nonideal."""
        i_ideal = ideal_mvm(voltages_v, conductance_s)
        i_pred = self.predict_currents(voltages_v, conductance_s)
        safe = np.where(np.abs(i_pred) > eps_a, i_pred, np.inf)
        return np.where(np.abs(i_pred) > eps_a, i_ideal / safe, 1.0)
