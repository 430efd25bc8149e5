"""Cheaper analytical approximations, for the ablation studies.

Two classic approximations from the mitigation literature are provided so the
benchmark harness can quantify the fidelity/cost trade-off against the exact
linear solve and against GENIEx:

* :class:`DecoupledIrDropModel` — first-order Born-style approximation: cell
  currents are estimated from the ideal operating point, the resulting IR
  drops along each word line and bit line are accumulated independently, and
  cell currents are re-evaluated at the corrected voltages. Optionally
  iterated to a fixed point.
* :class:`ScalarAlphaModel` — the crudest useful model: a single calibrated
  scalar ``alpha`` such that ``I_nonideal ~= alpha * I_ideal`` (cf.
  technology-aware-training style column-scaling corrections).
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.utils.validation import check_matrix
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm


class DecoupledIrDropModel:
    """Row/column-decoupled IR-drop estimate of non-ideal currents.

    ``n_sweeps`` fixed-point refinements re-estimate the drops from the
    previously corrected cell currents; one sweep is the classic first-order
    model, and 2-3 sweeps close most of the gap to the exact linear solve at
    a fraction of its cost (no sparse factorisation).
    """

    name = "analytical-decoupled"

    def __init__(self, config: CrossbarConfig, n_sweeps: int = 2):
        if n_sweeps < 1:
            raise ValueError(f"n_sweeps must be >= 1, got {n_sweeps}")
        self.config = config
        self.n_sweeps = int(n_sweeps)

    def predict_currents(self, voltages_v, conductance_s) -> np.ndarray:
        g = check_matrix("conductance_s", conductance_s, self.config.shape)
        v_in = np.asarray(voltages_v, dtype=float)
        squeeze = v_in.ndim == 1
        v_in = np.atleast_2d(v_in)  # (B, rows)
        cfg = self.config

        # Cell currents at the ideal operating point: (B, rows, cols).
        i_cell = v_in[:, :, None] * g[None, :, :]
        for _ in range(self.n_sweeps):
            # Word line i: segment before column j carries the sum of cell
            # currents at columns >= j; the source resistor carries them all.
            row_total = i_cell.sum(axis=2)  # (B, rows)
            downstream = (i_cell[:, :, ::-1].cumsum(axis=2))[:, :, ::-1]
            wire_drop_row = cfg.r_wire_ohm * np.cumsum(downstream, axis=2)
            v_row = (v_in - cfg.r_source_ohm * row_total)[:, :, None] \
                - wire_drop_row
            # Bit line j: segment below row i carries cell currents from
            # rows <= i; the sink resistor carries the column total.
            col_total = i_cell.sum(axis=1)  # (B, cols)
            upstream = np.cumsum(i_cell, axis=1)
            # Potential of the bit-line rail at row i: sink drop plus the
            # wire drops of the segments between row i and the sink.
            segs_below = (upstream[:, ::-1, :].cumsum(axis=1))[:, ::-1, :]
            v_col = cfg.r_sink_ohm * col_total[:, None, :] \
                + cfg.r_wire_ohm * segs_below
            i_cell = np.clip(v_row - v_col, 0.0, None) * g[None, :, :]
        out = i_cell.sum(axis=1)
        return out[0] if squeeze else out


class ScalarAlphaModel:
    """Single-scalar degradation model ``I_nonideal ~= alpha * I_ideal``."""

    name = "analytical-alpha"

    def __init__(self, config: CrossbarConfig):
        self.config = config
        self.alpha = None

    def fit(self, voltages_v, conductance_s, currents_a) -> "ScalarAlphaModel":
        """Calibrate alpha by least squares on reference (V, G, I) samples."""
        i_ideal = ideal_mvm(voltages_v, conductance_s).ravel()
        i_ref = np.asarray(currents_a, dtype=float).ravel()
        denom = float(i_ideal @ i_ideal)
        if denom == 0.0:
            raise ValueError("calibration samples have all-zero ideal currents")
        self.alpha = float(i_ideal @ i_ref) / denom
        return self

    def predict_currents(self, voltages_v, conductance_s) -> np.ndarray:
        if self.alpha is None:
            raise NotFittedError("ScalarAlphaModel.fit must be called first")
        return self.alpha * ideal_mvm(voltages_v, conductance_s)
