"""The GENIEx network: a two-layer MLP over concatenated (V, G).

Topology per the paper: for an ``rows x cols`` crossbar the network is
``(rows + rows*cols) -> hidden -> cols`` with ReLU in the hidden layer
(paper: 500 hidden neurons). Inputs are normalised to [0, 1]; the output is
the normalised distortion ratio fR.

The class also carries the :class:`Normalizer` mapping between physical
units and network space, so a saved model is self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.nn.modules import Linear, Module, ReLU, Sequential
from repro.xbar.config import CrossbarConfig


@dataclass(frozen=True)
class Normalizer:
    """Unit <-> network-space scaling for one trained GENIEx model.

    Attributes:
        v_supply_v: Voltage full scale (inputs divide by this).
        g_off_s / g_on_s: Conductance window (inputs map to [0, 1]).
        fr_min / fr_max: Label range seen in training; predictions are
            clipped back into it (the network should not extrapolate the
            distortion ratio beyond observed physics).
    """

    v_supply_v: float
    g_off_s: float
    g_on_s: float
    fr_min: float
    fr_max: float

    def normalize_v(self, voltages_v) -> np.ndarray:
        return np.asarray(voltages_v, dtype=np.float32) / np.float32(
            self.v_supply_v)

    def normalize_g(self, conductance_s) -> np.ndarray:
        g = np.asarray(conductance_s, dtype=np.float32)
        return (g - np.float32(self.g_off_s)) / np.float32(
            self.g_on_s - self.g_off_s)

    def denormalize_fr(self, fr_norm, out=None) -> np.ndarray:
        """fR from the network's normalised output: clip to ``[0, 1]``,
        then scale into ``[fr_min, fr_max]``. ``out`` (float64, the shape
        of ``fr_norm``; may be ``fr_norm`` itself) receives the result."""
        fr = np.clip(np.asarray(fr_norm, dtype=np.float64), 0.0, 1.0,
                     out=out)
        np.multiply(fr, self.fr_max - self.fr_min, out=fr)
        return np.add(fr, self.fr_min, out=fr)

    def to_dict(self) -> dict:
        return {
            "v_supply_v": self.v_supply_v,
            "g_off_s": self.g_off_s,
            "g_on_s": self.g_on_s,
            "fr_min": self.fr_min,
            "fr_max": self.fr_max,
        }

    @classmethod
    def from_config(cls, config: CrossbarConfig, fr_min: float,
                    fr_max: float) -> "Normalizer":
        return cls(config.v_supply_v, config.g_off_s, config.g_on_s,
                   fr_min, fr_max)


class GeniexNet(Module):
    """Fully connected network ``(N*M + N) x P x ... x M``.

    ``hidden_layers=1`` is the paper's exact topology (one hidden ReLU
    layer). ``hidden_layers=2`` adds a second hidden layer, which captures
    the residual multiplicative V x G structure noticeably better; the
    ablation bench quantifies the difference.
    """

    def __init__(self, rows: int, cols: int, hidden: int = 500,
                 hidden_layers: int = 1,
                 normalizer: Normalizer | None = None, seed=0):
        super().__init__()
        if hidden < 1:
            raise ConfigError(f"hidden width must be >= 1, got {hidden}")
        if hidden_layers < 1:
            raise ConfigError(
                f"hidden_layers must be >= 1, got {hidden_layers}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.hidden = int(hidden)
        self.hidden_layers = int(hidden_layers)
        self.normalizer = normalizer
        in_features = rows + rows * cols
        layers = [Linear(in_features, hidden, seed=seed), ReLU()]
        for k in range(1, hidden_layers):
            layers += [Linear(hidden, hidden,
                              seed=None if seed is None else seed + k),
                       ReLU()]
        layers.append(Linear(hidden, cols,
                             seed=None if seed is None else seed + 100))
        self.body = Sequential(*layers)

    @property
    def in_features(self) -> int:
        return self.rows + self.rows * self.cols

    def forward(self, x):
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"GeniexNet expects {self.in_features} input features "
                f"(rows + rows*cols), got {x.shape[-1]}")
        return self.body(x)

    # ------------------------------------------------------------------
    # Fast inference paths (raw numpy, no autograd) used by the emulator
    # ------------------------------------------------------------------
    def first_layer_views(self):
        """Return ``(w1_v, w1_g, b1)`` with the first layer split into its
        voltage columns (``rows``) and conductance columns (``rows*cols``).

        The split makes the conductance contribution precomputable per
        programmed crossbar (see :mod:`repro.core.emulator`)."""
        first: Linear = self.body[0]
        w1 = first.weight.data
        return w1[:, :self.rows], w1[:, self.rows:], first.bias.data

    def predict_fr_norm(self, features: np.ndarray) -> np.ndarray:
        """Normalised fR for a feature batch, without building a graph.

        Every sample carries its own conductances. A programmed crossbar
        folds them into a bias once instead
        (:meth:`repro.core.emulator.GeniexEmulator.for_matrix`).
        """
        w1v, w1g, b1 = self.first_layer_views()
        v_part = features[:, :self.rows]
        g_part = features[:, self.rows:]
        hidden = v_part @ w1v.T + g_part @ w1g.T + b1
        for layer in list(self.body)[1:]:
            if isinstance(layer, Linear):
                hidden = hidden @ layer.weight.data.T
                hidden += layer.bias.data
            else:
                np.maximum(hidden, 0.0, out=hidden)
        return hidden
