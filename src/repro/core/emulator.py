"""GENIEx inference: predict non-ideal currents for arbitrary (V, G).

One trained network, two ways to run it:

* :meth:`GeniexEmulator.predict_currents` — every sample carries its own
  conductance matrix (trainer validation, per-sample scoring).
* :meth:`GeniexEmulator.for_matrix` — one programmed crossbar, as the
  :class:`GeniexTileModel` the functional simulator's engine runs. The
  first layer is affine, ``h = relu(W1v @ v + W1g @ g + b1)``, and ``W1g
  @ g + b1`` is constant for a programmed crossbar, so it folds into a
  per-tile bias; hidden units that bias provably keeps at zero are
  dropped. Both paths agree to float32 rounding (tested).

:class:`GeniexTileFactory` makes those tile models; the engine
(:mod:`repro.funcsim.engine`) builds one per (sign, slice, tile).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.model import GeniexNet
from repro.errors import ConfigError, NotFittedError, ShapeError
from repro.nn.modules import Linear
from repro.utils.numerics import batch_invariant_matmul
from repro.xbar.config import CrossbarConfig
from repro.xbar.ideal import ideal_mvm


def _voltage_batch(voltages_v, rows: int) -> np.ndarray:
    """``voltages_v`` as a float64 ``(B, rows)`` batch (a 1-D vector is one
    row); :class:`ShapeError` naming ``rows`` otherwise."""
    voltages_v = np.atleast_2d(np.asarray(voltages_v, dtype=float))
    if voltages_v.ndim != 2 or voltages_v.shape[1] != rows:
        raise ShapeError(f"expected V (B, {rows}); got {voltages_v.shape}")
    return voltages_v


class GeniexEmulator:
    """User-facing wrapper around a trained :class:`GeniexNet`."""

    def __init__(self, model: GeniexNet):
        if model.normalizer is None:
            raise NotFittedError(
                "GeniexNet has no normalizer; train it (or attach one) "
                "before emulation")
        self.model = model
        self.normalizer = model.normalizer
        # for_matrix's tile factory, made on first use.
        self._factory = None

    @property
    def rows(self) -> int:
        return self.model.rows

    @property
    def cols(self) -> int:
        return self.model.cols

    def _features(self, voltages_v, conductance_s) -> np.ndarray:
        voltages_v = _voltage_batch(voltages_v, self.rows)
        conductance_s = np.asarray(conductance_s, dtype=float)
        if conductance_s.ndim == 2:
            conductance_s = np.broadcast_to(
                conductance_s,
                (voltages_v.shape[0],) + conductance_s.shape)
        if conductance_s.shape[1:] != (self.rows, self.cols):
            raise ShapeError(
                f"expected G (B, {self.rows}, {self.cols}); got "
                f"{conductance_s.shape}")
        v_norm = self.normalizer.normalize_v(voltages_v)
        g_norm = self.normalizer.normalize_g(conductance_s)
        return np.concatenate(
            [v_norm, g_norm.reshape(v_norm.shape[0], -1)],
            axis=1).astype(np.float32)

    def predict_fr(self, voltages_v, conductance_s) -> np.ndarray:
        """fR predictions for (batched) voltage vectors and G matrices."""
        features = self._features(voltages_v, conductance_s)
        fr_norm = self.model.predict_fr_norm(features)
        return self.normalizer.denormalize_fr(fr_norm)

    def predict_currents(self, voltages_v, conductance_s) -> np.ndarray:
        """Non-ideal output currents ``I_ideal / fR``."""
        voltages_v = np.atleast_2d(np.asarray(voltages_v, dtype=float))
        conductance_s = np.asarray(conductance_s, dtype=float)
        fr = self.predict_fr(voltages_v, conductance_s)
        if conductance_s.ndim == 2:
            i_ideal = ideal_mvm(voltages_v, conductance_s)
        else:
            i_ideal = np.einsum("ni,nij->nj", voltages_v, conductance_s)
        return i_ideal / fr

    def for_matrix(self, conductance_s) -> "GeniexTileModel":
        """The tile model of one programmed crossbar, at the emulator's own
        supply: the conductance term folded, dead hidden units pruned.

        Every row of :meth:`GeniexTileModel.fr` and
        :meth:`GeniexTileModel.currents` is bitwise independent of the
        batch it shares (see
        :func:`repro.utils.numerics.batch_invariant_matmul`); the serving
        layer relies on it.
        """
        conductance_s = np.asarray(conductance_s, dtype=float)
        if conductance_s.shape != (self.rows, self.cols):
            raise ShapeError(
                f"expected G of shape ({self.rows}, {self.cols}), "
                f"got {conductance_s.shape}")
        if self._factory is None:
            self._factory = GeniexTileFactory(self)
        return self._factory.build(conductance_s)


#: Kept hidden units are padded with dropped ones to a multiple of this
#: width, so the pruned tile GEMMs fall into a handful of shape classes
#: (each new class costs a one-time batch-invariance probe) and a
#: layer's tiles into a few width groups, each one stacked product
#: on a few-row batch. 32 rather than 16 cut a serving tile-row from
#: about 3 groups to 2; large shards pay for the extra dead units in
#: FLOPs.
HIDDEN_PAD = 32


class GeniexTileFactory:
    """Builds GENIEx-backed tile models for one trained emulator.

    ``v_supply_v`` is the highest word-line voltage the tiles will be
    driven with (the engine's DAC full scale; default: the emulator's
    training supply). Each tile prunes the hidden units that voltage
    ceiling proves dead (see :class:`GeniexTileModel`), so an engine
    whose supply exceeds it is rejected by :meth:`check_crossbar`.
    """

    name = "geniex"

    def __init__(self, emulator: GeniexEmulator,
                 v_supply_v: float | None = None):
        self.emulator = emulator
        model = emulator.model
        w1v, _, _ = model.first_layer_views()
        self._w1v_t = np.ascontiguousarray(w1v.T)
        norm = emulator.normalizer
        self.v_supply_v = float(norm.v_supply_v if v_supply_v is None
                                else v_supply_v)
        self.v_max = self.v_supply_v / norm.v_supply_v
        # The voltage terms of the pruning bound (see kept_units), once
        # per emulator: unit j is kept iff bias_j + c * |bias_j| >
        # floor_j = -v_max * (sum(max(w1v_j, 0)) + c * sum(|w1v_j|)).
        w1v64 = w1v.astype(np.float64)
        self._margin_scale = (emulator.rows + 2) * 2.0 ** -23
        self._alive_floor = -self.v_max * (
            np.maximum(w1v64, 0.0).sum(axis=1)
            + self._margin_scale * np.abs(w1v64).sum(axis=1))
        # The Linear layers after the first ReLU, as (W.T, b) pairs with a
        # ReLU between consecutive ones: ``(w2_t, b2)`` and ``tail``.
        # Tiles restrict ``w2_t`` to their kept rows; the ``tail`` pairs
        # (hidden_layers=2) are shared.
        linears = [(np.ascontiguousarray(layer.weight.data.T),
                    layer.bias.data)
                   for layer in list(model.body)[2:]
                   if isinstance(layer, Linear)]
        (self.w2_t, self.b2), self.tail = linears[0], linears[1:]
        self._cache_token = None

    def head(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The network after its second GEMM, from that float32 product
        ``y`` ``(..., n, h2)`` (overwritten) into ``out`` ``(..., n,
        cols)``, the last bias add widened to float64. Every tile shares
        these layers, so a stack of tiles runs each as one row-invariant
        product over all its rows."""
        bias = self.b2
        for w_t, next_bias in self.tail:
            np.add(y, bias, out=y)
            np.maximum(y, 0.0, out=y)
            y = batch_invariant_matmul(y.reshape(-1, y.shape[-1]), w_t)
            bias = next_bias
        return np.add(y.reshape(out.shape), bias, out=out)

    def check_crossbar(self, config: CrossbarConfig) -> None:
        if (self.emulator.rows, self.emulator.cols) != config.shape:
            raise ConfigError(
                f"emulator was trained for "
                f"{self.emulator.rows}x{self.emulator.cols} crossbars, "
                f"engine uses {config.rows}x{config.cols}")
        if config.v_supply_v > self.v_supply_v:
            raise ConfigError(
                f"GENIEx tiles are pruned for word-line voltages up to "
                f"{self.v_supply_v} V; the engine drives "
                f"{config.v_supply_v} V")

    def prepare_voltages(self, voltages_v: np.ndarray):
        """Augmented normalised voltages ``[v_norm, 1]`` ``(..., n, rows +
        1)``, shared by every tile of a tile-row; the constant column
        folds each tile's hidden bias into its first GEMM."""
        v_norm = self.emulator.normalizer.normalize_v(
            np.atleast_2d(voltages_v))
        v_aug = np.empty(v_norm.shape[:-1] + (v_norm.shape[-1] + 1,),
                         np.float32)
        v_aug[..., :-1] = v_norm
        v_aug[..., -1] = 1.0
        return v_aug

    def kept_units(self, bias: np.ndarray) -> np.ndarray:
        """Indices of the hidden units a tile with this float32 hidden
        ``bias`` must run: every unit not provably dead, padded with dead
        ones to a multiple of :data:`HIDDEN_PAD` (at least one pad width,
        capped at ``hidden``).

        Unit ``j`` is dead when ``bias_j + v_max * sum(max(w1v_j, 0))``
        is at most ``-margin_j``, with ``margin_j = c * (|bias_j| + v_max
        * sum(|w1v_j|))`` and ``c = (rows + 2) * 2**-23`` bounding the
        float32 rounding error of the ``(rows + 1)``-term GEMM (and its
        input roundings) relative to the sum of its absolute terms. Its
        pre-activation is then negative both exactly and as computed, so
        its ReLU output is exactly 0 for every normalised voltage in
        ``[0, v_max]``.
        """
        b = bias.astype(np.float64)
        alive = b + self._margin_scale * np.abs(b) > self._alive_floor
        n_alive = np.count_nonzero(alive)
        width = min(alive.size,
                    max(HIDDEN_PAD, -(-n_alive // HIDDEN_PAD) * HIDDEN_PAD))
        if width > n_alive:
            alive[np.flatnonzero(~alive)[:width - n_alive]] = True
        return np.flatnonzero(alive)

    def cache_token(self) -> str:
        """Identity of the emulation function, not just its topology.

        Digests the trained network's parameters so two engines backed by
        *differently trained* emulators (same crossbar shape) can never
        share prepared-matrix uids — and with them ADC noise streams.
        ``bi=0`` is part of every stored uid and noisy-ADC stream seed, so
        it stays in the token.
        """
        if self._cache_token is None:
            digest = hashlib.sha256()
            for name, array in self.emulator.model.state_dict().items():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(array).tobytes())
            self._cache_token = f"geniex|bi=0|em={digest.hexdigest()[:16]}"
        return self._cache_token

    def build(self, conductance_s: np.ndarray) -> "GeniexTileModel":
        return GeniexTileModel(self, conductance_s)


class GeniexTileModel:
    """GENIEx forward pass of one programmed crossbar (one engine tile).

    The conductance term of the first layer is constant for a programmed
    (and, with device faults, perturbed) tile, so it folds into a hidden
    bias. Hidden units that bias provably keeps at zero are dropped (see
    :meth:`GeniexTileFactory.kept_units`), and the bias becomes the last
    row of the first-layer operand ``w_aug = [w1v[kept].T; bias[kept]]``,
    so the hidden layer is a single GEMM on the augmented voltages of
    :meth:`GeniexTileFactory.prepare_voltages`.

    :meth:`fr` and :meth:`currents` take word-line voltages and check
    them; :meth:`forward` is the unchecked kernel entry point.
    """

    def __init__(self, factory: GeniexTileFactory, conductance_s: np.ndarray):
        self._factory = factory
        emulator = factory.emulator
        _, w1g, b1 = emulator.model.first_layer_views()
        g_norm = emulator.normalizer.normalize_g(conductance_s).reshape(-1)
        bias = (g_norm @ w1g.T + b1).astype(np.float32)
        kept = factory.kept_units(bias)
        #: Indices of the hidden units this tile runs.
        self.kept = kept
        self.w_aug = np.concatenate([factory._w1v_t[:, kept],
                                     bias[None, kept]])
        #: Second-layer operand, restricted to the kept units.
        self.w2_t = factory.w2_t[kept]
        self.conductance_s = np.asarray(conductance_s, dtype=float)
        #: Ideal read-out operand; the currents divide it by fR.
        self.transfer = self.conductance_s

    def forward(self, v_aug: np.ndarray) -> np.ndarray:
        """Normalised network output ``(n, cols)`` for augmented voltages.

        The one NN forward of the tile: ``relu(v_aug @ w_aug) @ W2 +
        b2`` (through any later layers, :meth:`GeniexTileFactory.head`)
        in float32, every product
        :func:`~repro.utils.numerics.batch_invariant_matmul` and the last
        bias add widened to float64. The voltages are not checked: the
        kernel's DAC keeps them in range by construction.
        """
        hidden = batch_invariant_matmul(v_aug, self.w_aug)
        np.maximum(hidden, 0.0, out=hidden)
        y = batch_invariant_matmul(hidden, self.w2_t)
        return self._factory.head(
            y, np.empty((v_aug.shape[0], self.conductance_s.shape[1])))

    def validated(self, voltages_v) -> tuple:
        """``(voltages, v_aug)``: ``voltages_v`` as a float64 ``(B, rows)``
        batch and its augmented normalised form.

        Raises :class:`ShapeError` for a wrong width and
        :class:`ConfigError` for a voltage outside ``[0, v_supply_v]``,
        the range the kept units are proven for. The range is checked in
        normalised space, where that bound lives, so the supply itself
        and its float32-rounded twin both pass.
        """
        factory = self._factory
        voltages_v = _voltage_batch(voltages_v, self.conductance_s.shape[0])
        v_aug = factory.prepare_voltages(voltages_v)
        v_norm = v_aug[:, :-1]
        if not np.all((v_norm >= 0.0) & (v_norm <= factory.v_max)):
            raise ConfigError(
                f"word-line voltages must lie in [0, {factory.v_supply_v}] "
                f"V, the range this GENIEx crossbar is pruned for")
        return voltages_v, v_aug

    def _fr(self, v_aug: np.ndarray) -> np.ndarray:
        fr = self.forward(v_aug)
        return self._factory.emulator.normalizer.denormalize_fr(fr, out=fr)

    def fr(self, voltages_v) -> np.ndarray:
        """Distortion ratios fR ``(B, cols)`` for voltages ``(B, rows)``."""
        return self._fr(self.validated(voltages_v)[1])

    def currents(self, voltages_v) -> np.ndarray:
        """Non-ideal bit-line currents ``I_ideal / fR`` ``(B, cols)``."""
        voltages_v, v_aug = self.validated(voltages_v)
        i_ideal = batch_invariant_matmul(voltages_v, self.conductance_s)
        return i_ideal / self._fr(v_aug)
