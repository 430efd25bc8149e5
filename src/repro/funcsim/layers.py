"""Crossbar-mapped layers: ``linear-mvm`` and ``conv2d-mvm``.

These are inference-only drop-in replacements for :class:`repro.nn.Linear`
and :class:`repro.nn.Conv2d` whose matrix products run through an MVM engine
(paper Fig. 6: ``Model.py -> Model-mvm.py``). Weights are prepared (quantised
/ sliced / tiled / programmed) once at construction; biases are added
digitally in float, as the peripheral digital logic would. Every forward
pass runs through :meth:`CrossbarMvmEngine.matmul
<repro.funcsim.engine.CrossbarMvmEngine.matmul>`, which shards the work
over the engine's threads when it has more than one worker.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.functional import _pair
from repro.nn.imops import conv2d_output_shape, im2col
from repro.nn.modules import Conv2d, Linear, Module
from repro.nn.tensor import Tensor

DEFAULT_CHUNK_ROWS = 8192


class LinearMVM(Module):
    """Dense layer executed as tiled, bit-sliced crossbar MVMs."""

    def __init__(self, engine, weight: np.ndarray, bias: np.ndarray | None):
        super().__init__()
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"weight must be (out, in), got {weight.shape}")
        self.engine = engine
        self.out_features, self.in_features = weight.shape
        # Engine consumes (K, M) = (in, out).
        self.prepared = engine.prepare(weight.T)
        self.bias = None if bias is None else np.asarray(bias,
                                                         dtype=np.float64)

    @classmethod
    def from_linear(cls, layer: Linear, engine) -> "LinearMVM":
        bias = None if layer.bias is None else layer.bias.data
        return cls(engine, layer.weight.data, bias)

    def forward(self, x: Tensor) -> Tensor:
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        out = self.engine.matmul(data, self.prepared)
        if self.bias is not None:
            out = out + self.bias
        return Tensor(out.astype(np.float32))

    def __repr__(self):
        return (f"LinearMVM(in={self.in_features}, out={self.out_features}, "
                f"engine={self.engine.name})")


class Conv2dMVM(Module):
    """Convolution executed as iterative MVMs over im2col patches."""

    def __init__(self, engine, weight: np.ndarray,
                 bias: np.ndarray | None, stride=1, padding=0,
                 chunk_rows: int = DEFAULT_CHUNK_ROWS):
        super().__init__()
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 4:
            raise ShapeError(
                f"weight must be (c_out, c_in, kh, kw), got {weight.shape}")
        self.engine = engine
        self.out_channels, self.in_channels, kh, kw = weight.shape
        self.kernel_size = (kh, kw)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.chunk_rows = int(chunk_rows)
        # (K, M) = (c_in * kh * kw, c_out): every output pixel is one MVM.
        self.prepared = engine.prepare(weight.reshape(self.out_channels, -1).T)
        self.bias = None if bias is None else np.asarray(bias,
                                                         dtype=np.float64)

    @classmethod
    def from_conv(cls, layer: Conv2d, engine,
                  chunk_rows: int = DEFAULT_CHUNK_ROWS) -> "Conv2dMVM":
        bias = None if layer.bias is None else layer.bias.data
        return cls(engine, layer.weight.data, bias, stride=layer.stride,
                   padding=layer.padding, chunk_rows=chunk_rows)

    def forward(self, x: Tensor) -> Tensor:
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        if data.ndim != 4:
            raise ShapeError(f"expected (B, C, H, W), got shape {data.shape}")
        batch, _, h, w = data.shape
        out_h, out_w = conv2d_output_shape(h, w, self.kernel_size,
                                           self.stride, self.padding)
        cols = im2col(data.astype(np.float64), self.kernel_size, self.stride,
                      self.padding)
        out = np.empty((cols.shape[0], self.out_channels))
        for start in range(0, cols.shape[0], self.chunk_rows):
            block = cols[start:start + self.chunk_rows]
            out[start:start + block.shape[0]] = self.engine.matmul(
                block, self.prepared)
        if self.bias is not None:
            out = out + self.bias
        out = out.reshape(batch, out_h, out_w,
                          self.out_channels).transpose(0, 3, 1, 2)
        return Tensor(np.ascontiguousarray(out, dtype=np.float32))

    def __repr__(self):
        return (f"Conv2dMVM({self.in_channels}, {self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding}, engine={self.engine.name})")
