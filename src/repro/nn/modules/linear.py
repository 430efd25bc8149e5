"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.nn import init
from repro.nn.functional import linear
from repro.nn.modules.module import Module
from repro.nn.tensor import DEFAULT_DTYPE, Tensor
from repro.utils.rng import rng_from_seed


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` with weight shape ``(out, in)``.

    ``initialize=False`` allocates zeroed parameters instead of drawing
    random ones, for callers that load a state dict straight after.
    """

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, seed=None, initialize: bool = True):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ConfigError("in_features and out_features must be >= 1")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        if initialize:
            rng = rng_from_seed(seed)
            weight = init.kaiming_uniform((out_features, in_features), rng,
                                          gain=np.sqrt(2.0))
        else:
            weight = np.zeros((out_features, in_features), DEFAULT_DTYPE)
        self.weight = Tensor(weight.astype(DEFAULT_DTYPE, copy=False),
                             requires_grad=True)
        if bias:
            b = init.uniform_bias(in_features, out_features, rng) \
                if initialize else np.zeros(out_features, DEFAULT_DTYPE)
            self.bias = Tensor(b.astype(DEFAULT_DTYPE, copy=False),
                               requires_grad=True)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def __repr__(self):
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features}, "
                f"bias={self.bias is not None})")
