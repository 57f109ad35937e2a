"""Causal convolutional gated linear unit: sigmoid(conv_g(x)) * conv_h(x),
two ``conv1d`` ops whose outputs rebuild and one ``glu`` op."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .layers import Module, init_weight
from .tensor import Tensor


class GatedConvUnit(Module):
    """Gate and linear branches are ``glu_k``-wide causal convolutions over
    the sequence; ``cfg`` is the model's ``ModelConfig``."""

    def __init__(self, rng: np.random.Generator, cfg: "ModelConfig"):
        self.config = cfg
        d, k = cfg.d_model, cfg.glu_k
        fan_in = k * d
        self.w_gate = init_weight(rng, (k, d, d), fan_in)
        self.b_gate = init_weight(rng, (d,), fan_in)
        self.w_lin = init_weight(rng, (k, d, d), fan_in)
        self.b_lin = init_weight(rng, (d,), fan_in)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.config.d_model:
            raise ShapeError(
                f"glu expects last extent {self.config.d_model}, got {x.shape}")
        gate = T.conv1d(x, self.w_gate, self.b_gate)
        lin = T.conv1d(x, self.w_lin, self.b_lin)
        return T.glu(gate, lin)
