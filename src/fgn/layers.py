"""Small parameterized building blocks shared by the model zoo."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def init_weight(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Uniform in +-1/sqrt(fan_in), as float32; kernels and biases alike.

    Zero-initialized biases would make the decoder's zero-filled horizon slots
    embed to exactly constant rows, parking the first layer norm at a
    zero-variance point whose 1/sqrt(eps) Jacobian destabilizes the first
    optimizer steps."""
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(np.float32),
                  requires_grad=True)


class Module:
    """Base with deterministic named-parameter traversal for checkpoints."""

    def parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for name, val in vars(self).items():
            if isinstance(val, Tensor) and val.requires_grad:
                out.append((name, val))
            elif isinstance(val, Module):
                out.extend((f"{name}.{sub}", p) for sub, p in val.parameters())
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend((f"{name}.{i}.{sub}", p) for sub, p in item.parameters())
        return out

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.grad = None


class Dense(Module):
    """``x @ weight [+ bias]`` as one ``matmul`` op, whose output rebuilds."""

    def __init__(self, rng, d_in: int, d_out: int, bias: bool = True):
        self.weight = init_weight(rng, (d_in, d_out), d_in)
        self.bias = init_weight(rng, (d_out,), d_in) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d, dtype=np.float32), requires_grad=True)
        self.offset = Tensor(np.zeros(d, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.offset)


# The ``ffn_activation`` names a model accepts, each to its array function.
_ACTIVATIONS = T.FFN_ACTIVATIONS


class FeedForward(Module):
    """Position-wise two-layer network d_model -> d_ff -> d_model, its
    activation ``ffn_activation``, as one ``feed_forward`` op; ``cfg`` is the
    model's ``ModelConfig``."""

    def __init__(self, rng, cfg: "ModelConfig"):
        self.lin1 = Dense(rng, cfg.d_model, cfg.d_ff)
        self.lin2 = Dense(rng, cfg.d_ff, cfg.d_model)
        self.activation = cfg.ffn_activation

    def __call__(self, x: Tensor) -> Tensor:
        return T.feed_forward(x, self.lin1.weight, self.lin1.bias, self.lin2.weight,
                              self.lin2.bias, self.activation)
