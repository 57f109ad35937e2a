"""Multi-head attention: the conventional form and the dynamic contextual
focus (DCF) variant that gates values with position-level focus weights
derived from the attention context. Both blocks are chains of engine ops
on [B, L, d] arrays: plain ``T.matmul`` projections, the attention core
``T.attend``, which reads them as heads, and, in DCF, ``T.focus_gate``, the
causal focus softmax with its dropout and the gating product.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .layers import Module, init_weight
from .tensor import Tensor

MASK_MODES = ("pre_softmax_additive", "literal_post_softmax")


def dcf_scale(d_model: int, h: int) -> float:
    """Focus-attention score scale 1/sqrt(d_model*h); 1/64 at (512, 8)."""
    return 1.0 / np.sqrt(d_model * h)


class _ProjectedAttention(Module):
    """Shared parameters: query, key, value and output projections, d_model
    square each, drawn from ``rng`` in that order. ``cfg`` is the model's
    ``ModelConfig``; the block reads its d_model, h, dropout_rate and
    mask_mode."""

    def __init__(self, rng: np.random.Generator, cfg: "ModelConfig"):
        self.config = cfg
        self.literal = cfg.mask_mode == "literal_post_softmax"
        d = cfg.d_model
        self.w_q = init_weight(rng, (d, d), d)
        self.w_k = init_weight(rng, (d, d), d)
        self.w_v = init_weight(rng, (d, d), d)
        self.w_o = init_weight(rng, (d, d), d)


class DCFAttention(_ProjectedAttention):
    """Focus-gated attention block.

    Pipeline: project Q/K/V; per-head context C = A V of the scaled
    attention weights A (one fused op, causal when ``causal``); per-head,
    per-position salience (feature sum of C) softmaxed causally over query
    positions into focus weights, whatever ``causal`` is, and the values V
    gated by them, or, in a ``cross`` block, the context rows C, so output
    length follows the query (one fused op); the gated heads, side by side
    in [B, L, d], projected. The role is fixed when
    the block is built, never read from the lengths: at L_kv == L_q a cross
    block still gates C.
    """

    def __init__(self, rng: np.random.Generator, cfg: "ModelConfig", cross: bool = False):
        super().__init__(rng, cfg)
        self.cross = cross

    def __call__(self, x_query: Tensor, x_kv: Tensor, causal: bool = False,
                 training: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
        cfg = self.config
        q, k, v = T.matmul(x_query, self.w_q), T.matmul(x_kv, self.w_k), T.matmul(x_kv, self.w_v)
        if not self.cross and v.shape[1] != q.shape[1]:
            raise ShapeError(f"a self-attention DCF block gates its values, so it needs as "
                             f"many keys as queries; got {v.shape[1]} and {q.shape[1]}")
        # Rate 0: this block's dropout acts on the focus weights.
        context = T.attend(q, k, v, cfg.h, dcf_scale(cfg.d_model, cfg.h), causal, self.literal)
        gated = T.focus_gate(context, context if self.cross else v, cfg.h,
                             cfg.dropout_rate if training else 0.0, rng)
        return T.matmul(gated, self.w_o)


class StandardAttention(_ProjectedAttention):
    """Conventional multi-head attention with 1/sqrt(d_k) scaling."""

    def __call__(self, x_query: Tensor, x_kv: Tensor, causal: bool = False,
                 training: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
        cfg = self.config
        q, k, v = T.matmul(x_query, self.w_q), T.matmul(x_kv, self.w_k), T.matmul(x_kv, self.w_v)
        context = T.attend(q, k, v, cfg.h, 1.0 / np.sqrt(cfg.d_model // cfg.h), causal,
                           self.literal, cfg.dropout_rate if training else 0.0, rng)
        return T.matmul(context, self.w_o)
