"""Multi-head attention: the conventional form and the dynamic contextual
focus (DCF) variant that gates values with position-level focus weights
derived from the attention context.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import tensor as T
from .layers import Module, init_weight
from .tensor import Tensor

MASK_MODES = ("pre_softmax_additive", "literal_post_softmax")


def dcf_scale(d_model: int, h: int) -> float:
    """Focus-attention score scale 1/sqrt(d_model*h); 1/64 at (512, 8)."""
    return 1.0 / np.sqrt(d_model * h)


def merge_heads(x: Tensor) -> Tensor:
    """[B, h, L, d_k] -> [B, L, h*d_k]; concatenation along the head axis."""
    B, h, L, d_k = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, L, h * d_k)


def project_qkv(x_query: Tensor, x_kv: Tensor, w_q: Tensor, w_k: Tensor,
                w_v: Tensor, h: int) -> tuple[Tensor, Tensor, Tensor]:
    """Project query/key/value streams and split into heads, one
    ``project_heads`` op each (``ShapeError`` for an input that does not end
    in d_model): attention's backward rebuilds them from the projection
    inputs instead of keeping them."""
    q = T.project_heads(x_query, w_q, h)
    k = T.project_heads(x_kv, w_k, h)
    v = T.project_heads(x_kv, w_v, h)
    return q, k, v


def _causal_focus(salience: Tensor) -> Tensor:
    """Focus softmax over the position axis, causal in O(L) as one tape op:
    position l normalizes over positions <= l, so its focus weight never
    depends on the salience of later positions. With the running log-sum-exp
    ``lse_l = log sum_{j<=l} exp(s_j)``, ``f_l = exp(s_l - lse_l)``.

    Backward: ``ds_m = f_m (g_m - t_m)``, ``t_m = sum_{l>=m} g_l f_l
    exp(lse_m - lse_l)``. Every exponent there is <= 0, so ``t`` is summed
    as two reverse running log-sum-exps, one per sign of ``g f``, and stays
    finite for any spread of salience. Both run in float64.
    """
    dtype = salience.dtype
    s = salience.data.astype(np.float64)
    lse = np.logaddexp.accumulate(s, axis=-1)
    f = np.exp(s - lse)

    def bwd(g):
        gf = g * f
        t = np.zeros_like(gf)
        with np.errstate(divide="ignore"):
            for sign in (1.0, -1.0):
                part = np.log(np.maximum(sign * gf, 0.0)) - lse
                tail = np.logaddexp.accumulate(part[..., ::-1], axis=-1)[..., ::-1]
                t += sign * np.exp(lse + tail)
        return ((f * (g - t)).astype(dtype),)

    return T._record(Tensor(f.astype(dtype)), (salience,), bwd)


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
    attention weights A (one fused op, causal when ``causal``); per-position
    salience (feature sum of C) softmaxed causally over query positions into
    focus weights, whatever ``causal`` is; values gated by the focus weights
    (the context rows in the cross-attention case, so output length follows
    the query); heads merged and projected.
    """

    def __call__(self, x_query: Tensor, x_kv: Tensor, causal: bool = False,
                 training: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
        cfg = self.config
        q, k, v = project_qkv(x_query, x_kv, self.w_q, self.w_k, self.w_v, cfg.h)
        # Rate 0: this block's dropout acts on the focus weights.
        context = T.attend(q, k, v, dcf_scale(cfg.d_model, cfg.h), causal, self.literal)
        salience = context.sum(axis=-1)                   # [B, h, L_q]
        focus = _causal_focus(salience)
        focus = T.dropout(focus, cfg.dropout_rate, training, rng)
        B, h, L_q = focus.shape
        gated_src = v if v.shape[2] == L_q else context
        gated = focus.reshape(B, h, L_q, 1) * gated_src
        return T.matmul(merge_heads(gated), self.w_o)


class StandardAttention(_ProjectedAttention):
    """Conventional multi-head attention with 1/sqrt(d_k) scaling."""

    def __call__(self, x_query: Tensor, x_kv: Tensor, causal: bool = False,
                 training: bool = False, rng: Optional[np.random.Generator] = None) -> Tensor:
        cfg = self.config
        q, k, v = project_qkv(x_query, x_kv, self.w_q, self.w_k, self.w_v, cfg.h)
        context = T.attend(q, k, v, 1.0 / np.sqrt(cfg.d_model // cfg.h), causal, self.literal,
                           cfg.dropout_rate if training else 0.0, rng)
        return T.matmul(merge_heads(context), self.w_o)
