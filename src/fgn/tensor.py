"""Dense tensors with tape-based reverse-mode automatic differentiation.

Values live in NumPy arrays (float32 for training, float64 for gradient
checking), and a graph keeps its inputs' dtype end to end: a scalar operand
of ``+ - *`` (a Python or NumPy scalar, or a 0-d array) takes the dtype of
the Tensor it meets, while two arrays or Tensors follow NumPy's promotion
(float32 with float64 gives float64). Every differentiable op appends an
entry to the thread's tape, a plain list: the op's node (a small key that
stands for its output), a reference per parent and a backward closure. The
closure holds only the arrays and shapes its gradient reads, and the tape
holds no output tensor, so an intermediate whose backward needs none of its
values is freed as soon as the caller drops it.

Rebuild, don't keep: an op whose output it can recompute bit for bit from
arrays its own backward keeps anyway passes ``_record`` that function as
``rebuild``, and a recorded output carries it as ``_rebuild`` (outputs of
``project_heads`` and ``layer_norm``). An op saves each operand it reads in
backward as its source, ``_source(t)``: ``t._rebuild`` when it has one,
else a function holding ``t.data``, and calls it in backward. A rebuild
reads only what its own op's closure keeps, so it extends no array's
lifetime. Parameters are read by reference, in forward, backward and
rebuilds alike, which is valid only while no parameter is written between
forward and backward.

``backward(loss)`` consumes the tape in reverse execution order, freeing
each op's saved arrays as soon as that op is walked, and accumulates
gradients into ``.grad`` of leaves only: requires-grad tensors that no
recorded op produced.

The engine carries only the ops that fgn's models and losses run.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, TapeError

__all__ = [
    "Tensor",
    "no_grad",
    "backward",
    "matmul",
    "project_heads",
    "attend",
    "sigmoid",
    "feed_forward",
    "conv1d",
    "layer_norm",
    "dropout",
    "concatenate",
]


class _Node:
    """A recorded op's output on the tape: the key its gradient accumulates
    under. ``live`` until ``backward`` walks the op or the tape is dropped."""

    __slots__ = ("live",)

    def __init__(self):
        self.live = True


class _ThreadState(threading.local):
    def __init__(self):
        # (node, parent refs, backward_fn) per recorded op, in execution
        # order, so walking it backwards is a valid reverse topological order.
        # A parent ref is None if the parent needs no gradient, its node if it
        # is a live recorded intermediate, else the Tensor itself (a leaf).
        self.tape: list[tuple[_Node, tuple[Optional[_Node | Tensor], ...], Callable]] = []
        self.grad_enabled = True


_state = _ThreadState()


class no_grad:
    """Context manager disabling tape recording (eval-mode forwards)."""

    def __enter__(self):
        self._prev = _state.grad_enabled
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """Dense n-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "_rebuild")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if dtype is None and arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None
        # recomputes ``data`` by bits from arrays the tape holds, or None
        self._rebuild: Optional[Callable[[], np.ndarray]] = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a tensor of one element, got shape {self.shape}")
        return float(self.data.item())

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap the operands of a binary op. A scalar (0-d) operand meeting a
    Tensor takes that Tensor's dtype; otherwise NumPy's promotion applies."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor) and np.ndim(b) == 0:
        return a, Tensor(b, dtype=a.dtype)
    if isinstance(b, Tensor) and not isinstance(a, Tensor) and np.ndim(a) == 0:
        return Tensor(a, dtype=b.dtype), b
    return _as_tensor(a), _as_tensor(b)


def _drop_tape() -> None:
    """Discard the thread's recorded graph unwalked, for a step that fails
    before ``backward``."""
    for node, _, _ in _state.tape:
        node.live = False
    _state.tape = []


def _parent_ref(p: Tensor) -> Optional[_Node | Tensor]:
    if not p.requires_grad:
        return None
    node = p._node
    return node if node is not None and node.live else p


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn,
            rebuild: Optional[Callable[[], np.ndarray]] = None) -> Tensor:
    """Put ``out`` on the tape if any parent requires grad, with ``rebuild``
    (a function recomputing ``out.data`` by bits) as its ``_rebuild``.
    ``backward_fn`` maps the output gradient to one gradient (or None) per
    parent; it and ``rebuild`` must capture arrays and shapes, never a
    Tensor, so that the tape does not keep operands or outputs alive. An
    unrecorded output gets no rebuild, so it holds nothing but its data."""
    if _state.grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node()
        out._rebuild = rebuild
        _state.tape.append((out._node, tuple(map(_parent_ref, parents)), backward_fn))
    return out


def _held(a: np.ndarray) -> Callable[[], np.ndarray]:
    return lambda: a


def _source(t: Tensor) -> Callable[[], np.ndarray]:
    """What a backward reads ``t``'s array from: its rebuild function when it
    has one, so that the array is not kept, else a function holding it."""
    return t._rebuild or _held(t.data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic --------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = Tensor(a.data + b.data)
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = Tensor(a.data - b.data)
    sa, sb = a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    out = Tensor(a.data * b.data)
    xs, ys, sa, sb = _source(a), _source(b), a.shape, b.shape

    def bwd(g):
        return _unbroadcast(g * ys(), sa), _unbroadcast(g * xs(), sb)

    return _record(out, (a, b), bwd)


# -- linear algebra ----------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    out = Tensor(np.matmul(a.data, b.data))
    xs, ys = _source(a), _source(b)

    def bwd(g):
        x, y = xs(), ys()
        if y.ndim == 2 and x.ndim > 2:
            # A batched input against a shared weight: both gradients are one
            # GEMM over the flattened [rows, features] layouts, so the weight
            # gradient is never materialized per batch entry and summed.
            d_in, d_out = y.shape
            g2 = g.reshape(-1, d_out)
            ga = (g2 @ y.T).reshape(x.shape)
            return ga, x.reshape(-1, d_in).T @ g2
        ga = np.matmul(g, np.swapaxes(y, -1, -2))
        gb = np.matmul(np.swapaxes(x, -1, -2), g)
        return _unbroadcast(ga, x.shape), _unbroadcast(gb, y.shape)

    return _record(out, (a, b), bwd)


def project_heads(x, w, h: int) -> Tensor:
    """``x @ w`` split into ``h`` heads as one tape op: [B, L, d_in] @
    [d_in, d] -> the contiguous [B, h, L, d/h]. The output's ``_rebuild``
    recomputes it by bits from the sources of ``x`` and ``w`` that backward
    holds anyway. Backward: the gradient transposed back and copied to
    [B*L, d] in C order, then ``g2 @ w^T`` and ``x2^T @ g2``, as in
    ``matmul``."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 3 or w.ndim != 2 or x.shape[-1] != w.shape[0] or h < 1 or w.shape[1] % h:
        raise ShapeError(f"project_heads needs x [B, L, d_in], w [d_in, d] and h dividing d; "
                         f"got {x.shape}, {w.shape}, h={h}")
    B, L, d_in = x.shape
    d = w.shape[1]
    xs, ws = _source(x), _source(w)

    def heads(xd, wd):
        y = np.matmul(xd, wd).reshape(B, L, h, d // h)
        return np.ascontiguousarray(y.transpose(0, 2, 1, 3))

    def bwd(g):
        xd, wd = xs(), ws()
        g2 = g.transpose(0, 2, 1, 3).reshape(B * L, d)
        return (g2 @ wd.T).reshape(xd.shape), xd.reshape(-1, d_in).T @ g2

    return _record(Tensor(heads(x.data, w.data)), (x, w), bwd,
                   lambda: heads(xs(), ws()))


# -- shape manipulation ------------------------------------------------------

def reshape(a, *shape) -> Tensor:
    a = _as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out = Tensor(a.data.reshape(shape))
    in_shape = a.shape

    def bwd(g):
        return (g.reshape(in_shape),)

    return _record(out, (a,), bwd)


def transpose(a, *axes) -> Tensor:
    a = _as_tensor(a)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(reversed(range(a.ndim)))
    out = Tensor(np.ascontiguousarray(a.data.transpose(axes)))   # NumPy rejects bad axes
    inv = np.argsort([ax % a.ndim for ax in axes])

    def bwd(g):
        return (g.transpose(inv),)

    return _record(out, (a,), bwd)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def getitem(a, idx) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data[idx])
    in_shape, dtype = a.shape, a.dtype

    def bwd(g):
        ga = np.zeros(in_shape, dtype)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record(out, (a,), bwd)


# -- reductions --------------------------------------------------------------

def reduce_sum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    in_shape = a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return _record(out, (a,), bwd)


def reduce_mean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    axes = (axis,) if np.ndim(axis) == 0 else axis
    n = a.size if axis is None else math.prod(a.shape[i] for i in axes)
    return reduce_sum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


# -- nonlinearities ----------------------------------------------------------

def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0, e) / (1.0 + e)
    out = Tensor(y)

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _record(out, (a,), bwd)


def _relu(h: np.ndarray):
    a = np.maximum(h, 0)
    return a, lambda: a > 0


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(h: np.ndarray):
    """tanh-approximation GELU (no SciPy dependency for erf)."""
    t = np.tanh(_GELU_C * (h + 0.044715 * h ** 3))

    def slope():
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * h ** 2)
        return 0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * dinner

    return 0.5 * h * (1.0 + t), slope


# Activation name -> function of an array ``h`` returning ``act(h)`` and a
# function giving ``act'(h)`` from what it computed; ``feed_forward`` takes
# the name.
FFN_ACTIVATIONS = {"relu": _relu, "gelu": _gelu}


def _softmax_(x: np.ndarray, row_max: np.ndarray, row_sum: np.ndarray) -> np.ndarray:
    """Softmax of ``x`` along its last axis, written into ``x`` and returned;
    the row max it subtracts and the row sum it divides by go to ``row_max``
    and ``row_sum``. An entry set to -inf beforehand (a blocked key) gets
    weight exactly 0, whatever it held."""
    x -= np.max(x, axis=-1, keepdims=True, out=row_max)
    np.exp(x, out=x)
    x /= np.sum(x, axis=-1, keepdims=True, out=row_sum)
    return x


def _softmax_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gradient ``y * (g - sum(g * y))`` of a last-axis softmax with
    output ``y``."""
    gy = g * y
    np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
    gy *= y
    return gy


# Score entries ``attend`` computes at a time, in whole [L_q, L_kv] slices and
# at least one: its temporaries stay cache-sized, and no [..., L_q, L_kv]
# array is made whole.
ATTEND_BLOCK = 1 << 16


def _flat(a: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """``a`` broadcast to the leading axes ``lead``, flattened into one:
    [n, *a.shape[-2:]]. A view where the strides allow, as for a contiguous
    operand or one that repeats across every leading axis; else a copy."""
    if a.shape[:-2] != lead:
        a = np.broadcast_to(a, lead + a.shape[-2:])
    return a.reshape((-1,) + a.shape[-2:])


def attend(q, k, v, scale: float, causal: bool = False, literal: bool = False,
           rate: float = 0.0, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Attention core ``W @ v`` as one tape op, where
    ``W = softmax((q*scale) @ k^T)``. When ``causal``, query i sees keys
    j <= i, the one [L_q, L_kv] array ``visible = np.tri(L_q, L_kv)`` that
    every block reads: blocked keys are set to -inf before the row max or,
    when ``literal``, the unmasked softmax is multiplied by ``visible``
    afterwards (rows then sum to < 1). Inverted dropout at ``rate``
    follows (the keep mask of ``dropout``, drawn from ``rng``).

    q: [..., L_q, d_k], k: [..., L_kv, d_k], v: [..., L_kv, d_v], where v's
    leading axes broadcast to the scores'. The op runs over the flattened
    leading axes in blocks of ``ATTEND_BLOCK`` score entries. Each block's
    keep mask is drawn in turn into one reused float64 buffer, so the draws
    follow one another in the stream as one draw over all the scores would.
    Saved for backward: the sources of q, k and v (``_source``); each row's
    max and sum [..., L_q, 1], ``visible`` (as its blocked entries in
    additive mode) and the keep mask packed to bits. Backward first
    recomputes q, k and v, and ``q*scale`` with forward's product. It
    rebuilds a block's softmax as
    ``P = exp(S - max) / sum``, which repeats forward's bits without a
    reduction, then, with ``s`` the dropout scale and
    ``W = P [* visible if literal] [* keep * s]``: ``dW = g v^T``,
    ``dv = W^T g``, ``dP = dW [* visible if literal] [* keep * s]``,
    ``dS = P * (dP - sum(dP * P))``, ``dq = dS k * scale`` and
    ``dk = dS^T (q*scale)``.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (min(q.ndim, k.ndim, v.ndim) < 2 or q.shape[-1] != k.shape[-1]
            or k.shape[-2] != v.shape[-2]):
        raise ShapeError(f"attend needs q [..., L_q, d], k [..., L_kv, d], "
                         f"v [..., L_kv, d_v]; got {q.shape}, {k.shape}, {v.shape}")
    try:
        lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2])
        fits = np.broadcast_shapes(lead, v.shape[:-2]) == lead
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"attend needs leading axes of q and k that broadcast, and v's "
                         f"broadcasting to theirs; got {q.shape}, {k.shape}, {v.shape}")
    _check_rate(rate)
    L_q, L_kv = q.shape[-2], k.shape[-2]
    scale = np.asarray(scale, dtype=q.dtype)      # a scalar takes q's dtype, as in mul
    qs = q.data * scale
    score_dtype = np.result_type(qs.dtype, k.dtype)
    # ``visible`` kept only in the form the mode reads
    visible = np.tri(L_q, L_kv, dtype=score_dtype) if causal and literal else None
    blocked = ~np.tri(L_q, L_kv, dtype=bool) if causal and not literal else None
    n = math.prod(lead)
    per_block = max(1, ATTEND_BLOCK // max(1, L_q * L_kv))
    qf, kf, vf = _flat(qs, lead), _flat(k.data, lead), _flat(v.data, lead)
    sources = [_source(t) for t in (q, k, v)]

    def scores(qf, kf, lo, hi):
        # slices lo..hi-1 of (q*scale) k^T, blocked keys at -inf
        s = np.matmul(qf[lo:hi], np.swapaxes(kf[lo:hi], -1, -2))
        if blocked is not None:
            np.copyto(s, -np.inf, where=blocked)
        return s

    def weights(x, keep, out=None):
        # x [* visible] [* keep * s], in the order the separate ops applied them;
        # out=x rescales x in place.
        if visible is not None:
            x = np.multiply(x, visible, out=out)
            out = x
        if keep is not None:
            x = np.multiply(x, keep, out=out)
            x *= drop_scale
        return x

    row_max = np.empty((n, L_q, 1), score_dtype)
    row_sum = np.empty_like(row_max)
    out = np.empty(lead + (L_q, v.shape[-1]), np.result_type(score_dtype, v.dtype))
    flat_out = _flat(out, lead)
    draws = np.empty(per_block * L_q * L_kv) if rate else None
    packed, keep, drop_scale = [], None, None
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        p = _softmax_(scores(qf, kf, lo, hi), row_max[lo:hi], row_sum[lo:hi])
        if rate:
            keep, drop_scale = _keep_mask(rng, rate, score_dtype,
                                          draws[:p.size].reshape(p.shape))
            packed.append(np.packbits(keep))
        np.matmul(weights(p, keep, out=p), vf[lo:hi], out=flat_out[lo:hi])
    shapes = q.shape, k.shape, v.shape

    def bwd(g):
        qd, kd, vd = (f() for f in sources)
        qf, kf, vf = _flat(qd * scale, lead), _flat(kd, lead), _flat(vd, lead)
        ds_dtype = np.result_type(g.dtype, vf.dtype, score_dtype)
        gq = np.empty(lead + qf.shape[1:], np.result_type(ds_dtype, kf.dtype))
        gk = np.empty(lead + kf.shape[1:], np.result_type(ds_dtype, qf.dtype))
        gv = np.empty(lead + vf.shape[1:], np.result_type(score_dtype, g.dtype))
        gf, flat_gq, flat_gk, flat_gv = (_flat(a, lead) for a in (g, gq, gk, gv))
        for j, lo in enumerate(range(0, n, per_block)):
            hi = min(lo + per_block, n)
            p = scores(qf, kf, lo, hi)
            p -= row_max[lo:hi]
            np.exp(p, out=p)
            p /= row_sum[lo:hi]
            keep = (np.unpackbits(packed[j], count=p.size).view(bool).reshape(p.shape)
                    if rate else None)
            dp = np.matmul(gf[lo:hi], np.swapaxes(vf[lo:hi], -1, -2))
            np.matmul(np.swapaxes(weights(p, keep), -1, -2), gf[lo:hi],
                      out=flat_gv[lo:hi])
            ds = _softmax_grad(p, weights(dp, keep, out=dp))
            np.matmul(ds, kf[lo:hi], out=flat_gq[lo:hi])
            flat_gq[lo:hi] *= scale
            np.matmul(np.swapaxes(ds, -1, -2), qf[lo:hi], out=flat_gk[lo:hi])
        return tuple(_unbroadcast(a, shape) for a, shape in zip((gq, gk, gv), shapes))

    return _record(Tensor(out), (q, k, v), bwd)


# -- structured ops ----------------------------------------------------------

def conv1d(x, w, bias=None, causal_padding: bool = False) -> Tensor:
    """Length-preserving 1-d convolution over the middle axis.

    x: [B, L, C_in], w: [k, C_in, C_out], bias: [C_out] or None.
    Causal mode pads k-1 zeros on the left so position t sees only <= t;
    non-causal mode requires odd k and pads symmetrically.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects x [B,L,C_in], w [k,C_in,C_out]; got {x.shape}, {w.shape}")
    k, c_in, c_out = w.shape
    if k < 1:
        raise ShapeError(f"kernel width must be >= 1, got {k}")
    if x.shape[-1] != c_in:
        raise ShapeError(f"conv1d channel mismatch: x has {x.shape[-1]}, w expects {c_in}")
    if not causal_padding and k % 2 == 0:
        raise ShapeError(f"non-causal conv1d needs odd kernel width, got {k}")
    B, L, _ = x.shape
    if causal_padding:
        left, right = k - 1, 0
    else:
        left = right = (k - 1) // 2
    if k > L + left + right:
        raise ShapeError(f"kernel width {k} exceeds padded input length {L + left + right}")
    pad = ((0, 0), (left, right), (0, 0))
    xp = np.pad(x.data, pad)
    y = np.zeros((B, L, c_out), dtype=x.data.dtype)
    for t in range(k):
        y += np.matmul(xp[:, t:t + L, :], w.data[t])
    parents = [x, w]
    bias_shape = None
    if bias is not None:
        b = _as_tensor(bias)
        y = y + b.data
        parents.append(b)
        bias_shape = b.shape
    out = Tensor(y)
    xs, ws = _source(x), _source(w)

    def bwd(g):
        # One flat GEMM per tap and gradient on [B*L, C] layouts; copying the
        # strided input slice costs far less than a batched einsum over it.
        # The input's source is saved, not the padded input, so convolutions
        # of one input share it.
        xp, wd = np.pad(xs(), pad), ws()
        g2 = g.reshape(B * L, c_out)
        gxp = np.zeros_like(xp)
        gw = np.empty_like(wd)
        for t in range(k):
            gw[t] = xp[:, t:t + L, :].reshape(B * L, c_in).T @ g2
            gxp[:, t:t + L, :] += (g2 @ wd[t].T).reshape(B, L, c_in)
        grads = [gxp[:, left:left + L, :], gw]
        if bias_shape is not None:
            grads.append(_unbroadcast(g, bias_shape))
        return tuple(grads)

    return _record(out, tuple(parents), bwd)


def feed_forward(x, w1, b1, w2, b2, activation: str) -> Tensor:
    """Position-wise two-layer network ``act(x @ w1 + b1) @ w2 + b2`` as one
    tape op, ``act`` named by ``activation`` (a key of ``FFN_ACTIVATIONS``):
    x [..., d_in], w1 [d_in, d_ff], b1 [d_ff], w2 [d_ff, d_out], b2 [d_out].
    It saves the sources of its operands and no [..., d_ff] array. Backward
    recomputes ``h = x @ w1 + b1`` and ``act(h)`` with forward's expressions,
    then runs the gradients of the five ops it replaces (matmul, add, act,
    matmul, add) in their order: ``_unbroadcast`` for each bias and the two
    flat GEMMs of ``matmul`` for each weight and its input."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if activation not in FFN_ACTIVATIONS:
        raise ConfigError(f"activation must be one of {tuple(FFN_ACTIVATIONS)}, "
                          f"got {activation!r}")
    if (x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or w1.shape[1] != w2.shape[0] or b1.shape != w1.shape[1:]
            or b2.shape != w2.shape[1:]):
        raise ShapeError(f"feed_forward needs x [..., d_in], w1 [d_in, d_ff], b1 [d_ff], "
                         f"w2 [d_ff, d_out], b2 [d_out]; got {x.shape}, {w1.shape}, "
                         f"{b1.shape}, {w2.shape}, {b2.shape}")
    act = FFN_ACTIVATIONS[activation]
    (d_in, d_ff), d_out = w1.shape, w2.shape[1]
    sources = [_source(t) for t in (x, w1, b1, w2)]

    def hidden(xd, w1d, b1d):
        return act(np.matmul(xd, w1d) + b1d)

    a, _ = hidden(x.data, w1.data, b1.data)
    out = Tensor(np.matmul(a, w2.data) + b2.data)

    def bwd(g):
        xd, w1d, b1d, w2d = (f() for f in sources)
        a, slope = hidden(xd, w1d, b1d)
        g2 = g.reshape(-1, d_out)
        ga = (g2 @ w2d.T).reshape(a.shape)
        gw2 = a.reshape(-1, d_ff).T @ g2
        gh = ga * slope()
        gh2 = gh.reshape(-1, d_ff)
        gx = (gh2 @ w1d.T).reshape(xd.shape)
        return (gx, xd.reshape(-1, d_in).T @ gh2, _unbroadcast(gh, (d_ff,)), gw2,
                _unbroadcast(g, (d_out,)))

    return _record(out, (x, w1, b1, w2, b2), bwd)


LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, offset) -> Tensor:
    """Normalize over the last axis (population statistics), then affine, as
    one tape op. With ``xh`` the normalized input, ``r = 1/sqrt(var + LAYER_NORM_EPS)``
    and ``gxh = g * gain``, the input gradient is
    ``r * (gxh - mean(gxh) - xh * mean(gxh * xh))`` over the last axis. The
    output rebuilds as ``xh * gain + offset`` from the ``xh`` backward keeps."""
    x, gain, offset = _as_tensor(x), _as_tensor(gain), _as_tensor(offset)
    if x.shape[-1] < 1:
        raise ShapeError(f"layer_norm needs a non-empty last axis, got {x.shape}")
    xh = x.data - x.data.mean(axis=-1, keepdims=True)
    r = 1.0 / np.sqrt((xh * xh).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xh *= r
    gd, od = gain.data, offset.data

    def bwd(g):
        gxh = g * gd
        gx = gxh - gxh.mean(axis=-1, keepdims=True)
        gxh *= xh
        gx -= xh * gxh.mean(axis=-1, keepdims=True)
        gx *= r
        return (gx, _unbroadcast(g * xh, gd.shape), _unbroadcast(g, od.shape))

    return _record(Tensor(xh * gd + od), (x, gain, offset), bwd, lambda: xh * gd + od)


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")


def _keep_mask(rng: Optional[np.random.Generator], rate: float, dtype,
               draws: np.ndarray) -> tuple[np.ndarray, np.generic]:
    """Inverted-dropout keep mask and survivor scale: ``draws`` (float64)
    filled from ``rng``, one uniform per entry in C order, kept where it is
    >= ``rate``, and 1/(1-rate) rounded as ``dtype`` arithmetic rounds it.
    A mask drawn in pieces, one after another, is the mask drawn whole."""
    if rng is None:
        raise ConfigError("training-mode dropout requires an rng")
    rng.random(out=draws)
    return draws >= rate, np.ones((), dtype=dtype) / (1.0 - rate)


def dropout(x, rate: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: survivors scaled by 1/(1-rate); identity in eval mode."""
    _check_rate(rate)
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    keep, scale = _keep_mask(rng, rate, x.dtype, np.empty(x.shape))
    y = x.data * keep
    y *= scale
    out = Tensor(y)

    def bwd(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _record(out, (x,), bwd)


# -- backward pass -----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate the gradient of ``loss`` into ``.grad`` of every leaf it
    depends on; intermediate tensors get no ``.grad``.

    Consumes the tape: each entry, with the arrays its op saved, is freed as
    soon as it is walked, so a second backward without re-recording raises.
    """
    if loss.data.size != 1:
        raise TapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._node is None or not loss._node.live:
        raise TapeError("loss is not on the active tape (double backward, "
                        "or no differentiable ops were recorded)")
    tape, _state.tape = _state.tape, []
    grads: dict[_Node, np.ndarray] = {loss._node: np.ones_like(loss.data)}
    while tape:
        node, parents, backward_fn = tape.pop()
        node.live = False
        g = grads.pop(node, None)
        if g is None:
            continue
        for parent, pg in zip(parents, backward_fn(g)):
            if pg is None or parent is None:
                continue
            if isinstance(parent, _Node):
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg
            else:
                parent.grad = pg if parent.grad is None else parent.grad + pg
