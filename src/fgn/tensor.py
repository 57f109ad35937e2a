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
``matmul``, ``focus_gate``, ``conv1d`` and ``layer_norm``). An op saves
each operand it reads in backward as its source, ``_source(t)``:
``t._rebuild`` when it has one, else a function holding ``t.data``, and
calls it in backward. A rebuild reads only what its own op's closure
keeps, so it extends no array's lifetime. Parameters are read by
reference, in forward, backward and rebuilds alike, which is valid only
while no parameter is written between forward and backward.

Attention's heads are views: q, k, v, the context and DCF's gated values
are [B, L, d] arrays, and ``attend`` and ``focus_gate`` read and write each
as its h heads [B, L, h, d/h] through strided views, never a copy.

``backward(loss)`` consumes the tape in reverse execution order, freeing
each op's saved arrays as soon as that op is walked, and accumulates
gradients into ``.grad`` of leaves only: requires-grad tensors that no
recorded op produced.

The engine carries only the ops that fgn's models and losses run, in only
the forms they run: ``matmul`` takes a 2-D weight, ``conv1d`` is causal,
``attend`` takes q, k and v [B, L, d] with one batch axis, and dropout runs
inside the two ops it follows, ``attend`` and ``focus_gate``. Each layer
the models build and the training loss is one fused op with a closed-form
backward: ``matmul``, ``attend``, ``focus_gate``, ``feed_forward``,
``conv1d``, ``glu``, ``layer_norm`` and ``mse_loss``. Every name in
``__all__`` has a caller elsewhere in the package, and only this module
records tape entries.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ShapeError, TapeError

__all__ = [
    "Tensor",
    "no_grad",
    "backward",
    "matmul",
    "attend",
    "focus_gate",
    "feed_forward",
    "conv1d",
    "glu",
    "layer_norm",
    "mse_loss",
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

def _linear_grads(x2: np.ndarray, w: np.ndarray, g2: np.ndarray):
    """Input and weight gradients ``(g2 @ w^T, x2^T @ g2)`` of ``x2 @ w`` on
    flat [rows, features] layouts. Every op with a 2-D weight, each conv tap
    included, runs its pair here, so a weight gradient is one GEMM over all
    rows, never one per batch entry summed."""
    return g2 @ w.T, x2.T @ g2


def matmul(a, b, bias=None) -> Tensor:
    """``a @ b [+ bias]`` as one op: ``a`` [..., d_in], a 2-D weight ``b``
    [d_in, d_out] shared by every row of ``a``, and ``bias`` [d_out] or
    None. The output rebuilds as ``a @ b [+ bias]`` from the sources
    backward keeps, and backward runs ``_linear_grads`` on the flattened
    [rows, d] layouts and sums the bias gradient over the leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    parents = (a, b) if bias is None else (a, b, _as_tensor(bias))
    if (a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]
            or bias is not None and parents[2].shape != b.shape[1:]):
        raise ShapeError(f"matmul needs a [..., d_in], a 2-D weight [d_in, d_out] and a bias "
                         f"[d_out] or None; got {a.shape} @ {b.shape}, bias "
                         f"{parents[2].shape if bias is not None else None}")
    d_in, d_out = b.shape
    sources = [_source(t) for t in parents]

    def affine(xd, wd, bd=None):
        y = np.matmul(xd, wd)
        return y if bd is None else y + bd

    def bwd(g):
        xd = sources[0]()
        gx, gw = _linear_grads(xd.reshape(-1, d_in), sources[1](), g.reshape(-1, d_out))
        gb = [_unbroadcast(g, (d_out,))] if len(sources) == 3 else []
        return (gx.reshape(xd.shape), gw, *gb)

    return _record(Tensor(affine(*(t.data for t in parents))), parents, bwd,
                   lambda: affine(*(f() for f in sources)))


# -- indexing and loss -------------------------------------------------------

def getitem(a, idx) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(a.data[idx])
    in_shape, dtype = a.shape, a.dtype

    def bwd(g):
        ga = np.zeros(in_shape, dtype)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record(out, (a,), bwd)


def mse_loss(pred, target) -> Tensor:
    """Mean squared error of two operands of one shape as one tape op:
    ``sum(d * d) * (1/n)`` with ``d = pred - target``, ``n`` its size and
    ``1/n`` in ``d``'s dtype. Backward gives ``pred`` the gradient
    ``c*d + c*d`` with ``c = g * (1/n)``, and ``target`` its negation: the
    float operations of the sub, mul, sum and scale chain it replaces, in
    their order."""
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss needs operands of one shape, got {pred.shape} and "
                         f"{target.shape}")
    d = pred.data - target.data
    inv_n = np.asarray(1.0 / d.size, dtype=d.dtype)

    def bwd(g):
        gd = (g * inv_n) * d
        gd += gd
        return gd, -gd

    return _record(Tensor((d * d).sum() * inv_n), (pred, target), bwd)


# -- nonlinearities ----------------------------------------------------------

def _sigmoid(h: np.ndarray) -> np.ndarray:
    """Logistic function, finite at any input: ``exp`` only of -|h|."""
    e = np.exp(-np.abs(h))
    return np.where(h >= 0, 1.0, e) / (1.0 + e)


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


# Score entries ``attend`` computes at a time, in whole batch entries and at
# least one: its temporaries stay cache-sized, and no [B, h, L_q, L_kv] array
# is made whole.
ATTEND_BLOCK = 1 << 16


def _heads(a: np.ndarray, h: int) -> np.ndarray:
    """``a`` [B, L, d] as its ``h`` heads [B, h, L, d/h]: a strided view,
    head i the columns i*d/h .. (i+1)*d/h - 1 of every row."""
    B, L, d = a.shape
    return a.reshape(B, L, h, d // h).transpose(0, 2, 1, 3)


def attend(q, k, v, h: int, scale: float, causal: bool = False, literal: bool = False,
           rate: float = 0.0, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Multi-head attention core ``W @ v`` per head as one tape op, where
    ``W = softmax((q*scale) @ k^T)``. When ``causal``, query i sees keys
    j <= i, the one [L_q, L_kv] array ``visible = np.tri(L_q, L_kv)`` that
    every block reads: blocked keys are set to -inf before the row max or,
    when ``literal``, the unmasked softmax is multiplied by ``visible``
    afterwards (rows then sum to < 1). Inverted dropout at ``rate``
    follows (the keep mask of ``_keep_mask``, drawn from ``rng``).

    q: [B, L_q, d], k: [B, L_kv, d], v: [B, L_kv, d_v], with ``h`` dividing
    d and d_v (``ShapeError`` otherwise; nothing broadcasts). Each operand
    is read as its heads (``_heads``), and the context [B, L_q, d_v], its
    heads side by side, is written through the same view. The op runs in
    blocks of whole batch entries, ``ATTEND_BLOCK`` score entries a block
    and at least one entry. Each block's keep mask is drawn in turn into
    one reused float64 buffer, in C order over [B, h, L_q, L_kv], so the
    draws follow one another in the stream as one draw over all the scores
    would.
    Saved for backward: the sources of q, k and v (``_source``); each row's
    max and sum [B, h, L_q, 1], ``visible`` (as its blocked entries in
    additive mode) and the keep mask packed to bits. Backward first
    recomputes q, k and v, and ``q*scale`` with forward's product. It
    rebuilds a block's softmax as
    ``P = exp(S - max) / sum``, which repeats forward's bits without a
    reduction, then, with ``s`` the dropout scale and
    ``W = P [* visible if literal] [* keep * s]``: ``dW = g v^T``,
    ``dv = W^T g``, ``dP = dW [* visible if literal] [* keep * s]``,
    ``dS = P * (dP - sum(dP * P))``, ``dq = dS k * scale`` and
    ``dk = dS^T (q*scale)``, each gradient written into its [B, L, d]
    array through its heads view.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim != 3 or k.ndim != 3 or v.ndim != 3 or q.shape[2] != k.shape[2]
            or k.shape[1] != v.shape[1] or not q.shape[0] == k.shape[0] == v.shape[0]
            or h < 1 or q.shape[2] % h or v.shape[2] % h):
        raise ShapeError(f"attend needs q [B, L_q, d], k [B, L_kv, d] and v [B, L_kv, d_v] "
                         f"with one batch axis and h dividing d and d_v; got {q.shape}, "
                         f"{k.shape}, {v.shape}, h={h}")
    _check_rate(rate)
    B, L_q, _ = q.shape
    L_kv = k.shape[1]
    scale = np.asarray(scale, dtype=q.dtype)      # a scalar takes q's dtype, as in mul
    qs = q.data * scale
    score_dtype = np.result_type(qs.dtype, k.dtype)
    # ``visible`` kept only in the form the mode reads
    visible = np.tri(L_q, L_kv, dtype=score_dtype) if causal and literal else None
    blocked = ~np.tri(L_q, L_kv, dtype=bool) if causal and not literal else None
    per_block = max(1, ATTEND_BLOCK // max(1, h * L_q * L_kv))
    sources = [_source(t) for t in (q, k, v)]

    def scores(qh, kh, lo, hi):
        # entries lo..hi-1 of (q*scale) k^T, blocked keys at -inf
        s = np.matmul(qh[lo:hi], np.swapaxes(kh[lo:hi], -1, -2))
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

    qh, kh, vh = _heads(qs, h), _heads(k.data, h), _heads(v.data, h)
    row_max = np.empty((B, h, L_q, 1), score_dtype)
    row_sum = np.empty_like(row_max)
    out = np.empty((B, L_q, v.shape[2]), np.result_type(score_dtype, v.dtype))
    out_h = _heads(out, h)
    draws = np.empty(per_block * h * L_q * L_kv) if rate else None
    packed, keep, drop_scale = [], None, None
    for lo in range(0, B, per_block):
        hi = min(lo + per_block, B)
        p = _softmax_(scores(qh, kh, lo, hi), row_max[lo:hi], row_sum[lo:hi])
        if rate:
            keep, drop_scale = _keep_mask(rng, rate, score_dtype,
                                          draws[:p.size].reshape(p.shape))
            packed.append(np.packbits(keep))
        np.matmul(weights(p, keep, out=p), vh[lo:hi], out=out_h[lo:hi])

    def bwd(g):
        # q*scale as forward made it; the rebuilt q is dropped at once
        qs, kd, vd = sources[0]() * scale, sources[1](), sources[2]()
        ds_dtype = np.result_type(g.dtype, vd.dtype, score_dtype)
        gq = np.empty(qs.shape, np.result_type(ds_dtype, kd.dtype))
        gk = np.empty(kd.shape, np.result_type(ds_dtype, qs.dtype))
        gv = np.empty(vd.shape, np.result_type(score_dtype, g.dtype))
        qh, kh, vh, gh, gqh, gkh, gvh = (_heads(a, h) for a in (qs, kd, vd, g, gq, gk, gv))
        for j, lo in enumerate(range(0, B, per_block)):
            hi = min(lo + per_block, B)
            p = scores(qh, kh, lo, hi)
            p -= row_max[lo:hi]
            np.exp(p, out=p)
            p /= row_sum[lo:hi]
            keep = (np.unpackbits(packed[j], count=p.size).view(bool).reshape(p.shape)
                    if rate else None)
            dp = np.matmul(gh[lo:hi], np.swapaxes(vh[lo:hi], -1, -2))
            np.matmul(np.swapaxes(weights(p, keep), -1, -2), gh[lo:hi], out=gvh[lo:hi])
            ds = _softmax_grad(p, weights(dp, keep, out=dp))
            np.matmul(ds, kh[lo:hi], out=gqh[lo:hi])
            gqh[lo:hi] *= scale
            np.matmul(np.swapaxes(ds, -1, -2), qh[lo:hi], out=gkh[lo:hi])
        return gq, gk, gv

    return _record(Tensor(out), (q, k, v), bwd)


# -- structured ops ----------------------------------------------------------

def conv1d(x, w, bias=None) -> Tensor:
    """Causal, length-preserving 1-d convolution over the middle axis.

    x: [B, L, C_in] with L >= 1, w: [k, C_in, C_out], bias: [C_out] or
    None. It pads k-1 zeros on the left, so position t sees only <= t. It
    saves its operands' sources, not the padded input, and pads again in
    backward; the output rebuilds from those sources.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d expects x [B,L,C_in], w [k,C_in,C_out]; got {x.shape}, {w.shape}")
    k, c_in, c_out = w.shape
    if k < 1:
        raise ShapeError(f"kernel width must be >= 1, got {k}")
    if x.shape[-1] != c_in:
        raise ShapeError(f"conv1d channel mismatch: x has {x.shape[-1]}, w expects {c_in}")
    B, L, _ = x.shape
    if L < 1:
        raise ShapeError(f"conv1d needs a non-empty sequence, got length {L}")
    pad = ((0, 0), (k - 1, 0), (0, 0))
    parents = (x, w) if bias is None else (x, w, _as_tensor(bias))
    sources = [_source(t) for t in parents]
    bias_shape = parents[2].shape if bias is not None else None

    def conv(xd, wd, bd=None):
        xp = np.pad(xd, pad)
        y = np.zeros((B, L, c_out), dtype=xd.dtype)
        for t in range(k):
            y += np.matmul(xp[:, t:t + L, :], wd[t])
        return y if bd is None else y + bd

    def bwd(g):
        # One _linear_grads per tap on [B*L, C] layouts; copying the strided
        # input slice costs far less than a batched einsum over it.
        xp, wd = np.pad(sources[0](), pad), sources[1]()
        g2 = g.reshape(B * L, c_out)
        gxp = np.zeros_like(xp)
        gw = np.empty_like(wd)
        for t in range(k):
            gx, gw[t] = _linear_grads(xp[:, t:t + L, :].reshape(B * L, c_in), wd[t], g2)
            gxp[:, t:t + L, :] += gx.reshape(B, L, c_in)
        grads = [gxp[:, k - 1:, :], gw]
        if bias_shape is not None:
            grads.append(_unbroadcast(g, bias_shape))
        return tuple(grads)

    return _record(Tensor(conv(*(t.data for t in parents))), parents, bwd,
                   lambda: conv(*(f() for f in sources)))


def glu(gate, value) -> Tensor:
    """Gated linear unit ``sigmoid(gate) * value`` of two operands of one
    shape as one tape op. It saves their sources, not the sigmoid, and
    recomputes the sigmoid in backward, then runs the gradients of the
    product and of the sigmoid, ``g * y * (1 - y)``, as the two ops it
    replaces ran them."""
    gate, value = _as_tensor(gate), _as_tensor(value)
    if gate.shape != value.shape:
        raise ShapeError(f"glu needs gate and value of one shape, got {gate.shape}, "
                         f"{value.shape}")
    gs, vs = _source(gate), _source(value)

    def bwd(g):
        y = _sigmoid(gs())
        g_gate = g * vs()
        g_gate *= y
        g_gate *= 1.0 - y
        return g_gate, g * y

    return _record(Tensor(_sigmoid(gate.data) * value.data), (gate, value), bwd)


def feed_forward(x, w1, b1, w2, b2, activation: str) -> Tensor:
    """Position-wise two-layer network ``act(x @ w1 + b1) @ w2 + b2`` as one
    tape op, ``act`` named by ``activation`` (a key of ``FFN_ACTIVATIONS``):
    x [..., d_in], w1 [d_in, d_ff], b1 [d_ff], w2 [d_ff, d_out], b2 [d_out].
    It saves the sources of its operands and no [..., d_ff] array. Backward
    recomputes ``h = x @ w1 + b1`` and ``act(h)`` with forward's expressions,
    then runs the gradients of the five ops it replaces (matmul, add, act,
    matmul, add) in their order: ``_unbroadcast`` for each bias and
    ``_linear_grads`` for each weight and its input."""
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
        ga, gw2 = _linear_grads(a.reshape(-1, d_ff), w2d, g.reshape(-1, d_out))
        gh = ga.reshape(a.shape)
        gh *= slope()
        gx, gw1 = _linear_grads(xd.reshape(-1, d_in), w1d, gh.reshape(-1, d_ff))
        return (gx.reshape(xd.shape), gw1, _unbroadcast(gh, (d_ff,)), gw2,
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


def focus_gate(context, operand, h: int, rate: float = 0.0,
               rng: Optional[np.random.Generator] = None) -> Tensor:
    """DCF's gating as one tape op: ``operand`` [B, L, d] scaled, head by
    head, by the focus weights of ``context`` [B, L, d], both read as their
    ``h`` heads (``_heads``). A head's salience ``s`` at position l, its
    context summed over the head's d/h features, is softmaxed causally over
    positions in O(L): position l normalizes over positions <= l, so its
    weight never depends on the salience of a later position. With the
    running log-sum-exp ``lse_l = log sum_{j<=l} exp(s_j)``,
    ``f_l = exp(s_l - lse_l)``, computed in float64 and rounded once to the
    context's dtype. Inverted dropout at ``rate`` follows (the keep mask of
    ``_keep_mask``, as in ``attend``, drawn from ``rng`` in C order over
    [B, h, L]). The output rebuilds from the weights and the operand's
    source, which backward keeps.

    Backward: the operand's gradient is the output gradient times the
    weights. The weights' gradient, the output gradient times the operand
    summed over each head's features, is multiplied by the keep mask and
    its scale, then ``ds_m = f_m (g_m - t_m)``,
    ``t_m = sum_{l>=m} g_l f_l exp(lse_m - lse_l)``. Every exponent there is
    <= 0, so ``t`` is summed as two reverse running log-sum-exps, one per
    sign of ``g f``, and stays finite for any spread of salience. Both run
    in float64; ``ds``, rounded to the context's dtype, is the context
    gradient of every feature of its head and position.
    """
    context, operand = _as_tensor(context), _as_tensor(operand)
    if context.ndim != 3 or operand.shape != context.shape or h < 1 or context.shape[2] % h:
        raise ShapeError(f"focus_gate needs a context and an operand [B, L, d] of one shape "
                         f"and h dividing d; got {context.shape}, {operand.shape}, h={h}")
    _check_rate(rate)
    dtype = context.dtype
    s = _heads(context.data, h).sum(axis=-1).astype(np.float64)      # [B, h, L]
    lse = np.logaddexp.accumulate(s, axis=-1)
    f = np.exp(s - lse)
    y = f.astype(dtype)
    keep = drop_scale = None
    if rate:
        keep, drop_scale = _keep_mask(rng, rate, dtype, np.empty(y.shape))
        y *= keep
        y *= drop_scale
    gate = y[..., None]
    src = _source(operand)

    def gated(a):
        # a [B, L, d], each head's features times its weights
        out = np.empty(a.shape, np.result_type(a.dtype, dtype))
        np.multiply(_heads(a, h), gate, out=_heads(out, h))
        return out

    def bwd(g):
        g_operand = gated(g)
        g = (_heads(g, h) * _heads(src(), h)).sum(axis=-1)
        if keep is not None:
            g = g * keep
            g *= drop_scale
        gf = g * f
        t = np.zeros_like(gf)
        with np.errstate(divide="ignore"):
            for sign in (1.0, -1.0):
                part = np.log(np.maximum(sign * gf, 0.0)) - lse
                tail = np.logaddexp.accumulate(part[..., ::-1], axis=-1)[..., ::-1]
                t += sign * np.exp(lse + tail)
        ds = (f * (g - t)).astype(dtype)
        g_context = np.empty(g_operand.shape, dtype)
        _heads(g_context, h)[...] = ds[..., None]
        return g_context, g_operand

    return _record(Tensor(gated(operand.data)), (context, operand), bwd, lambda: gated(src()))


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
