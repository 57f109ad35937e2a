"""Independent scalar reference implementations used as test oracles.

Everything here is written with explicit Python loops and math-module
scalars, deliberately sharing no code with the package under test.
"""

import math

import numpy as np


def causal_mask(n):
    """Lower-triangular visibility mask (1 = visible), diagonal included: the
    mask the oracles take for causal attention."""
    return np.tril(np.ones((n, n)))


def _softmax_row(vals, visible=None):
    idx = range(len(vals)) if visible is None else [j for j, v in enumerate(visible) if v]
    m = max(vals[j] for j in idx)
    exps = [math.exp(vals[j] - m) if (visible is None or visible[j]) else 0.0
            for j in range(len(vals))]
    z = sum(exps)
    return [e / z for e in exps]


def dcf_reference(x_q, x_kv, wq, wk, wv, wo, h, mask=None,
                  mask_mode="pre_softmax_additive", focus_mask=None, cross=False):
    """Step-by-step focus-gated attention on nested Python lists. The focus
    weights gate the values V in a self-attention block and the context
    rows C in a ``cross`` one, whatever the lengths."""
    x_q, x_kv = np.asarray(x_q, float), np.asarray(x_kv, float)
    B, Lq, d = x_q.shape
    Lkv = x_kv.shape[1]
    dk = d // h
    scale = 1.0 / math.sqrt(d * h)
    out = np.zeros((B, Lq, d))
    for b in range(B):
        merged = [[0.0] * d for _ in range(Lq)]
        for hh in range(h):
            lo = hh * dk

            def proj(xrow, w):
                full = [sum(xrow[i] * w[i][c] for i in range(d)) for c in range(d)]
                return full[lo:lo + dk]

            Q = [proj(x_q[b, l], wq) for l in range(Lq)]
            K = [proj(x_kv[b, l], wk) for l in range(Lkv)]
            V = [proj(x_kv[b, l], wv) for l in range(Lkv)]

            A = []
            for i in range(Lq):
                scores = [sum(Q[i][c] * K[j][c] for c in range(dk)) * scale
                          for j in range(Lkv)]
                if mask is not None and mask_mode == "pre_softmax_additive":
                    scores = [s if mask[i][j] else s - 1e9
                              for j, s in enumerate(scores)]
                row = _softmax_row(scores)
                if mask is not None and mask_mode == "literal_post_softmax":
                    row = [r * mask[i][j] for j, r in enumerate(row)]
                A.append(row)

            C = [[sum(A[i][j] * V[j][c] for j in range(Lkv)) for c in range(dk)]
                 for i in range(Lq)]
            s = [sum(C[i]) for i in range(Lq)]
            vis_mask = focus_mask if focus_mask is not None else mask
            if vis_mask is not None and len(vis_mask) == Lq and len(vis_mask[0]) == Lq:
                focus = [_softmax_row(s, visible=vis_mask[i])[i] for i in range(Lq)]
            else:
                full = _softmax_row(s)
                focus = [full[i] for i in range(Lq)]
            gate_src = C if cross else V
            for i in range(Lq):
                for c in range(dk):
                    merged[i][lo + c] = focus[i] * gate_src[i][c]
        for l in range(Lq):
            for c in range(d):
                out[b, l, c] = sum(merged[l][i] * wo[i][c] for i in range(d))
    return out


def mha_reference(x_q, x_kv, wq, wk, wv, wo, h, mask=None):
    """Conventional multi-head attention on nested Python lists."""
    x_q, x_kv = np.asarray(x_q, float), np.asarray(x_kv, float)
    B, Lq, d = x_q.shape
    Lkv = x_kv.shape[1]
    dk = d // h
    scale = 1.0 / math.sqrt(dk)
    out = np.zeros((B, Lq, d))
    for b in range(B):
        merged = [[0.0] * d for _ in range(Lq)]
        for hh in range(h):
            lo = hh * dk

            def proj(xrow, w):
                full = [sum(xrow[i] * w[i][c] for i in range(d)) for c in range(d)]
                return full[lo:lo + dk]

            Q = [proj(x_q[b, l], wq) for l in range(Lq)]
            K = [proj(x_kv[b, l], wk) for l in range(Lkv)]
            V = [proj(x_kv[b, l], wv) for l in range(Lkv)]
            for i in range(Lq):
                scores = [sum(Q[i][c] * K[j][c] for c in range(dk)) * scale
                          for j in range(Lkv)]
                if mask is not None:
                    scores = [s if mask[i][j] else s - 1e9
                              for j, s in enumerate(scores)]
                A = _softmax_row(scores)
                for c in range(dk):
                    merged[i][lo + c] = sum(A[j] * V[j][c] for j in range(Lkv))
        for l in range(Lq):
            for c in range(d):
                out[b, l, c] = sum(merged[l][i] * wo[i][c] for i in range(d))
    return out


def adam_reference(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam trajectory for a fixed gradient sequence."""
    x, m, v = x0, 0.0, 0.0
    xs = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        xs.append(x)
    return xs


def metrics_reference(pred, truth, guard=1e-2):
    """Per-element metric computation with explicit accumulation loops."""
    n = len(pred)
    abs_sum = sq_sum = mape_sum = 0.0
    mean_y = sum(truth) / n
    sst = sum((y - mean_y) ** 2 for y in truth)
    for p, y in zip(pred, truth):
        e = p - y
        abs_sum += abs(e)
        sq_sum += e * e
        mape_sum += abs(e) / max(abs(y), guard)
    mae = abs_sum / n
    rmse = math.sqrt(sq_sum / n)
    mape = mape_sum / n
    r2 = None if sst == 0 else 100.0 * (1.0 - sq_sum / sst)
    return mae, rmse, mape, r2


# -- composite tape formulas replaced by fused ops ---------------------------
# Each builds the op from fgn.tensor's elementwise ops and the pointwise
# nodes below (one tape node per step), as the package did before the op was
# fused; they share no code with the fused kernels, so forward values and
# gradients can be compared.

def _pointwise(a, y, dy):
    """One tape node ``y = f(a)``, elementwise, whose gradient is ``g * dy``
    with ``dy = f'(a)``."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    return T._record(Tensor(y), (a,), lambda g: (g * dy,))


def _exp(a):
    y = np.exp(a.data)
    return _pointwise(a, y, y)


def _recip(a):
    return _pointwise(a, 1.0 / a.data, -1.0 / (a.data * a.data))


def _rsqrt(a):
    return _pointwise(a, 1.0 / np.sqrt(a.data), -0.5 / (a.data * np.sqrt(a.data)))


def masked_softmax_composite(scores, mask):
    """Additive masking: blocked scores shifted by -1e9, then exp / sum."""
    from fgn.tensor import Tensor

    shifted = scores + Tensor((1.0 - np.asarray(mask, dtype=scores.dtype)) * -1e9)
    e = _exp(shifted - Tensor(shifted.data.max(axis=-1, keepdims=True)))
    return e * _recip(sum_node(e, axis=-1, keepdims=True))


def focus_softmax_composite(salience, mask):
    """Per-position softmax over each mask row's visible set, as a chain of
    reshape, shift, exp and divide nodes over a [B, h, L, L] tensor."""
    from fgn.tensor import Tensor

    L = salience.shape[-1]
    vis = np.asarray(mask, dtype=salience.dtype).reshape(L, L)
    s_det = salience.data
    row_max = np.where(vis > 0, s_det[..., None, :], -np.inf).max(axis=-1)
    B, h, _ = salience.shape
    shifted = (reshape_node(salience, B, h, 1, L) - Tensor(row_max.reshape(B, h, L, 1))
               + Tensor((vis - 1.0) * 1e9))
    denom = sum_node(_exp(shifted), axis=-1)
    numer = _exp(salience - Tensor(row_max))
    return numer * _recip(denom)


def reshape_node(a, *shape):
    """``a`` reshaped as one tape node, as ``T.reshape`` ran it before DCF's
    focus weights became one op: its gradient is the output gradient
    reshaped back."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    in_shape = a.shape
    return T._record(Tensor(a.data.reshape(shape)), (a,), lambda g: (g.reshape(in_shape),))


def sum_node(a, axis=None, keepdims=False):
    """``a`` summed as one tape node, as ``T.reduce_sum`` ran it before the
    training loss became one op: its gradient is the output gradient
    broadcast back to ``a``'s shape."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    in_shape = a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, in_shape).copy(),)

    return T._record(Tensor(a.data.sum(axis=axis, keepdims=keepdims)), (a,), bwd)


def transpose_node(a, *axes):
    """``a`` with its axes permuted and copied, as one tape node, as
    ``T.transpose`` ran it before the baselines' time map took one channel:
    its gradient is the output gradient permuted back."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    inv = np.argsort([ax % a.ndim for ax in axes])
    return T._record(Tensor(np.ascontiguousarray(a.data.transpose(axes))), (a,),
                     lambda g: (g.transpose(inv),))


def mse_chain(pred, target):
    """``T.mse_loss`` as the four tape ops it was: sub, mul, sum and the
    scale by ``1/n``, a scalar that takes the sum's dtype."""
    diff = pred - target
    return sum_node(diff * diff) * (1.0 / diff.size)


def per_channel_linear_chain(x, weight, bias=None):
    """The baselines' time map as the three ops it was: x [B, L, C]
    transposed to [B, C, L], ``T.matmul`` and the result transposed back."""
    from fgn import tensor as T

    return transpose_node(T.matmul(transpose_node(x, 0, 2, 1), weight, bias), 0, 2, 1)


def to_dtype(module, dtype):
    """Convert every parameter of ``module`` in place (float64 for gradient
    checks), dropping its gradient."""
    for _, p in module.parameters():
        p.data = p.data.astype(dtype)
        p.grad = None


def focus_chain(context, rate=0.0, rng=None):
    """``T.focus_weights`` as the four tape ops DCF ran before it was one:
    a sum node over the features, the causal focus node (float64 running
    log-sum-exp forward, two-sign reverse log-sum-exp backward), the dropout
    node (a boolean keep mask, skipped at rate 0) and a reshape node to
    [..., L, 1]."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    salience = sum_node(context, axis=-1)
    dtype = salience.dtype
    s = salience.data.astype(np.float64)
    lse = np.logaddexp.accumulate(s, axis=-1)
    f = np.exp(s - lse)

    def focus_bwd(g):
        gf = g * f
        t = np.zeros_like(gf)
        with np.errstate(divide="ignore"):
            for sign in (1.0, -1.0):
                part = np.log(np.maximum(sign * gf, 0.0)) - lse
                tail = np.logaddexp.accumulate(part[..., ::-1], axis=-1)[..., ::-1]
                t += sign * np.exp(lse + tail)
        return ((f * (g - t)).astype(dtype),)

    focus = T._record(Tensor(f.astype(dtype)), (salience,), focus_bwd)
    if rate:
        keep = rng.random(focus.shape) >= rate
        scale = np.ones((), dtype=dtype) / (1.0 - rate)
        y = focus.data * keep
        y *= scale

        def dropout_bwd(g):
            gx = g * keep
            gx *= scale
            return (gx,)

        focus = T._record(Tensor(y), (focus,), dropout_bwd)
    return reshape_node(focus, *focus.shape, 1)


def dropout_reference(x, rate, rng):
    """Inverted dropout as written before the keep mask became boolean: a
    float mask cast to ``x``'s dtype and divided by 1 - rate. Returns the
    output array and the scaled mask its gradient multiplies by."""
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def attention_chain_composite(q, k, v, scale, mask=None, literal=False, rate=0.0,
                              rng=None):
    """The attention core as the six tape ops it was before ``T.attend``:
    score scale, k transpose, score matmul, softmax (-1e9 additive mask, or
    an unmasked softmax times the mask in literal mode), dropout (the float
    mask of ``dropout_reference``) and context matmul."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    scores = batched_matmul_node(q * scale, transpose_node(k, 0, 1, 3, 2))
    if mask is not None and not literal:
        scores = scores + Tensor((1.0 - np.asarray(mask, dtype=scores.dtype)) * -1e9)
    e = _exp(scores - Tensor(scores.data.max(axis=-1, keepdims=True)))
    a = e * _recip(sum_node(e, axis=-1, keepdims=True))
    if mask is not None and literal:
        a = a * Tensor(np.asarray(mask, dtype=a.dtype))
    if rate:
        _, keep = dropout_reference(a.data, rate, rng)
        a = a * Tensor(keep)
    return batched_matmul_node(a, v)


def batched_matmul_node(a, b):
    """``a @ b`` of stacks of matrices with the same leading axes, [..., m, n]
    @ [..., n, p], as ``T.matmul`` ran it before it took only a 2-D weight:
    one node saving both operands, whose gradients are batched products."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    ad, bd = a.data, b.data

    def bwd(g):
        return np.matmul(g, np.swapaxes(bd, -1, -2)), np.matmul(np.swapaxes(ad, -1, -2), g)

    return T._record(Tensor(np.matmul(ad, bd)), (a, b), bwd)


def attend_unblocked(q, k, v, scale, mask=None, literal=False, rate=0.0, rng=None):
    """``T.attend`` as it was before it ran in blocks of batch×head slices:
    one tape op over the whole score array, saving the softmax P
    [..., L_q, L_kv] and the boolean keep mask for backward. Its outputs,
    gradients and draws are the bits the blocked op must repeat."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    scale = np.asarray(scale, dtype=q.dtype)
    qs = q.data * scale
    p = np.matmul(qs, np.swapaxes(k.data, -1, -2))
    if mask is not None and not literal:
        np.copyto(p, -np.inf, where=np.asarray(mask) == 0)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    lit = np.asarray(mask, dtype=p.dtype) if mask is not None and literal else None
    keep = rng.random(p.shape) >= rate if rate else None
    drop_scale = np.ones((), dtype=p.dtype) / (1.0 - rate)

    def weights(x, out=None):
        if lit is not None:
            x = np.multiply(x, lit, out=out)
            out = x
        if keep is not None:
            x = np.multiply(x, keep, out=out)
            x *= drop_scale
        return x

    kd, vd = k.data, v.data
    q_shape = q.shape

    def bwd(g):
        dp = np.matmul(g, np.swapaxes(vd, -1, -2))
        gv = np.matmul(np.swapaxes(weights(p), -1, -2), g)
        dp = weights(dp, out=dp)
        ds = dp * p
        np.subtract(dp, ds.sum(axis=-1, keepdims=True), out=ds)
        ds *= p
        gq = np.matmul(ds, kd)
        gq *= scale
        gk = np.matmul(np.swapaxes(ds, -1, -2), qs)
        return (T._unbroadcast(gq, q_shape), T._unbroadcast(gk, kd.shape),
                T._unbroadcast(gv, vd.shape))

    return T._record(Tensor(np.matmul(weights(p), vd)), (q, k, v), bwd)


def _relu_node(a):
    """``T.relu`` as it was: one node saving its output."""
    y = np.maximum(a.data, 0)
    return _pointwise(a, y, y > 0)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_node(a):
    """``T.gelu`` as it was: the tanh approximation, one node."""
    x = a.data
    t = np.tanh(_GELU_C * (x + 0.044715 * x ** 3))
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
    return _pointwise(a, 0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)


def feed_forward_chain(x, w1, b1, w2, b2, activation):
    """The feed-forward network as the five tape ops it was before
    ``T.feed_forward``: matmul, bias add, activation, matmul, bias add."""
    act = {"relu": _relu_node, "gelu": _gelu_node}[activation]
    return matmul_weight_node(act(matmul_weight_node(x, w1) + b1), w2) + b2


def matmul_weight_node(x, w):
    """``T.matmul`` of an input [..., d_in] and a 2-D weight as it was before
    its output rebuilt and it took a bias: one node saving both operands,
    whose backward runs each gradient as one GEMM on the flattened [rows, d]
    layouts."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    x, w = T._as_tensor(x), T._as_tensor(w)
    xd, wd = x.data, w.data
    d_in, d_out = wd.shape

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        return (g2 @ wd.T).reshape(xd.shape), xd.reshape(-1, d_in).T @ g2

    return T._record(Tensor(np.matmul(xd, wd)), (x, w), bwd)


def dense_chain(x, w, b=None):
    """``Dense`` as the two ops it was before ``T.matmul`` took a bias:
    matmul, then the bias add."""
    y = matmul_weight_node(x, w)
    return y if b is None else y + b


def merge_chain(c, w):
    """Merged heads projected as the three ops before ``T.merge_heads``:
    transpose [B, h, L, d_k] to [B, L, h, d_k], reshape to [B, L, h*d_k],
    matmul."""
    B, h, L, d_k = c.shape
    return matmul_weight_node(reshape_node(transpose_node(c, 0, 2, 1, 3), B, L, h * d_k), w)


def mul_kept(a, b):
    """``T.mul`` as it was before its output rebuilt: a consumer of the
    product keeps the product."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    ad, bd = a.data, b.data

    def bwd(g):
        return T._unbroadcast(g * bd, ad.shape), T._unbroadcast(g * ad, bd.shape)

    return T._record(Tensor(ad * bd), (a, b), bwd)


def _sigmoid_node(a):
    """``T.sigmoid`` as it was: one node saving its output y, whose
    backward is ``g * y * (1 - y)``."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    x = a.data
    e = np.exp(-np.abs(x))
    y = np.where(x >= 0, 1.0, e) / (1.0 + e)
    return T._record(Tensor(y), (a,), lambda g: (g * y * (1.0 - y),))


def glu_chain(gate, value):
    """The GLU's gating as the two ops it was before ``T.glu``: the sigmoid
    of the gate, then its product with the value."""
    return mul_kept(_sigmoid_node(gate), value)


def conv1d_kept(x, w, bias=None):
    """``T.conv1d`` in causal mode as it was before its output rebuilt: one
    node saving its input and kernel, whose backward runs one flat GEMM per
    tap and gradient."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    xd, wd = x.data, w.data
    k, c_in, c_out = wd.shape
    B, L, _ = xd.shape
    pad = ((0, 0), (k - 1, 0), (0, 0))
    xp = np.pad(xd, pad)
    y = np.zeros((B, L, c_out), dtype=xd.dtype)
    for t in range(k):
        y += np.matmul(xp[:, t:t + L, :], wd[t])
    parents = (x, w) if bias is None else (x, w, bias)
    if bias is not None:
        y = y + bias.data
    n_grads = len(parents)

    def bwd(g):
        g2 = g.reshape(B * L, c_out)
        gxp = np.zeros_like(xp)
        gw = np.empty_like(wd)
        for t in range(k):
            gw[t] = xp[:, t:t + L, :].reshape(B * L, c_in).T @ g2
            gxp[:, t:t + L, :] += (g2 @ wd[t].T).reshape(B, L, c_in)
        grads = (gxp[:, k - 1:, :], gw, T._unbroadcast(g, (c_out,)))
        return grads[:n_grads]

    return T._record(Tensor(y), parents, bwd)


def gated_conv_chain(x, w_gate, b_gate, w_lin, b_lin):
    """``GatedConvUnit`` as the four ops it was before ``T.glu`` and
    rebuilding convolutions: the gate's causal convolution, the sigmoid, the
    linear branch's causal convolution and their product."""
    gate = _sigmoid_node(conv1d_kept(x, w_gate, b_gate))
    return mul_kept(gate, conv1d_kept(x, w_lin, b_lin))


def layer_norm_composite(x, gain, offset, eps=1e-5):
    """Mean, centre, variance, inverse square root, scale and shift nodes."""
    inv_n = 1.0 / x.shape[-1]
    mu = sum_node(x, axis=-1, keepdims=True) * inv_n
    xc = x - mu
    var = sum_node(xc * xc, axis=-1, keepdims=True) * inv_n
    return xc * _rsqrt(var + eps) * gain + offset


def conv1d_composite(x, w, bias=None):
    """Causal zero padding as one node, then one matmul per tap, summed."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    k = w.shape[0]
    L = x.shape[1]
    xp = T._record(Tensor(np.pad(x.data, ((0, 0), (k - 1, 0), (0, 0)))), (x,),
                   lambda g: (g[:, k - 1:, :],))
    y = matmul_weight_node(xp[:, 0:L, :], w[0])
    for t in range(1, k):
        y = y + matmul_weight_node(xp[:, t:t + L, :], w[t])
    return y if bias is None else y + bias


def moving_average_reference(x, window):
    """DLinear's moving average on a NumPy array [B, L, C] as it ran before
    ``conv1d`` became causal only: ``pad = (window - 1) // 2`` copies of the
    first and last rows joined on, that series zero-padded by ``pad`` on
    both sides, one matmul per tap of the averaging kernel summed from
    zeros, and the centred L outputs kept."""
    pad = (window - 1) // 2
    B, L, c = x.shape
    xp = np.concatenate([x[:, :1]] * pad + [x] + [x[:, -1:]] * pad, axis=1)
    n = L + 2 * pad
    xpp = np.pad(xp, ((0, 0), (pad, pad), (0, 0)))
    kernel = np.tile(np.eye(c, dtype=x.dtype)[None, :, :] / window, (window, 1, 1))
    y = np.zeros((B, n, c), dtype=x.dtype)
    for t in range(window):
        y += np.matmul(xpp[:, t:t + n, :], kernel[t])
    return y[:, pad:pad + L, :]


def adam_step_allocating(params, state, lr):
    """Adam as written before the update moved into ``out=`` buffers: every
    intermediate a fresh float64 array, the result cast to the parameter's
    dtype."""
    if not state.m:
        state.init_slots(params)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        g = p.grad.astype(np.float64)
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data = (p.data - lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.data.dtype)


# -- data path as written before windows became views and CSV I/O vectorized --
# Row-by-row CSV reading and writing and the per-window copy loop; they share
# no code with fgn.data.

def load_csv_reference(path):
    """``csv.reader`` and ``float()`` per cell: (header, [rows, cols] float64)."""
    import csv

    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"row has {len(row)} cells, expected {len(header)}")
            rows.append([float(cell) for cell in row])
    return header, np.asarray(rows, dtype=np.float64)


def save_csv_reference(path, time_ms, names, matrix):
    """``csv.writer`` with one formatted string per cell."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["time_ms"] + list(names))
        for t, row in zip(time_ms, matrix):
            w.writerow([f"{t:.6f}"] + [f"{v:.9g}" for v in row])


def extract_windows_reference(features, target_n, target_r, starts, lookback,
                              label_len, horizon):
    """One copy per window into zero-filled arrays: (encoder, decoder,
    target_norm, target_raw, start_rows). The decoder holds each window's
    ``label_len`` known rows; the model appends the zero horizon."""
    n = len(starts)
    n_feat = features.shape[1]
    enc = np.zeros((n, lookback, n_feat), dtype=np.float32)
    dec = np.zeros((n, label_len, n_feat), dtype=np.float32)
    t_n = np.zeros((n, horizon, 1), dtype=np.float32)
    t_r = np.zeros((n, horizon, 1), dtype=np.float64)
    for i, s in enumerate(starts):
        enc[i] = features[s:s + lookback]
        dec[i] = features[s + lookback - label_len:s + lookback]
        t_n[i, :, 0] = target_n[s + lookback:s + lookback + horizon]
        t_r[i, :, 0] = target_r[s + lookback:s + lookback + horizon]
    return enc, dec, t_n, t_r, np.asarray(starts)


def windows_reference(columns, feature_names, target_name, lookback, label_len,
                      horizon, stride, split):
    """Train and test windows of a ``{name: values}`` table: float64 z-scores
    fit on the train rows, then the per-window copy loop."""
    n_rows = len(columns[target_name])
    split_row = int(np.floor(n_rows * split))
    feats_raw = np.stack([columns[n] for n in feature_names], axis=1)
    target_raw = columns[target_name]
    block = np.column_stack([feats_raw[:split_row], target_raw[:split_row]])
    mean, std = block.mean(axis=0), block.std(axis=0)
    feats = (feats_raw - mean[:-1]) / std[:-1]
    target_n = (target_raw - mean[-1]) / std[-1]

    def starts(first, region):
        count = ((region - lookback - horizon) // stride + 1
                 if region >= lookback + horizon else 0)
        return first + stride * np.arange(count)

    return tuple(extract_windows_reference(feats, target_n, target_raw, s, lookback,
                                           label_len, horizon)
                 for s in (starts(0, split_row), starts(split_row, n_rows - split_row)))


# -- attention as it ran before heads were views ------------------------------
# The four ops that copied heads into a contiguous [B, h, L, d_k] layout and
# back, as one tape node each: the projections, the attention core over the
# flattened batch×head slices, DCF's focus weights and the head merge. Each
# saves the arrays its backward reads; their outputs, gradients and draws
# are the bits that the [B, L, d] ops must repeat.

HEADS_ATTEND_BLOCK = 1 << 16    # score entries per block, in whole [L_q, L_kv] slices


def project_heads(x, w, h):
    """``x @ w`` split into ``h`` heads: [B, L, d_in] @ [d_in, d] -> the
    contiguous [B, h, L, d/h]. Backward: the gradient transposed back and
    copied to [B*L, d] in C order, then one GEMM per gradient."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    x, w = T._as_tensor(x), T._as_tensor(w)
    xd, wd = x.data, w.data
    B, L, d_in = xd.shape
    d = wd.shape[1]
    y = np.matmul(xd, wd).reshape(B, L, h, d // h)

    def bwd(g):
        g2 = g.transpose(0, 2, 1, 3).reshape(B * L, d)
        return (g2 @ wd.T).reshape(xd.shape), xd.reshape(-1, d_in).T @ g2

    return T._record(Tensor(np.ascontiguousarray(y.transpose(0, 2, 1, 3))), (x, w), bwd)


def merge_heads(c):
    """Heads side by side: c [B, h, L, d_k] copied to [B, L, h*d_k] in C
    order; backward is the gradient's [B, h, L, d_k] view."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    B, h, L, d_k = c.shape
    merged = np.ascontiguousarray(c.data.transpose(0, 2, 1, 3)).reshape(B, L, h * d_k)
    return T._record(Tensor(merged), (c,),
                     lambda g: (g.reshape(B, L, h, d_k).transpose(0, 2, 1, 3),))


def focus_weights(context, rate=0.0, rng=None):
    """DCF's focus weights of a context [..., L, d] as one node, shaped
    [..., L, 1]: the salience (the context summed over d) softmaxed causally
    over positions by a float64 running log-sum-exp, rounded once to the
    context's dtype, then inverted dropout with a boolean keep mask drawn
    over [..., L] in C order. Backward: two reverse running log-sum-exps,
    one per sign, and each position's gradient given to all its features."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    shape, dtype = context.shape, context.dtype
    s = context.data.sum(axis=-1).astype(np.float64)
    lse = np.logaddexp.accumulate(s, axis=-1)
    f = np.exp(s - lse)
    y = f.astype(dtype)
    keep = None
    if rate:
        keep = rng.random(y.shape) >= rate
        drop_scale = np.ones((), dtype=dtype) / (1.0 - rate)
        y *= keep
        y *= drop_scale

    def bwd(g):
        g = g.reshape(shape[:-1])
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
        return (np.broadcast_to(np.expand_dims(ds, -1), shape).copy(),)

    return T._record(Tensor(y[..., None]), (context,), bwd)


def attend_heads(q, k, v, scale, causal=False, literal=False, rate=0.0, rng=None):
    """``T.attend`` as it was before it took [B, L, d] operands and h: q
    [..., L_q, d_k], k [..., L_kv, d_k] and v [..., L_kv, d_v] with the same
    leading axes, one head per slice, run over the flattened slices in
    blocks of ``HEADS_ATTEND_BLOCK`` score entries (whole slices, at least
    one). Forward keeps each row's max and sum and the keep mask packed to
    bits; backward rebuilds each block's softmax from them."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    def flat(a):
        return a.reshape((-1,) + a.shape[-2:])

    lead = q.shape[:-2]
    L_q, L_kv = q.shape[-2], k.shape[-2]
    scale = np.asarray(scale, dtype=q.dtype)
    qs = q.data * scale
    score_dtype = np.result_type(qs.dtype, k.dtype)
    visible = np.tri(L_q, L_kv, dtype=score_dtype) if causal and literal else None
    blocked = ~np.tri(L_q, L_kv, dtype=bool) if causal and not literal else None
    n = math.prod(lead)
    per_block = max(1, HEADS_ATTEND_BLOCK // max(1, L_q * L_kv))
    qf, kf, vf = flat(qs), flat(k.data), flat(v.data)
    drop_scale = np.ones((), dtype=score_dtype) / (1.0 - rate)

    def scores(lo, hi):
        s = np.matmul(qf[lo:hi], np.swapaxes(kf[lo:hi], -1, -2))
        if blocked is not None:
            np.copyto(s, -np.inf, where=blocked)
        return s

    def weights(x, keep, out=None):
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
    flat_out = flat(out)
    draws = np.empty(per_block * L_q * L_kv) if rate else None
    packed, keep = [], None
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        p = scores(lo, hi)
        p -= np.max(p, axis=-1, keepdims=True, out=row_max[lo:hi])
        np.exp(p, out=p)
        p /= np.sum(p, axis=-1, keepdims=True, out=row_sum[lo:hi])
        if rate:
            d = draws[:p.size].reshape(p.shape)
            rng.random(out=d)
            keep = d >= rate
            packed.append(np.packbits(keep))
        np.matmul(weights(p, keep, out=p), vf[lo:hi], out=flat_out[lo:hi])

    def bwd(g):
        ds_dtype = np.result_type(g.dtype, vf.dtype, score_dtype)
        gq = np.empty(lead + qf.shape[1:], np.result_type(ds_dtype, kf.dtype))
        gk = np.empty(lead + kf.shape[1:], np.result_type(ds_dtype, qf.dtype))
        gv = np.empty(lead + vf.shape[1:], np.result_type(score_dtype, g.dtype))
        gf, flat_gq, flat_gk, flat_gv = (flat(a) for a in (g, gq, gk, gv))
        for j, lo in enumerate(range(0, n, per_block)):
            hi = min(lo + per_block, n)
            p = scores(lo, hi)
            p -= row_max[lo:hi]
            np.exp(p, out=p)
            p /= row_sum[lo:hi]
            keep = (np.unpackbits(packed[j], count=p.size).view(bool).reshape(p.shape)
                    if rate else None)
            dp = np.matmul(gf[lo:hi], np.swapaxes(vf[lo:hi], -1, -2))
            np.matmul(np.swapaxes(weights(p, keep), -1, -2), gf[lo:hi], out=flat_gv[lo:hi])
            dp = weights(dp, keep, out=dp)
            ds = dp * p
            np.subtract(dp, ds.sum(axis=-1, keepdims=True), out=ds)
            ds *= p
            np.matmul(ds, kf[lo:hi], out=flat_gq[lo:hi])
            flat_gq[lo:hi] *= scale
            np.matmul(np.swapaxes(ds, -1, -2), qf[lo:hi], out=flat_gk[lo:hi])
        return gq, gk, gv

    return T._record(Tensor(out), (q, k, v), bwd)


def attention_block_chain(block, x_query, x_kv, causal=False, rate=0.0, rng=None,
                          focus=focus_weights):
    """A ``DCFAttention`` or ``StandardAttention`` block's forward as it ran
    before heads were views: ``project_heads`` for q, k and v,
    ``attend_heads``, then in DCF ``focus`` (``focus_weights``, or the four
    ops of ``focus_chain`` it replaced) times the values (or, in a cross
    block, the context), and ``merge_heads`` into the output projection.
    ``rate`` is the block's dropout rate, 0 in eval."""
    from fgn import tensor as T
    from fgn.attention import DCFAttention

    cfg = block.config
    q, k, v = (project_heads(x, w, cfg.h) for x, w in
               ((x_query, block.w_q), (x_kv, block.w_k), (x_kv, block.w_v)))
    if isinstance(block, DCFAttention):
        context = attend_heads(q, k, v, 1.0 / np.sqrt(cfg.d_model * cfg.h), causal,
                               block.literal)
        heads = focus(context, rate, rng) * (context if block.cross else v)
    else:
        heads = attend_heads(q, k, v, 1.0 / np.sqrt(cfg.d_model // cfg.h), causal,
                             block.literal, rate, rng)
    return T.matmul(merge_heads(heads), block.w_o)
