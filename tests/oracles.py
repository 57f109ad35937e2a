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
                  mask_mode="pre_softmax_additive", focus_mask=None):
    """Step-by-step focus-gated attention on nested Python lists."""
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
            gate_src = V if Lq == Lkv else C
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
    return e * _recip(e.sum(axis=-1, keepdims=True))


def focus_softmax_composite(salience, mask):
    """Per-position softmax over each mask row's visible set, as a chain of
    reshape, shift, exp and divide nodes over a [B, h, L, L] tensor."""
    from fgn.tensor import Tensor

    L = salience.shape[-1]
    vis = np.asarray(mask, dtype=salience.dtype).reshape(L, L)
    s_det = salience.data
    row_max = np.where(vis > 0, s_det[..., None, :], -np.inf).max(axis=-1)
    B, h, _ = salience.shape
    shifted = (salience.reshape(B, h, 1, L) - Tensor(row_max.reshape(B, h, L, 1))
               + Tensor((vis - 1.0) * 1e9))
    denom = _exp(shifted).sum(axis=-1)
    numer = _exp(salience - Tensor(row_max))
    return numer * _recip(denom)


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

    scores = T.matmul(q * scale, T.transpose(k, 0, 1, 3, 2))
    if mask is not None and not literal:
        scores = scores + Tensor((1.0 - np.asarray(mask, dtype=scores.dtype)) * -1e9)
    e = _exp(scores - Tensor(scores.data.max(axis=-1, keepdims=True)))
    a = e * _recip(e.sum(axis=-1, keepdims=True))
    if mask is not None and literal:
        a = a * Tensor(np.asarray(mask, dtype=a.dtype))
    if rate:
        _, keep = dropout_reference(a.data, rate, rng)
        a = a * Tensor(keep)
    return T.matmul(a, v)


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
    from fgn import tensor as T

    act = {"relu": _relu_node, "gelu": _gelu_node}[activation]
    return T.matmul(act(T.matmul(x, w1) + b1), w2) + b2


def layer_norm_composite(x, gain, offset, eps=1e-5):
    """Mean, centre, variance, inverse square root, scale and shift nodes."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * _rsqrt(var + eps) * gain + offset


def conv1d_composite(x, w, bias=None, causal=True):
    """Zero padding by concatenation, then one matmul per tap, summed."""
    from fgn import tensor as T
    from fgn.tensor import Tensor

    k = w.shape[0]
    B, L, C = x.shape
    left, right = (k - 1, 0) if causal else ((k - 1) // 2, (k - 1) // 2)
    parts = [Tensor(np.zeros((B, n, C), dtype=x.dtype)) for n in (left, right)]
    xp = T.concatenate([parts[0], x, parts[1]], axis=1)
    y = T.matmul(xp[:, 0:L, :], w[0])
    for t in range(1, k):
        y = y + T.matmul(xp[:, t:t + L, :], w[t])
    return y if bias is None else y + bias


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
    target_norm, target_raw, start_rows)."""
    n = len(starts)
    n_feat = features.shape[1]
    enc = np.zeros((n, lookback, n_feat), dtype=np.float32)
    dec = np.zeros((n, label_len + horizon, n_feat), dtype=np.float32)
    t_n = np.zeros((n, horizon, 1), dtype=np.float32)
    t_r = np.zeros((n, horizon, 1), dtype=np.float64)
    for i, s in enumerate(starts):
        enc[i] = features[s:s + lookback]
        if label_len:
            dec[i, :label_len] = features[s + lookback - label_len:s + lookback]
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
