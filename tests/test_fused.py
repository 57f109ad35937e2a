"""Fused tape ops: float64 gradient checks of every code path, agreement with
the composite formulas they replaced, one tape entry per fused op, and a
tape that holds only the arrays backward reads."""

import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fgn import models
from fgn import tensor as T
from fgn.attention import DCFAttention, StandardAttention
from fgn.errors import ConfigError, ShapeError
from fgn.glu import GatedConvUnit
from fgn.layers import Dense
from fgn.models import ModelConfig, build_model
from fgn.tensor import Tensor
from fgn.training import mse_loss

from conftest import check_gradient
from oracles import (attend_heads, attend_unblocked, attention_block_chain,
                     attention_chain_composite, causal_mask, conv1d_composite,
                     dropout_reference, feed_forward_chain, conv1d_kept, dense_chain,
                     focus_chain, focus_softmax_composite, focus_weights, gated_conv_chain,
                     glu_chain, layer_norm_composite, masked_softmax_composite,
                     merge_chain, merge_heads, mse_chain, mul_kept,
                     per_channel_linear_chain, project_heads, reshape_node, sum_node,
                     to_dtype, transpose_node)

# Attention-core cases: (causal, literal mode). The oracles take the causal
# mask as an array.
ATTEND_CASES = {"none": (False, False), "causal": (True, False), "literal": (True, True)}

# heads of ``attend_inputs``
H = 3


def attend_inputs(rng, l_kv=5):
    """q [2, 5, 12], k [2, l_kv, 12] and v [2, l_kv, 9], float64: H = 3 heads
    of d_k 4 and d_v 3."""
    return [rng.standard_normal((2, 5, 12)), rng.standard_normal((2, l_kv, 12)),
            rng.standard_normal((2, l_kv, 9))]


def split_node(a, h):
    """``a`` [B, L, d] as the contiguous heads [B, h, L, d/h], as two tape
    nodes (reshape, transpose)."""
    B, L, d = a.shape
    return transpose_node(reshape_node(a, B, L, h, d // h), 0, 2, 1, 3)


def merged_node(c):
    """Heads [B, h, L, d_k] side by side, [B, L, h*d_k], as two tape nodes
    (transpose, reshape)."""
    B, h, L, d_k = c.shape
    return reshape_node(transpose_node(c, 0, 2, 1, 3), B, L, h * d_k)


def head_eye(batch, n, h):
    """Per-head identity values [batch, n, h*n]: with them, each head's
    context is its weight matrix."""
    return np.broadcast_to(np.tile(np.eye(n), (1, h)), (batch, n, h * n))


def weights_of(context, h):
    """A context [B, L_q, h*n] of ``head_eye`` values as the weights
    [B, h, L_q, n]."""
    B, L, d = context.shape
    return context.reshape(B, L, h, d // h).transpose(0, 2, 1, 3)


class TestGradients:
    def test_focus_softmax(self, rng):
        # one feature per head: the salience is the context itself
        s, u = rng.standard_normal((2, 5, 3)), rng.standard_normal((2, 5, 3))
        w = rng.standard_normal((2, 5, 3))
        check_gradient(lambda t, o: sum_node(T.focus_gate(t, o, 3) * Tensor(w)), [s, u],
                       rtol=1e-6)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_attend(self, rng, case, rate):
        causal, literal = ATTEND_CASES[case]
        arrays = attend_inputs(rng, l_kv=5 if causal else 7)
        w = rng.standard_normal((2, 5, 9))
        # a fresh generator per evaluation: every call draws the same keep mask
        check_gradient(
            lambda q, k, v: sum_node(T.attend(q, k, v, H, 0.7, causal, literal, rate,
                                              np.random.default_rng(5)) * Tensor(w)),
            arrays, rtol=1e-6)

    def test_layer_norm_near_constant_row(self, rng):
        x = rng.standard_normal((2, 3, 6))
        x[0, 1] = 4.0 + 1e-2 * rng.standard_normal(6)      # variance ~ 10 eps
        gain = rng.standard_normal(6)
        offset = rng.standard_normal(6)
        v = rng.standard_normal((2, 3, 6))
        check_gradient(lambda xx, gg, oo: sum_node(T.layer_norm(xx, gg, oo) * Tensor(v)),
                       [x, gain, offset], step=1e-7, rtol=1e-5)

    @pytest.mark.parametrize("k,bias", [(1, True), (2, True), (3, True), (3, False)])
    def test_conv1d(self, rng, k, bias):
        arrays = [rng.standard_normal((2, 5, 3)), rng.standard_normal((k, 3, 4)),
                  rng.standard_normal(4)][:3 if bias else 2]
        v = rng.standard_normal((2, 5, 4))
        check_gradient(lambda *t: sum_node(T.conv1d(*t) * Tensor(v)), arrays, rtol=1e-6)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 3, 2, 4)], ids=["3d", "4d"])
    def test_matmul_batched_against_2d(self, rng, shape):
        a = rng.standard_normal(shape)
        b = rng.standard_normal((4, 5))
        v = rng.standard_normal(shape[:-1] + (5,))
        check_gradient(lambda aa, bb: sum_node(T.matmul(aa, bb) * Tensor(v)), [a, b], rtol=1e-6)

    def test_attend_on_projected_heads(self, rng):
        # backward rebuilds q, k and v from the projection inputs
        x, kv = rng.standard_normal((2, 5, 6)), rng.standard_normal((2, 7, 6))
        ws = [rng.standard_normal((6, 6)) for _ in range(3)]
        v = rng.standard_normal((2, 5, 6))
        check_gradient(
            lambda xx, yy, wq, wk, wv: sum_node(T.attend(
                T.matmul(xx, wq), T.matmul(yy, wk), T.matmul(yy, wv), 3, 0.7, False, False,
                0.3, np.random.default_rng(5)) * Tensor(v)),
            [x, kv, *ws], rtol=1e-6)

    @pytest.mark.parametrize("lead", [(2, 5), (4,)], ids=["3d", "2d"])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    def test_matmul_with_a_weight(self, rng, lead, bias):
        arrays = [rng.standard_normal(lead + (3,)), rng.standard_normal((3, 4)),
                  rng.standard_normal(4)][:3 if bias else 2]
        v = rng.standard_normal(lead + (4,))
        check_gradient(lambda *t: sum_node(T.matmul(*t) * Tensor(v)), arrays, rtol=1e-6)

    def test_glu(self, rng):
        arrays = [3 * rng.standard_normal((2, 5, 4)), rng.standard_normal((2, 5, 4))]
        v = rng.standard_normal((2, 5, 4))
        check_gradient(lambda a, b: sum_node(T.glu(a, b) * Tensor(v)), arrays, rtol=1e-6)

    @pytest.mark.parametrize("L,k", [(5, 1), (5, 2), (5, 3), (2, 3)])
    def test_gated_conv_unit(self, rng, L, k):
        # the GLU's three ops; the glu op reads both convolutions' rebuilds
        arrays = [rng.standard_normal(s) for s in ((2, L, 3), (k, 3, 4), (4,), (k, 3, 4), (4,))]
        v = rng.standard_normal((2, L, 4))
        check_gradient(lambda *t: sum_node(_glu_unit(*t) * Tensor(v)), arrays, rtol=1e-6)

    def test_merge_heads(self, rng):
        # the standard block end: the projection reads the context, its
        # heads side by side
        arrays = attend_inputs(rng) + [rng.standard_normal((9, 4))]
        v = rng.standard_normal((2, 5, 4))
        check_gradient(lambda q, k, vv, ww: sum_node(
            T.matmul(T.attend(q, k, vv, H, 0.7), ww) * Tensor(v)), arrays, rtol=1e-6)

    def test_merge_of_gated_heads(self, rng):
        # DCF's block end: the projection reads the gated heads through
        # focus_gate's rebuild, which reads v through the projection's
        x, c = rng.standard_normal((2, 5, 6)), rng.standard_normal((2, 5, 6))
        wv, wo = rng.standard_normal((6, 6)), rng.standard_normal((6, 4))
        v = rng.standard_normal((2, 5, 4))
        check_gradient(
            lambda xx, cc, ww, oo: sum_node(
                T.matmul(T.focus_gate(cc, T.matmul(xx, ww), 3), oo) * Tensor(v)),
            [x, c, wv, wo], rtol=1e-6)


def _glu_unit(x, w_gate, b_gate, w_lin, b_lin):
    """``GatedConvUnit`` with the given weights and biases."""
    k, d, _ = w_gate.shape
    unit = GatedConvUnit(np.random.default_rng(0), ModelConfig(d_model=d, h=1, glu_k=k))
    unit.w_gate, unit.b_gate, unit.w_lin, unit.b_lin = w_gate, b_gate, w_lin, b_lin
    return unit(x)


def _fused_and_composite(fused, composite, arrays, dtype):
    """Forward values and input gradients of both formulas at ``dtype``."""
    results = []
    for build in (fused, composite):
        inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        out = build(*inputs)
        weights = np.linspace(-1.0, 1.0, out.size).reshape(out.shape).astype(dtype)
        T.backward(sum_node(out * Tensor(weights)))
        results.append([out.data] + [t.grad for t in inputs])
    return results


def _focus_composite(L):
    """The O(L^2) focus softmax of a context [2, L, 3] of three one-feature
    heads, as [2, L, 3]."""
    return lambda t: transpose_node(
        focus_softmax_composite(sum_node(split_node(t, 3), axis=-1), causal_mask(L)), 0, 2, 1)


def _focus_of(t):
    """``focus_gate``'s weights: a context [2, L, 3] of three one-feature
    heads gating ones."""
    return T.focus_gate(t, np.ones(t.shape, t.dtype), 3)


TOL = {np.float64: 1e-12, np.float32: 1e-5}


class TestMatchesComposite:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_softmax(self, rng, dtype):
        # With each head's k and v the identity and scale 1, attend's scores
        # are its q and its context is the masked softmax of them.
        x = 3 * rng.standard_normal((2, 6, 18))
        eye = Tensor(head_eye(2, 6, 3).astype(dtype))
        got, want = _fused_and_composite(
            lambda t: T.attend(t, eye, eye, 3, 1.0, True),
            lambda t: merged_node(masked_softmax_composite(split_node(t, 3), causal_mask(6))),
            [x], dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_focus_softmax(self, rng, dtype):
        s = 3 * rng.standard_normal((2, 5, 3))
        got, want = _fused_and_composite(_focus_of, _focus_composite(5), [s], dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_attend(self, rng, case, rate):
        causal, literal = ATTEND_CASES[case]
        arrays = attend_inputs(rng, l_kv=5 if causal else 7)
        mask = causal_mask(5) if causal else None
        rngs = [np.random.default_rng(9), np.random.default_rng(9)]
        got, want = _fused_and_composite(
            lambda q, k, v: T.attend(q, k, v, H, 0.7, causal, literal, rate, rngs[0]),
            lambda q, k, v: merged_node(attention_chain_composite(
                *(split_node(t, H) for t in (q, k, v)), 0.7, mask, literal, rate, rngs[1])),
            arrays, np.float64)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-6, atol=1e-6)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_attend_keep_mask(self, rng, dtype, case):
        # With v the identity the context is the weight matrix itself, so its
        # zeros are the dropped (or literally masked) entries.
        causal, literal = ATTEND_CASES[case]
        q, k, _ = [a.astype(dtype) for a in attend_inputs(rng)]
        eye = head_eye(2, 5, H).astype(dtype)
        fused = weights_of(T.attend(Tensor(q), Tensor(k), eye, H, 0.7, causal, literal, 0.4,
                                    np.random.default_rng(3)).data, H)
        chain = attention_chain_composite(*(split_node(Tensor(a), H) for a in (q, k, eye)),
                                          0.7, causal_mask(5) if causal else None, literal,
                                          0.4, np.random.default_rng(3)).data
        assert fused.dtype == dtype
        np.testing.assert_array_equal(fused == 0, chain == 0)
        np.testing.assert_allclose(fused, chain, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("spread", [200.0, 2000.0])
    def test_causal_focus_softmax_wide_salience(self, rng, dtype, spread):
        # The O(L) running log-sum-exp against the O(L^2) composite, with
        # salience spread far past exp's range.
        s = rng.uniform(-spread, spread, (2, 9, 3))
        got, want = _fused_and_composite(_focus_of, _focus_composite(9), [s], dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype and np.isfinite(g).all()
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_layer_norm(self, rng, dtype):
        arrays = [rng.standard_normal((2, 3, 8)), 1 + rng.standard_normal(8),
                  rng.standard_normal(8)]
        got, want = _fused_and_composite(T.layer_norm, layer_norm_composite, arrays, dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k,bias", [(1, True), (2, True), (3, True), (3, False)])
    def test_conv1d(self, rng, dtype, k, bias):
        arrays = [rng.standard_normal((2, 7, 3)), rng.standard_normal((k, 3, 4)),
                  rng.standard_normal(4)][:3 if bias else 2]
        got, want = _fused_and_composite(T.conv1d, conv1d_composite, arrays, dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])


class TestMaskedSoftmax:
    """Attend's masked row softmax, read off the context with v the identity."""

    def test_blocked_entries_exactly_zero(self, rng):
        q, k, _ = attend_inputs(rng)
        y = weights_of(T.attend(Tensor(q), Tensor(k), head_eye(2, 5, H), H, 0.5, True).data, H)
        assert (y[..., np.triu(np.ones((5, 5)), k=1) > 0] == 0.0).all()
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    def test_blocked_nan_does_not_leak(self, rng):
        # A NaN in the last key makes the last score column NaN for every
        # head; under a causal mask only the last query row sees that key.
        q, k, _ = attend_inputs(rng)
        k[:, -1, ::4] = np.nan
        y = weights_of(T.attend(Tensor(q), Tensor(k), head_eye(2, 5, H), H, 0.5, True).data,
                       H)
        assert np.isfinite(y[..., :-1, :]).all()
        assert (y[..., :-1, :][..., np.triu(np.ones((4, 5)), k=1) > 0] == 0.0).all()
        assert np.isnan(y[..., -1, :]).all()


class TestAttend:
    def test_dropout_needs_an_rng(self, rng):
        with pytest.raises(ConfigError):
            T.attend(*(Tensor(a) for a in attend_inputs(rng)), H, 0.5, rate=0.1)

    def test_shapes_must_agree(self, rng):
        q, k, v = attend_inputs(rng)
        with pytest.raises(ShapeError):
            T.attend(Tensor(q), Tensor(k[..., :3]), Tensor(v), H, 0.5)

    @pytest.mark.parametrize("k_lead, v_lead", [((3,), (2,)), ((2,), (4, 2)),
                                                ((1,), (1,)), ((2,), ())],
                             ids=["q-k", "v-wider", "k-v-broadcast", "v-broadcast"])
    def test_leading_axes_must_broadcast_to_the_scores(self, rng, k_lead, v_lead):
        # Nothing broadcasts: q, k and v share their one batch axis, even
        # where NumPy's rules would stretch one to the others.
        q = rng.standard_normal((2, 5, 12))
        k = rng.standard_normal(k_lead + (5, 12))
        v = rng.standard_normal(v_lead + (5, 9))
        with pytest.raises(ShapeError, match="one batch axis"):
            T.attend(Tensor(q), Tensor(k), Tensor(v), H, 0.5)

    @pytest.mark.parametrize("h, d_v", [(0, 9), (5, 10), (3, 8)],
                             ids=["no-head", "q-width", "v-width"])
    def test_heads_must_divide_the_widths(self, rng, h, d_v):
        q, k = rng.standard_normal((2, 5, 12)), rng.standard_normal((2, 5, 12))
        with pytest.raises(ShapeError, match="h dividing"):
            T.attend(Tensor(q), Tensor(k), Tensor(rng.standard_normal((2, 5, d_v))), h, 0.5)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _merged(a):
    """Heads [B, h, L, d_k] side by side, [B, L, h*d_k] in C order, as
    ``merge_heads`` copies them."""
    B, h, L, d_k = a.shape
    return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(B, L, h * d_k)


class TestProjectHeads:
    """q, k and v are plain ``matmul`` outputs that ``attend`` reads as
    heads: they repeat the ``project_heads`` oracle bit for bit, output and
    gradients, alone and under ``attend``, and rebuild by bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_chain(self, rng, dtype):
        x, w = rng.standard_normal((3, 7, 8)), rng.standard_normal((8, 12))
        g = rng.standard_normal((3, 4, 7, 3)).astype(dtype)
        results = []
        for op, grad, merge in ((T.matmul, _merged(g), np.asarray),
                                (lambda xx, ww: project_heads(xx, ww, 4), g, _merged)):
            inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, w)]
            out = op(*inputs)
            T.backward(sum_node(out * Tensor(grad)))
            results.append([_bits(merge(out.data))] + [_bits(t.grad) for t in inputs])
        assert results[0] == results[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuild_equals_output(self, rng, dtype):
        x = Tensor(rng.standard_normal((2, 5, 6)).astype(dtype), requires_grad=True)
        out = T.matmul(x, rng.standard_normal((6, 6)).astype(dtype))
        T._drop_tape()
        assert out.data.flags.c_contiguous
        assert _bits(out._rebuild()) == _bits(out.data)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_attend_bit_equal_to_chain(self, rng, rate):
        # attend on rebuilt [B, L, d] operands, against the 4-D attend on
        # the heads project_heads copied out, merged
        x, kv = rng.standard_normal((2, 9, 8)), rng.standard_normal((2, 11, 8))
        ws = [rng.standard_normal((8, 8)) for _ in range(3)]
        g = rng.standard_normal((2, 9, 8)).astype(np.float32)

        def views(xx, yy, wq, wk, wv, gen):
            return T.attend(T.matmul(xx, wq), T.matmul(yy, wk), T.matmul(yy, wv), 4, 0.7,
                            True, False, rate, gen)

        def copies(xx, yy, wq, wk, wv, gen):
            return merge_heads(attend_heads(project_heads(xx, wq, 4), project_heads(yy, wk, 4),
                                            project_heads(yy, wv, 4), 0.7, True, False, rate,
                                            gen))

        results = []
        for op in (views, copies):
            inputs = [Tensor(a.astype(np.float32), requires_grad=True) for a in (x, kv, *ws)]
            gen = np.random.default_rng(5)
            out = op(*inputs, gen)
            T.backward(sum_node(out * Tensor(g)))
            results.append([_bits(out.data)] + [_bits(t.grad) for t in inputs]
                           + [gen.bit_generator.state])
        assert results[0] == results[1]

    @pytest.mark.parametrize("shapes", [((2, 12), (2, 12)), ((1, 2, 3), (1, 2, 3)),
                                        ((1, 2, 4), (1, 2, 6))])
    def test_bad_shapes_rejected(self, shapes):
        # no batch axis; 3 features in 4 heads; a value width 4 heads do not split
        (q_shape, v_shape), h = shapes, 4
        with pytest.raises(ShapeError, match="attend"):
            T.attend(np.zeros(q_shape), np.zeros(q_shape), np.zeros(v_shape), h, 0.5)


def _ffn_arrays(rng, lead=(3, 7)):
    """x [*lead, 8], w1 [8, 16], b1, w2 [16, 6] and b2 of a feed-forward
    network, float64."""
    return [rng.standard_normal(s) for s in (lead + (8,), (8, 16), (16,), (16, 6), (6,))]


class TestFeedForward:
    """``feed_forward`` repeats the five-op chain it replaced bit for bit, in
    its output and all five gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    @pytest.mark.parametrize("lead", [(3, 7), (5,)])
    def test_bit_equal_to_chain(self, rng, activation, dtype, lead):
        arrays = _ffn_arrays(rng, lead)
        g = rng.standard_normal(lead + (6,)).astype(dtype)
        results = []
        for op in (T.feed_forward, feed_forward_chain):
            inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            out = op(*inputs, activation)
            T.backward(sum_node(out * Tensor(g)))
            results.append([_bits(out.data)] + [_bits(t.grad) for t in inputs])
        assert results[0] == results[1]

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_bit_equal_on_a_rebuilt_input(self, rng, activation):
        # x is a layer-norm output, so feed_forward reads it from its rebuild
        arrays = _ffn_arrays(rng)
        g = rng.standard_normal((3, 7, 6)).astype(np.float32)
        results = []
        for op in (T.feed_forward, feed_forward_chain):
            inputs = [Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
            gain, offset = (Tensor(np.full(8, v, np.float32), requires_grad=True)
                            for v in (1.5, 0.25))
            normed = T.layer_norm(inputs[0], gain, offset)
            out = op(normed, *inputs[1:], activation)
            T.backward(sum_node(out * Tensor(g)))
            results.append([_bits(out.data)] + [_bits(t.grad)
                                                for t in inputs + [gain, offset]])
        assert results[0] == results[1]

    def test_unknown_activation_rejected(self, rng):
        with pytest.raises(ConfigError, match="relx"):
            T.feed_forward(*_ffn_arrays(rng), "relx")

    @pytest.mark.parametrize("bad", [0, 1, 2, 3, 4])
    def test_bad_shapes_rejected(self, rng, bad):
        arrays = _ffn_arrays(rng)
        arrays[bad] = arrays[bad][..., :-1]
        with pytest.raises(ShapeError, match="feed_forward"):
            T.feed_forward(*arrays, "relu")


def _op_bits(op, arrays, g, dtype, rebuilt_input=False):
    """At ``dtype``: the bits of ``op``'s output and of every input's
    gradient under the output gradient ``g``, and the bits of the output's
    rebuild (None if it has none). With ``rebuilt_input`` the first operand
    is a layer-norm output of the first array, which ``op`` reads through
    its rebuild."""
    inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    first = inputs[0]
    if rebuilt_input:
        d = first.shape[-1]
        first = T.layer_norm(first, np.full(d, 1.5, dtype), np.full(d, 0.25, dtype))
    out = op(first, *inputs[1:])
    rebuilt = None if out._rebuild is None else _bits(out._rebuild())
    T.backward(sum_node(out * Tensor(g.astype(dtype))))
    return [_bits(out.data)] + [_bits(t.grad) for t in inputs], rebuilt


INPUTS = {"plain": False, "rebuilt": True}


class TestDense:
    """``matmul`` with a 2-D weight and a bias repeats the matmul and
    bias-add chain it replaced bit for bit, in its output and every
    gradient, and its output rebuilds by bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(3, 7), (5,)])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("given", INPUTS)
    def test_bit_equal_to_chain(self, rng, dtype, lead, bias, given):
        arrays = [rng.standard_normal(s) for s in (lead + (8,), (8, 6), (6,))][:3 if bias else 2]
        g = rng.standard_normal(lead + (6,))
        got, rebuilt = _op_bits(T.matmul, arrays, g, dtype, INPUTS[given])
        want, _ = _op_bits(dense_chain, arrays, g, dtype, INPUTS[given])
        assert got == want
        assert rebuilt == got[0]

    def test_dense_layer_is_the_op(self, rng):
        layer = Dense(np.random.default_rng(0), 8, 6)
        x = Tensor(rng.standard_normal((3, 7, 8)))
        np.testing.assert_array_equal(layer(x).data,
                                      T.matmul(x, layer.weight, layer.bias).data)

    @pytest.mark.parametrize("shapes", [((3, 4), (4, 5), (4,)), ((3, 4), (4, 5), (1, 5)),
                                        ((2, 3, 4), (2, 4, 5), (5,))])
    def test_bad_bias_rejected(self, shapes):
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(*(np.zeros(s) for s in shapes))


def _glu_arrays(rng, L=7, k=3):
    """x [3, L, 8], then w_gate [k, 8, 8], b_gate, w_lin and b_lin, float64."""
    return [rng.standard_normal(s) for s in ((3, L, 8), (k, 8, 8), (8,), (k, 8, 8), (8,))]


class TestGlu:
    """``glu`` repeats the sigmoid and mul chain it replaced bit for bit,
    and the GLU (two rebuilding convolutions and ``glu``) repeats the
    conv1d, sigmoid, conv1d and mul chain it was, in its output and all five
    gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("given", INPUTS)
    def test_bit_equal_to_chain(self, rng, dtype, given):
        arrays = [3 * rng.standard_normal((3, 7, 8)), rng.standard_normal((3, 7, 8))]
        g = rng.standard_normal((3, 7, 8))
        got, rebuilt = _op_bits(T.glu, arrays, g, dtype, INPUTS[given])
        assert got == _op_bits(glu_chain, arrays, g, dtype, INPUTS[given])[0]
        assert rebuilt is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("L,k", [(7, 1), (7, 3), (2, 3)])
    @pytest.mark.parametrize("given", INPUTS)
    def test_unit_bit_equal_to_chain(self, rng, dtype, L, k, given):
        arrays = _glu_arrays(rng, L, k)
        g = rng.standard_normal((3, L, 8))
        got, _ = _op_bits(_glu_unit, arrays, g, dtype, INPUTS[given])
        assert got == _op_bits(gated_conv_chain, arrays, g, dtype, INPUTS[given])[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("given", INPUTS)
    def test_unit_bit_equal_under_a_residual(self, rng, dtype, given):
        # as in the decoder: x's gradient sums as (residual + linear) + gate
        arrays = _glu_arrays(rng)
        g = rng.standard_normal((3, 7, 8))
        got, _ = _op_bits(lambda x, *w: x + _glu_unit(x, *w), arrays, g, dtype, INPUTS[given])
        want, _ = _op_bits(lambda x, *w: x + gated_conv_chain(x, *w), arrays, g, dtype,
                           INPUTS[given])
        assert got == want

    def test_saturated_gate_stays_finite(self):
        # gate pre-activations of +-500: the sigmoid reads exp only of -|h|
        gate = Tensor(np.array([500.0, -500.0, 0.0]), requires_grad=True)
        value = Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
        out = T.glu(gate, value)
        T.backward(sum_node(out))
        np.testing.assert_allclose(out.data, [2.0, 0.0, 2.0], rtol=0, atol=1e-200)
        assert np.isfinite(gate.grad).all() and np.isfinite(value.grad).all()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ShapeError, match="glu"):
            T.glu(np.zeros((2, 3)), np.zeros((2, 1)))


class TestConvRebuild:
    """``conv1d`` repeats the op it was before its output rebuilt bit for
    bit, and the rebuild repeats the output."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
    @pytest.mark.parametrize("given", INPUTS)
    def test_bit_equal_to_kept(self, rng, dtype, k, bias, given):
        arrays = [rng.standard_normal(s) for s in ((3, 7, 8), (k, 8, 6), (6,))][:3 if bias else 2]
        g = rng.standard_normal((3, 7, 6))
        got, rebuilt = _op_bits(T.conv1d, arrays, g, dtype, INPUTS[given])
        assert got == _op_bits(conv1d_kept, arrays, g, dtype, INPUTS[given])[0]
        assert rebuilt == got[0]


class TestMergeHeads:
    """The heads side by side: ``attend`` writes its context, and
    ``focus_gate`` its gated values, into [B, L, d] through the heads view,
    and the output projection's ``matmul`` reads them. Both block ends
    repeat the ``merge_heads`` oracle and the projection bit for bit, in the
    output and every gradient, also on an input read through its rebuild,
    and the gated values rebuild by bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("given", INPUTS)
    def test_bit_equal_to_chain(self, rng, dtype, given):
        # the standard block end on q, k and v projected from one input
        arrays = [rng.standard_normal(s) for s in ((3, 7, 8), (8, 8), (8, 8), (8, 8), (8, 5))]
        g = rng.standard_normal((3, 7, 5))
        got, _ = _op_bits(lambda x, wq, wk, wv, wo: T.matmul(T.attend(
            T.matmul(x, wq), T.matmul(x, wk), T.matmul(x, wv), 4, 0.7), wo),
            arrays, g, dtype, INPUTS[given])
        want, _ = _op_bits(lambda x, wq, wk, wv, wo: merge_chain(attend_heads(
            project_heads(x, wq, 4), project_heads(x, wk, 4), project_heads(x, wv, 4), 0.7), wo),
            arrays, g, dtype, INPUTS[given])
        assert got == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuild_equals_output(self, rng, dtype):
        c, x = (Tensor(rng.standard_normal((3, 7, 8)).astype(dtype), requires_grad=True)
                for _ in range(2))
        out = T.focus_gate(c, T.matmul(x, rng.standard_normal((8, 8)).astype(dtype)), 4)
        T._drop_tape()
        assert out.shape == (3, 7, 8) and out.data.flags.c_contiguous
        assert _bits(out._rebuild()) == _bits(out.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_on_gated_heads(self, rng, dtype):
        # DCF's self block end: the focus weights of a context gate v from
        # its projection, then the projection reads the gated heads; v and
        # the gated values are read through their rebuilds
        arrays = [rng.standard_normal(s) for s in ((3, 7, 8), (3, 7, 8), (8, 8), (8, 5))]
        g = rng.standard_normal((3, 7, 5))
        got, _ = _op_bits(lambda x, c, wv, wo: T.matmul(
            T.focus_gate(c, T.matmul(x, wv), 4), wo), arrays, g, dtype, rebuilt_input=True)
        want, _ = _op_bits(lambda x, c, wv, wo: merge_chain(
            mul_kept(focus_weights(split_node(c, 4)), project_heads(x, wv, 4)), wo),
            arrays, g, dtype, rebuilt_input=True)
        assert got == want

    def test_bad_shape_rejected(self):
        # heads are not handed over split: a [B, h, L, d_k] operand is refused
        heads = np.zeros((2, 3, 5, 2))
        with pytest.raises(ShapeError, match="attend"):
            T.attend(heads, heads, heads, 3, 0.5)


class TestMulRebuild:
    """DCF's gating product, once a ``mul`` output that rebuilt, is
    ``focus_gate``'s output: a consumer that reads it through the rebuild
    gets the bits of one that keeps the focus weights and the product
    (the ``focus_weights`` oracle and a kept ``mul``). ``mul`` itself no
    longer rebuilds."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("given", INPUTS)
    def test_bit_equal_to_kept_product(self, rng, dtype, given):
        # the [B, L, h, d_k] by [B, L, h, 1] broadcast of DCF's gating; the
        # loss's own mul reads the product
        arrays = [rng.standard_normal((3, 7, 24)), rng.standard_normal((3, 7, 24))]
        g = rng.standard_normal((3, 7, 24))
        got, rebuilt = _op_bits(lambda c, v: T.focus_gate(c, v, 4), arrays, g, dtype,
                                INPUTS[given])
        want, _ = _op_bits(lambda c, v: merged_node(
            mul_kept(focus_weights(split_node(c, 4)), split_node(v, 4))),
            arrays, g, dtype, INPUTS[given])
        assert got == want
        assert rebuilt == got[0]
        assert _op_bits(T.mul, arrays, g, dtype)[1] is None


class TestRebuild:
    """A recorded output of ``matmul`` with a 2-D weight, ``focus_gate``,
    ``conv1d`` or ``layer_norm`` carries a function that rebuilds it by
    bits; an unrecorded output, and any output of ``mul``, carries none."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_rebuild_equals_output(self, rng, dtype):
        x = Tensor(rng.standard_normal((2, 5, 6)).astype(dtype), requires_grad=True)
        gain, offset = (rng.standard_normal(6).astype(dtype) for _ in range(2))
        out = T.layer_norm(x, gain, offset)
        T._drop_tape()
        assert _bits(out._rebuild()) == _bits(out.data)

    @pytest.mark.parametrize("recorded", [True, False])
    def test_only_recorded_outputs_rebuild(self, rng, monkeypatch, recorded):
        # Eval forwards run under no_grad: there a rebuild would keep the
        # arrays it reads alive as long as the output lives.
        outputs = _collect_outputs(
            monkeypatch, set(T.__all__) - {"Tensor", "no_grad", "backward"} | {"mul"})
        model, inputs = _test_shape_model(rng, 2, dropout_rate=0.1)
        if recorded:
            _training_loss(model, inputs, rng)
            T._drop_tape()
        else:
            with T.no_grad():
                _training_loss(model, inputs, rng)
        rebuilt = sorted({f.__qualname__.split(".")[0] for f in
                          (t._rebuild for t in outputs) if f is not None})
        assert rebuilt == (["conv1d", "focus_gate", "layer_norm", "matmul"]
                           if recorded else [])


# Ops that read an operand in backward, each applied to a [2, 4, 6] operand
# ``x`` and a [6, 6] weight ``w`` or a view of it.
SOURCE_OPS = {
    "mul": lambda x, w: x * w[0],
    "matmul": lambda x, w: T.matmul(x, w),
    "matmul with a bias": lambda x, w: T.matmul(x, w, w[0]),
    "focus_gate": lambda x, w: T.focus_gate(x, T.matmul(x, w), 2),
    "conv1d": lambda x, w: T.conv1d(x, reshape_node(w, 1, 6, 6)),
    "glu": lambda x, w: T.glu(x, T.matmul(x, w)),
    "feed_forward": lambda x, w: T.feed_forward(x, w, w[0], w, w[0], "relu"),
    "attend": lambda x, w: T.attend(x, x, T.matmul(x, w), 2, 0.5),
}


class TestSources:
    """Every op that reads an operand in backward saves its source: an
    operand that can rebuild itself is not kept."""

    @pytest.mark.parametrize("op", SOURCE_OPS)
    def test_op_keeps_no_rebuildable_operand(self, rng, op):
        x = Tensor(rng.standard_normal((2, 4, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 6)).astype(np.float32), requires_grad=True)
        normed = T.layer_norm(x, np.ones(6, np.float32), np.zeros(6, np.float32))
        SOURCE_OPS[op](normed, w)
        held = _held_bases(T._state.tape[-1][2])
        T._drop_tape()
        assert id(_base(normed.data)) not in held
        assert id(w.data) in held

    def test_projection_keeps_no_merged_heads(self, rng):
        # the gated heads rebuild from v, which rebuilds from x
        x, c = (Tensor(rng.standard_normal((2, 4, 6)).astype(np.float32), requires_grad=True)
                for _ in range(2))
        w = Tensor(rng.standard_normal((6, 6)).astype(np.float32), requires_grad=True)
        v = T.matmul(x, w)
        gated = T.focus_gate(c, v, 2)
        T.matmul(gated, w)
        held = _held_bases(T._state.tape[-1][2])
        T._drop_tape()
        assert not {id(_base(v.data)), id(_base(gated.data)), id(c.data)} & held.keys()
        assert {id(x.data), id(w.data)} <= held.keys()


class TestDropoutKeepMask:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_float_mask(self, rng, dtype):
        # The focus weights' boolean keep mask against the float mask, on
        # the output and on the gradient the undropped weights pass back
        # under the output gradient times the float mask. One head of one
        # feature gating ones: the output is the weights, [B, L, 1] in the
        # C order of the draws over [B, h, L]. The op masks the gradient
        # after summing it over the head's features, the reference before,
        # and a sum of -0.0 is +0.0, so a dropped position's zero gradient
        # may differ in sign alone: the gradients are compared with signed
        # zeros made positive (+ 0.0).
        x = rng.standard_normal((20, 6, 1)).astype(dtype)
        g = rng.standard_normal(x.shape).astype(dtype)
        ones = np.ones(x.shape, dtype)
        mine, ref = np.random.default_rng(21), np.random.default_rng(21)
        t, t0 = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out = T.focus_gate(t, ones, 1, 0.3, mine)
        T.backward(sum_node(out * Tensor(g)))
        undropped = T.focus_gate(t0, ones, 1)
        want, keep = dropout_reference(undropped.data, 0.3, ref)
        T.backward(sum_node(undropped * Tensor(g * keep)))
        assert _bits(out.data) == _bits(want)
        assert _bits(t.grad + 0.0) == _bits(t0.grad + 0.0)
        assert mine.bit_generator.state == ref.bit_generator.state


class TestFocusWeights:
    """``focus_gate`` repeats the four focus ops and the gating product it
    replaced (``focus_chain``, a ``mul``, on the heads) bit for bit:
    output, gradients and the generator's state afterwards, alone and as
    ``DCFAttention`` runs it, where a cross block both sums and gates its
    context."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_bit_equal_to_chain(self, rng, dtype, rate):
        c, v = (rng.standard_normal((3, 7, 24)).astype(dtype) for _ in range(2))
        g = rng.standard_normal((3, 7, 24)).astype(dtype)
        got = _focus_bits(lambda gen, t, u: T.focus_gate(t, u, 4, rate, gen), [c, v], g)
        want = _focus_bits(lambda gen, t, u: merged_node(
            focus_chain(split_node(t, 4), rate, gen) * split_node(u, 4)), [c, v], g)
        assert got == want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
    def test_block_bit_equal_to_chain(self, rng, dtype, rate, cross):
        block = DCFAttention(np.random.default_rng(0),
                             ModelConfig(d_model=8, h=2, dropout_rate=rate), cross=cross)
        to_dtype(block, dtype)
        # a self block reads one input as its queries and its keys
        arrays = [rng.standard_normal((3, 7, 8)).astype(dtype)]
        if cross:
            arrays.append(rng.standard_normal((3, 9, 8)).astype(dtype))
        g = rng.standard_normal((3, 7, 8)).astype(dtype)
        params = [p for _, p in block.parameters()]

        def run(forward):
            bits = _focus_bits(lambda gen, xq, xkv=None: forward(
                xq, xq if xkv is None else xkv, gen), arrays, g, params)
            block.zero_grad()
            return bits

        got = run(lambda xq, xkv, gen: block(xq, xkv, not cross, training=True, rng=gen))
        assert got == run(lambda xq, xkv, gen: attention_block_chain(
            block, xq, xkv, not cross, rate, gen, focus=focus_chain))

    def test_bad_shape_rejected(self):
        with pytest.raises(ShapeError, match="focus_gate"):
            T.focus_gate(np.zeros(5), np.zeros(5), 1)
        with pytest.raises(ShapeError, match="focus_gate"):
            T.focus_gate(np.zeros((2, 5, 6)), np.zeros((2, 5, 6)), 4)


def _loss_bits(op, pred, target, w):
    """The bits of ``op(pred, target) * w`` and of both operands' gradients,
    so that the loss's own backward runs under an output gradient other
    than one."""
    inputs = [Tensor(a, requires_grad=True) for a in (pred, target)]
    loss = op(*inputs) * Tensor(w)
    T.backward(loss)
    return [_bits(loss.data)] + [_bits(t.grad) for t in inputs]


# [B, horizon, 1], the shape training scores, and shapes of any rank and size
LOSS_SHAPES = st.one_of(st.tuples(st.integers(1, 40), st.integers(1, 30), st.just(1)),
                        hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=9))


class TestMseLoss:
    """``T.mse_loss`` repeats the sub, mul, sum and scale chain it replaced
    (``mse_chain``) bit for bit."""

    @given(shape=LOSS_SHAPES, dtype=st.sampled_from([np.float32, np.float64]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_chain(self, shape, dtype, scale, seed):
        gen = np.random.default_rng(seed)
        pred, target = ((scale * gen.standard_normal(shape)).astype(dtype) for _ in range(2))
        w = np.asarray(gen.standard_normal(), dtype)
        assert (_loss_bits(T.mse_loss, pred, target, w)
                == _loss_bits(mse_chain, pred, target, w))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 1\).*\(2, 4, 1\)"):
            T.mse_loss(Tensor(np.zeros((2, 3, 1))), Tensor(np.zeros((2, 4, 1))))


class TestPerChannelLinear:
    """The baselines' time map on the one target channel repeats the
    transpose, matmul and transpose chain it replaced
    (``per_channel_linear_chain``) bit for bit: the forecast and every
    gradient, at a shape where a flat [B, L] GEMM rounds differently."""

    @pytest.mark.parametrize("variant", ["dlinear", "nlinear"])
    @pytest.mark.parametrize("shape", [(32, 96, 20), (3, 9, 4)], ids=str)
    def test_bit_equal_to_chain(self, rng, monkeypatch, variant, shape):
        B, L, H = shape
        model = build_model(ModelConfig(variant=variant, lookback=L, horizon=H),
                            np.random.default_rng(0))
        x = rng.standard_normal((B, L, 1)).astype(np.float32)
        g = rng.standard_normal((B, H, 1)).astype(np.float32)
        params = [p for _, p in model.parameters()]

        def run():
            inputs = Tensor(x, requires_grad=True)
            out = model.forecast(inputs)
            T.backward(sum_node(out * Tensor(g)))
            bits = [_bits(out.data)] + [_bits(t.grad) for t in [inputs, *params]]
            model.zero_grad()
            return bits

        got = run()
        monkeypatch.setattr(models, "_per_channel_linear", per_channel_linear_chain)
        assert got == run()

    @pytest.mark.parametrize("variant", ["dlinear", "nlinear"])
    def test_two_channels_rejected(self, variant):
        model = build_model(ModelConfig(variant=variant, lookback=8, horizon=4),
                            np.random.default_rng(0))
        with pytest.raises(ShapeError, match=r"\(2, 8, 2\)"):
            model.forecast(Tensor(np.zeros((2, 8, 2), np.float32)))


def _focus_bits(op, arrays, g, params=()):
    """The bits of ``op(gen, *inputs)``'s output and of the gradients of its
    inputs and of ``params`` under the output gradient ``g``, and the state
    of its generator ``gen`` afterwards."""
    gen = np.random.default_rng(13)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(gen, *inputs)
    T.backward(sum_node(out * Tensor(g)))
    return ([_bits(out.data)] + [_bits(t.grad) for t in [*inputs, *params]]
            + [gen.bit_generator.state])


# Shapes for the blocked attention core: (B, h, L_q = L_kv, k's and v's batch
# axis). "one" fits one block; "ragged" runs 6 batch entries of 2 heads of
# 90×90 scores, 4 entries to a block of 2**16 entries, so the last block
# holds 2; "oversize" runs entries of 2 heads of 200×200, each larger than
# a block, one to a block; "broadcast" runs k and v drawn with one batch
# entry and broadcast to q's 2 (read-only views with a zero stride);
# "plain" has one batch entry and one head.
ATTEND_SHAPES = {"one": (2, 3, 5, 2), "ragged": (6, 2, 90, 6), "oversize": (3, 2, 200, 3),
                 "broadcast": (2, 3, 5, 1), "plain": (1, 1, 5, 1)}


class TestAttendBlocks:
    """The blocked attention core on [B, L, d] operands repeats the
    unblocked 4-D one on their heads bit for bit: output, the three
    gradients and the generator's state afterwards."""

    def test_shapes_reach_the_block_edges(self):
        entries = {name: (B, h * L * L) for name, (B, h, L, _) in ATTEND_SHAPES.items()}
        per_block = T.ATTEND_BLOCK // entries["ragged"][1]
        assert 1 < per_block < entries["ragged"][0]
        assert entries["ragged"][0] % per_block != 0
        assert entries["oversize"][1] > T.ATTEND_BLOCK

    @pytest.mark.parametrize("shape", ATTEND_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_bit_equal_to_unblocked(self, rng, case, rate, dtype, shape):
        B, h, L, kv_batch = ATTEND_SHAPES[shape]
        causal, literal = ATTEND_CASES[case]
        q = rng.standard_normal((B, L, 4 * h)).astype(dtype)
        k, v = (np.broadcast_to(rng.standard_normal((kv_batch, L, d * h)).astype(dtype),
                                (B, L, d * h)) for d in (4, 3))
        g = rng.standard_normal((B, L, 3 * h)).astype(dtype)
        blocked = _attend_bits(lambda *t: T.attend(*t[:3], h, *t[3:]), (q, k, v), g,
                               causal, literal, rate)
        # the unblocked oracle takes the heads copied out, the causal mask as
        # an array, and gives its output and gradients merged back
        heads = [np.ascontiguousarray(a.reshape(B, L, h, -1).transpose(0, 2, 1, 3))
                 for a in (q, k, v)]
        unblocked = _attend_bits(attend_unblocked, heads, _split(g, h),
                                 np.tri(L) if causal else None, literal, rate, merge=True)
        assert blocked == unblocked


def _split(a, h):
    """``a`` [B, L, d] as the contiguous heads [B, h, L, d/h]."""
    B, L, d = a.shape
    return np.ascontiguousarray(a.reshape(B, L, h, d // h).transpose(0, 2, 1, 3))


def _attend_bits(op, arrays, g, masking, literal, rate, merge=False):
    """The bits of ``op``'s output, of its three gradients under the output
    gradient ``g``, and the state of its generator afterwards. ``masking``
    is ``T.attend``'s causal flag or the oracle's mask array; with
    ``merge`` the 4-D output and gradients are merged to [B, L, d] first."""
    gen = np.random.default_rng(5)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*inputs, 0.7, masking, literal, rate, gen)
    T.backward(sum_node(out * Tensor(g)))
    layout = _merged if merge else np.asarray
    return ([_bits(layout(out.data))] + [_bits(layout(t.grad)) for t in inputs]
            + [gen.bit_generator.state])


# Attention blocks for ``TestHeadsAsViews``: (class, cross role, causal).
BLOCKS = {"dcf-self": (DCFAttention, False, True), "dcf-cross": (DCFAttention, True, False),
          "standard": (StandardAttention, False, True)}


class TestHeadsAsViews:
    """Each attention block on [B, L, d] arrays (``matmul`` projections,
    ``attend`` and ``focus_gate`` on heads views) repeats the block as it
    ran on heads copied out (``attention_block_chain``: ``project_heads``,
    the 4-D ``attend_heads``, ``focus_weights`` and ``mul``,
    ``merge_heads``) bit for bit: output, the gradients of its inputs and
    of every parameter, and the generator's state afterwards. Also with
    ``ATTEND_BLOCK`` so small that every batch entry is its own block."""

    @pytest.mark.parametrize("blocks", ["whole", "split"])
    @pytest.mark.parametrize("mask_mode", ["pre_softmax_additive", "literal_post_softmax"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block_name", BLOCKS)
    def test_block_bit_equal_to_copied_heads(self, rng, monkeypatch, block_name, dtype, rate,
                                             mask_mode, blocks):
        cls, cross, causal = BLOCKS[block_name]
        cfg = ModelConfig(d_model=8, h=2, dropout_rate=rate, mask_mode=mask_mode)
        block = cls(np.random.default_rng(0), cfg, **({"cross": True} if cross else {}))
        to_dtype(block, dtype)
        if blocks == "split":
            monkeypatch.setattr(T, "ATTEND_BLOCK", 1)
        x_query = rng.standard_normal((3, 7, 8)).astype(dtype)
        x_kv = rng.standard_normal((3, 9, 8)).astype(dtype) if cross else None
        g = rng.standard_normal((3, 7, 8)).astype(dtype)
        params = [p for _, p in block.parameters()]

        def run(forward):
            gen = np.random.default_rng(13)
            inputs = [Tensor(a, requires_grad=True) for a in (x_query, x_kv) if a is not None]
            xq, xkv = inputs[0], inputs[-1]
            out = forward(xq, xkv, gen)
            T.backward(sum_node(out * Tensor(g)))
            bits = ([_bits(out.data)] + [_bits(t.grad) for t in inputs + params]
                    + [gen.bit_generator.state])
            block.zero_grad()
            return bits

        got = run(lambda xq, xkv, gen: block(xq, xkv, causal, training=True, rng=gen))
        want = run(lambda xq, xkv, gen: attention_block_chain(block, xq, xkv, causal, rate, gen))
        assert got == want


def _test_shape_model(rng, batch: int, **config):
    """The test shape of the benchmark's train-small workload, with float32
    encoder/decoder inputs and a zero target for ``batch`` windows."""
    cfg = ModelConfig(d_model=64, h=4, d_ff=128, n_encoder_layers=3, n_decoder_layers=2,
                      lookback=128, label_len=64, horizon=20, **config)
    model = build_model(cfg, np.random.default_rng(0))
    inputs = (Tensor(rng.standard_normal((batch, 128, 40)).astype(np.float32)),
              Tensor(rng.standard_normal((batch, 64, 40)).astype(np.float32)),
              Tensor(np.zeros((batch, 20, 1), dtype=np.float32)))
    return model, inputs


def _training_loss(model, inputs, rng):
    enc, dec, target = inputs
    return mse_loss(model.forward(enc, dec, training=True, rng=rng), target)


def _closure_values(obj, seen=None):
    """The values the closure of a function ``obj`` holds (or the items of a
    list or tuple ``obj``), and, at any depth, the values held by the
    functions, lists and tuples among them."""
    seen = set() if seen is None else seen
    if isinstance(obj, (list, tuple)):
        values = obj
    else:
        values = [cell.cell_contents for cell in obj.__closure__ or ()]
    for v in values:
        if id(v) in seen:
            continue
        seen.add(id(v))
        yield v
        if isinstance(v, (types.FunctionType, list, tuple)):
            yield from _closure_values(v, seen)


def _holds_tensor(fn) -> bool:
    return any(isinstance(v, Tensor) for v in _closure_values(fn))


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held_bases(fn) -> dict[int, np.ndarray]:
    """The distinct base buffers of the arrays that ``fn``'s closure holds."""
    return {id(_base(v)): _base(v) for v in _closure_values(fn) if isinstance(v, np.ndarray)}


def _collect_outputs(monkeypatch, names) -> list:
    """Patch each named engine op so that its outputs are appended to the
    list returned."""
    outputs = []

    def collecting(op):
        def call(*args, **kwargs):
            outputs.append(op(*args, **kwargs))
            return outputs[-1]
        return call

    for name in names:
        monkeypatch.setattr(T, name, collecting(getattr(T, name)))
    return outputs


def _bytes_at_batch_32(rng, activation):
    """Bytes traced as held after a B 32 training forward (dropout 0.1), and
    the peak through its backward."""
    model, inputs = _test_shape_model(rng, 32, dropout_rate=0.1, ffn_activation=activation)
    tracemalloc.start()
    try:
        loss = _training_loss(model, inputs, rng)
        held = tracemalloc.get_traced_memory()[0]
        T.backward(loss)
        return held, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        T._drop_tape()


class TestTapeMemory:
    """Backward closures save arrays and shapes, never a Tensor, so the tape
    keeps no operand or output alive that backward does not read."""

    @pytest.mark.parametrize("variant, ablation, mask_mode", [
        ("focalgatednet", "glu_dcf", "pre_softmax_additive"),
        ("focalgatednet", "glu_only", "pre_softmax_additive"),
        ("transformer", "glu_dcf", "literal_post_softmax")])
    def test_no_closure_holds_a_tensor(self, rng, variant, ablation, mask_mode):
        model, inputs = _test_shape_model(rng, 2, variant=variant, ablation=ablation,
                                          mask_mode=mask_mode, dropout_rate=0.1)
        _training_loss(model, inputs, rng)
        holders = sorted({fn.__qualname__ for _, _, fn in T._state.tape
                          if _holds_tensor(fn)})
        T._drop_tape()
        assert holders == []

    def test_bytes_held_after_training_forward(self, rng):
        # 4 windows: 25.0 MB held while the tape kept every output tensor,
        # 14.6 MB with closures that save only what backward reads.
        model, inputs = _test_shape_model(rng, 4)
        tracemalloc.start()
        try:
            _training_loss(model, inputs, rng)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            T._drop_tape()
        assert held < 18e6

    def test_bytes_held_at_batch_32(self, rng):
        # 32 windows, dropout 0.1: 115.9 MB held after forward and a 123.4 MB
        # peak through backward while attend saved its whole softmax P and
        # keep mask; 67.7 and 70.2 MB with P rebuilt block by block; 48.5
        # and 51.0 MB with q, k and v rebuilt from the projection inputs;
        # 26.3 and 31.9 MB with one feed_forward op and layer-norm outputs
        # rebuilt from the normalized inputs; 19.1 and 25.6 MB with the
        # outputs of Dense (one matmul with its bias), the GLU's convolutions,
        # the head merge and mul rebuilt and the GLU's gate one glu op; 19.5
        # and 26.1 MB once the model builds the decoder's [B, 84, 40] input,
        # label rows and zero horizon, inside the traced forward; 19.5 and
        # 25.7 MB with attention's heads as views of [B, L, d] arrays and
        # DCF's gating one focus_gate op.
        held, peak = _bytes_at_batch_32(rng, "relu")
        assert held < 20e6
        assert peak < 27e6

    def test_bytes_held_at_batch_32_gelu(self, rng):
        # 66.6 MB held after forward while gelu also saved its tanh output,
        # one [B, L, d_ff] array per FFN; 57.5 MB (65.1 peak) with the tanh
        # recomputed; 26.3 MB (39.4 peak) with the FFN one op that keeps no
        # hidden layer, as with relu; 19.1 MB (32.1 peak) with the block ends
        # rebuilt, as with relu; 19.5 MB (32.6 peak) with the decoder input
        # built inside the forward, as with relu.
        held, peak = _bytes_at_batch_32(rng, "gelu")
        assert held < 20e6
        assert peak < 34e6

    @pytest.mark.parametrize("variant, activation", [
        ("focalgatednet", "relu"), ("focalgatednet", "gelu"), ("transformer", "relu")])
    def test_no_closure_holds_a_hidden_layer_or_norm_output(self, rng, monkeypatch,
                                                            variant, activation):
        # feed_forward recomputes its [B, L, d_ff] hidden layer, and every
        # consumer of a layer norm reads its output from the rebuild.
        norm_outputs = _collect_outputs(monkeypatch, ["layer_norm"])
        batch = 2
        model, inputs = _test_shape_model(rng, batch, variant=variant, dropout_rate=0.1,
                                          ffn_activation=activation)
        _training_loss(model, inputs, rng)
        held = {}
        for _, _, fn in T._state.tape:
            held.update(_held_bases(fn))
        T._drop_tape()
        assert len(norm_outputs) == (14 if variant == "focalgatednet" else 12)
        assert not {id(_base(t.data)) for t in norm_outputs} & held.keys()
        # The smallest hidden layer is the decoder's [B, 84, d_ff].
        assert max(a.size for a in held.values()) < batch * 84 * model.config.d_ff

    @pytest.mark.parametrize("variant", ["focalgatednet", "transformer"])
    def test_no_closure_holds_an_embedding_or_gated_value(self, rng, monkeypatch, variant):
        # matmul outputs (the two embeddings, q, k and v, the head and every
        # attention block's output projection) and DCF's gated values
        # rebuild, so every consumer keeps the rebuild, not the array.
        outputs = _collect_outputs(monkeypatch, ["matmul"])
        gated = _collect_outputs(monkeypatch, ["focus_gate"])
        model, inputs = _test_shape_model(rng, 2, variant=variant, dropout_rate=0.1)
        _training_loss(model, inputs, rng)
        held = {}
        for _, _, fn in T._state.tape:
            held.update(_held_bases(fn))
        T._drop_tape()
        shapes = {t.shape for t in outputs}
        assert {(2, 128, 64), (2, 84, 64), (2, 84, 1)} <= shapes   # embeddings, head
        assert len(gated) == (4 if variant == "focalgatednet" else 0)
        assert not {id(_base(t.data)) for t in outputs + gated} & held.keys()

    @pytest.mark.parametrize("variant", ["focalgatednet", "transformer"])
    def test_attend_saves_no_score_sized_array(self, rng, variant):
        # The smallest score array is the decoder's [B, h, 84, 84]; attend
        # saves q, k and v (or their rebuild functions), row statistics and
        # a keep mask packed to bits.
        batch, h, L = 2, 4, 64 + 20
        model, inputs = _test_shape_model(rng, batch, variant=variant, dropout_rate=0.1)
        _training_loss(model, inputs, rng)
        closures = [fn for _, _, fn in T._state.tape if fn.__qualname__.startswith("attend.")]
        sizes = [max(v.size, v.base.size if isinstance(v.base, np.ndarray) else 0)
                 for fn in closures for v in _closure_values(fn)
                 if isinstance(v, np.ndarray)]
        T._drop_tape()
        assert len(closures) == 7
        assert max(sizes) < batch * h * L * L

    @pytest.mark.parametrize("variant", ["focalgatednet", "transformer"])
    def test_attend_keeps_no_projected_operand(self, rng, monkeypatch, variant):
        # q, k and v are matmul outputs, so attend keeps their rebuild
        # functions: it holds none of them, and every array of its closures
        # that the projections do not hold already is smaller than the
        # smallest of q, k and v, the decoder's [B, 84, d_model].
        batch = 2
        projections = _collect_outputs(monkeypatch, ["matmul"])
        model, inputs = _test_shape_model(rng, batch, variant=variant, dropout_rate=0.1)
        _training_loss(model, inputs, rng)
        projected, own = {}, {}
        for _, _, fn in T._state.tape:
            if fn.__qualname__.startswith("matmul."):
                projected.update(_held_bases(fn))
            elif fn.__qualname__.startswith("attend."):
                own.update(_held_bases(fn))
        T._drop_tape()
        kept = [a.nbytes for key, a in own.items() if key not in projected]
        assert len(projected) > 0
        assert not {id(_base(t.data)) for t in projections} & own.keys()
        assert max(kept) < batch * 84 * 64 * 4

    def test_glu_convolutions_share_their_input(self, rng):
        # each conv1d saves its unpadded input, so the gate and the linear
        # branch hold one buffer between them, the GLU's input
        cfg = ModelConfig(d_model=8, h=2)
        glu = GatedConvUnit(np.random.default_rng(0), cfg)
        x = Tensor(rng.standard_normal((4, 16, 8)).astype(np.float32), requires_grad=True)
        glu(x)
        convs = [fn for _, _, fn in T._state.tape if fn.__qualname__.startswith("conv1d.")]
        inputs = [{key for key, a in _held_bases(fn).items() if a.size >= x.size}
                  for fn in convs]
        T._drop_tape()
        assert len(convs) == 2
        assert inputs[0] == inputs[1] == {id(x.data)}


    def test_glu_holds_only_its_input_source(self, rng):
        # the glu op reads both convolutions through their rebuilds: of the
        # arrays of x's size that the GLU's three closures hold, x is the
        # only one, and of a layer-norm output x they hold the rebuild,
        # which reads only what the norm's own closure holds
        cfg = ModelConfig(d_model=8, h=2)
        glu = GatedConvUnit(np.random.default_rng(0), cfg)
        x = Tensor(rng.standard_normal((4, 16, 8)).astype(np.float32), requires_grad=True)
        normed = T.layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32))
        held = []
        for operand in (x, normed):
            glu(operand)
            fns = [fn for _, _, fn in T._state.tape[-3:]]
            assert [fn.__qualname__.split(".")[0] for fn in fns] == ["conv1d", "conv1d", "glu"]
            held.append({key for fn in fns for key, a in _held_bases(fn).items()
                         if a.size >= x.size})
        norm_held = _held_bases(T._state.tape[0][2])
        T._drop_tape()
        assert held[0] == {id(x.data)}
        assert id(normed.data) not in held[1]
        assert not held[1] - norm_held.keys()


class TestTapeEntries:
    def _entries(self, fn, *arrays):
        inputs = [Tensor(a, requires_grad=True) for a in arrays]
        before = len(T._state.tape)
        fn(*inputs)
        added = len(T._state.tape) - before
        T._drop_tape()
        return added

    def test_layer_norm_is_one_entry(self, rng):
        assert self._entries(T.layer_norm, rng.standard_normal((2, 3, 4)),
                             np.ones(4), np.zeros(4)) == 1

    def test_focus_softmax_is_one_entry(self, rng):
        for rate in (0.0, 0.3):
            assert self._entries(lambda c, v: T.focus_gate(c, v, 3, rate,
                                                           np.random.default_rng(0)),
                                 *(rng.standard_normal((2, 5, 12)) for _ in range(2))) == 1

    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_attend_is_one_entry(self, rng, case):
        causal, literal = ATTEND_CASES[case]
        assert self._entries(
            lambda q, k, v: T.attend(q, k, v, H, 0.5, causal, literal, 0.2,
                                     np.random.default_rng(0)),
            *attend_inputs(rng)) == 1

    def test_block_end_ops_are_one_entry_each(self, rng):
        assert self._entries(T.matmul, rng.standard_normal((2, 3, 4)),
                             rng.standard_normal((4, 5)), rng.standard_normal(5)) == 1
        assert self._entries(T.glu, rng.standard_normal((2, 3, 4)),
                             rng.standard_normal((2, 3, 4))) == 1
        assert self._entries(lambda c: T.focus_gate(c, c, 2),
                             rng.standard_normal((2, 5, 6))) == 1

    def test_mse_loss_is_one_entry(self, rng):
        assert self._entries(T.mse_loss, rng.standard_normal((4, 5, 1)),
                             rng.standard_normal((4, 5, 1))) == 1

    def test_training_forward_tape_length(self, rng):
        # The composite ops the fused kernels replaced recorded 384 entries
        # for the same step; with the attention core still six ops (score
        # scale, k transpose, score matmul, softmax, dropout, context matmul)
        # it was 214; with each of the 21 q, k and v projections three ops
        # (matmul, reshape, transpose) instead of one project_heads, 183;
        # with each of the 5 feed-forward networks five ops (matmul, add,
        # relu, matmul, add) instead of one feed_forward, 141; with each of
        # the 3 Dense layers two ops (matmul, add) instead of one matmul
        # with its bias, each of the 2 GLUs four (conv1d, sigmoid, conv1d,
        # mul) instead of three (conv1d, conv1d, glu) and each of the 7
        # attention blocks' merge and output projection three (transpose,
        # reshape, matmul) instead of two (merge_heads, matmul), 121; with
        # each of the 4 DCF blocks' focus weights four ops (reduce_sum,
        # causal focus, dropout, reshape) instead of one focus_weights, 109;
        # with the loss four ops (sub, mul, sum, scale) instead of one
        # mse_loss, 97; with each of the 7 attention blocks' heads merged by
        # a merge_heads copy, 94. Heads are now views: attend writes its
        # context, and focus_gate its gated values, as [B, L, d], so no
        # block merges (-7), and each of the 4 DCF blocks gates with one
        # focus_gate instead of focus_weights and a mul (-4): 83.
        model, inputs = _test_shape_model(rng, 2)
        loss = _training_loss(model, inputs, rng)
        assert len(T._state.tape) == 83
        T.backward(loss)
        assert T._state.tape == []
