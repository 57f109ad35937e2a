"""Fused tape ops: float64 gradient checks of every code path, agreement with
the composite formulas they replaced, one tape entry per fused op, and a
tape that holds only the arrays backward reads."""

import tracemalloc
import types

import numpy as np
import pytest

from fgn import tensor as T
from fgn.attention import _causal_focus
from fgn.errors import ConfigError, ShapeError
from fgn.glu import GatedConvUnit
from fgn.models import ModelConfig, build_model
from fgn.tensor import Tensor
from fgn.training import mse_loss

from conftest import check_gradient
from oracles import (attend_unblocked, attention_chain_composite, causal_mask,
                     conv1d_composite, dropout_reference, feed_forward_chain,
                     focus_softmax_composite, layer_norm_composite,
                     masked_softmax_composite)

# Attention-core cases: (causal, literal mode). The oracles take the causal
# mask as an array.
ATTEND_CASES = {"none": (False, False), "causal": (True, False), "literal": (True, True)}


def attend_inputs(rng, l_kv=5):
    """q [2, 3, 5, 4], k [2, 3, l_kv, 4] and v [2, 3, l_kv, 3], float64."""
    return [rng.standard_normal((2, 3, 5, 4)), rng.standard_normal((2, 3, l_kv, 4)),
            rng.standard_normal((2, 3, l_kv, 3))]


class TestGradients:
    def test_focus_softmax(self, rng):
        s = rng.standard_normal((2, 3, 5))
        v = rng.standard_normal((2, 3, 5))
        check_gradient(lambda t: (_causal_focus(t) * Tensor(v)).sum(), [s], rtol=1e-6)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_attend(self, rng, case, rate):
        causal, literal = ATTEND_CASES[case]
        arrays = attend_inputs(rng, l_kv=5 if causal else 7)
        w = rng.standard_normal((2, 3, 5, 3))
        # a fresh generator per evaluation: every call draws the same keep mask
        check_gradient(
            lambda q, k, v: (T.attend(q, k, v, 0.7, causal, literal, rate,
                                      np.random.default_rng(5)) * Tensor(w)).sum(),
            arrays, rtol=1e-6)

    def test_layer_norm_near_constant_row(self, rng):
        x = rng.standard_normal((2, 3, 6))
        x[0, 1] = 4.0 + 1e-2 * rng.standard_normal(6)      # variance ~ 10 eps
        gain = rng.standard_normal(6)
        offset = rng.standard_normal(6)
        v = rng.standard_normal((2, 3, 6))
        check_gradient(lambda xx, gg, oo: (T.layer_norm(xx, gg, oo) * Tensor(v)).sum(),
                       [x, gain, offset], step=1e-7, rtol=1e-5)

    @pytest.mark.parametrize("k,causal", [(1, True), (2, True), (3, True), (3, False)])
    def test_conv1d(self, rng, k, causal):
        x = rng.standard_normal((2, 5, 3))
        w = rng.standard_normal((k, 3, 4))
        b = rng.standard_normal(4)
        v = rng.standard_normal((2, 5, 4))
        check_gradient(
            lambda xx, ww, bb: (T.conv1d(xx, ww, bb, causal_padding=causal) * Tensor(v)).sum(),
            [x, w, b], rtol=1e-6)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 3, 2, 4)], ids=["3d", "4d"])
    def test_matmul_batched_against_2d(self, rng, shape):
        a = rng.standard_normal(shape)
        b = rng.standard_normal((4, 5))
        v = rng.standard_normal(shape[:-1] + (5,))
        check_gradient(lambda aa, bb: (T.matmul(aa, bb) * Tensor(v)).sum(), [a, b], rtol=1e-6)

    def test_attend_on_projected_heads(self, rng):
        # backward rebuilds q, k and v from the projection inputs
        x, kv = rng.standard_normal((2, 5, 6)), rng.standard_normal((2, 7, 6))
        ws = [rng.standard_normal((6, 6)) for _ in range(3)]
        v = rng.standard_normal((2, 3, 5, 2))
        check_gradient(
            lambda xx, yy, wq, wk, wv: (T.attend(
                T.project_heads(xx, wq, 3), T.project_heads(yy, wk, 3),
                T.project_heads(yy, wv, 3), 0.7, None, False, 0.3,
                np.random.default_rng(5)) * Tensor(v)).sum(),
            [x, kv, *ws], rtol=1e-6)


def _fused_and_composite(fused, composite, arrays, dtype):
    """Forward values and input gradients of both formulas at ``dtype``."""
    results = []
    for build in (fused, composite):
        inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
        out = build(*inputs)
        weights = np.linspace(-1.0, 1.0, out.size).reshape(out.shape).astype(dtype)
        T.backward((out * Tensor(weights)).sum())
        results.append([out.data] + [t.grad for t in inputs])
    return results


TOL = {np.float64: 1e-12, np.float32: 1e-5}


class TestMatchesComposite:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_softmax(self, rng, dtype):
        # With k and v the identity and scale 1, attend's scores are its q
        # and its context is the masked softmax of them.
        x = 3 * rng.standard_normal((2, 3, 6, 6))
        eye = Tensor(np.eye(6, dtype=dtype))
        got, want = _fused_and_composite(
            lambda t: T.attend(t, eye, eye, 1.0, True),
            lambda t: masked_softmax_composite(t, causal_mask(6)), [x], dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_focus_softmax(self, rng, dtype):
        s = 3 * rng.standard_normal((2, 3, 5))
        got, want = _fused_and_composite(
            _causal_focus, lambda t: focus_softmax_composite(t, causal_mask(5)), [s], dtype)
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
            lambda q, k, v: T.attend(q, k, v, 0.7, causal, literal, rate, rngs[0]),
            lambda q, k, v: attention_chain_composite(q, k, v, 0.7, mask, literal, rate,
                                                      rngs[1]),
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
        eye = Tensor(np.broadcast_to(np.eye(5, dtype=dtype), (2, 3, 5, 5)))
        fused = T.attend(Tensor(q), Tensor(k), eye, 0.7, causal, literal, 0.4,
                         np.random.default_rng(3)).data
        chain = attention_chain_composite(Tensor(q), Tensor(k), eye, 0.7,
                                          causal_mask(5) if causal else None, literal,
                                          0.4, np.random.default_rng(3)).data
        assert fused.dtype == dtype
        np.testing.assert_array_equal(fused == 0, chain == 0)
        np.testing.assert_allclose(fused, chain, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("spread", [200.0, 2000.0])
    def test_causal_focus_softmax_wide_salience(self, rng, dtype, spread):
        # The O(L) running log-sum-exp against the O(L^2) composite, with
        # salience spread far past exp's range.
        s = rng.uniform(-spread, spread, (2, 3, 9))
        got, want = _fused_and_composite(
            _causal_focus, lambda t: focus_softmax_composite(t, causal_mask(9)), [s], dtype)
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
    @pytest.mark.parametrize("k,causal", [(1, True), (2, True), (3, True), (3, False)])
    def test_conv1d(self, rng, dtype, k, causal):
        arrays = [rng.standard_normal((2, 7, 3)), rng.standard_normal((k, 3, 4)),
                  rng.standard_normal(4)]
        got, want = _fused_and_composite(
            lambda x, w, b: T.conv1d(x, w, b, causal_padding=causal),
            lambda x, w, b: conv1d_composite(x, w, b, causal=causal), arrays, dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])


class TestMaskedSoftmax:
    """Attend's masked row softmax, read off the context with v the identity."""

    def test_blocked_entries_exactly_zero(self, rng):
        q, k, _ = attend_inputs(rng)
        eye = Tensor(np.eye(5))
        y = T.attend(Tensor(q), Tensor(k), eye, 0.5, True)
        assert (y.data[..., np.triu(np.ones((5, 5)), k=1) > 0] == 0.0).all()
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_blocked_nan_does_not_leak(self, rng):
        # A NaN in the last key makes the last score column NaN; under a
        # causal mask only the last query row sees that key.
        q, k, _ = attend_inputs(rng)
        k[..., -1, 0] = np.nan
        y = T.attend(Tensor(q), Tensor(k), Tensor(np.eye(5)), 0.5, True).data
        assert np.isfinite(y[..., :-1, :]).all()
        assert (y[..., :-1, :][..., np.triu(np.ones((4, 5)), k=1) > 0] == 0.0).all()
        assert np.isnan(y[..., -1, :]).all()


class TestAttend:
    def test_dropout_needs_an_rng(self, rng):
        with pytest.raises(ConfigError):
            T.attend(*(Tensor(a) for a in attend_inputs(rng)), 0.5, rate=0.1)

    def test_shapes_must_agree(self, rng):
        q, k, v = attend_inputs(rng)
        with pytest.raises(ShapeError):
            T.attend(Tensor(q), Tensor(k[..., :3]), Tensor(v), 0.5)

    @pytest.mark.parametrize("k_lead, v_lead", [((3, 3), (2, 3)), ((2, 3), (4, 2, 3))],
                             ids=["q-k", "v-wider"])
    def test_leading_axes_must_broadcast_to_the_scores(self, rng, k_lead, v_lead):
        # A block's draws and rows cover score slices, so v may not add any.
        q = rng.standard_normal((2, 3, 5, 4))
        k = rng.standard_normal(k_lead + (5, 4))
        v = rng.standard_normal(v_lead + (5, 3))
        with pytest.raises(ShapeError, match="leading axes"):
            T.attend(Tensor(q), Tensor(k), Tensor(v), 0.5)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _heads_chain(x, w, h):
    """``project_heads`` as the three ops it replaced."""
    B, L, _ = x.shape
    return T.matmul(x, w).reshape(B, L, h, w.shape[1] // h).transpose(0, 2, 1, 3)


class TestProjectHeads:
    """``project_heads`` repeats the matmul, reshape and transpose chain bit
    for bit, and its rebuild repeats its output."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_chain(self, rng, dtype):
        x, w = rng.standard_normal((3, 7, 8)), rng.standard_normal((8, 12))
        g = rng.standard_normal((3, 4, 7, 3)).astype(dtype)
        results = []
        for op in (T.project_heads, _heads_chain):
            inputs = [Tensor(a.astype(dtype), requires_grad=True) for a in (x, w)]
            out = op(*inputs, 4)
            T.backward((out * Tensor(g)).sum())
            results.append([_bits(out.data)] + [_bits(t.grad) for t in inputs])
        assert results[0] == results[1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuild_equals_output(self, rng, dtype):
        x = Tensor(rng.standard_normal((2, 5, 6)).astype(dtype), requires_grad=True)
        out = T.project_heads(x, rng.standard_normal((6, 6)).astype(dtype), 2)
        T._drop_tape()
        assert out.data.flags.c_contiguous
        assert _bits(out._rebuild()) == _bits(out.data)

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_attend_bit_equal_to_chain(self, rng, rate):
        # attend on rebuilt operands, against attend on the chain's arrays
        x, kv = rng.standard_normal((2, 9, 8)), rng.standard_normal((2, 11, 8))
        ws = [rng.standard_normal((8, 8)) for _ in range(3)]
        g = rng.standard_normal((2, 4, 9, 2)).astype(np.float32)
        results = []
        for op in (T.project_heads, _heads_chain):
            inputs = [Tensor(a.astype(np.float32), requires_grad=True) for a in (x, kv, *ws)]
            xx, yy, wq, wk, wv = inputs
            gen = np.random.default_rng(5)
            out = T.attend(op(xx, wq, 4), op(yy, wk, 4), op(yy, wv, 4), 0.7, True, False,
                           rate, gen)
            T.backward((out * Tensor(g)).sum())
            results.append([_bits(out.data)] + [_bits(t.grad) for t in inputs])
        assert results[0] == results[1]

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 4)), ((1, 2, 3), (4, 4)),
                                        ((1, 2, 4), (4, 6))])
    def test_bad_shapes_rejected(self, shapes):
        x, w = (np.zeros(s) for s in shapes)
        with pytest.raises(ShapeError):
            T.project_heads(x, w, 4)


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
            T.backward((out * Tensor(g)).sum())
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
            T.backward((out * Tensor(g)).sum())
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


class TestRebuild:
    """A recorded output of ``project_heads`` or ``layer_norm`` carries a
    function that rebuilds it by bits; an unrecorded output carries none."""

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
        outputs = _collect_outputs(monkeypatch,
                                   set(T.__all__) - {"Tensor", "no_grad", "backward"})
        model, inputs = _test_shape_model(rng, 2, dropout_rate=0.1)
        if recorded:
            _training_loss(model, inputs, rng)
            T._drop_tape()
        else:
            with T.no_grad():
                _training_loss(model, inputs, rng)
        rebuilt = sorted({f.__qualname__.split(".")[0] for f in
                          (t._rebuild for t in outputs) if f is not None})
        assert rebuilt == (["layer_norm", "project_heads"] if recorded else [])


# Ops that read an operand in backward, each applied to a [2, 4, 6] operand
# ``x`` and a [6, 6] weight ``w`` or a view of it.
SOURCE_OPS = {
    "mul": lambda x, w: x * w[0],
    "matmul": lambda x, w: T.matmul(x, w),
    "project_heads": lambda x, w: T.project_heads(x, w, 2),
    "conv1d": lambda x, w: T.conv1d(x, w.reshape(1, 6, 6), causal_padding=True),
    "feed_forward": lambda x, w: T.feed_forward(x, w, w[0], w, w[0], "relu"),
    "attend": lambda x, w: T.attend(x, x, w[:4], 0.5),
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


class TestDropoutKeepMask:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_float_mask(self, rng, dtype):
        x = rng.standard_normal((4, 5, 6)).astype(dtype)
        x[0, 0, :3] = 0.0
        g = rng.standard_normal(x.shape).astype(dtype)
        mine, ref = np.random.default_rng(21), np.random.default_rng(21)
        t = Tensor(x, requires_grad=True)
        out = T.dropout(t, 0.3, True, mine)
        T.backward((out * Tensor(g)).sum())
        want, keep = dropout_reference(x, 0.3, ref)
        assert _bits(out.data) == _bits(want)
        assert _bits(t.grad) == _bits(g * keep)
        assert mine.bit_generator.state == ref.bit_generator.state


# Shapes for the blocked attention core: (q's leading axes, k's and v's
# leading axes, L_q = L_kv). "one" fits one block; "ragged" runs 6 slices of
# 128×128 scores, 4 to a block of 2**16 entries, so the last block holds 2;
# "oversize" runs slices of 300×300, each larger than a block, one to a
# block; "broadcast" runs q [2, 3] against k and v [1, 3]; "plain" has no
# leading axis.
ATTEND_SHAPES = {"one": ((2, 3), (2, 3), 5), "ragged": ((2, 3), (2, 3), 128),
                 "oversize": ((3,), (3,), 300), "broadcast": ((2, 3), (1, 3), 5),
                 "plain": ((), (), 5)}


class TestAttendBlocks:
    """The blocked attention core repeats the unblocked one bit for bit:
    output, the three gradients and the generator's state afterwards."""

    def test_shapes_reach_the_block_edges(self):
        slices = {name: (int(np.prod(lead)), L * L)
                  for name, (lead, _, L) in ATTEND_SHAPES.items()}
        per_block = T.ATTEND_BLOCK // slices["ragged"][1]
        assert 1 < per_block < slices["ragged"][0]
        assert slices["ragged"][0] % per_block != 0
        assert slices["oversize"][1] > T.ATTEND_BLOCK

    @pytest.mark.parametrize("shape", ATTEND_SHAPES)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_bit_equal_to_unblocked(self, rng, case, rate, dtype, shape):
        q_lead, kv_lead, L = ATTEND_SHAPES[shape]
        causal, literal = ATTEND_CASES[case]
        q = rng.standard_normal(q_lead + (L, 4)).astype(dtype)
        k = rng.standard_normal(kv_lead + (L, 4)).astype(dtype)
        v = rng.standard_normal(kv_lead + (L, 3)).astype(dtype)
        g = rng.standard_normal(q_lead + (L, 3)).astype(dtype)
        # the unblocked oracle takes the causal mask as an array
        mask = np.tri(L) if causal else None
        blocked = _attend_bits(T.attend, (q, k, v), g, causal, literal, rate)
        unblocked = _attend_bits(attend_unblocked, (q, k, v), g, mask, literal, rate)
        assert blocked == unblocked


def _attend_bits(op, arrays, g, masking, literal, rate):
    """The bits of ``op``'s output, of its three gradients under the output
    gradient ``g``, and the state of its generator afterwards. ``masking``
    is ``T.attend``'s causal flag or the oracle's mask array."""
    gen = np.random.default_rng(5)
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*inputs, 0.7, masking, literal, rate, gen)
    T.backward((out * Tensor(g)).sum())
    return [_bits(out.data)] + [_bits(t.grad) for t in inputs] + [gen.bit_generator.state]


def _test_shape_model(rng, batch: int, **config):
    """The test shape of the benchmark's train-small workload, with float32
    encoder/decoder inputs and a zero target for ``batch`` windows."""
    cfg = ModelConfig(d_model=64, h=4, d_ff=128, n_encoder_layers=3, n_decoder_layers=2,
                      lookback=128, label_len=64, horizon=20, **config)
    model = build_model(cfg, np.random.default_rng(0))
    inputs = (Tensor(rng.standard_normal((batch, 128, 40)).astype(np.float32)),
              Tensor(rng.standard_normal((batch, 84, 40)).astype(np.float32)),
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
        # rebuilt from the normalized inputs.
        held, peak = _bytes_at_batch_32(rng, "relu")
        assert held < 30e6
        assert peak < 37e6

    def test_bytes_held_at_batch_32_gelu(self, rng):
        # 66.6 MB held after forward while gelu also saved its tanh output,
        # one [B, L, d_ff] array per FFN; 57.5 MB (65.1 peak) with the tanh
        # recomputed; 26.3 MB (39.4 peak) with the FFN one op that keeps no
        # hidden layer, as with relu.
        held, peak = _bytes_at_batch_32(rng, "gelu")
        assert held < 30e6
        assert peak < 42e6

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
    def test_attend_keeps_no_projected_operand(self, rng, variant):
        # q, k and v come from project_heads, so attend keeps their rebuild
        # functions: every array of its closures that the projections do not
        # hold already is smaller than the smallest of q, k and v, the
        # decoder's [B, h, 84, d_model / h].
        batch = 2
        model, inputs = _test_shape_model(rng, batch, variant=variant, dropout_rate=0.1)
        _training_loss(model, inputs, rng)
        projected, own = {}, {}
        for _, _, fn in T._state.tape:
            if fn.__qualname__.startswith("project_heads."):
                projected.update(_held_bases(fn))
            elif fn.__qualname__.startswith("attend."):
                own.update(_held_bases(fn))
        T._drop_tape()
        kept = [a.nbytes for key, a in own.items() if key not in projected]
        assert len(projected) > 0
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
        assert self._entries(_causal_focus, rng.standard_normal((2, 3, 5))) == 1

    @pytest.mark.parametrize("case", ATTEND_CASES)
    def test_attend_is_one_entry(self, rng, case):
        causal, literal = ATTEND_CASES[case]
        assert self._entries(
            lambda q, k, v: T.attend(q, k, v, 0.5, causal, literal, 0.2,
                                     np.random.default_rng(0)),
            *attend_inputs(rng)) == 1

    def test_training_forward_tape_length(self, rng):
        # The composite ops the fused kernels replaced recorded 384 entries
        # for the same step; with the attention core still six ops (score
        # scale, k transpose, score matmul, softmax, dropout, context matmul)
        # it was 214; with each of the 21 q, k and v projections three ops
        # (matmul, reshape, transpose) instead of one project_heads, 183;
        # with each of the 5 feed-forward networks five ops (matmul, add,
        # relu, matmul, add) instead of one feed_forward, 141.
        model, inputs = _test_shape_model(rng, 2)
        loss = _training_loss(model, inputs, rng)
        assert len(T._state.tape) == 121
        T.backward(loss)
        assert T._state.tape == []
