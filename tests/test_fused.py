"""Fused tape ops: float64 gradient checks of every code path, agreement with
the composite formulas they replaced, and one tape entry per fused op."""

import numpy as np
import pytest

from fgn import tensor as T
from fgn.attention import causal_mask, masked_position_softmax
from fgn.errors import MaskError, ShapeError
from fgn.models import ModelConfig, build_model
from fgn.tensor import Tensor
from fgn.training import mse_loss

from conftest import check_gradient
from oracles import (conv1d_composite, focus_softmax_composite, layer_norm_composite,
                     masked_softmax_composite)

# A square mask that is not causal: row 1 sees a later position, row 3 does
# not see itself, and row 0 sees only position 2.
SQUARE_MASK = np.array([[0, 0, 1, 0, 0],
                        [1, 1, 0, 1, 0],
                        [1, 1, 1, 0, 0],
                        [0, 1, 1, 0, 1],
                        [1, 0, 1, 1, 1]], dtype=float)
FOCUS_MASKS = {"causal": causal_mask(5), "square": SQUARE_MASK}


class TestGradients:
    def test_masked_softmax_causal(self, rng):
        x = rng.standard_normal((2, 3, 5, 5))
        v = rng.standard_normal((2, 3, 5, 5))
        check_gradient(lambda t: (T.softmax(t, mask=causal_mask(5)) * Tensor(v)).sum(),
                       [x], rtol=1e-6)

    @pytest.mark.parametrize("mask", FOCUS_MASKS)
    def test_focus_softmax(self, rng, mask):
        s = rng.standard_normal((2, 3, 5))
        v = rng.standard_normal((2, 3, 5))
        check_gradient(
            lambda t: (masked_position_softmax(t, FOCUS_MASKS[mask]) * Tensor(v)).sum(),
            [s], rtol=1e-6)

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
        x = 3 * rng.standard_normal((2, 3, 6, 6))
        got, want = _fused_and_composite(
            lambda t: T.softmax(t, mask=causal_mask(6)),
            lambda t: masked_softmax_composite(t, causal_mask(6)), [x], dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
            np.testing.assert_allclose(g, w, rtol=TOL[dtype], atol=TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mask", FOCUS_MASKS)
    def test_focus_softmax(self, rng, dtype, mask):
        s = 3 * rng.standard_normal((2, 3, 5))
        got, want = _fused_and_composite(
            lambda t: masked_position_softmax(t, FOCUS_MASKS[mask]),
            lambda t: focus_softmax_composite(t, FOCUS_MASKS[mask]), [s], dtype)
        for g, w in zip(got, want):
            assert g.dtype == dtype
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
    def test_blocked_entries_exactly_zero(self, rng):
        y = T.softmax(Tensor(rng.standard_normal((2, 4, 4))), mask=causal_mask(4))
        assert (y.data[:, np.triu(np.ones((4, 4)), k=1) > 0] == 0.0).all()
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_blocked_nan_does_not_leak(self):
        x = np.zeros((3, 3))
        x[0, 2] = np.nan
        y = T.softmax(Tensor(x), mask=causal_mask(3))
        np.testing.assert_array_equal(y.data[0], [1.0, 0.0, 0.0])

    def test_fully_blocked_row_rejected(self):
        with pytest.raises(MaskError):
            T.softmax(Tensor(np.zeros((2, 2))), mask=np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_mask_must_broadcast(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor(np.zeros((2, 3))), mask=np.ones((3, 2)))


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

    def test_masked_attention_softmax_is_one_entry(self, rng):
        assert self._entries(lambda t: T.softmax(t, mask=causal_mask(4)),
                             rng.standard_normal((2, 2, 4, 4))) == 1

    @pytest.mark.parametrize("mask", FOCUS_MASKS)
    def test_focus_softmax_is_one_entry(self, rng, mask):
        assert self._entries(lambda t: masked_position_softmax(t, FOCUS_MASKS[mask]),
                             rng.standard_normal((2, 3, 5))) == 1

    def test_training_forward_tape_length(self, rng):
        # The test shape of the benchmark's train-small workload; the
        # composite ops this replaced recorded 384 entries for the same step.
        cfg = ModelConfig(d_model=64, h=4, d_ff=128, n_encoder_layers=3,
                          n_decoder_layers=2, lookback=128, label_len=64, horizon=20)
        model = build_model(cfg, np.random.default_rng(0))
        enc = Tensor(rng.standard_normal((2, 128, 40)).astype(np.float32))
        dec = Tensor(rng.standard_normal((2, 84, 40)).astype(np.float32))
        target = Tensor(np.zeros((2, 20, 1), dtype=np.float32))
        loss = mse_loss(model.forward(enc, dec, training=True, rng=rng), target)
        assert len(T._state.tape) == 214
        T.backward(loss)
        assert T._state.tape == []
