import numpy as np
import pytest

from fgn import tensor as T
from fgn.attention import (MASK_MODES, DCFAttention, StandardAttention, causal_mask,
                           dcf_scale, masked_position_softmax, project_qkv)
from fgn.errors import MaskError, ShapeError
from fgn.models import ModelConfig
from fgn.tensor import Tensor

from conftest import check_gradient
from oracles import dcf_reference, mha_reference


def make_attn(cls, d_model, h, seed=0, **kw):
    return cls(np.random.default_rng(seed),
               ModelConfig(d_model=d_model, h=h, dropout_rate=0.0, **kw))


class TestProjectQKV:
    def test_identity_weights_reorganize_into_heads(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 4)))
        eye = Tensor(np.eye(4))
        q, k, v = project_qkv(x, x, eye, eye, eye, h=2)
        assert q.shape == (2, 2, 3, 2)
        np.testing.assert_allclose(q.data, x.data.reshape(2, 3, 2, 2).transpose(0, 2, 1, 3))

    def test_zero_value_weights(self, rng):
        attn = make_attn(DCFAttention, 4, 1)
        attn.w_v.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 3, 4)))
        out = attn(x, x)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        attn = make_attn(DCFAttention, 4, 1)
        with pytest.raises(ShapeError):
            attn(Tensor(rng.standard_normal((1, 3, 6))), Tensor(rng.standard_normal((1, 3, 6))))

    def test_hand_projection(self):
        x = np.array([[[1.0, 2.0], [3.0, -1.0]]])
        wq = np.array([[1.0, 0.5], [0.0, 2.0]])
        q, _, _ = project_qkv(Tensor(x), Tensor(x), Tensor(wq), Tensor(wq), Tensor(wq), h=1)
        np.testing.assert_allclose(q.data[0, 0], x[0] @ wq)


def attention_weights(q, k, scale=1.0, mask=None, literal=False):
    """The weight matrix W of ``T.attend``: with v the identity, the context
    W v is W itself."""
    eye = Tensor(np.eye(k.shape[-2]))
    return T.attend(Tensor(q), Tensor(k), eye, scale, mask, literal).data


def scores_weights(scores, mask=None, literal=False):
    """Attention weights of raw ``scores``: with k the identity and scale 1,
    q @ k^T is ``scores`` exactly."""
    return attention_weights(scores, np.eye(scores.shape[-1]), 1.0, mask, literal)


class TestScaledScores:
    def test_scale_at_paper_dims(self):
        assert dcf_scale(512, 8) == pytest.approx(1.0 / 64.0, abs=0.0)

    def test_zero_scores_uniform_softmax(self):
        q = np.zeros((1, 2, 3, 2))
        a = attention_weights(q, q, dcf_scale(4, 2))
        np.testing.assert_allclose(a, 1.0 / 3.0)

    def test_hand_values(self, rng):
        q = rng.standard_normal((1, 2, 3, 2))
        k = rng.standard_normal((1, 2, 3, 2))
        a = attention_weights(q, k, dcf_scale(4, 2))
        s = np.einsum("bhic,bhjc->bhij", q, k) / np.sqrt(4 * 2)
        expect = np.exp(s) / np.exp(s).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(a, expect, atol=1e-12)

    def test_conventional_scale(self):
        # Identity projections and x = [I, I] give each of the two heads
        # q = k = v = I, so head h's output columns are its weights
        # softmax(I / sqrt(d_k)).
        attn = make_attn(StandardAttention, 4, 2)
        attn.to_dtype(np.float64)
        for w in (attn.w_q, attn.w_k, attn.w_v, attn.w_o):
            w.data[:] = np.eye(4)
        x = Tensor(np.hstack([np.eye(2), np.eye(2)])[None])
        out = attn(x, x)
        e = np.exp(np.eye(2) / np.sqrt(2))
        expect = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data[0], np.hstack([expect, expect]), atol=1e-12)


class TestMasking:
    def test_no_mask_equal_scores(self):
        a = scores_weights(np.zeros((1, 1, 2, 2)))
        np.testing.assert_allclose(a[0, 0], [[0.5, 0.5], [0.5, 0.5]])

    def test_causal_additive_first_row(self, rng):
        a = scores_weights(rng.standard_normal((1, 1, 2, 2)), causal_mask(2))
        np.testing.assert_allclose(a[0, 0, 0], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-6)

    def test_causal_literal_first_row_not_renormalized(self):
        a = scores_weights(np.zeros((1, 1, 2, 2)), causal_mask(2), literal=True)
        np.testing.assert_allclose(a[0, 0, 0], [0.5, 0.0])
        assert a[0, 0, 0].sum() == pytest.approx(0.5)

    def test_literal_masked_entries_exactly_zero(self, rng):
        a = scores_weights(rng.standard_normal((2, 1, 4, 4)), causal_mask(4), literal=True)
        blocked = np.triu(np.ones((4, 4)), k=1).astype(bool)
        assert (a[:, :, blocked] == 0.0).all()
        assert (a.sum(axis=-1) <= 1.0 + 1e-12).all()

    def test_degenerate_mask_rejected(self):
        mask = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(MaskError):
            scores_weights(np.zeros((1, 1, 2, 2)), mask)

    def test_additive_blocked_weight_tiny(self, rng):
        a = scores_weights(rng.standard_normal((2, 2, 5, 5)) * 3, causal_mask(5))
        blocked = np.triu(np.ones((5, 5)), k=1).astype(bool)
        assert a[:, :, blocked].max() <= 1e-7


BLOCKED_ROW = np.array([[1.0, 0.0], [0.0, 0.0]])    # position 1 sees no position


def band_mask(n: int) -> np.ndarray:
    """Each position sees itself and its neighbours: square, not causal."""
    return (np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1).astype(float)


class TestFocusMask:
    def test_blocked_row_rejected(self):
        with pytest.raises(MaskError):
            masked_position_softmax(Tensor(np.zeros((1, 1, 2))), BLOCKED_ROW)

    @pytest.mark.parametrize("mask_mode,masks", [
        ("literal_post_softmax", {"mask": BLOCKED_ROW}),
        ("pre_softmax_additive", {"focus_mask": BLOCKED_ROW}),
    ], ids=["literal_mask", "focus_mask"])
    def test_dcf_blocked_row_rejected(self, rng, mask_mode, masks):
        attn = make_attn(DCFAttention, 4, 2, mask_mode=mask_mode)
        x = Tensor(rng.standard_normal((1, 2, 4)))
        with pytest.raises(MaskError):
            attn(x, x, **masks)

    @pytest.mark.parametrize("mask_mode", MASK_MODES)
    @pytest.mark.parametrize("cls", [StandardAttention, DCFAttention])
    def test_mask_that_does_not_fit_is_a_shape_error(self, rng, cls, mask_mode):
        attn = make_attn(cls, 4, 2, mask_mode=mask_mode)
        x = Tensor(rng.standard_normal((1, 4, 4)))
        with pytest.raises(ShapeError):
            attn(x, x, np.ones((3, 3)))

    def test_per_batch_masks_match_single_forwards(self, rng):
        attn = make_attn(DCFAttention, 4, 2, seed=23)
        attn.to_dtype(np.float64)
        L = 4
        masks = np.stack([causal_mask(L), band_mask(L)])[:, None]    # [2, 1, L, L]
        x = rng.standard_normal((2, L, 4))
        with T.no_grad():
            both = attn(Tensor(x), Tensor(x), masks, focus_mask=causal_mask(L)).data
            for b in range(2):
                one = attn(Tensor(x[b:b + 1]), Tensor(x[b:b + 1]), masks[b, 0],
                           focus_mask=causal_mask(L)).data
                np.testing.assert_allclose(both[b:b + 1], one, rtol=0, atol=1e-12)

    def test_non_causal_focus_mask_rejected(self, rng):
        with pytest.raises(MaskError, match="causal"):
            masked_position_softmax(Tensor(rng.standard_normal((1, 2, 4))), band_mask(4))


class TestDCF:
    def test_single_position_collapse(self, rng):
        attn = make_attn(DCFAttention, 4, 2)
        x = Tensor(rng.standard_normal((1, 1, 4)))
        out = attn(x, x)
        v = x.data[0, 0] @ attn.w_v.data
        np.testing.assert_allclose(out.data[0, 0], v @ attn.w_o.data, atol=1e-12)

    def test_matches_scalar_reference_small(self, rng):
        attn = make_attn(DCFAttention, 2, 1, seed=3)
        x = rng.standard_normal((1, 2, 2)) * 0.5
        out = attn(Tensor(x), Tensor(x))
        ref = dcf_reference(x, x, attn.w_q.data.tolist(), attn.w_k.data.tolist(),
                            attn.w_v.data.tolist(), attn.w_o.data.tolist(), h=1)
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    @pytest.mark.parametrize("mode", ["pre_softmax_additive", "literal_post_softmax"])
    def test_matches_scalar_reference_masked_multihead(self, rng, mode):
        attn = make_attn(DCFAttention, 4, 2, seed=5, mask_mode=mode)
        x = rng.standard_normal((2, 3, 4)) * 0.5
        mask = causal_mask(3)
        out = attn(Tensor(x), Tensor(x), mask)
        ref = dcf_reference(x, x, attn.w_q.data.tolist(), attn.w_k.data.tolist(),
                            attn.w_v.data.tolist(), attn.w_o.data.tolist(), h=2,
                            mask=mask.tolist(), mask_mode=mode)
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    def test_cross_attention_matches_reference(self, rng):
        attn = make_attn(DCFAttention, 4, 2, seed=7)
        xq = rng.standard_normal((1, 2, 4)) * 0.5
        xkv = rng.standard_normal((1, 5, 4)) * 0.5
        out = attn(Tensor(xq), Tensor(xkv))
        ref = dcf_reference(xq, xkv, attn.w_q.data.tolist(), attn.w_k.data.tolist(),
                            attn.w_v.data.tolist(), attn.w_o.data.tolist(), h=2)
        assert out.shape == (1, 2, 4)
        np.testing.assert_allclose(out.data, ref, atol=1e-6)

    def test_focus_weights_sum_to_one_unmasked(self, rng):
        s = Tensor(rng.standard_normal((2, 3, 5)))
        f = masked_position_softmax(s, None)
        np.testing.assert_allclose(f.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_causality_bit_exact(self, rng):
        attn = make_attn(DCFAttention, 8, 2, seed=11)
        L, t0 = 6, 2
        mask = causal_mask(L)
        for _ in range(100):
            x = rng.standard_normal((1, L, 8))
            x2 = x.copy()
            x2[:, t0 + 1:, :] += rng.standard_normal((1, L - t0 - 1, 8))
            with T.no_grad():
                a = attn(Tensor(x), Tensor(x), mask).data
                b = attn(Tensor(x2), Tensor(x2), mask).data
            assert (a[:, :t0 + 1, :] == b[:, :t0 + 1, :]).all()

    def test_permutation_equivariance_unmasked(self, rng):
        attn = make_attn(DCFAttention, 4, 2, seed=13)
        for _ in range(5):
            x = rng.standard_normal((1, 4, 4))
            perm = rng.permutation(4)
            with T.no_grad():
                direct = attn(Tensor(x[:, perm]), Tensor(x[:, perm])).data
                permuted = attn(Tensor(x), Tensor(x)).data[:, perm]
            np.testing.assert_allclose(direct, permuted, atol=1e-10)

    def test_gradient_through_block(self, rng):
        attn = make_attn(DCFAttention, 4, 2, seed=17)
        attn.to_dtype(np.float64)
        x = rng.standard_normal((1, 3, 4))

        def loss(wq, wk, wv, wo):
            a = make_attn(DCFAttention, 4, 2)
            a.w_q, a.w_k, a.w_v, a.w_o = wq, wk, wv, wo
            out = a(Tensor(x), Tensor(x), causal_mask(3))
            return (out * out).sum()

        check_gradient(loss, [attn.w_q.data, attn.w_k.data, attn.w_v.data,
                              attn.w_o.data], rtol=1e-5)


class TestStandardMHA:
    def test_single_position(self, rng):
        attn = make_attn(StandardAttention, 4, 2)
        x = Tensor(rng.standard_normal((1, 1, 4)))
        out = attn(x, x)
        v = x.data[0, 0] @ attn.w_v.data
        np.testing.assert_allclose(out.data[0, 0], v @ attn.w_o.data, atol=1e-12)

    def test_uniform_scores_average_values(self, rng):
        attn = make_attn(StandardAttention, 4, 2)
        attn.w_q.data[:] = 0.0
        x = rng.standard_normal((1, 3, 4))
        out = attn(Tensor(x), Tensor(x))
        v = x[0] @ attn.w_v.data
        expect = np.tile(v.mean(axis=0), (3, 1)) @ attn.w_o.data
        np.testing.assert_allclose(out.data[0], expect, atol=1e-10)

    def test_matches_scalar_reference(self, rng):
        attn = make_attn(StandardAttention, 4, 2, seed=19)
        x = rng.standard_normal((1, 3, 4)) * 0.5
        mask = causal_mask(3)
        out = attn(Tensor(x), Tensor(x), mask)
        ref = mha_reference(x, x, attn.w_q.data.tolist(), attn.w_k.data.tolist(),
                            attn.w_v.data.tolist(), attn.w_o.data.tolist(), h=2,
                            mask=mask.tolist())
        np.testing.assert_allclose(out.data, ref, atol=1e-6)
