import numpy as np
import pytest

from fgn import tensor as T
from fgn.errors import ConfigError, ShapeError, TapeError
from fgn.tensor import Tensor

from conftest import check_gradient


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_unit_vector_selection(self):
        out = T.matmul(Tensor([[1.0, 0.0]]), Tensor([[2.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_gradient(lambda x, y: T.matmul(x, y).sum(), [a, b], rtol=1e-6)

    def test_batched_gradient(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        check_gradient(lambda x, y: T.matmul(x, y).sum(), [a, b], rtol=1e-6)


class TestSigmoid:
    def test_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation_no_nan(self):
        assert T.sigmoid(Tensor(500.0)).item() == 1.0
        assert T.sigmoid(Tensor(-500.0)).item() == pytest.approx(0.0, abs=1e-100)
        assert np.isfinite(T.sigmoid(Tensor(np.array([500.0, -500.0]))).data).all()

    def test_derivative_at_zero(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        T.backward(T.sigmoid(x).sum())
        np.testing.assert_allclose(x.grad, 0.25)


class TestConv1d:
    def test_pointwise_identity(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(1, 6, 1))
        out = T.conv1d(x, Tensor([[[1.0]]]), causal_padding=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_causal_pair_sum(self):
        x = Tensor(np.array([[[1.0], [2.0], [3.0]]]))
        w = Tensor(np.ones((2, 1, 1)))
        out = T.conv1d(x, w, causal_padding=True)
        np.testing.assert_array_equal(out.data.ravel(), [1, 3, 5])

    def test_kernel_wider_than_padded_input(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 0, 1))), Tensor(np.zeros((7, 1, 1))))

    def test_even_kernel_needs_causal(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 4, 1))), Tensor(np.zeros((2, 1, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((3, 3, 1))))

    def test_gradient_wrt_weights(self, rng):
        x = rng.standard_normal((1, 4, 2))
        w = rng.standard_normal((3, 2, 2))
        b = rng.standard_normal(2)
        check_gradient(
            lambda xx, ww, bb: T.conv1d(xx, ww, bb, causal_padding=True).sum(),
            [x, w, b], rtol=1e-5)

    def test_gradient_noncausal(self, rng):
        x = rng.standard_normal((2, 5, 3))
        w = rng.standard_normal((3, 3, 2))
        check_gradient(lambda xx, ww: (T.conv1d(xx, ww) * T.conv1d(xx, ww)).sum(), [x, w],
                       rtol=1e-5)


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_unit_variance(self):
        out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-4)

    def test_gradient(self, rng):
        x = rng.standard_normal((2, 3, 4))
        g = rng.standard_normal(4)
        o = rng.standard_normal(4)
        v = rng.standard_normal((2, 3, 4))
        check_gradient(
            lambda xx, gg, oo: (T.layer_norm(xx, gg, oo) * Tensor(v)).sum(),
            [x, g, o], rtol=1e-5)


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = Tensor(rng.standard_normal(10))
        for training in (True, False):
            out = T.dropout(x, 0.0, training, rng)
            np.testing.assert_array_equal(out.data, x.data)

    def test_eval_is_passthrough(self, rng):
        x = Tensor(rng.standard_normal(10))
        out = T.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            T.dropout(Tensor([1.0]), 1.0, True, np.random.default_rng(0))

    def test_mean_preserved(self, rng):
        x = Tensor(rng.standard_normal(100_000) + 3.0)
        out = T.dropout(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - x.data.mean()) < 0.02 * abs(x.data.mean()) + 0.02

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones(1000), requires_grad=True)
        out = T.dropout(x, 0.5, training=True, rng=rng)
        T.backward(out.sum())
        np.testing.assert_array_equal(x.grad, np.where(out.data > 0, 2.0, 0.0))


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        T.backward(x * x)
        assert x.grad == pytest.approx(6.0)

    def test_sum_sigmoid_grad(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        T.backward(T.sigmoid(x).sum())
        np.testing.assert_allclose(x.grad, 0.25)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(TapeError):
            T.backward(x * 2.0)

    def test_double_backward_rejected(self):
        x = Tensor(2.0, requires_grad=True)
        loss = x * x
        T.backward(loss)
        with pytest.raises(TapeError):
            T.backward(loss)

    def test_intermediates_get_no_grad(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * 2.0
        T.backward((h * h).sum())
        assert h.grad is None
        np.testing.assert_allclose(x.grad, 8.0 * x.data)

    def test_second_loss_of_one_forward_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * 3.0
        l1, l2 = h.sum(), (h * h).sum()
        T.backward(l1)
        with pytest.raises(TapeError):
            T.backward(l2)

    def test_grad_accumulates_through_reuse(self):
        x = Tensor(2.0, requires_grad=True)
        T.backward(x * x + x * 3.0)
        assert x.grad == pytest.approx(7.0)

    def test_no_grad_suppresses_recording(self):
        x = Tensor(2.0, requires_grad=True)
        with T.no_grad():
            y = x * x
        assert not y.requires_grad
        with pytest.raises(TapeError):
            T.backward(y)


class TestScalarOperands:
    """A scalar operand takes the dtype of the Tensor it meets."""

    OPS = {
        "mul_np_float64": lambda x: x * np.float64(0.125),
        "add_eps": lambda x: x + 1e-5,
        "rsub": lambda x: 2.0 - x,
        "mean": lambda x: x.mean(),
        "layer_norm": lambda x: T.layer_norm(
            x, Tensor(np.ones(3, dtype=x.dtype)), Tensor(np.zeros(3, dtype=x.dtype))),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_tensor_keeps_its_dtype(self, op, dtype):
        x = Tensor(np.array([[1.0, 2.0, 4.0], [0.5, 3.0, 8.0]], dtype=dtype),
                   requires_grad=True)
        y = self.OPS[op](x)
        assert y.dtype == dtype
        T.backward(y.sum())
        assert x.grad.dtype == dtype

    def test_arrays_and_tensors_promote(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        y = Tensor(np.ones(3, dtype=np.float64))
        assert (x + y).dtype == np.float64
        assert (y * x).dtype == np.float64
        assert (x + np.ones(3, dtype=np.float32)).dtype == np.float32
        assert (x - np.ones(3, dtype=np.float64)).dtype == np.float64


class TestShapeOps:
    def test_reshape_transpose_roundtrip_exact(self, rng):
        a = rng.standard_normal((3, 4, 5)).astype(np.float32)
        t = Tensor(a)
        back = t.reshape(60).reshape(3, 4, 5)
        np.testing.assert_array_equal(back.data, a)
        tt = t.transpose(2, 0, 1).transpose(1, 2, 0)
        np.testing.assert_array_equal(tt.data, a)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 3, 3)], ids=str)
    @pytest.mark.parametrize("axes", [(0, -1, 1), (-1, 0, 1)], ids=str)
    def test_transpose_gradient_negative_axes(self, rng, shape, axes):
        a = rng.standard_normal(shape)
        v = rng.standard_normal(a.transpose(axes).shape)
        check_gradient(lambda x: (T.transpose(x, *axes) * Tensor(v)).sum(), [a], rtol=1e-6)

    def test_concatenate_gradient(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 5))
        check_gradient(
            lambda x, y: (T.concatenate([x, y], axis=1) * Tensor(v)).sum(),
            [a, b], rtol=1e-6)

    def test_getitem_gradient(self, rng):
        a = rng.standard_normal((4, 5))
        check_gradient(lambda x: (x[1:3, ::2] * x[1:3, ::2]).sum(), [a], rtol=1e-5)

    def test_broadcast_add_mul_gradient(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        check_gradient(lambda x, y: ((x + y) * y).sum(), [a, b], rtol=1e-5)

    def test_reduce_mean_gradient(self, rng):
        a = rng.standard_normal((3, 4))
        check_gradient(lambda x: (x.mean(axis=1) * x.mean(axis=1)).sum(), [a], rtol=1e-5)


class TestReductions:
    @pytest.mark.parametrize("axis", [None, 1, (1, 2), (0, -1)])
    def test_mean_is_sum_over_count(self, rng, axis):
        a = rng.standard_normal((2, 3, 4)).astype(np.float32)
        x, ref = Tensor(a, requires_grad=True), Tensor(a, requires_grad=True)
        n = a.size // a.sum(axis=axis).size
        y = x.mean(axis=axis)
        T.backward((y * y).sum())
        want = ref.sum(axis=axis) * (1.0 / n)
        T.backward((want * want).sum())
        assert y.dtype == np.float32
        np.testing.assert_array_equal(y.data, want.data)
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, ref.grad)


class TestItem:
    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_any_single_element(self, shape):
        assert Tensor(np.full(shape, 2.5, dtype=np.float32)).item() == 2.5

    def test_several_elements_name_the_shape(self):
        with pytest.raises(ShapeError, match=r"\(2, 1\)"):
            Tensor(np.zeros((2, 1))).item()


class TestActivations:
    def test_relu_gelu_gradients(self, rng):
        # the activations run inside feed_forward, once per activation
        arrays = [rng.standard_normal(s) for s in ((3, 4), (4, 5), (5,), (5, 2), (2,))]
        for activation in ("relu", "gelu"):
            check_gradient(lambda *t: T.feed_forward(*t, activation).sum(), arrays,
                           rtol=1e-5)


def test_forward_deterministic_given_seed():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 8)))
        return T.sigmoid(T.matmul(x, Tensor(rng.standard_normal((8, 3))))).data

    np.testing.assert_array_equal(run(), run())


def test_tensor_invariant_size_matches_shape(rng):
    t = Tensor(rng.standard_normal((3, 7)))
    assert np.prod(t.shape) == t.data.size
