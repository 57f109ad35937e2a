import numpy as np
import pytest

from fgn import tensor as T
from fgn.attention import DCFAttention
from fgn.errors import ConfigError, ShapeError, TapeError
from fgn.models import ModelConfig
from fgn.tensor import Tensor

from conftest import check_gradient
from oracles import sum_node, to_dtype


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

    @pytest.mark.parametrize("w_shape", [(2, 3, 4), (3,)], ids=["batched", "1d"])
    def test_weight_must_be_2d(self, w_shape):
        with pytest.raises(ShapeError, match="2-D weight"):
            T.matmul(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros(w_shape)))

    def test_gradient_matches_finite_differences(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_gradient(lambda x, y: sum_node(T.matmul(x, y)), [a, b], rtol=1e-6)

    def test_batched_gradient(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        check_gradient(lambda x, y: sum_node(T.matmul(x, y)), [a, b], rtol=1e-6)


def sigmoid_gate(x):
    """``sigmoid(x)`` as the GLU computes it: ``glu`` of x gating ones, whose
    gradient in x is the sigmoid's alone."""
    return T.glu(x, np.ones(x.shape, x.dtype))


class TestSigmoid:
    """The GLU's gate: the array function ``T._sigmoid`` and its gradient
    inside ``glu``."""

    def test_zero(self):
        assert T._sigmoid(np.float64(0.0)) == 0.5
        assert sigmoid_gate(Tensor(np.zeros(3))).data.tolist() == [0.5] * 3

    def test_saturation_no_nan(self):
        for dtype in (np.float32, np.float64):
            assert T._sigmoid(np.array(500.0, dtype)) == 1.0
            assert T._sigmoid(np.array(-500.0, dtype)) == pytest.approx(0.0, abs=1e-100)
            y = T._sigmoid(np.array([500.0, -500.0], dtype))
            assert y.dtype == dtype and np.isfinite(y).all()
            x = Tensor(np.array([500.0, -500.0], dtype), requires_grad=True)
            T.backward(sum_node(sigmoid_gate(x)))
            assert np.isfinite(x.grad).all()

    def test_derivative_at_zero(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        T.backward(sum_node(sigmoid_gate(x)))
        np.testing.assert_allclose(x.grad, 0.25)


class TestConv1d:
    def test_pointwise_identity(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(1, 6, 1))
        out = T.conv1d(x, Tensor([[[1.0]]]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_causal_pair_sum(self):
        x = Tensor(np.array([[[1.0], [2.0], [3.0]]]))
        w = Tensor(np.ones((2, 1, 1)))
        out = T.conv1d(x, w)
        np.testing.assert_array_equal(out.data.ravel(), [1, 3, 5])

    def test_kernel_wider_than_padded_input(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 0, 1))), Tensor(np.zeros((7, 1, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((3, 3, 1))))

    def test_has_no_padding_mode(self):
        # always causal: an even kernel is valid, and no mode can be asked for
        assert T.conv1d(np.ones((1, 4, 1)), np.ones((2, 1, 1))).data.ravel().tolist() == [
            1, 2, 2, 2]
        with pytest.raises(TypeError):
            T.conv1d(np.ones((1, 4, 1)), np.ones((3, 1, 1)), None, False)

    def test_gradient_wrt_weights(self, rng):
        x = rng.standard_normal((1, 4, 2))
        w = rng.standard_normal((3, 2, 2))
        b = rng.standard_normal(2)
        check_gradient(
            lambda xx, ww, bb: sum_node(T.conv1d(xx, ww, bb)),
            [x, w, b], rtol=1e-5)


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
            lambda xx, gg, oo: sum_node(T.layer_norm(xx, gg, oo) * Tensor(v)),
            [x, g, o], rtol=1e-5)


class TestDropout:
    """Inverted dropout of DCF's focus weights, the op it runs inside."""

    def test_rate_zero_identity(self, rng):
        # one head of one feature gating ones: weight l is
        # exp(s_l) / sum_{j<=l} exp(s_j)
        s = rng.standard_normal(10)
        x, ones = Tensor(s[None, :, None]), np.ones((1, 10, 1))
        state = rng.bit_generator.state
        out = T.focus_gate(x, ones, 1, 0.0, rng)
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(out.data, T.focus_gate(x, ones, 1).data)
        want = np.exp(s) / np.cumsum(np.exp(s))
        np.testing.assert_allclose(out.data[0, :, 0], want, rtol=1e-12)

    def test_eval_is_passthrough(self, rng):
        # an eval-mode block passes rate 0 whatever its config's rate, and
        # needs no rng
        x = Tensor(rng.standard_normal((2, 5, 8)))
        outs = []
        for rate in (0.5, 0.0):
            block = DCFAttention(np.random.default_rng(0),
                                 ModelConfig(d_model=8, h=2, dropout_rate=rate))
            to_dtype(block, np.float64)
            outs.append(block(x, x, causal=True, training=False).data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            T.focus_gate(np.ones((1, 1, 1)), np.ones((1, 1, 1)), 1, 1.0,
                         np.random.default_rng(0))

    def test_mean_preserved(self, rng):
        x, ones = Tensor(rng.standard_normal((50_000, 2, 1))), np.ones((50_000, 2, 1))
        out = T.focus_gate(x, ones, 1, 0.5, rng)
        kept = T.focus_gate(x, ones, 1).data
        assert abs(out.data.mean() - kept.mean()) < 0.02 * abs(kept.mean()) + 0.02

    def test_gradient_uses_same_mask(self):
        # Two positions of equal salience: weights 1 and 1/2, scaled to 2
        # and 1 where kept. The second position's gradient is f (1 - f)
        # times its masked output gradient, so it is 0 exactly where it was
        # dropped.
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((1000, 2, 1)), requires_grad=True)
        out = T.focus_gate(x, np.ones((1000, 2, 1)), 1, 0.5, rng)
        T.backward(sum_node(out))
        kept = out.data > 0
        assert 0 < kept.mean() < 1
        np.testing.assert_allclose(out.data[:, :, 0], np.where(kept[:, :, 0], [2.0, 1.0], 0.0),
                                   rtol=1e-12)
        np.testing.assert_array_equal(x.grad[:, 1, 0] != 0, kept[:, 1, 0])


class TestBackward:
    def test_square(self):
        x = Tensor(3.0, requires_grad=True)
        T.backward(x * x)
        assert x.grad == pytest.approx(6.0)

    def test_sum_sigmoid_grad(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        T.backward(sum_node(sigmoid_gate(x)))
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
        T.backward(sum_node(h * h))
        assert h.grad is None
        np.testing.assert_allclose(x.grad, 8.0 * x.data)

    def test_second_loss_of_one_forward_rejected(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = x * 3.0
        l1, l2 = sum_node(h), sum_node(h * h)
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
        "mse_loss": lambda x: T.mse_loss(x, np.zeros(x.shape, x.dtype)),
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
        T.backward(sum_node(y))
        assert x.grad.dtype == dtype

    def test_arrays_and_tensors_promote(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        y = Tensor(np.ones(3, dtype=np.float64))
        assert (x + y).dtype == np.float64
        assert (y * x).dtype == np.float64
        assert (x + np.ones(3, dtype=np.float32)).dtype == np.float32
        assert (x - np.ones(3, dtype=np.float64)).dtype == np.float64


class TestShapeOps:
    def test_getitem_gradient(self, rng):
        a = rng.standard_normal((4, 5))
        check_gradient(lambda x: sum_node(x[1:3, ::2] * x[1:3, ::2]), [a], rtol=1e-5)

    def test_broadcast_add_mul_gradient(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal(4)
        check_gradient(lambda x, y: sum_node((x + y) * y), [a, b], rtol=1e-5)


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
            check_gradient(lambda *t: sum_node(T.feed_forward(*t, activation)), arrays,
                           rtol=1e-5)


def test_forward_deterministic_given_seed():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((4, 8)))
        return sigmoid_gate(T.matmul(x, Tensor(rng.standard_normal((8, 3))))).data

    np.testing.assert_array_equal(run(), run())


def test_tensor_invariant_size_matches_shape(rng):
    t = Tensor(rng.standard_normal((3, 7)))
    assert np.prod(t.shape) == t.data.size
