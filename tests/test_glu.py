import numpy as np
import pytest

from fgn import tensor as T
from fgn.errors import ShapeError
from fgn.glu import GatedConvUnit
from fgn.models import ModelConfig
from fgn.tensor import Tensor

from conftest import check_gradient
from oracles import sum_node, to_dtype


def make_glu(d_model=3, k=3, seed=0):
    return GatedConvUnit(np.random.default_rng(seed), ModelConfig(d_model=d_model, h=1, glu_k=k))


class TestConfig:
    def test_dimension_check(self, rng):
        glu = make_glu(d_model=3)
        with pytest.raises(ShapeError):
            glu(Tensor(rng.standard_normal((1, 4, 5))))


class TestReductions:
    def test_zero_gate_branch_halves_linear_branch(self, rng):
        glu = make_glu()
        glu.w_gate.data[:] = 0.0
        glu.b_gate.data[:] = 0.0
        x = Tensor(rng.standard_normal((2, 4, 3)))
        lin = T.conv1d(x, glu.w_lin, glu.b_lin)
        np.testing.assert_allclose(glu(x).data, 0.5 * lin.data, atol=1e-6)

    def test_zero_linear_branch_zeroes_output(self, rng):
        glu = make_glu()
        glu.w_lin.data[:] = 0.0
        glu.b_lin.data[:] = 0.0
        x = Tensor(rng.standard_normal((2, 4, 3)))
        np.testing.assert_allclose(glu(x).data, 0.0, atol=1e-12)

    def test_k1_matches_dense_gated_oracle(self, rng):
        glu = make_glu(d_model=3, k=1, seed=5)
        x = rng.standard_normal((2, 4, 3))
        out = glu(Tensor(x))
        # Independent dense formulation: pointwise affine maps + sigmoid gate.
        wg, bg = glu.w_gate.data[0], glu.b_gate.data
        wh, bh = glu.w_lin.data[0], glu.b_lin.data
        gate = 1.0 / (1.0 + np.exp(-(x @ wg + bg)))
        np.testing.assert_allclose(out.data, gate * (x @ wh + bh), atol=1e-6)


class TestProperties:
    def test_magnitude_bounded_by_linear_branch(self, rng):
        glu = make_glu(seed=7)
        x = Tensor(rng.standard_normal((2, 6, 3)))
        lin = T.conv1d(x, glu.w_lin, glu.b_lin)
        assert (np.abs(glu(x).data) <= np.abs(lin.data) + 1e-12).all()

    def test_causal_mode_ignores_future(self, rng):
        glu = make_glu(seed=9)
        t0 = 3
        for _ in range(20):
            x = rng.standard_normal((1, 6, 3))
            x2 = x.copy()
            x2[:, t0 + 1:, :] += rng.standard_normal((1, 2, 3))
            with T.no_grad():
                a = glu(Tensor(x)).data
                b = glu(Tensor(x2)).data
            assert (a[:, :t0 + 1, :] == b[:, :t0 + 1, :]).all()

    def test_gradients_both_branches(self, rng):
        glu = make_glu(seed=11)
        x = rng.standard_normal((1, 4, 3))

        def loss(wg, bg, wh, bh):
            g = make_glu()
            g.w_gate, g.b_gate, g.w_lin, g.b_lin = wg, bg, wh, bh
            out = g(Tensor(x))
            return sum_node(out * out)

        check_gradient(loss, [glu.w_gate.data, glu.b_gate.data,
                              glu.w_lin.data, glu.b_lin.data], rtol=1e-5)

    def test_gradient_wrt_input(self, rng):
        glu = make_glu(seed=13)
        to_dtype(glu, np.float64)
        x = rng.standard_normal((1, 4, 3))
        check_gradient(lambda t: sum_node(glu(t) * glu(t)), [x], rtol=1e-5)
