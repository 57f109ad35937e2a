import dataclasses

import numpy as np
import pytest

from fgn import layers
from fgn import tensor as T
from fgn.attention import MASK_MODES, DCFAttention, StandardAttention
from fgn.errors import ConfigError, ShapeError, TapeError
from fgn.models import (ABLATIONS, DLINEAR_MA_WINDOW, VARIANTS, DLinear, ModelConfig, NLinear,
                        build_model, moving_average)
from fgn.tensor import Tensor
from fgn.training import OptimizerState, adam_step, mse_loss

from conftest import check_gradient
from oracles import moving_average_reference, sum_node, to_dtype


def toy_config(**kw):
    base = dict(n_encoder_layers=1, n_decoder_layers=1, d_model=16, d_ff=32,
                h=2, lookback=8, label_len=4, horizon=4, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = ModelConfig()
        assert (cfg.n_encoder_layers, cfg.n_decoder_layers) == (3, 2)
        assert (cfg.d_model, cfg.d_ff, cfg.h) == (512, 2048, 8)
        assert cfg.positional_embedding == "none"
        assert cfg.label_len == cfg.lookback // 2

    def test_rejects_inconsistent_heads(self):
        with pytest.raises(ConfigError):
            toy_config(d_model=10, h=3)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ConfigError):
            toy_config(horizon=0)

    def test_rejects_label_len_beyond_lookback(self):
        with pytest.raises(ConfigError):
            toy_config(label_len=9)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigError, match="ffn_activation"):
            toy_config(ffn_activation="relux")

    def test_activation_table_is_keyed_by_the_accepted_names(self):
        # perfbench's tracer reads fgn.layers._ACTIVATIONS as a dict keyed by
        # the ffn_activation values a model accepts.
        table = layers._ACTIVATIONS
        assert isinstance(table, dict)
        accepted = set()
        for name in set(table) | {"relu", "gelu", "silu", "tanh", "swish", "RELU", ""}:
            try:
                cfg = toy_config(ffn_activation=name)
            except ConfigError:
                continue
            accepted.add(name)
            x = Tensor(np.ones((1, 8, 40), dtype=np.float32))
            labels = Tensor(np.ones((1, 4, 40), dtype=np.float32))
            assert build_model(cfg, np.random.default_rng(0))(x, labels).shape == (1, 4, 1)
        assert accepted == set(table) == {"relu", "gelu"}

    @pytest.mark.parametrize("variant", ["focalgatednet", "transformer", "dlinear", "nlinear"])
    @pytest.mark.parametrize("key,value", [("h", 0), ("d_model", 0), ("mask_mode", "bogus"),
                                           ("glu_k", 0), ("dropout_rate", 1.0)])
    def test_every_variant_checks_attention_and_glu_fields(self, variant, key, value):
        with pytest.raises(ConfigError):
            toy_config(variant=variant, **{key: value})

    @pytest.mark.parametrize("variant", ["focalgatednet", "dlinear"])
    @pytest.mark.parametrize("key", ["d_ff", "n_encoder_layers", "n_decoder_layers",
                                     "input_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_sizes_below_one(self, variant, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= 1, got {value}"):
            toy_config(variant=variant, **{key: value})

    @pytest.mark.parametrize("variant", ["focalgatednet", "nlinear"])
    @pytest.mark.parametrize("value", [-1, 40])
    def test_target_channel_must_index_an_input(self, variant, value):
        with pytest.raises(ConfigError, match=rf"target_channel must be in \[0, input_dim\); "
                                              rf"got {value} vs 40"):
            toy_config(variant=variant, input_dim=40, target_channel=value)

    @pytest.mark.parametrize("key,value,what", [
        ("h", "2", "an integer"), ("lookback", 8.0, "an integer"), ("horizon", True, "an integer"),
        ("label_len", "4", "an integer"), ("dropout_rate", "0.1", "a number"),
        ("variant", 3, "a string")])
    def test_rejects_wrong_types_by_name(self, key, value, what):
        with pytest.raises(ConfigError, match=f"^{key} must be {what}, got {value!r}$"):
            toy_config(**{key: value})

    def test_accepts_numpy_scalars(self):
        cfg = toy_config(d_model=np.int64(16), dropout_rate=np.float32(0.25))
        assert cfg.d_model == 16

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"d_modell": 8})

    @pytest.mark.parametrize("value", ["abc", 5, [1], None])
    def test_from_dict_rejects_a_non_object(self, value):
        with pytest.raises(ConfigError, match="model config must be an object"):
            ModelConfig.from_dict(value)

    def test_frozen(self):
        cfg = toy_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.h = 4

    def test_replace_validates_the_copy(self):
        with pytest.raises(ConfigError, match="d_model=16 not divisible by h=3"):
            dataclasses.replace(toy_config(), h=3)

    def test_glu_k_error_names_the_key(self):
        with pytest.raises(ConfigError, match="^glu_k must be >= 1, got 0$"):
            ModelConfig(glu_k=0)

    def test_roundtrip_dict(self):
        cfg = toy_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestForecaster:
    def test_zeros_input_shape_contract(self):
        model = build_model(toy_config(), np.random.default_rng(0))
        enc = Tensor(np.zeros((2, 8, 40), dtype=np.float32))
        dec = Tensor(np.zeros((2, 4, 40), dtype=np.float32))
        out = model.forward(enc, dec)
        assert out.shape == (2, 4, 1)
        assert np.isfinite(out.data).all()

    def test_parameter_count_matches_hand_total(self):
        cfg = toy_config()
        model = build_model(cfg, np.random.default_rng(0))
        d, ff, k = cfg.d_model, cfg.d_ff, cfg.glu_k
        embed = 40 * d + d
        attn = 4 * d * d
        ffn = d * ff + ff + ff * d + d
        norm = 2 * d
        enc_layer = attn + ffn + 2 * norm
        glu = 2 * (k * d * d + d)
        dec_layer = 2 * attn + glu + ffn + 4 * norm
        head = d * 1 + 1
        expected = 2 * embed + enc_layer + dec_layer + head
        assert sum(p.size for _, p in model.parameters()) == expected

    def test_variants_genuinely_differ(self, rng):
        enc = Tensor(rng.standard_normal((1, 8, 40)).astype(np.float32))
        dec = Tensor(rng.standard_normal((1, 4, 40)).astype(np.float32))
        outs = {}
        for variant in ("focalgatednet", "transformer"):
            model = build_model(toy_config(variant=variant), np.random.default_rng(0))
            outs[variant] = model.forward(enc, dec).data
        assert not np.allclose(outs["focalgatednet"], outs["transformer"])

    @pytest.mark.parametrize("variant,ablation", [
        ("focalgatednet", "glu_dcf"), ("focalgatednet", "dcf_only"),
        ("focalgatednet", "glu_only"), ("transformer", "glu_dcf"),
        ("dlinear", "glu_dcf"), ("nlinear", "glu_dcf")])
    def test_output_shape_grid(self, rng, variant, ablation):
        cfg = toy_config(variant=variant, ablation=ablation)
        model = build_model(cfg, np.random.default_rng(1))
        enc = Tensor(rng.standard_normal((3, 8, 40)).astype(np.float32))
        dec = Tensor(rng.standard_normal((3, 4, 40)).astype(np.float32))
        assert model.forward(enc, dec).shape == (3, 4, 1)

    def test_layer_inventory_per_ablation(self):
        def layers(ablation, variant="focalgatednet"):
            m = build_model(toy_config(variant=variant, ablation=ablation),
                            np.random.default_rng(0))
            lay = m.decoders[0]
            return type(lay.self_attn), type(lay.cross_attn), lay.glu is not None

        assert layers("glu_dcf") == (DCFAttention, DCFAttention, True)
        assert layers("dcf_only") == (DCFAttention, DCFAttention, False)
        assert layers("glu_only") == (StandardAttention, StandardAttention, True)
        assert layers("glu_dcf", "transformer") == (StandardAttention, StandardAttention, False)

    def test_decoder_causality(self, rng):
        # A decoder layer over a fixed encoder output, for every ablation and
        # the transformer: perturbing decoder position t leaves every earlier
        # output row bit-identical, through the self and the cross block.
        for variant, ablation in [("focalgatednet", a) for a in ABLATIONS] + \
                                 [("transformer", "glu_dcf")]:
            cfg = toy_config(variant=variant, ablation=ablation)
            layer = build_model(cfg, np.random.default_rng(2)).decoders[0]
            enc_out = Tensor(rng.standard_normal((1, 8, 16)).astype(np.float32))
            y = rng.standard_normal((1, 8, 16)).astype(np.float32)
            for t in range(8):
                y2 = y.copy()
                y2[:, t, :] += 1.0
                with T.no_grad():
                    a = layer(Tensor(y), enc_out).data
                    b = layer(Tensor(y2), enc_out).data
                assert (a[:, :t] == b[:, :t]).all(), (variant, ablation, t)
                assert not np.array_equal(a[:, t], b[:, t])

    def test_horizon_rows_reaching_dec_embed_are_zero(self, rng, monkeypatch):
        model = build_model(toy_config(), np.random.default_rng(3))
        seen = []
        embed = model.dec_embed
        monkeypatch.setattr(model, "dec_embed", lambda x: seen.append(x.data) or embed(x))
        labels = rng.standard_normal((2, 4, 40)).astype(np.float32)
        model.forward(Tensor(rng.standard_normal((2, 8, 40)).astype(np.float32)),
                      Tensor(labels))
        (dec,) = seen
        assert dec.shape == (2, 8, 40) and dec.dtype == np.float32
        assert dec[:, :4].tobytes() == labels.tobytes()
        assert not np.any(dec[:, 4:])

    @pytest.mark.parametrize("shape", [(2, 8, 40), (2, 3, 40), (2, 4, 39), (4, 40)],
                             ids=["label_len+horizon", "short", "input_dim", "2-d"])
    def test_decoder_input_other_than_the_label_rows(self, shape):
        model = build_model(toy_config(), np.random.default_rng(3))
        enc = Tensor(np.zeros((2, 8, 40), dtype=np.float32))
        with pytest.raises(ShapeError, match=r"\[B, label_len, input_dim\] = \[B, 4, 40\]"):
            model.forward(enc, Tensor(np.zeros(shape, dtype=np.float32)))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_encoder_input_other_than_input_dim(self, variant):
        # a linear baseline would slice its target channel out of any width
        model = build_model(toy_config(variant=variant), np.random.default_rng(3))
        enc = Tensor(np.zeros((2, 8, 39), dtype=np.float32))
        dec = Tensor(np.zeros((2, 4, 39), dtype=np.float32))
        with pytest.raises(ShapeError, match="encoder input last extent 39 != input_dim 40"):
            model.forward(enc, dec)

    def test_decoder_input_requiring_grad(self):
        # the zero-horizon copy would drop its gradient without a word
        model = build_model(toy_config(), np.random.default_rng(3))
        enc = Tensor(np.zeros((2, 8, 40), dtype=np.float32))
        dec = Tensor(np.zeros((2, 4, 40), dtype=np.float32), requires_grad=True)
        with pytest.raises(TapeError, match="decoder input"):
            model.forward(enc, dec)

    def test_no_target_leakage(self, rng):
        # the decoder reads only the label rows and the zero horizon the model
        # builds; no target value enters, so equal inputs give equal forecasts.
        model = build_model(toy_config(), np.random.default_rng(3))
        enc = Tensor(rng.standard_normal((1, 8, 40)).astype(np.float32))
        dec = rng.standard_normal((1, 4, 40)).astype(np.float32)
        with T.no_grad():
            before = model.forward(enc, Tensor(dec)).data.copy()
            after = model.forward(enc, Tensor(dec)).data
        np.testing.assert_array_equal(before, after)

    def test_sinusoidal_positional_option(self, rng):
        enc = Tensor(rng.standard_normal((1, 8, 40)).astype(np.float32))
        dec = Tensor(rng.standard_normal((1, 4, 40)).astype(np.float32))
        a = build_model(toy_config(), np.random.default_rng(4)).forward(enc, dec).data
        b = build_model(toy_config(positional_embedding="sinusoidal"),
                        np.random.default_rng(4)).forward(enc, dec).data
        assert not np.allclose(a, b)


class TestBatchInvariance:
    """A window's no-grad forecast does not depend on the windows batched with
    it, bit for bit: evaluation may split a window set at any batch size."""

    @staticmethod
    def _forecasts(cfg, rng, splits):
        model = build_model(cfg, np.random.default_rng(5))
        enc = rng.standard_normal((8, 8, 40)).astype(np.float32)
        dec = rng.standard_normal((8, 4, 40)).astype(np.float32)
        bounds = np.cumsum([0, *splits])
        with T.no_grad():
            return np.concatenate([model.forward(Tensor(enc[lo:hi]), Tensor(dec[lo:hi])).data
                                   for lo, hi in zip(bounds[:-1], bounds[1:])])

    @pytest.mark.parametrize("mask_mode", MASK_MODES)
    @pytest.mark.parametrize("ablation", tuple(ABLATIONS))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_split_forecasts_equal_the_whole_batch(self, variant, ablation, mask_mode):
        cfg = toy_config(variant=variant, ablation=ablation, mask_mode=mask_mode)
        whole = self._forecasts(cfg, np.random.default_rng(6), [8])
        assert whole.shape == (8, 4, 1)
        for splits in ([1] * 8, [3, 3, 2]):
            split = self._forecasts(cfg, np.random.default_rng(6), splits)
            assert split.tobytes() == whole.tobytes(), splits

    @pytest.mark.parametrize("positional,activation",
                             [("sinusoidal", "relu"), ("none", "gelu")])
    def test_other_embeddings_and_activations(self, positional, activation):
        cfg = toy_config(positional_embedding=positional, ffn_activation=activation)
        whole = self._forecasts(cfg, np.random.default_rng(7), [8])
        split = self._forecasts(cfg, np.random.default_rng(7), [3, 3, 2])
        assert split.tobytes() == whole.tobytes()


def _train_series_model(model, x, y, steps=800, lr=0.01):
    params = [p for _, p in model.parameters()]
    state = OptimizerState()
    for _ in range(steps):
        model.zero_grad()
        loss = mse_loss(model.forecast(Tensor(x)), Tensor(y))
        T.backward(loss)
        adam_step(params, state, lr)
    return model


def _line_windows(lookback, horizon, n=64, slope=0.01):
    t = np.arange(n + lookback + horizon) * slope
    xs = np.stack([t[i:i + lookback] for i in range(n)])[..., None]
    ys = np.stack([t[i + lookback:i + lookback + horizon] for i in range(n)])[..., None]
    return xs.astype(np.float64), ys.astype(np.float64)


class TestDLinear:
    def test_constant_series_trend_is_series(self):
        cfg = toy_config(variant="dlinear", input_dim=1, target_channel=0)
        model = DLinear(np.random.default_rng(0), cfg)
        x = Tensor(np.full((2, 8, 1), 3.5))
        trend, seasonal = model.decompose(x)
        np.testing.assert_array_equal(trend.data, x.data)
        np.testing.assert_array_equal(seasonal.data, 0.0)

    def test_zero_init_forecasts_zero(self, rng):
        cfg = toy_config(variant="dlinear", input_dim=1)
        model = DLinear(np.random.default_rng(0), cfg)
        for _, p in model.parameters():
            p.data[:] = 0.0
        out = model.forecast(Tensor(rng.standard_normal((2, 8, 1))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_moving_average_window_must_be_odd(self):
        with pytest.raises(ConfigError):
            moving_average(Tensor(np.zeros((1, 8, 1))), 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("L", [2, 7, 8, 64, 128])
    @pytest.mark.parametrize("c", [1, 3])
    def test_moving_average_bit_equal_to_reference(self, rng, dtype, L, c):
        # every odd window up to DLinear's, also those wider than the series
        x = rng.standard_normal((3, L, c)).astype(dtype)
        for window in range(1, DLINEAR_MA_WINDOW + 1, 2):
            got = moving_average(Tensor(x), window).data
            want = moving_average_reference(x, window)
            assert (got.dtype, got.shape, got.tobytes()) == (dtype, x.shape, want.tobytes())

    @pytest.mark.parametrize("window", [3, 9])
    def test_moving_average_gradient(self, rng, window):
        # each edge row's gradient gathers the copies the index padding made
        x = rng.standard_normal((2, 6, 2))
        v = rng.standard_normal((2, 6, 2))
        check_gradient(lambda t: sum_node(moving_average(t, window) * Tensor(v)), [x],
                       rtol=1e-6)

    def test_learns_line_extrapolation(self):
        cfg = toy_config(variant="dlinear", input_dim=1)
        model = DLinear(np.random.default_rng(1), cfg)
        x, y = _line_windows(8, 4)
        _train_series_model(model, x, y)
        pred = model.forecast(Tensor(x)).data
        assert np.abs(pred - y).max() < 1e-3


class TestNLinear:
    def test_zero_init_repeats_last_value_exactly(self, rng):
        cfg = toy_config(variant="nlinear", input_dim=1)
        model = NLinear(np.random.default_rng(0), cfg)
        for _, p in model.parameters():
            p.data[:] = 0.0
        x = rng.standard_normal((3, 8, 1))
        out = model.forecast(Tensor(x)).data
        np.testing.assert_array_equal(out, np.tile(x[:, -1:, :], (1, 4, 1)))

    def test_constant_series_any_weights(self, rng):
        cfg = toy_config(variant="nlinear", input_dim=1)
        model = NLinear(np.random.default_rng(5), cfg)
        x = np.full((2, 8, 1), 7.25)
        out = model.forecast(Tensor(x)).data
        np.testing.assert_allclose(out, 7.25, atol=1e-6)

    def test_learns_line_extrapolation(self):
        cfg = toy_config(variant="nlinear", input_dim=1)
        model = NLinear(np.random.default_rng(1), cfg)
        x, y = _line_windows(8, 4)
        _train_series_model(model, x, y)
        pred = model.forecast(Tensor(x)).data
        assert np.abs(pred - y).max() < 1e-3


class TestTrainingDtype:
    """A training-mode step of the test-shape model keeps the model's dtype
    in every recorded op output and every parameter gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_keeps_dtype(self, rng, dtype, monkeypatch):
        cfg = ModelConfig(d_model=64, h=4, d_ff=128, n_encoder_layers=3,
                          n_decoder_layers=2, lookback=128, label_len=64,
                          horizon=20, dropout_rate=0.1)
        model = build_model(cfg, np.random.default_rng(0))
        to_dtype(model, dtype)
        enc = Tensor(rng.standard_normal((2, 128, 40)).astype(dtype))
        dec = Tensor(rng.standard_normal((2, 64, 40)).astype(dtype))
        target = Tensor(rng.standard_normal((2, 20, 1)).astype(dtype))
        outputs = set()
        record = T._record

        def spy(out, parents, backward_fn, rebuild=None):
            outputs.add(str(out.dtype))
            return record(out, parents, backward_fn, rebuild)

        monkeypatch.setattr(T, "_record", spy)
        loss = mse_loss(model.forward(enc, dec, training=True, rng=rng), target)
        monkeypatch.undo()
        assert outputs == {np.dtype(dtype).name}
        T.backward(loss)
        grads = {str(p.grad.dtype) for _, p in model.parameters()}
        assert grads == {np.dtype(dtype).name}
