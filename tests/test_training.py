import json
import os
import re
import stat
import struct
import weakref

import numpy as np
import pytest

import fgn.training as training
from fgn import tensor as T
from fgn.data import make_windows, synth_gait
from fgn.errors import (CheckpointConfigError, CheckpointLengthError, CheckpointMagicError,
                        CheckpointTruncatedError, ConfigError, DivergenceError,
                        ShapeError, TapeError)
from fgn.models import ModelConfig, build_model
from fgn.tensor import Tensor
from fgn.training import (OptimizerState, TrainRunConfig, adam_step,
                          dataset_loss, load_checkpoint, lr_at_epoch, mse_loss,
                          save_checkpoint, split_validation, train)

from conftest import check_gradient
from oracles import adam_reference, adam_step_allocating


def tiny_config(**kw):
    base = dict(n_encoder_layers=1, n_decoder_layers=1, d_model=8, d_ff=16,
                h=2, lookback=16, label_len=8, horizon=4, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def windows():
    table = synth_gait(2, cycle_ms=400.0, noise_std=0.02, seed=4)
    return make_windows(table, lookback=16, label_len=8, horizon=4, stride=4)


class TestMseLoss:
    def test_zero_for_equal(self, rng):
        x = Tensor(rng.standard_normal(5))
        assert mse_loss(x, x).item() == 0.0

    def test_hand_value(self):
        assert mse_loss(Tensor([0.0]), Tensor([2.0])).item() == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))

    def test_gradient(self, rng):
        p = rng.standard_normal((3, 4))
        t = rng.standard_normal((3, 4))
        check_gradient(lambda x: mse_loss(x, Tensor(t)), [p], rtol=1e-6)
        pt = Tensor(p, requires_grad=True)
        T.backward(mse_loss(pt, Tensor(t)))
        np.testing.assert_allclose(pt.grad, 2 * (p - t) / p.size, atol=1e-12)


class TestAdam:
    def test_first_step_magnitude(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        adam_step([p], OptimizerState(), lr=0.001)
        assert p.data[0] == pytest.approx(-0.001, abs=1e-6)

    def test_zero_grad_leaves_params(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        state = OptimizerState()
        for _ in range(5):
            p.grad = np.array([0.0])
            adam_step([p], state, lr=0.1)
        assert p.data[0] == 1.5

    def test_quadratic_convergence(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        state = OptimizerState()
        for _ in range(200):
            x.grad = 2 * (x.data - 3.0)
            adam_step([x], state, lr=0.1)
        assert abs(x.data[0] - 3.0) < 0.05

    def test_matches_scalar_reference(self, rng):
        grads = rng.standard_normal(50)
        x = Tensor(np.array([0.7]), requires_grad=True)
        state = OptimizerState()
        mine = []
        for g in grads:
            x.grad = np.array([g])
            adam_step([x], state, lr=0.01)
            mine.append(float(x.data[0]))
        ref = adam_reference(list(grads), lr=0.01, x0=0.7)
        np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_missing_grad_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(TapeError):
            adam_step([p], OptimizerState(), lr=0.1)


class TestSchedule:
    @pytest.mark.parametrize("epoch,expected", [(0, 1e-4), (2, 2.5e-5), (9, 1e-4 / 512)])
    def test_halving(self, epoch, expected):
        assert lr_at_epoch(1e-4, epoch) == pytest.approx(expected, rel=1e-12)

    def test_negative_epoch(self):
        with pytest.raises(ConfigError):
            lr_at_epoch(1e-4, -1)


class TestEarlyStopping:
    def _run_with_val_losses(self, monkeypatch, losses, windows, patience=3):
        it = iter(losses)
        monkeypatch.setattr(training, "dataset_loss", lambda *a, **k: next(it))
        model = build_model(tiny_config(variant="nlinear"), np.random.default_rng(0))
        tr, val = split_validation(windows.train)
        cfg = TrainRunConfig(max_epochs=10, patience=patience, batch_size=16, seed=1)
        return train(model, tr, val, cfg)

    def test_rule_application(self, monkeypatch, windows):
        res = self._run_with_val_losses(
            monkeypatch, [1.0, 0.9, 0.95, 0.96, 0.97] + [2.0] * 5, windows)
        assert len(res.trace) == 5          # stops after the fifth epoch
        assert res.best_epoch == 1          # 0-based: the 0.9 epoch
        assert res.best_val_loss == 0.9

    def test_runs_all_epochs_without_trigger(self, monkeypatch, windows):
        res = self._run_with_val_losses(
            monkeypatch, [1.0 - 0.05 * i for i in range(10)], windows)
        assert len(res.trace) == 10

    def test_best_never_worse_than_any_epoch(self, monkeypatch, windows):
        losses = [0.5, 0.45, 0.6, 0.44, 0.7, 0.8, 0.9]
        res = self._run_with_val_losses(monkeypatch, losses + [1.0] * 3, windows)
        assert res.best_val_loss <= min(losses[:len(res.trace)])

    def test_nan_val_loss_raises(self, monkeypatch, windows):
        with pytest.raises(DivergenceError, match="epoch 0"):
            self._run_with_val_losses(monkeypatch, [float("nan")] * 10, windows)


class TestTrainLoop:
    def test_single_batch_loss_decreases(self, windows):
        losses_down = 0
        for trial in range(20):
            model = build_model(tiny_config(), np.random.default_rng(trial))
            params = [p for _, p in model.parameters()]
            idx = np.arange(8)
            enc = Tensor(windows.train.encoder[idx])
            dec = Tensor(windows.train.decoder[idx])
            tgt = Tensor(windows.train.target_norm[idx])
            state = OptimizerState()
            before = mse_loss(model.forward(enc, dec), tgt)
            T.backward(before)
            adam_step(params, state, lr=1e-4)
            with T.no_grad():
                after = mse_loss(model.forward(enc, dec), tgt)
            losses_down += after.item() < before.item()
        assert losses_down == 20

    def test_deterministic_trace(self, windows):
        def run():
            model = build_model(tiny_config(variant="nlinear"), np.random.default_rng(3))
            tr, val = split_validation(windows.train)
            return train(model, tr, val,
                         TrainRunConfig(max_epochs=4, patience=3, batch_size=16,
                                        seed=7)).trace

        assert run() == run()

    def test_divergence_names_batch(self, windows):
        model = build_model(tiny_config(variant="nlinear"), np.random.default_rng(0))
        model.lin.weight.data[0, 0] = np.nan
        tr, val = split_validation(windows.train)
        with pytest.raises(DivergenceError, match="batch 0"):
            train(model, tr, val, TrainRunConfig(max_epochs=2, patience=1, seed=0))

    def test_divergence_frees_the_step_graph(self, windows):
        tr, val = split_validation(windows.train)
        tr = type(tr)(tr.encoder, tr.decoder, np.full_like(tr.target_norm, np.nan),
                      tr.target_raw, tr.start_rows)
        model = build_model(tiny_config(), np.random.default_rng(0))
        with pytest.raises(DivergenceError, match="batch 0"):
            train(model, tr, val, TrainRunConfig(max_epochs=2, patience=1, seed=0))
        assert T._state.tape == []

    def test_validation_split_sizes(self, windows):
        tr, val = split_validation(windows.train)
        assert len(tr) + len(val) == len(windows.train)
        assert len(val) == max(1, int(np.floor(len(windows.train) * 0.1)))

    def test_empty_sets_rejected(self, windows):
        model = build_model(tiny_config(variant="nlinear"), np.random.default_rng(0))
        empty = split_validation(windows.train)[1]
        with pytest.raises(ConfigError):
            train(model, windows.train,
                  type(empty)(empty.encoder[:0], empty.decoder[:0],
                              empty.target_norm[:0], empty.target_raw[:0],
                              empty.start_rows[:0]),
                  TrainRunConfig(max_epochs=2, patience=1))



class TestFinishedRun:
    """A finished run holds only what it returns: the best restart's model,
    with no gradients left on its parameters."""

    def test_train_clears_the_gradients(self, windows):
        model = build_model(tiny_config(), np.random.default_rng(0))
        tr, val = split_validation(windows.train)
        train(model, tr, val, TrainRunConfig(max_epochs=2, patience=1, seed=0))
        assert [name for name, p in model.parameters() if p.grad is not None] == []

    def test_restarts_keep_only_the_best_model(self, windows, monkeypatch):
        # when a restart starts training, of the models built before it only
        # the best so far is alive; after return, only the best of all
        refs, alive_at_start = [], []

        def build(cfg, rng):
            model = build_model(cfg, rng)
            refs.append(weakref.ref(model))
            return model

        def spy(model, *args):
            alive_at_start.append(sum(ref() is not None for ref in refs[:-1]))
            return train(model, *args)

        monkeypatch.setattr(training, "build_model", build)
        monkeypatch.setattr(training, "train", spy)
        tr, val = split_validation(windows.train)
        result, summary = training.train_restarts(
            tiny_config(), tr, val, TrainRunConfig(max_epochs=2, patience=1, restarts=3, seed=0))
        assert alive_at_start == [0, 1, 1]
        assert [ref() is not None for ref in refs] == [ref() is result.model for ref in refs]
        assert summary["restarts"] == 3 and summary["best_val_loss"] == result.best_val_loss


class TestCheckpoint:
    def _model(self, seed=0):
        cfg = tiny_config()
        return build_model(cfg, np.random.default_rng(seed)), cfg

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        enc = Tensor(rng.standard_normal((1, 16, 40)).astype(np.float32))
        dec = Tensor(rng.standard_normal((1, 8, 40)).astype(np.float32))
        with T.no_grad():
            before = model.forward(enc, dec).data
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        with T.no_grad():
            after = loaded.forward(enc, dec).data
        np.testing.assert_array_equal(before, after)

    def test_config_other_than_the_models_is_rejected(self, tmp_path):
        # dcf_only and the transformer have equal parameter counts, so a file
        # saved under the wrong config would reload as the other model
        model = build_model(tiny_config(ablation="dcf_only"))
        path = tmp_path / "ck.fgn"
        with pytest.raises(ConfigError, match=r"model's own config in \['ablation', 'variant'\]"):
            save_checkpoint(model, tiny_config(variant="transformer"), path)
        assert not path.exists()

    def test_corrupt_magic(self, tmp_path):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointMagicError):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_value_count_mismatch(self, tmp_path):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        raw = path.read_bytes()
        # drop one float32 value from the payload, keep the trailer intact
        path.write_bytes(raw[:-12] + raw[-8:])
        with pytest.raises(CheckpointLengthError, match="expected"):
            load_checkpoint(path)


    @pytest.mark.parametrize("corrupt", [
        lambda raw: raw[:9] + b"\xff" + raw[10:],                        # not UTF-8
        lambda raw: raw[:8] + b"[" + raw[9:],                             # not JSON
        lambda raw: raw.replace(b'"focalgatednet"', b'"focalgatedxet"'),  # bad value
        lambda raw: raw.replace(b'"relu"', b'"relx"'),                    # bad activation
        lambda raw: raw.replace(b'"h": 2,', b'"h": 0,'),                  # zero heads
    ], ids=["utf8", "json", "config", "activation", "zero-heads"])
    def test_corrupt_config_blob(self, tmp_path, corrupt):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CheckpointConfigError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("old,new,message", [
        (b'"d_ff": 16,', b'"d_ff": -1,', "d_ff must be >= 1, got -1"),
        (b'"n_encoder_layers": 1,', b'"n_encoder_layers": 0,', "n_encoder_layers must be >= 1"),
        (b'"n_decoder_layers": 1,', b'"n_decoder_layers": 0,', "n_decoder_layers must be >= 1"),
        (b'"d_ff": 16,', b'"d_ff": "",', "d_ff must be an integer, got ''"),
    ], ids=["d_ff", "n_encoder_layers", "n_decoder_layers", "d_ff-type"])
    def test_invalid_field_in_blob_is_named(self, tmp_path, old, new, message):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        raw = path.read_bytes()
        assert old in raw
        path.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(CheckpointConfigError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,message", [
        ("input_dim", 0, "input_dim must be >= 1, got 0"),
        ("target_channel", 40, "target_channel must be in [0, input_dim); got 40 vs 40"),
        ("target_channel", -1, "target_channel must be in [0, input_dim); got -1 vs 40"),
    ], ids=["input_dim", "target_channel-40", "target_channel-negative"])
    def test_input_fields_in_blob_are_checked(self, tmp_path, key, value, message):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", raw, 4)
        blob = json.dumps({**json.loads(raw[8:8 + blob_len]), key: value}).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + blob_len:])
        with pytest.raises(CheckpointConfigError, match=re.escape(message)):
            load_checkpoint(path)

    def test_deleted_keys_are_named(self, tmp_path):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack_from("<I", raw, 4)
        old = {**json.loads(raw[8:8 + blob_len]), "output_dim": 1, "glu_causal": True,
               "dlinear_ma_window": 25}
        blob = json.dumps(old, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + blob_len:])
        with pytest.raises(CheckpointConfigError,
                           match=r"\['dlinear_ma_window', 'glu_causal', 'output_dim'\]"):
            load_checkpoint(path)


    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        model, cfg = self._model()
        path = tmp_path / "ck.fgn"
        save_checkpoint(model, cfg, path)
        old = path.read_bytes()
        pack = struct.pack

        def pack_failing_at_trailer(fmt, *args):
            if fmt == "<Q":
                raise OSError("no space left on device")
            return pack(fmt, *args)

        # the header and every parameter are written before the trailer fails
        monkeypatch.setattr(training.struct, "pack", pack_failing_at_trailer)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(self._model(seed=1)[0], cfg, path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["ck.fgn"]

    def test_file_mode_is_plain_open_mode(self, tmp_path):
        model, cfg = self._model()
        save_checkpoint(model, cfg, tmp_path / "ck.fgn")
        with open(tmp_path / "plain.fgn", "wb"):
            pass
        assert stat.S_IMODE((tmp_path / "ck.fgn").stat().st_mode) == \
            stat.S_IMODE((tmp_path / "plain.fgn").stat().st_mode)


def test_dataset_loss_matches_manual(windows):
    model = build_model(tiny_config(variant="nlinear"), np.random.default_rng(2))
    ws = windows.train
    with T.no_grad():
        pred = model.forward(Tensor(ws.encoder), Tensor(ws.decoder)).data
    manual = float(np.mean([((pred[i] - ws.target_norm[i]) ** 2).mean()
                            for i in range(len(ws))]))
    assert dataset_loss(model, ws) == pytest.approx(manual, rel=1e-6)


class TestAdamInPlace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_allocating_update(self, rng, dtype):
        shapes = [(6, 5), (5,), (3, 2, 4)]
        mine = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True)
                for s in shapes]
        ref = [Tensor(p.data.copy(), requires_grad=True) for p in mine]
        s_mine, s_ref = OptimizerState(), OptimizerState()
        for step in range(6):
            for p, q in zip(mine, ref):
                # Gradients over twelve decades, so rounding differences would show.
                g = rng.standard_normal(p.shape) * 10.0 ** rng.integers(-9, 3, p.shape)
                p.grad, q.grad = g.astype(dtype), g.astype(dtype)
            adam_step(mine, s_mine, lr=1e-3 * (step + 1))
            adam_step_allocating(ref, s_ref, lr=1e-3 * (step + 1))
            for p, q in zip(mine, ref):
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, q.data)
            for a, b in zip(s_mine.m + s_mine.v, s_ref.m + s_ref.v):
                assert np.array_equal(a, b)
