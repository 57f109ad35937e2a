"""Acceptance suite: one test per release criterion, run with ``pytest -v``
so each criterion reports exactly one PASSED/FAILED line.

Criterion 7 trains real models and dominates the runtime (a few minutes);
everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from fgn import tensor as T
from fgn.attention import DCFAttention, dcf_scale
from fgn.data import make_windows, synth_gait
from fgn.errors import (CheckpointLengthError, CheckpointMagicError,
                        CheckpointTruncatedError)
from fgn.glu import GatedConvUnit
from fgn.metrics import compute_metrics, evaluate, run_ablation
from fgn.models import DLinear, ModelConfig, NLinear, build_model
from fgn.tensor import Tensor
from fgn.training import (OptimizerState, TrainRunConfig, adam_step,
                          load_checkpoint, mse_loss, save_checkpoint,
                          split_validation, train)

from conftest import check_gradient
from oracles import causal_mask, dcf_reference, metrics_reference


def toy_config(**kw):
    """The d_model=16 toy instance every desk-scale criterion runs on."""
    base = dict(n_encoder_layers=1, n_decoder_layers=1, d_model=16, d_ff=32,
                h=2, lookback=8, label_len=4, horizon=4, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


def _passed(num, text):
    print(f"criterion {num}: PASS — {text}")


# --------------------------------------------------------------------------
# 1. Gradient integrity
# --------------------------------------------------------------------------

def test_criterion_01_gradient_integrity(rng):
    started = time.time()

    # Every differentiable primitive against central differences (rel 1e-5).
    def sq(t):
        return t * t

    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 2.0
    m2 = rng.standard_normal((4, 5))
    seq = rng.standard_normal((2, 6, 3))
    kern = rng.standard_normal((3, 3, 3)) * 0.3
    gain = np.ones(4) + 0.1 * rng.standard_normal(4)
    offset = 0.1 * rng.standard_normal(4)
    ffn = [seq, m2[:3, :4], offset, m2[:4, :3], offset[:3]]
    primitives = [
        ("add", lambda x, y: sq(T.add(x, y)).sum(), [a, b]),
        ("sub", lambda x, y: sq(T.sub(x, y)).sum(), [a, b]),
        ("mul", lambda x, y: T.mul(x, y).sum(), [a, b]),
        ("matmul", lambda x, y: sq(T.matmul(x, y)).sum(), [a, m2]),
        ("project_heads", lambda x, y: sq(T.project_heads(x, y, 2)).sum(),
         [seq, m2[:3, :4]]),
        ("reshape", lambda x: sq(T.reshape(x, 2, 6)).sum(), [a]),
        ("transpose", lambda x: (T.transpose(x, 1, 0) * Tensor(m2[:, :3])).sum(), [a]),
        ("concatenate", lambda x, y: sq(T.concatenate([x, y], axis=0)).sum(), [a, b]),
        ("getitem", lambda x: sq(x[1:, ::2]).sum(), [a]),
        ("reduce_sum", lambda x: sq(T.reduce_sum(x, axis=1)).sum(), [a]),
        ("reduce_mean", lambda x: sq(T.reduce_mean(x, axis=0)).sum(), [a]),
        ("sigmoid", lambda x: T.sigmoid(x).sum(), [a]),
        ("feed_forward relu", lambda *t: sq(T.feed_forward(*t, "relu")).sum(), ffn),
        ("feed_forward gelu", lambda *t: sq(T.feed_forward(*t, "gelu")).sum(), ffn),
        ("conv1d", lambda x, w: sq(T.conv1d(x, w, causal_padding=True)).sum(),
         [seq, kern]),
        ("layer_norm", lambda x, g, o: sq(T.layer_norm(x, g, o)).sum(),
         [a, gain, offset]),
        ("dropout", lambda x: T.dropout(x, 0.5, True,
                                        np.random.default_rng(7)).sum(), [a]),
    ]
    for name, fn, arrays in primitives:
        check_gradient(fn, arrays, rtol=1e-5)

    # Full toy model: every parameter element against central differences
    # (step 1e-4, double precision, dropout off), rel. error <= 1e-3.
    cfg = toy_config()
    model = build_model(cfg, np.random.default_rng(0))
    model.to_dtype(np.float64)
    data_rng = np.random.default_rng(11)
    enc = Tensor(data_rng.standard_normal((2, 8, 40)))
    dec = Tensor(data_rng.standard_normal((2, 8, 40)))
    tgt = Tensor(data_rng.standard_normal((2, 4, 1)))

    loss = mse_loss(model.forward(enc, dec), tgt)
    T.backward(loss)

    def loss_value():
        with T.no_grad():
            return mse_loss(model.forward(enc, dec), tgt).item()

    step = 1e-4
    worst = 0.0
    for name, p in model.parameters():
        flat, gflat = p.data.ravel(), p.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_value()
            flat[i] = orig - step
            lo = loss_value()
            flat[i] = orig
            fd = (hi - lo) / (2 * step)
            rel = abs(gflat[i] - fd) / max(abs(fd), 1e-4)
            worst = max(worst, rel)
            assert rel <= 1e-3, f"{name}[{i}]: autodiff {gflat[i]} vs fd {fd}"

    elapsed = time.time() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _passed(1, f"all primitives rel<=1e-5; full model worst rel {worst:.2e} "
               f"over every parameter element in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. DCF oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_02_dcf_oracle(rng):
    assert dcf_scale(512, 8) == 1.0 / 64.0          # exact: sqrt(4096) = 64
    for trial in range(10):
        cfg = ModelConfig(d_model=2, h=1, dropout_rate=0.0)
        attn = DCFAttention(np.random.default_rng(trial), cfg)
        attn.to_dtype(np.float64)
        x = rng.standard_normal((1, 2, 2))
        causal = causal_mask(2).tolist()
        for masked in (False, True):
            with T.no_grad():
                mine = attn(Tensor(x), Tensor(x), masked).data
            ref = dcf_reference(x, x, attn.w_q.data, attn.w_k.data,
                                attn.w_v.data, attn.w_o.data, h=1,
                                mask=causal if masked else None, focus_mask=causal)
            np.testing.assert_allclose(mine, ref, atol=1e-6)
    _passed(2, "B=1,L=2,d=2,h=1 matches the scalar step-by-step reference "
               "to 1e-6 (masked and unmasked); scale 1/64 exact at (512,8)")


# --------------------------------------------------------------------------
# 3. Causality
# --------------------------------------------------------------------------

def test_criterion_03_causality():
    rng = np.random.default_rng(42)
    L, d = 6, 8
    cfg = ModelConfig(d_model=d, h=2, dropout_rate=0.0, glu_k=3)
    attn = DCFAttention(np.random.default_rng(0), cfg)
    glu = GatedConvUnit(np.random.default_rng(1), cfg)
    for trial in range(100):
        t = int(rng.integers(0, L - 1))
        x = rng.standard_normal((1, L, d)).astype(np.float32)
        x2 = x.copy()
        x2[:, t + 1:, :] += rng.standard_normal((1, L - t - 1, d)).astype(np.float32)
        with T.no_grad():
            a1 = attn(Tensor(x), Tensor(x), True).data
            a2 = attn(Tensor(x2), Tensor(x2), True).data
            g1 = glu(Tensor(x)).data
            g2 = glu(Tensor(x2)).data
        assert np.array_equal(a1[:, :t + 1], a2[:, :t + 1])
        assert np.array_equal(g1[:, :t + 1], g2[:, :t + 1])
    _passed(3, "decoder self-attention and causal GLU bit-invariant to "
               "future perturbations, 100 random trials")


# --------------------------------------------------------------------------
# 4. Literal masking mode
# --------------------------------------------------------------------------

def test_criterion_04_literal_mask(rng):
    # The attention core with k and v the identity and scale 1: the scores
    # are q itself and the context is the weight matrix.
    eye = Tensor(np.eye(4))
    blocked = causal_mask(4) == 0
    for trial in range(50):
        scores = Tensor(rng.standard_normal((1, 1, 4, 4)))
        a = T.attend(scores, eye, eye, 1.0, causal=True, literal=True).data
        assert (a[..., blocked] == 0.0).all()
        assert (a.sum(axis=-1) <= 1.0 + 1e-12).all()
    _passed(4, "post-softmax mask: exact zeros at blocked entries, row sums "
               "<= 1 without renormalization, 50 random L=4 instances")


# --------------------------------------------------------------------------
# 5. GLU reductions
# --------------------------------------------------------------------------

def test_criterion_05_glu_reductions(rng):
    glu = GatedConvUnit(np.random.default_rng(3), ModelConfig(d_model=3, h=1, glu_k=3))
    glu.w_gate.data[:] = 0.0
    glu.b_gate.data[:] = 0.0
    x = Tensor(rng.standard_normal((2, 5, 3)))
    lin = T.conv1d(x, glu.w_lin, glu.b_lin, causal_padding=True)
    np.testing.assert_allclose(glu(x).data, 0.5 * lin.data, atol=1e-6)

    glu1 = GatedConvUnit(np.random.default_rng(4), ModelConfig(d_model=3, h=1, glu_k=1))
    xv = rng.standard_normal((2, 4, 3))
    wg, bg = glu1.w_gate.data[0], glu1.b_gate.data
    wh, bh = glu1.w_lin.data[0], glu1.b_lin.data
    dense = (1.0 / (1.0 + np.exp(-(xv @ wg + bg)))) * (xv @ wh + bh)
    np.testing.assert_allclose(glu1(Tensor(xv)).data, dense, atol=1e-6)
    _passed(5, "zero gate branch gives 0.5*conv_h within 1e-6; k=1 matches "
               "the dense gated oracle within 1e-6")


# --------------------------------------------------------------------------
# 6. Baseline closed forms
# --------------------------------------------------------------------------

def test_criterion_06_baseline_closed_forms(rng):
    started = time.time()
    cfg = toy_config(variant="nlinear", input_dim=1)
    nlin = NLinear(np.random.default_rng(0), cfg)
    for _, p in nlin.parameters():
        p.data[:] = 0.0
    x = rng.standard_normal((3, 8, 1))
    np.testing.assert_array_equal(nlin.forecast(Tensor(x)).data,
                                  np.tile(x[:, -1:, :], (1, 4, 1)))

    dlin = DLinear(np.random.default_rng(0), toy_config(variant="dlinear",
                                                        input_dim=1))
    const = Tensor(np.full((2, 8, 1), 3.5))
    trend, seasonal = dlin.decompose(const)
    np.testing.assert_array_equal(trend.data, const.data)
    np.testing.assert_array_equal(seasonal.data, 0.0)

    # both baselines learn to extrapolate the line y = t
    t = np.arange(64 + 12) * 0.01
    xs = np.stack([t[i:i + 8] for i in range(64)])[..., None]
    ys = np.stack([t[i + 8:i + 12] for i in range(64)])[..., None]
    for variant in ("dlinear", "nlinear"):
        model = build_model(toy_config(variant=variant, input_dim=1),
                            np.random.default_rng(1))
        params = [p for _, p in model.parameters()]
        state = OptimizerState()
        for _ in range(800):
            model.zero_grad()
            loss = mse_loss(model.forecast(Tensor(xs)), Tensor(ys))
            T.backward(loss)
            adam_step(params, state, 0.01)
        err = np.abs(model.forecast(Tensor(xs)).data - ys).max()
        assert err < 1e-3, f"{variant}: {err}"
    elapsed = time.time() - started
    assert elapsed < 60.0
    _passed(6, f"NLinear/DLinear closed forms exact; line extrapolation "
               f"error < 1e-3 after training; {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 7. End-to-end learning
# --------------------------------------------------------------------------

def _spearman(xs, ys):
    rx = np.argsort(np.argsort(np.asarray(xs)))
    ry = np.argsort(np.argsort(np.asarray(ys)))
    return float(np.corrcoef(rx, ry)[0, 1])


@pytest.mark.slow
def test_criterion_07_end_to_end_learning():
    started = time.time()
    table = synth_gait(60, noise_std=0.05, seed=1)
    horizons = (1, 20, 40, 60, 80, 100)
    seeds = (0, 1, 2)
    epochs_used = 4                     # <= 10, calibrated before freezing
    maes = {}
    r2 = {}
    for hz in horizons:
        data = make_windows(table, lookback=32, label_len=16, horizon=hz,
                            stride=40)
        for seed in seeds:
            cfg = toy_config(lookback=32, label_len=16, horizon=hz,
                             target_channel=data.target_channel)
            model = build_model(cfg, np.random.default_rng(seed))
            tr, val = split_validation(data.train)
            run = TrainRunConfig(max_epochs=epochs_used, patience=3,
                                 batch_size=32, seed=seed, base_lr=3e-3)
            train(model, tr, val, run)
            rep = evaluate(model, data.test, data.stats)
            maes[(seed, hz)] = rep.mae
            r2[(seed, hz)] = rep.r2

    assert r2[(0, 1)] >= 95.0, f"H=1 R2 {r2[(0, 1)]:.2f}"
    assert r2[(0, 20)] >= 85.0, f"H=20 R2 {r2[(0, 20)]:.2f}"
    corrs = [_spearman(horizons, [maes[(s, h)] for h in horizons])
             for s in seeds]
    assert min(corrs) > 0.8, f"rank correlations {corrs}"
    elapsed = time.time() - started
    assert elapsed < 900.0, f"end-to-end run took {elapsed:.0f}s"
    _passed(7, f"R2 {r2[(0, 1)]:.2f}% at H=1, {r2[(0, 20)]:.2f}% at H=20 "
               f"({epochs_used} epochs); MAE-vs-horizon rank corr "
               f"{min(corrs):.2f} across 3 seeds; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. Ablation harness
# --------------------------------------------------------------------------

def test_criterion_08_ablation_grid():
    table = synth_gait(3, noise_std=0.02, seed=8)
    cfg = toy_config()
    run = TrainRunConfig(max_epochs=2, patience=1, batch_size=16, seed=5)
    horizons = (1, 20, 40, 60, 80, 100)

    def grid():
        return run_ablation(cfg, table, horizons=horizons, run_config=run,
                            stride=8)

    first, second = grid(), grid()
    assert len(first) == 3 * 6
    assert {(r["variant"], r["horizon_ms"]) for r in first} == {
        (v, h) for v in ("glu_dcf", "dcf_only", "glu_only") for h in horizons}
    assert first == second                       # bit-for-bit, no timing fields
    _passed(8, "full 3x6 grid, bit-identical across two seeded runs")


# --------------------------------------------------------------------------
# 9. Metrics oracle
# --------------------------------------------------------------------------

def test_criterion_09_metrics_oracle():
    rng = np.random.default_rng(99)
    for case in range(1000):
        n = int(rng.integers(1, 500))
        pred = rng.standard_normal(n) * rng.uniform(0.1, 30)
        truth = rng.standard_normal(n) * rng.uniform(0.1, 30)
        rep = compute_metrics(pred, truth)
        mae, rmse, mape, r2 = metrics_reference(list(pred), list(truth))
        assert abs(rep.mae - mae) <= 1e-9
        assert abs(rep.rmse - rmse) <= 1e-9
        assert abs(rep.mape - mape) <= 1e-9
        if r2 is None:
            assert rep.r2 is None
        else:
            assert abs(rep.r2 - r2) <= 1e-9 * max(1.0, abs(r2))
        assert rep.rmse >= rep.mae
        assert (rep.r2 == 100.0) == bool(np.array_equal(pred, truth))
    exact = compute_metrics([1.0, 2.0], [1.0, 2.0])
    assert exact.r2 == 100.0
    _passed(9, "1000 random cases match the brute-force reference to 1e-9; "
               "RMSE>=MAE on all; R2=100 iff exact")


# --------------------------------------------------------------------------
# 10. Persistence
# --------------------------------------------------------------------------

def test_criterion_10_persistence(tmp_path, rng):
    cfg = toy_config()
    model = build_model(cfg, np.random.default_rng(0))
    path = tmp_path / "model.fgn"
    save_checkpoint(model, cfg, path)
    enc = Tensor(rng.standard_normal((1, 8, 40)).astype(np.float32))
    dec = Tensor(rng.standard_normal((1, 8, 40)).astype(np.float32))
    with T.no_grad():
        before = model.forward(enc, dec).data
    loaded, cfg2 = load_checkpoint(path)
    assert cfg2 == cfg
    with T.no_grad():
        after = loaded.forward(enc, dec).data
    np.testing.assert_array_equal(before, after)

    raw = path.read_bytes()
    bad_magic = tmp_path / "magic.fgn"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(bad_magic)
    truncated = tmp_path / "short.fgn"
    truncated.write_bytes(raw[:6])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(truncated)
    off_by_one = tmp_path / "count.fgn"
    off_by_one.write_bytes(raw[:-12] + raw[-8:])   # drop one float, keep trailer
    with pytest.raises(CheckpointLengthError):
        load_checkpoint(off_by_one)
    _passed(10, "round-trip bit-exact; magic/truncation/length corruption "
                "raise three distinct errors")


# --------------------------------------------------------------------------
# 11. Determinism
# --------------------------------------------------------------------------

def test_criterion_11_determinism():
    table = synth_gait(2, noise_std=0.02, seed=4)
    data = make_windows(table, lookback=8, label_len=4, horizon=4, stride=4)

    def run():
        cfg = toy_config(target_channel=data.target_channel)
        model = build_model(cfg, np.random.default_rng(3))
        tr, val = split_validation(data.train)
        res = train(model, tr, val,
                    TrainRunConfig(max_epochs=3, patience=2, batch_size=16,
                                   seed=7))
        report = evaluate(model, data.test, data.stats).to_dict()
        return res.trace, report

    trace1, report1 = run()
    trace2, report2 = run()
    assert trace1 == trace2
    assert report1 == report2
    _passed(11, "identical seed/config/data give identical loss trace and "
                "evaluation report across two runs")
