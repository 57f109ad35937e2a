import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import fgn.training as training
from fgn.data import make_windows, synth_gait
from fgn.errors import ShapeError
from fgn.metrics import (ABLATION_VARIANTS, MetricsReport, bench_inference,
                         compute_metrics, evaluate, render_ablation,
                         run_ablation)
from fgn.models import ModelConfig, build_model
from fgn.tensor import Tensor
from fgn.training import (TrainRunConfig, dataset_loss, predict, split_validation,
                          train_restarts)

from oracles import metrics_reference


def toy_config(**kw):
    base = dict(n_encoder_layers=1, n_decoder_layers=1, d_model=16, d_ff=32,
                h=2, lookback=8, label_len=4, horizon=4, dropout_rate=0.0)
    base.update(kw)
    return ModelConfig(**base)


class TestComputeMetrics:
    def test_perfect_prediction(self, rng):
        y = rng.standard_normal(20)
        rep = compute_metrics(y, y)
        assert (rep.mae, rep.rmse, rep.mape) == (0.0, 0.0, 0.0)
        assert rep.r2 == 100.0

    def test_mean_predictor_r2_zero(self, rng):
        y = rng.standard_normal(50)
        rep = compute_metrics(np.full(50, y.mean()), y)
        assert rep.r2 == pytest.approx(0.0, abs=1e-9)

    def test_constant_truth_sentinel(self):
        rep = compute_metrics([1.0, 3.0], [2.0, 2.0])
        assert rep.mae == 1.0
        assert rep.rmse == 1.0
        assert rep.mape == 0.5
        assert rep.r2 is None

    def test_matches_reference_on_1000_random_cases(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 1000))
            pred = rng.standard_normal(n) * rng.uniform(0.1, 50)
            truth = rng.standard_normal(n) * rng.uniform(0.1, 50)
            rep = compute_metrics(pred, truth)
            mae, rmse, mape, r2 = metrics_reference(list(pred), list(truth))
            assert rep.mae == pytest.approx(mae, abs=1e-9)
            assert rep.rmse == pytest.approx(rmse, abs=1e-9)
            assert rep.mape == pytest.approx(mape, abs=1e-9)
            if r2 is None:
                assert rep.r2 is None
            else:
                assert rep.r2 == pytest.approx(r2, rel=1e-9, abs=1e-9)
            assert rep.rmse >= rep.mae >= 0.0
            assert (rep.r2 == 100.0) == bool(np.array_equal(pred, truth))

    def test_negative_r2_possible(self):
        rep = compute_metrics([10.0, -10.0], [1.0, 2.0])
        assert rep.r2 is not None and rep.r2 < 0.0

    def test_mape_guard_near_zero_truth(self):
        # |e|/max(|y|, 0.01): truth 0 divides by the guard, not by zero
        rep = compute_metrics([0.005], [0.0])
        assert np.isfinite(rep.mape)
        assert rep.mape == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            compute_metrics([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            compute_metrics([], [])


class TestRendering:
    def test_table_row_fixture(self):
        rep = MetricsReport(horizon_ms=80, mae=1.115, rmse=1.584, mape=0.119,
                            r2=99.41, n_samples=100)
        row = rep.row("FocalGatedNet")
        assert "FocalGatedNet" in row
        assert "80 ms" in row
        for fragment in ("MAE 1.115", "RMSE 1.584", "MAPE 0.119", "R2 99.41"):
            assert fragment in row

    def test_sentinel_renders_as_undefined(self):
        rep = MetricsReport(1, 0.0, 0.0, 0.0, None, 1)
        assert "undefined" in rep.row("x")

    def test_to_dict_documents_guard_and_units(self):
        d = MetricsReport(1, 0.0, 0.0, 0.0, None, 1).to_dict()
        assert d["mape_guard_deg"] == 1e-2
        assert d["mape_units"] == "fraction"


@pytest.fixture(scope="module")
def windows():
    table = synth_gait(3, cycle_ms=400.0, noise_std=0.02, seed=6)
    return make_windows(table, lookback=8, label_len=4, horizon=4, stride=2)


class _OracleModel:
    """Replays the normalized targets in evaluation order."""

    def __init__(self, target_norm):
        self._target = target_norm
        self._cursor = 0

    def forward(self, enc, dec):
        n = enc.shape[0]
        out = self._target[self._cursor:self._cursor + n]
        self._cursor += n
        return Tensor(out)


class _ZeroModel:
    def __init__(self, horizon):
        self.horizon = horizon

    def forward(self, enc, dec):
        return Tensor(np.zeros((enc.shape[0], self.horizon, 1)))


class TestEvaluate:
    def test_oracle_model_scores_perfectly(self, windows):
        rep = evaluate(_OracleModel(windows.test.target_norm), windows.test,
                       windows.stats)
        assert rep.mae == pytest.approx(0.0, abs=1e-4)
        assert rep.r2 == pytest.approx(100.0, abs=1e-4)

    def test_constant_zero_model_beaten_by_mean(self, windows):
        # predicting the (denormalized) train mean everywhere is close to the
        # mean predictor; R2 near zero or below, never near 100
        rep = evaluate(_ZeroModel(4), windows.test, windows.stats)
        assert rep.r2 is not None and rep.r2 < 50.0

    def test_nlinear_zero_init_on_constant_series(self):
        n = 200
        cols = {"gon_knee_angle": np.sin(np.arange(n) * 0.1) + 3,
                "sens_01": np.cos(np.arange(n) * 0.2),
                "knee_angle": np.full(n, 5.0)}
        # constant target: normalization would reject a flat target channel,
        # so score raw predictions directly instead
        cfg = toy_config(variant="nlinear", input_dim=1)
        model = build_model(cfg, np.random.default_rng(0))
        for _, p in model.parameters():
            p.data[:] = 0.0
        x = np.full((3, 8, 1), 5.0, dtype=np.float32)
        pred = model.forward(Tensor(x)).data
        rep = compute_metrics(pred.ravel(), np.full(pred.size, 5.0))
        assert rep.mae == 0.0

    def test_empty_test_set_rejected(self, windows):
        empty = type(windows.test)(windows.test.encoder[:0],
                                   windows.test.decoder[:0],
                                   windows.test.target_norm[:0],
                                   windows.test.target_raw[:0],
                                   windows.test.start_rows[:0])
        with pytest.raises(ShapeError):
            evaluate(_ZeroModel(4), empty, windows.stats)

    def test_pooled_metrics_match_manual(self, windows):
        model = build_model(toy_config(variant="nlinear",
                                       target_channel=windows.target_channel),
                            np.random.default_rng(1))
        rep = evaluate(model, windows.test, windows.stats)
        from fgn import tensor as T
        with T.no_grad():
            pred = model.forward(Tensor(windows.test.encoder),
                                 Tensor(windows.test.decoder)).data
        pred_deg = pred * windows.stats.std[-1] + windows.stats.mean[-1]
        manual = np.abs(pred_deg.ravel() - windows.test.target_raw.ravel()).mean()
        assert rep.mae == pytest.approx(manual, rel=1e-6)
        assert rep.n_samples == windows.test.target_raw.size


def _head(ws, n):
    """The first ``n`` windows of ``ws``."""
    return type(ws)(*(getattr(ws, f.name)[:n] for f in dataclasses.fields(ws)))


class TestEvaluationBatch:
    """Evaluation forecasts ``EVAL_BATCH_SIZE`` windows at a time; no result
    depends on that size, and no forward holds more than one batch."""

    @pytest.fixture(scope="class")
    def data(self):
        table = synth_gait(1, cycle_ms=400.0, noise_std=0.02, seed=8)
        return make_windows(table, lookback=8, label_len=4, horizon=4, stride=1)

    def test_no_larger_than_the_default_training_batch(self):
        assert training.EVAL_BATCH_SIZE <= TrainRunConfig().batch_size

    def test_results_do_not_depend_on_the_batch_size(self, data, monkeypatch):
        model = build_model(toy_config(target_channel=data.target_channel),
                            np.random.default_rng(3))
        assert len(data.train) > 256 and len(data.test) > 32
        results = []
        for size in (1, 7, 32, 256):
            monkeypatch.setattr(training, "EVAL_BATCH_SIZE", size)
            loss = dataset_loss(model, data.train)
            report = evaluate(model, data.train, data.stats).to_dict()
            results.append((loss.hex(), json.dumps(report), predict(model, data.test).tobytes()))
        assert results[1:] == results[:1] * 3

    def test_empty_window_set(self, data):
        model = build_model(toy_config(), np.random.default_rng(3))
        empty = _head(data.test, 0)
        assert dataset_loss(model, empty) == 0.0

    def test_peak_memory_is_one_batch(self):
        # The benchmark's train-small test shape, one layer each: a forward's
        # peak is one layer's activations, whatever the depth.
        batch = training.EVAL_BATCH_SIZE
        lookback, label_len, horizon = 128, 64, 20
        rows = int(np.ceil((4 * batch + lookback + horizon) / 0.8)) + 1
        data = make_windows(synth_gait(1, cycle_ms=float(rows), seed=9),
                            lookback, label_len, horizon)
        cfg = ModelConfig(n_encoder_layers=1, n_decoder_layers=1, d_model=64, h=4, d_ff=128,
                          lookback=lookback, label_len=label_len, horizon=horizon,
                          target_channel=data.target_channel)
        model = build_model(cfg, np.random.default_rng(0))
        evaluate(model, _head(data.train, batch), data.stats)   # warm-up, untraced
        peaks = []
        tracemalloc.start()
        try:
            for n in (batch, 4 * batch):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                evaluate(model, _head(data.train, n), data.stats)
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], [f"{p / 2**20:.1f} MB" for p in peaks]


class TestBench:
    def _batch(self, rng):
        return (Tensor(rng.standard_normal((2, 8, 40)).astype(np.float32)),
                Tensor(rng.standard_normal((2, 4, 40)).astype(np.float32)))

    def test_single_trial_percentiles_collapse(self, rng):
        model = build_model(toy_config(variant="nlinear"), np.random.default_rng(0))
        enc, dec = self._batch(rng)
        stats = bench_inference(model, enc, dec, n_trials=1)
        assert stats["p50"] == stats["mean"] == stats["p95"]

    def test_timings_positive_finite(self, rng):
        model = build_model(toy_config(), np.random.default_rng(0))
        enc, dec = self._batch(rng)
        stats = bench_inference(model, enc, dec, n_trials=5)
        for key in ("mean", "p50", "p95"):
            assert np.isfinite(stats[key]) and stats[key] > 0.0

    def test_dlinear_faster_than_full_model(self, rng):
        enc, dec = self._batch(rng)
        slow = build_model(toy_config(), np.random.default_rng(0))
        fast = build_model(toy_config(variant="dlinear"), np.random.default_rng(0))
        t_slow = bench_inference(slow, enc, dec, n_trials=20)
        t_fast = bench_inference(fast, enc, dec, n_trials=20)
        assert t_fast["p50"] < t_slow["p50"]

    def test_zero_trials_rejected(self, rng):
        model = build_model(toy_config(variant="nlinear"), np.random.default_rng(0))
        enc, dec = self._batch(rng)
        with pytest.raises(ShapeError):
            bench_inference(model, enc, dec, n_trials=0)


@pytest.fixture(scope="module")
def grid():
    table = synth_gait(3, cycle_ms=400.0, noise_std=0.02, seed=11)
    cfg = toy_config()
    run = TrainRunConfig(max_epochs=2, patience=1, batch_size=16, seed=5)
    return run_ablation(cfg.to_dict(), table, horizons=(1, 2), run_config=run, stride=4)


class TestAblation:
    def test_grid_shape(self, grid):
        assert len(grid) == 3 * 2
        assert {r["variant"] for r in grid} == set(ABLATION_VARIANTS)
        assert {r["horizon_ms"] for r in grid} == {1, 2}

    def test_rows_have_finite_errors(self, grid):
        for r in grid:
            assert np.isfinite(r["mae"]) and np.isfinite(r["rmse"])
            assert r["rmse"] >= r["mae"] >= 0.0

    def test_seed_reproducible(self, grid):
        table = synth_gait(3, cycle_ms=400.0, noise_std=0.02, seed=11)
        run = TrainRunConfig(max_epochs=2, patience=1, batch_size=16, seed=5)
        again = run_ablation(toy_config().to_dict(), table, horizons=(1, 2),
                             run_config=run, stride=4)
        assert again == grid

    def test_render_marks_best(self, grid):
        text = render_ablation(grid)
        lines = text.splitlines()
        assert len(lines) == 3 + 2        # header, units, rule, one per horizon
        assert text.count("**") == 2 * 2  # one bold cell per horizon row
        for variant in ABLATION_VARIANTS:
            assert variant in lines[0]

    def test_restarts_keep_each_cells_best_run(self):
        table = synth_gait(3, cycle_ms=400.0, noise_std=0.02, seed=11)
        run = TrainRunConfig(max_epochs=2, patience=1, batch_size=16, seed=5, restarts=2)
        rows = run_ablation(toy_config().to_dict(), table, horizons=(1,), run_config=run,
                            stride=4)
        data = make_windows(table, lookback=8, label_len=4, horizon=1, stride=4)
        tr, val = split_validation(data.train)
        for row in rows:
            cfg = toy_config(ablation=row["variant"], horizon=1,
                             target_channel=data.target_channel)
            best, _ = train_restarts(cfg, tr, val, run)
            report = evaluate(best.model, data.test, data.stats)
            assert (row["mae"], row["rmse"]) == (report.mae, report.rmse)

    def test_cells_take_input_dim_from_the_data(self, monkeypatch):
        table = synth_gait(3, cycle_ms=400.0, noise_std=0.02, seed=11)
        run = TrainRunConfig(max_epochs=2, patience=1, batch_size=16, seed=5)
        base = toy_config().to_dict()
        del base["input_dim"], base["target_channel"]
        widths, real_train = [], training.train

        def spy(model, train_set, *args, **kwargs):
            widths.append((model.config.input_dim, train_set.encoder.shape[-1]))
            return real_train(model, train_set, *args, **kwargs)

        monkeypatch.setattr(training, "train", spy)
        rows = run_ablation(base, table, horizons=(1, 2), run_config=run, stride=4,
                            include_target_history=False)
        assert len(rows) == 3 * 2
        assert widths == [(39, 39)] * len(rows)
