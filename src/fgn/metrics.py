"""Metric suite (MAE, RMSE, MAPE, R-squared in percent), evaluation, the fit
path shared by ``fgn train`` and the ablation grid, and inference timing.

MAPE guard: the knee angle crosses zero, so each relative error divides by
max(|truth|, 0.01 degrees). R-squared is undefined for constant truth and
reported as a sentinel (None), never a number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .data import (NormalizationStats, RecordingTable, WindowSet, make_windows,
                   target_history_name)
from .errors import ConfigError, DataError, ShapeError
from .layers import Module
from .models import ABLATIONS, LINEAR_VARIANTS, ModelConfig
from .tensor import Tensor
from .training import TrainResult, TrainRunConfig, predict, split_validation, train_restarts

MAPE_GUARD_DEG = 1e-2
DEFAULT_HORIZONS = (1, 20, 40, 60, 80, 100)
ABLATION_VARIANTS = tuple(ABLATIONS)
BENCH_WARMUP = 10              # untimed forwards before bench_inference's trials


@dataclass
class MetricsReport:
    horizon_ms: int
    mae: float
    rmse: float
    mape: float
    r2: Optional[float]          # percent; None when truth is constant (SST=0)
    n_samples: int

    def to_dict(self) -> dict:
        return {"horizon_ms": self.horizon_ms, "mae": self.mae, "rmse": self.rmse,
                "mape": self.mape, "r2": self.r2, "n_samples": self.n_samples,
                "mape_guard_deg": MAPE_GUARD_DEG, "mape_units": "fraction"}

    def row(self, label: str) -> str:
        r2 = f"{self.r2:.2f}" if self.r2 is not None else "undefined"
        return (f"{label:<16} {self.horizon_ms:>4} ms  MAE {self.mae:.3f}  "
                f"RMSE {self.rmse:.3f}  MAPE {self.mape:.3f}  R2 {r2}")


def compute_metrics(pred: Sequence[float], truth: Sequence[float],
                    horizon_ms: int = 0) -> MetricsReport:
    """Pooled error metrics over paired prediction/truth values in degrees."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(truth, dtype=np.float64).ravel()
    if p.shape != y.shape or p.size == 0:
        raise ShapeError(f"metric inputs need equal nonzero lengths, got "
                         f"{p.shape} vs {y.shape}")
    err = p - y
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mape = float(np.mean(np.abs(err) / np.maximum(np.abs(y), MAPE_GUARD_DEG)))
    sse = float(np.sum(err ** 2))
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = None if sst == 0.0 else 100.0 * (1.0 - sse / sst)
    return MetricsReport(horizon_ms, mae, rmse, mape, r2, p.size)


def evaluate(model: Module, test_set: WindowSet, stats: NormalizationStats) -> MetricsReport:
    """Denormalize predictions with the training stats and score them in
    degrees against the raw targets, pooled over every horizon step."""
    if len(test_set) == 0:
        raise ShapeError("empty test set")
    t_mean, t_std = stats.mean[-1], stats.std[-1]
    pred_deg = predict(model, test_set) * t_std + t_mean
    horizon = test_set.target_raw.shape[1]
    return compute_metrics(pred_deg.ravel(), test_set.target_raw.ravel(),
                           horizon_ms=horizon)


def bench_inference(model: Module, enc: Tensor, dec: Tensor, n_trials: int = 100) -> dict:
    """Wall-clock milliseconds per forward pass after ``BENCH_WARMUP`` untimed ones."""
    if n_trials < 1:
        raise ShapeError(f"n_trials must be >= 1, got {n_trials}")
    with T.no_grad():
        for _ in range(BENCH_WARMUP):
            model.forward(enc, dec)
        samples = []
        for _ in range(n_trials):
            t0 = time.perf_counter()
            model.forward(enc, dec)
            samples.append((time.perf_counter() - t0) * 1000.0)
    arr = np.asarray(samples)
    return {"mean": float(arr.mean()), "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)), "n_trials": n_trials}


def fit(config: dict, table: RecordingTable, run_config: TrainRunConfig, **window_kwargs
        ) -> tuple[TrainResult, dict, MetricsReport]:
    """Cut the table's windows, fit ``train_restarts`` on them and score the
    best run on the test set; ``result.model.config`` is the config it built.

    ``config`` holds the model keys a run sets. Its ``lookback``,
    ``label_len`` and ``horizon``, checked as ``ModelConfig`` checks them,
    cut the windows; ``window_kwargs`` go to ``make_windows``. ``input_dim``
    and ``target_channel`` come from the windows, and a value ``config`` sets
    for either must agree. Windows without the target's own history give no
    ``target_channel``; a variant that forecasts from it then raises
    ``ConfigError``. A test region too short for one window raises
    ``DataError`` before any training."""
    lengths = ModelConfig.from_dict({k: v for k, v in config.items()
                                     if k not in ("input_dim", "target_channel")})
    data = make_windows(table, lengths.lookback, lengths.label_len, lengths.horizon,
                        **window_kwargs)
    derived = {"input_dim": len(data.feature_names)}
    if data.target_channel is not None:
        derived["target_channel"] = data.target_channel
    for key, value in derived.items():
        if key in config and config[key] != value:
            raise ConfigError(f"model.{key} is {config[key]!r} but the data gives {value!r}")
    cfg = ModelConfig.from_dict({**config, **derived})
    if data.target_channel is None and cfg.variant in LINEAR_VARIANTS:
        raise ConfigError(
            f"variant {cfg.variant!r} forecasts from the target's own history, but "
            f"column {target_history_name(data.target_name)!r} is not among the features")
    if len(data.test) == 0:
        raise DataError(f"the test region has {data.test_rows} rows, fewer than one window's "
                        f"lookback + horizon = {cfg.lookback + cfg.horizon}")
    tr, val = split_validation(data.train)
    result, summary = train_restarts(cfg, tr, val, run_config)
    return result, summary, evaluate(result.model, data.test, data.stats)


def run_ablation(base_config: dict, table: RecordingTable,
                 horizons: Sequence[int] = DEFAULT_HORIZONS,
                 run_config: Optional[TrainRunConfig] = None,
                 **window_kwargs) -> list[dict]:
    """Train each attention/gating variant per horizon with identical seeds
    and data; returns one row per (variant, horizon) with MAE and RMSE.

    ``base_config`` holds the model keys a run sets, as ``fit`` takes them.
    Each cell is one ``fit`` call on it, with the cell's ablation and
    horizon and the ``window_kwargs``, as ``fgn train`` fits its model."""
    run_config = run_config or TrainRunConfig()
    rows = []
    for horizon in horizons:
        for variant in ABLATION_VARIANTS:
            _, _, report = fit({**base_config, "variant": "focalgatednet",
                                "ablation": variant, "horizon": horizon},
                               table, run_config, **window_kwargs)
            rows.append({"variant": variant, "horizon_ms": horizon,
                         "mae": report.mae, "rmse": report.rmse})
    return rows


def render_ablation(rows: list[dict]) -> str:
    """Grid with one line per horizon, best-MAE variant cell marked **bold**."""
    horizons = sorted({r["horizon_ms"] for r in rows})
    by_key = {(r["variant"], r["horizon_ms"]): r for r in rows}
    header = f"{'Horizon':>8} | " + " | ".join(f"{v:^21}" for v in ABLATION_VARIANTS)
    sub = f"{'(ms)':>8} | " + " | ".join(f"{'MAE':^10}{'RMSE':^11}" for _ in ABLATION_VARIANTS)
    lines = [header, sub, "-" * len(sub)]
    for hz in horizons:
        best = min(by_key[(v, hz)]["mae"] for v in ABLATION_VARIANTS)
        cells = []
        for v in ABLATION_VARIANTS:
            r = by_key[(v, hz)]
            mae = f"**{r['mae']:.3f}**" if r["mae"] == best else f"{r['mae']:.3f}"
            cells.append(f"{mae:^10} {r['rmse']:^10.3f}")
        lines.append(f"{hz:>8} | " + " | ".join(cells))
    return "\n".join(lines)
