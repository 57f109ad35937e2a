"""The two fgn benchmark workloads, their output checks and their metrics.

Every workload is a closed loop with one caller: the next call starts only
after the previous one returned. Inputs come from ``synth_gait`` seeded by
the workload seed; model weights and the training run use a fixed seed,
as a run config would.

Each workload reports four end-to-end metrics under shared names, so that
every run prints every end-to-end metric of BENCHMARK.json:

  setup_s          median time of the set-ups repeated through a run
  peak_rss_mb      peak resident memory of the process
  main_rate_per_s  the workload's main throughput
  aux_rate_per_s   its second user-visible rate

and a ``readings`` dict with the same figures under their workload-specific
names (``train_windows_per_s``, ``ingest_rows_per_s``, ...). train-small's
rates are medians of per-round rates, so that one slow round does not move
them; ingest-stride1's are total rows over total time (see its ``measure``).
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import LAYER_METRICS, Tracer, array_bytes, layer_metrics, span_cost_s

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "main_rate_per_s": "1/s",
    "aux_rate_per_s": "1/s",
}

# Stated tolerances of the output checks.
FORECAST_TOL = 1e-4         # abs and rel: batch-1 vs batched, checkpoint (float32) vs trained
WINDOW_TOL = 1e-6           # abs and rel, float32 windows vs float64 z-scored slices
CSV_RTOL = 5.0001e-9        # %.9g keeps 9 significant digits: |err| <= 5e-9 |v|
CSV_TIME_ATOL = 5.0001e-7   # the time column is written with %.6f
B1_CHECKS = 8               # test windows also forecast one at a time

# Share of a run's time spent repeating its set-up.
SETUP_SHARE = 0.1


@dataclass(frozen=True)
class TrainShapes:
    model: dict
    cycles: int          # synth_gait cycles, 1000 rows each
    stride: int
    n_train: int
    n_val: int
    n_test: int
    batch_size: int
    max_epochs: int
    setups: int
    min_rounds: int


@dataclass(frozen=True)
class IngestShapes:
    cycles: int
    lookback: int
    label_len: int
    horizon: int
    setups: int
    min_passes: int
    sample_windows: int
    sample_cells: int


TEST_SHAPE = dict(d_model=64, h=4, d_ff=128, n_encoder_layers=3, n_decoder_layers=2,
                  lookback=128, label_len=64, horizon=20,
                  variant="focalgatednet", ablation="glu_dcf")

SHAPES = {
    "train-small": TrainShapes(model=TEST_SHAPE, cycles=4, stride=4, n_train=32, n_val=8,
                               n_test=64, batch_size=32, max_epochs=2, setups=9,
                               min_rounds=3),
    "ingest-stride1": IngestShapes(cycles=60, lookback=128, label_len=64, horizon=20,
                                   setups=5, min_passes=2, sample_windows=64,
                                   sample_cells=1000),
}


class Ledger:
    """Counts operations (library calls and output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run one library call; return (result, seconds), or (None, None) if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None, None
        return out, time.perf_counter() - t0

    def check(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {label}")
        return bool(ok)


def _until(seconds: float, minimum: int):
    """Yield 0, 1, ... until ``seconds`` have passed and ``minimum`` were yielded."""
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        yield i
        i += 1


class Setups:
    """Times a workload's set-up, repeated through the run.

    The machine's speed drifts over tens of seconds, so set-ups timed only at
    the start of a run would see another machine than the measured work.
    ``top_up()``, called before each unit of work, repeats the set-up until
    set-ups have taken ``SETUP_SHARE`` of the run so far.
    """

    def __init__(self, setup, minimum: int):
        self.setup, self.times, self.start = setup, [], time.perf_counter()
        for _ in range(minimum):
            self._once()

    def _once(self) -> None:
        t0 = time.perf_counter()
        self.setup()
        self.times.append(time.perf_counter() - t0)

    def top_up(self) -> None:
        while sum(self.times) < SETUP_SHARE * (time.perf_counter() - self.start):
            self._once()

    def median(self) -> float:
        return statistics.median(self.times)


def _head(ws, n: int):
    """First ``n`` windows of a WindowSet."""
    if len(ws) < n:
        raise ValueError(f"need {n} windows, the recording gives {len(ws)}")
    return dataclasses.replace(ws, **{f.name: getattr(ws, f.name)[:n]
                                      for f in dataclasses.fields(ws)})


def _forecast_ok(out, batch: int, horizon: int) -> bool:
    data = getattr(out, "data", None)
    return (isinstance(data, np.ndarray) and data.shape == (batch, horizon, 1)
            and bool(np.all(np.isfinite(data))))


@dataclass
class Measured:
    setup_s: float
    main_rate: float
    aux_rate: float
    readings: dict          # workload-specific name -> (value, unit)


class TrainSmall:
    """Train the test-shape model for a fixed number of epochs and save it,
    then load the checkpoint and evaluate it, as ``fgn train`` and ``fgn eval`` do."""

    def __init__(self, fgn, shapes: TrainShapes, seed: int, workdir: Path, ledger: Ledger):
        self.fgn, self.shapes, self.seed, self.ledger = fgn, shapes, seed, ledger
        self.path = workdir / "model.fgn"
        # patience = max_epochs - 1: early stopping cannot shorten a run.
        self.run_config = fgn.training.TrainRunConfig(
            max_epochs=shapes.max_epochs, patience=shapes.max_epochs - 1,
            batch_size=shapes.batch_size, seed=0)

    def setup(self) -> None:
        fgn, s, m = self.fgn, self.shapes, self.shapes.model
        table = fgn.data.synth_gait(s.cycles, seed=self.seed)
        data = fgn.data.make_windows(table, m["lookback"], m["label_len"], m["horizon"],
                                     stride=s.stride)
        tr, val = fgn.training.split_validation(data.train)
        self.train_set, self.val_set = _head(tr, s.n_train), _head(val, s.n_val)
        self.test_set, self.stats = _head(data.test, s.n_test), data.stats
        self.config = fgn.models.ModelConfig(**m, target_channel=data.target_channel)
        self.model = fgn.models.build_model(self.config, np.random.default_rng(0))

    def _check(self, report, result, config) -> None:
        ledger, s = self.ledger, self.shapes
        ledger.check("train ran every epoch", len(result.trace) == s.max_epochs)
        ledger.check("losses finite", all(np.isfinite(e["train_loss"]) and
                                          np.isfinite(e["val_loss"]) for e in result.trace))
        ledger.check("checkpoint keeps the config", config.to_dict() == self.config.to_dict())
        ledger.check("heldout_mae_deg finite", bool(np.isfinite(report.mae)))
        ledger.check("evaluated every test window",
                     report.n_samples == len(self.test_set) * s.model["horizon"])

    def _forecast(self, model, start: int, batch: int):
        T = self.fgn.tensor
        with T.no_grad():
            out, _ = self.ledger.call("forecast", model.forward,
                                      T.Tensor(self.test_set.encoder[start:start + batch]),
                                      T.Tensor(self.test_set.decoder[start:start + batch]))
        ok = _forecast_ok(out, batch, self.shapes.model["horizon"])
        self.ledger.check(f"forecast {start}+{batch} finite with shape [B, horizon, 1]", ok)
        return out.data if ok else None

    def _check_forecasts(self, trained, loaded) -> None:
        """The loaded checkpoint forecasts as the trained model does, and its
        batch-1 forecasts equal its batched ones."""
        batch = min(self.shapes.batch_size, len(self.test_set))
        ref, out = self._forecast(trained, 0, batch), self._forecast(loaded, 0, batch)
        if ref is None or out is None:
            return
        self.ledger.check("checkpoint forecasts match the trained model", np.allclose(
            ref, out, rtol=FORECAST_TOL, atol=FORECAST_TOL))
        for i in range(min(B1_CHECKS, batch)):
            one = self._forecast(loaded, i, 1)
            if one is not None:
                self.ledger.check(f"b1 forecast {i} matches batched", np.allclose(
                    one[0], out[i], rtol=FORECAST_TOL, atol=FORECAST_TOL))

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Measured:
        fgn, s, ledger = self.fgn, self.shapes, self.ledger
        setups = Setups(self.setup, s.setups)
        # The first forward pays one-off allocations; keep it out of the rounds.
        fgn.metrics.evaluate(self.model, self.test_set, self.stats)
        if tracer is not None:
            tracer.step = 0
        train_rates, eval_rates, maes, last = [], [], [], None
        for _ in _until(seconds, s.min_rounds):
            if tracer is None:
                setups.top_up()
            model = fgn.models.build_model(self.config, np.random.default_rng(0))
            result, dt_train = ledger.call("train", fgn.training.train, model,
                                           self.train_set, self.val_set, self.run_config)
            if result is None:
                continue
            _, dt_save = ledger.call("save_checkpoint", fgn.training.save_checkpoint,
                                     result.model, self.config, self.path)
            if dt_save is None:
                continue
            loaded, dt_load = ledger.call("load_checkpoint", fgn.training.load_checkpoint,
                                          self.path)
            if loaded is None:
                continue
            report, dt_eval = ledger.call("evaluate", fgn.metrics.evaluate, loaded[0],
                                          self.test_set, self.stats)
            if report is None:
                continue
            if tracer is None:
                self._check(report, result, loaded[1])
            train_rates.append(len(result.trace) * len(self.train_set) / (dt_train + dt_save))
            eval_rates.append(len(self.test_set) / (dt_load + dt_eval))
            maes.append(report.mae)
            last = result.model, loaded[0]
        if tracer is not None:
            tracer.step = None
        elif last is not None:
            self._check_forecasts(*last)
        if not maes:
            raise RuntimeError("no train-small round completed")
        train_rate, eval_rate = statistics.median(train_rates), statistics.median(eval_rates)
        return Measured(setups.median(), train_rate, eval_rate, {
            "train_windows_per_s": (train_rate, "windows/s"),
            "eval_windows_per_s": (eval_rate, "windows/s"),
            "heldout_mae_deg": (statistics.median(maes), "deg"),
            "rounds": (len(maes), "count"),
        })


class IngestStride1:
    """Write a recording to CSV, read it back and cut stride-1 windows."""

    def __init__(self, fgn, shapes: IngestShapes, seed: int, workdir: Path, ledger: Ledger):
        self.fgn, self.shapes, self.seed, self.ledger = fgn, shapes, seed, ledger
        self.path = workdir / "recording.csv"
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        self.table = self.fgn.data.synth_gait(self.shapes.cycles, seed=self.seed)

    def _check_roundtrip(self, loaded) -> None:
        ledger, table = self.ledger, self.table
        names = table.channel_names
        if not ledger.check("csv keeps columns and rows",
                            loaded.channel_names == names and len(loaded) == len(table)):
            return
        orig, back = table.matrix(names), loaded.matrix(names)
        ledger.check("csv values at %.9g", bool(np.all(np.abs(back - orig)
                                                      <= CSV_RTOL * np.abs(orig))))
        ledger.check("csv time at %.6f", bool(np.all(np.abs(loaded.time_ms - table.time_ms)
                                                     <= CSV_TIME_ATOL)))
        rows = self.rng.integers(0, len(table), self.shapes.sample_cells)
        cols = self.rng.integers(0, len(names), self.shapes.sample_cells)
        ledger.check("csv sample cells equal their %.9g text",
                     all(back[r, c] == float(f"{orig[r, c]:.9g}") for r, c in zip(rows, cols)))

    def _check_windows(self, table, wd) -> None:
        ledger, s = self.ledger, self.shapes
        L, lab, H = s.lookback, s.label_len, s.horizon
        raw = table.matrix(wd.feature_names + [wd.target_name])
        split_row = int(np.floor(len(table) * 0.8))      # make_windows' default split
        ledger.check("normalization stats fit on the train rows", bool(
            np.allclose(wd.stats.mean, raw[:split_row].mean(axis=0), rtol=1e-12, atol=1e-12)
            and np.allclose(wd.stats.std, raw[:split_row].std(axis=0), rtol=1e-12, atol=0)))
        z = (raw - wd.stats.mean) / wd.stats.std
        train_starts = np.arange(0, split_row - L - H + 1)
        test_starts = split_row + np.arange(0, len(table) - split_row - L - H + 1)
        ledger.check("stride-1 window start rows", bool(
            np.array_equal(wd.train.start_rows, train_starts)
            and np.array_equal(wd.test.start_rows, test_starts)))
        ok = True
        for ws in (wd.train, wd.test):
            for i in self.rng.integers(0, len(ws), s.sample_windows):
                st = int(ws.start_rows[i])
                ok &= np.allclose(ws.encoder[i], z[st:st + L, :-1],
                                  rtol=WINDOW_TOL, atol=WINDOW_TOL)
                ok &= np.allclose(ws.decoder[i, :lab], z[st + L - lab:st + L, :-1],
                                  rtol=WINDOW_TOL, atol=WINDOW_TOL)
                ok &= not np.any(ws.decoder[i, lab:])
                ok &= np.allclose(ws.target_norm[i, :, 0], z[st + L:st + L + H, -1],
                                  rtol=WINDOW_TOL, atol=WINDOW_TOL)
                ok &= np.array_equal(ws.target_raw[i, :, 0], raw[st + L:st + L + H, -1])
        ledger.check("sampled windows equal z-scored table slices", bool(ok))

    def measure(self, seconds: float, tracer: Tracer | None = None) -> Measured:
        d, s, ledger = self.fgn.data, self.shapes, self.ledger
        setups = Setups(self.setup, s.setups)
        rows = len(self.table)
        export_s, ingest_s, passes, nbytes = 0.0, 0.0, 0, 0
        for _ in _until(seconds, s.min_passes):
            if tracer is None:
                setups.top_up()
            _, dt_save = ledger.call("save_csv", d.save_csv, self.table, self.path)
            if dt_save is None:
                continue
            loaded, dt_load = ledger.call("load_csv", d.load_csv, self.path)
            if loaded is None:
                continue
            if tracer is None:
                self._check_roundtrip(loaded)
            windows, dt_win = ledger.call("make_windows", d.make_windows, loaded, s.lookback,
                                          s.label_len, s.horizon, stride=1)
            if windows is None:
                continue
            nbytes = array_bytes(windows.train) + array_bytes(windows.test)
            if tracer is None:
                self._check_windows(loaded, windows)
            del windows       # two live window sets would double the peak memory
            export_s += dt_save
            ingest_s += dt_load + dt_win
            passes += 1
        if not passes:
            raise RuntimeError("no ingest pass completed")
        # Total over total: a run has only 7-10 passes of several seconds, and
        # the median of so few jumps between the machine's fast and slow
        # phases; across runs it spread as wide as the total or wider.
        ingest_rate, export_rate = rows * passes / ingest_s, rows * passes / export_s
        return Measured(setups.median(), ingest_rate, export_rate, {
            "ingest_rows_per_s": (ingest_rate, "rows/s"),
            "export_rows_per_s": (export_rate, "rows/s"),
            "rows": (rows, "count"),
            "channels": (len(self.table.channel_names), "count"),
            "passes": (passes, "count"),
            "window_bytes": (nbytes, "bytes"),
        })


WORKLOADS = {"train-small": TrainSmall, "ingest-stride1": IngestStride1}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(fgn, name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        shapes=None) -> dict:
    """Run one workload; return its metrics, readings and operation counts.

    Untraced, the workload runs for ``seconds``. Traced, it runs its minimum
    amount of work twice, first untraced with the output checks, then traced
    without them, and the metrics are the per-layer ones. The tracing
    overhead is the span count times the cost of one span, measured on a
    no-op; the change of the main rate between the two runs is kept as a
    reading, but on a shared machine it is mostly noise.
    """
    ledger = Ledger()
    workload = WORKLOADS[name](fgn, shapes or SHAPES[name], seed, workdir, ledger)
    m = workload.measure(0 if trace else seconds)
    metrics = {"setup_s": m.setup_s, "peak_rss_mb": peak_rss_mb(),
               "main_rate_per_s": m.main_rate, "aux_rate_per_s": m.aux_rate}
    units = END_TO_END
    readings = {"failed_frac": (len(ledger.failures) / ledger.attempted, "fraction"),
                **{k: (v, END_TO_END[k]) for k, v in metrics.items()}, **m.readings}
    if trace:
        tracer = Tracer()
        tracer.install(fgn)
        try:
            t0 = time.perf_counter()
            traced = workload.measure(0, tracer)
            wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        metrics = layer_metrics(tracer.spans, wall)
        added = metrics["trace.spans"] * span_cost_s()
        metrics["trace.overhead_pct"] = 100.0 * added / (wall - added)
        readings["trace.rate_change_pct"] = (100.0 * (m.main_rate / traced.main_rate - 1.0), "%")
        units = LAYER_METRICS
    return {"metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            "readings": {k: {"value": v, "unit": u} for k, (v, u) in readings.items()},
            "attempted": ledger.attempted, "failed": len(ledger.failures),
            "failures": ledger.failures}
