"""Data pipeline: CSV ingest, normalization, windowing, and a synthetic
gait-style generator for desk-scale experiments.

Convention: 1 sample = 1 ms (1000 Hz master rate), so lookback/horizon
lengths in milliseconds map one-to-one onto sample counts.
"""

from __future__ import annotations

import csv
import itertools
import os
import uuid
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

TIME_COLUMN = "time_ms"
TARGET_COLUMN = "knee_angle"
N_SENSOR_CHANNELS = 40
# rows formatted and written at a time by save_csv
CSV_WRITE_BLOCK_ROWS = 4096


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open(path, mode)`` that replaces ``path`` only on success.

    Writes go to a uniquely named file beside ``path``, moved over it with
    ``os.replace`` when the block exits; if the block raises, the temporary
    file is removed and an existing ``path`` is left untouched. The file is
    created as ``open`` creates one, so it gets the same permissions."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


@dataclass
class RecordingTable:
    """Uniformly sampled multi-channel recording."""
    time_ms: np.ndarray                      # strictly increasing, constant delta
    columns: dict[str, np.ndarray]           # channel name -> values

    def __post_init__(self):
        n = len(self.time_ms)
        deltas = np.diff(self.time_ms)
        if len(deltas) and np.any(deltas <= 0):
            row = int(np.argmax(deltas <= 0)) + 1
            raise DataError(f"time_ms not strictly increasing at row {row}")
        for name, vals in self.columns.items():
            if len(vals) != n:
                raise DataError(f"column {name!r} has {len(vals)} rows, expected {n}")

    def __len__(self) -> int:
        return len(self.time_ms)

    @property
    def channel_names(self) -> list[str]:
        return list(self.columns)

    def matrix(self, names: Sequence[str]) -> np.ndarray:
        """Stack the named channels into [n_rows, len(names)]."""
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise DataError(f"columns not in table: {missing}")
        return np.stack([self.columns[n] for n in names], axis=1)


def load_csv(path, schema: Optional[Sequence[str]] = None) -> RecordingTable:
    """Parse a comma-delimited UTF-8 file with a header row.

    ``schema``, when given, lists channel columns that must be present.
    Repeated column names, non-numeric or non-finite cells, ragged or blank
    rows, missing columns, and non-monotone time are hard errors naming the
    offending location.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        repeated = [name for name, n in Counter(header).items() if n > 1]
        if repeated:
            raise DataError(f"{path}: repeated column names in header: {repeated}")
        if TIME_COLUMN not in header:
            raise DataError(f"{path}: required column {TIME_COLUMN!r} missing from header")
        if schema:
            missing = [c for c in schema if c not in header]
            if missing:
                raise DataError(f"{path}: declared columns missing: {missing}")
        data = _parse_body(f, len(header))
        if data is None:            # rewind: the scan reads the body from its first row
            f.seek(0)
            next(csv.reader(f))
            data = _scan_body(path, f, header)
    if data.size == 0:
        raise DataError(f"{path}: no data rows")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        row, col = bad[0]
        raise DataError(f"{path}: non-finite cell at row {row + 1}, "
                        f"column {header[col]!r}: {data[row, col]}")
    cols = {name: data[:, i] for i, name in enumerate(header)}
    time_ms = cols.pop(TIME_COLUMN)
    return RecordingTable(time_ms, cols)


def _parse_body(lines: Iterator[str], n_cols: int) -> Optional[np.ndarray]:
    """The remaining ``lines`` as a [rows, n_cols] float64 matrix, or None
    when only ``_scan_body`` can parse them or name their error.

    The lines stream into ``np.loadtxt`` one at a time, so the body is never
    held whole. ``np.loadtxt`` rejects quoted cells and the other forms only
    ``float()`` accepts, and it skips blank lines, which the scan rejects; so
    its result is kept only when it has one row per line."""
    first = next(lines, "")
    if not first or first.isspace():        # np.loadtxt warns on input with no data
        return None
    n_lines = 0

    def counted():
        nonlocal n_lines
        for line in itertools.chain((first,), lines):
            n_lines += 1
            yield line

    try:
        data = np.loadtxt(counted(), delimiter=",", comments=None,
                          dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return data if data.shape == (n_lines, n_cols) else None


def _scan_body(path, lines: Iterable[str], header: list[str]) -> np.ndarray:
    """Parse the body cell by cell with ``csv.reader`` and ``float()``; an
    error names the row and column."""
    rows: list[list[float]] = []
    for lineno, row in enumerate(csv.reader(lines), start=1):
        if len(row) != len(header):
            raise DataError(f"{path}: row {lineno} has {len(row)} cells, "
                            f"expected {len(header)}")
        parsed = []
        for col, cell in zip(header, row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(f"{path}: non-numeric cell at row {lineno}, "
                                f"column {col!r}: {cell!r}") from None
        rows.append(parsed)
    return np.asarray(rows, dtype=np.float64)


def save_csv(table: RecordingTable, path) -> None:
    """Inverse of load_csv; fixed-format floats for byte reproducibility.

    Rows are formatted and written ``CSV_WRITE_BLOCK_ROWS`` at a time, and
    the file replaces ``path`` only once it is complete."""
    names = table.channel_names
    columns = [table.time_ms] + [table.columns[n] for n in names]
    row_format = "%.6f" + ",%.9g" * len(names) + "\r\n"     # csv.writer's line end
    with atomic_open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow([TIME_COLUMN] + names)
        for lo in range(0, len(table), CSV_WRITE_BLOCK_ROWS):
            block = np.column_stack([c[lo:lo + CSV_WRITE_BLOCK_ROWS] for c in columns])
            f.write("".join([row_format % tuple(row) for row in block.tolist()]))


@dataclass
class NormalizationStats:
    """Per-channel mean and population standard deviation from the train split."""
    names: list[str]
    mean: np.ndarray
    std: np.ndarray

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean

    def to_dict(self) -> dict:
        return {"names": self.names, "mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "NormalizationStats":
        return cls(list(d["names"]), np.asarray(d["mean"]), np.asarray(d["std"]))


def fit_normalizer(rows: np.ndarray, names: Sequence[str]) -> NormalizationStats:
    """Population (divide-by-N) statistics over the training rows only."""
    if rows.size == 0:
        raise DataError("cannot fit normalizer on an empty training split")
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)        # population std
    dead = np.nonzero(std == 0)[0]
    if dead.size:
        raise DataError(f"zero-variance channels cannot be normalized: "
                        f"{[names[i] for i in dead]}")
    return NormalizationStats(list(names), mean, std)


class DecoderWindows:
    """Read-only decoder inputs built on demand from the encoder windows.

    Window ``i`` is ``encoder[i, lookback - label_len:]`` followed by
    ``horizon`` zero rows, ``[n, label_len + horizon, n_features]`` in all.
    The first index selects windows (an integer, a slice or an integer
    array) and any further basic indexes apply to the remaining axes; only
    the selected windows are built. A slice on the window axis alone
    returns another ``DecoderWindows``. ``np.asarray`` builds them all."""

    __slots__ = ("encoder", "label_len", "horizon")

    def __init__(self, encoder: np.ndarray, label_len: int, horizon: int):
        self.encoder = encoder
        self.label_len = label_len
        self.horizon = horizon

    def __len__(self) -> int:
        return len(self.encoder)

    @property
    def shape(self) -> tuple[int, int, int]:
        n, _, n_features = self.encoder.shape
        return n, self.label_len + self.horizon, n_features

    @property
    def dtype(self) -> np.dtype:
        return self.encoder.dtype

    ndim = 3

    def __getitem__(self, key):
        first, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        if first is None or first is Ellipsis:
            raise IndexError("the first index of decoder windows must select windows")
        if not all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice))
                   for k in rest):
            raise IndexError("decoder windows take only basic indexes after the first")
        if isinstance(first, slice) and not rest:
            return DecoderWindows(self.encoder[first], self.label_len, self.horizon)
        out = self._build(self._labels()[first])
        return out[(slice(None),) * (out.ndim - 2) + rest]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("decoder windows are built on demand and cannot be a view")
        out = self._build(self._labels())
        return out if dtype is None else out.astype(dtype, copy=False)

    def _labels(self) -> np.ndarray:
        """The label rows of every window: a view of ``encoder``."""
        return self.encoder[:, self.encoder.shape[1] - self.label_len:]

    def _build(self, labels: np.ndarray) -> np.ndarray:
        out = np.zeros(labels.shape[:-2] + self.shape[1:], dtype=labels.dtype)
        out[..., :self.label_len, :] = labels
        return out


@dataclass
class WindowSet:
    """Stacked forecasting windows over one contiguous region of a table.

    ``encoder``, ``target_norm`` and ``target_raw`` are read-only strided
    views of per-row arrays shared by overlapping windows; ``decoder``
    builds each window's label rows and zero horizon from ``encoder`` when
    indexed, so no field copies the windows."""
    encoder: np.ndarray        # [n, lookback, n_features] normalized
    decoder: DecoderWindows    # [n, label_len + horizon, n_features], horizon zero-filled
    target_norm: np.ndarray    # [n, horizon, 1] normalized (loss space)
    target_raw: np.ndarray     # [n, horizon, 1] raw degrees (metric space)
    start_rows: np.ndarray     # table row index of each window's first sample

    def __len__(self) -> int:
        return len(self.encoder)


@dataclass
class WindowedData:
    train: WindowSet
    test: WindowSet
    stats: NormalizationStats
    feature_names: list[str] = field(default_factory=list)
    target_name: str = TARGET_COLUMN
    # Index of the target's own history among the features; None when absent.
    target_channel: Optional[int] = None


def target_history_name(target_name: str) -> str:
    """The feature column holding the target's own measured history."""
    return f"gon_{target_name}"


def window_count(region_len: int, lookback: int, horizon: int, stride: int) -> int:
    if region_len < lookback + horizon:
        return 0
    return (region_len - lookback - horizon) // stride + 1


def _windows(feats: np.ndarray, target_n: np.ndarray, target_raw: np.ndarray,
             first: int, region_len: int, lookback: int, label_len: int, horizon: int,
             stride: int) -> WindowSet:
    """The windows of the ``region_len`` rows from row ``first`` on."""
    n = window_count(region_len, lookback, horizon, stride)
    stop = first + stride * n
    enc = sliding_window_view(feats, lookback, axis=0).transpose(0, 2, 1)[first:stop:stride]
    targets = slice(first + lookback, stop + lookback, stride)
    t_n = sliding_window_view(target_n, horizon)[targets, :, None]
    t_r = sliding_window_view(target_raw, horizon)[targets, :, None]
    return WindowSet(enc, DecoderWindows(enc, label_len, horizon), t_n, t_r,
                     first + stride * np.arange(n))


def make_windows(table: RecordingTable, lookback: int, label_len: int, horizon: int,
                 stride: int = 1, split: float = 0.8,
                 feature_names: Optional[Sequence[str]] = None,
                 target_name: str = TARGET_COLUMN,
                 include_target_history: bool = True) -> WindowedData:
    """Split rows at ``split`` (80/20 by default), fit normalization on the
    train region only, and cut non-straddling windows from each region.
    """
    if not 0 < split < 1:
        raise DataError(f"split must be in (0, 1), got {split}")
    if lookback < 1 or horizon < 1 or stride < 1:
        raise DataError("lookback, horizon, and stride must be >= 1")
    if not 0 <= label_len <= lookback:
        raise DataError(f"label_len must be in [0, lookback], got {label_len}")
    if len(table) < lookback + horizon:
        raise DataError(f"table has {len(table)} rows; needs >= {lookback + horizon}")
    if target_name not in table.columns:
        raise DataError(f"target column {target_name!r} not in table")
    if feature_names is None:
        feature_names = [n for n in table.channel_names if n != target_name]
    feature_names = list(feature_names)
    history = target_history_name(target_name)
    if not include_target_history:
        feature_names = [n for n in feature_names if n != history]

    n_rows = len(table)
    split_row = int(np.floor(n_rows * split))
    # a fresh float64 stack, z-scored in place below
    feats_raw = np.asarray(table.matrix(feature_names), dtype=np.float64)
    # a copy, so the windows do not change with the caller's table
    target_raw = np.array(table.columns[target_name], dtype=np.float64)

    all_names = feature_names + [target_name]
    train_block = np.column_stack([feats_raw[:split_row], target_raw[:split_row]])
    stats = fit_normalizer(train_block, all_names)
    del train_block
    # z-score in float64, then round once to the float32 the model reads
    feats_raw -= stats.mean[:-1]
    feats_raw /= stats.std[:-1]
    feats = feats_raw.astype(np.float32)
    target_n = ((target_raw - stats.mean[-1]) / stats.std[-1]).astype(np.float32)

    train = _windows(feats, target_n, target_raw, 0, split_row,
                     lookback, label_len, horizon, stride)
    test = _windows(feats, target_n, target_raw, split_row, n_rows - split_row,
                    lookback, label_len, horizon, stride)
    tc = feature_names.index(history) if history in feature_names else None
    return WindowedData(train, test, stats, feature_names, target_name, tc)


# -- synthetic gait-style generator ------------------------------------------

_KNEE_BASE = 32.0
_KNEE_HARMONICS = ((24.0, 1, -1.2), (10.0, 2, 0.6), (4.0, 3, 1.9))


def knee_angle_curve(phase: np.ndarray) -> np.ndarray:
    """Three-harmonic knee-angle waveform in degrees, roughly 0-70."""
    phase = np.asarray(phase, dtype=np.float64)
    out = np.full(phase.shape, _KNEE_BASE)
    for amp, mult, shift in _KNEE_HARMONICS:
        out = out + amp * np.sin(2 * np.pi * mult * phase + shift)
    return out


def synth_gait(n_cycles: int, cycle_ms: float = 1000.0, rate_hz: float = 1000.0,
               noise_std: float = 0.05, seed: int = 0) -> RecordingTable:
    """Deterministic cyclic recording: a harmonic knee-angle target plus 40
    correlated sensor channels (phase-shifted and rectified harmonics with
    additive Gaussian noise, mimicking EMG/IMU/GON structure).
    """
    if n_cycles < 1:
        raise DataError(f"n_cycles must be >= 1, got {n_cycles}")
    if not (np.isfinite(noise_std) and noise_std >= 0):
        raise DataError(f"noise_std must be finite and >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    n = int(round(n_cycles * cycle_ms * rate_hz / 1000.0))
    t = np.arange(n) * (1000.0 / rate_hz)
    phase = t / cycle_ms
    knee = knee_angle_curve(phase)

    cols: dict[str, np.ndarray] = {}
    cols["gon_knee_angle"] = knee + rng.normal(0, noise_std, n)
    for j in range(1, N_SENSOR_CHANNELS):
        role = j % 3
        mult = 1 + (j % 3)
        shift = 0.37 * j
        amp = 1.0 + 0.05 * j
        base = np.sin(2 * np.pi * mult * phase + shift)
        if role == 0:      # EMG-like: rectified burst
            sig = amp * np.abs(base)
        elif role == 1:    # IMU-like: smooth oscillation
            sig = amp * base
        else:              # GON-like: scaled copy of the knee harmonics
            sig = 0.1 * amp * knee_angle_curve(phase + shift / (2 * np.pi))
        cols[f"sens_{j:02d}"] = sig + rng.normal(0, noise_std, n)
    cols[TARGET_COLUMN] = knee
    return RecordingTable(t, cols)
