import dataclasses
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fgn.data
from fgn.data import (DecoderWindows, NormalizationStats, RecordingTable, fit_normalizer,
                      knee_angle_curve, load_csv, make_windows, save_csv, synth_gait,
                      window_count)
from fgn.errors import DataError
from fgn.training import split_validation
from oracles import load_csv_reference, save_csv_reference, windows_reference


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "time_ms,a,b\n0,1,2\n1,3,4\n2,5,6\n")
        table = load_csv(p)
        assert len(table) == 3
        assert table.channel_names == ["a", "b"]

    def test_non_monotone_time_names_row(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "time_ms,a\n0,1\n2,2\n1,3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_synth_roundtrip_has_41_channels(self, tmp_path):
        table = synth_gait(1, seed=3)
        p = tmp_path / "synth.csv"
        save_csv(table, p)
        loaded = load_csv(p)
        assert len(loaded.channel_names) == 41
        assert len(loaded) == 1000

    def test_non_numeric_cell_located(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "time_ms,a\n0,1\n1,oops\n")
        with pytest.raises(DataError, match=r"row 2.*'a'"):
            load_csv(p)

    def test_ragged_row(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "time_ms,a\n0,1\n1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_missing_time_column(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "t,a\n0,1\n")
        with pytest.raises(DataError, match="time_ms"):
            load_csv(p)

    def test_missing_declared_column(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", "time_ms,a\n0,1\n")
        with pytest.raises(DataError, match="knee"):
            load_csv(p, schema=["knee_angle"])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


class TestCsvFastPathGuards:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("lines,row", [(["0,1", "", "1,2"], 2),
                                           (["0,1", "1,2", ""], 3)],
                             ids=["mid-file", "trailing"])
    def test_blank_line_is_an_error(self, tmp_path, newline, lines, row):
        p = tmp_path / "a.csv"
        p.write_bytes(newline.join(["time_ms,a"] + lines + [""]).encode())
        with pytest.raises(DataError, match=f"row {row} has 0 cells"):
            load_csv(p)

    def test_forms_only_float_accepts_still_load(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", 'time_ms,a\n0,"1.5"\n1,1_0\n2, 3 \n')
        table = load_csv(p)
        np.testing.assert_array_equal(table.columns["a"], [1.5, 10.0, 3.0])
        assert_same_bits(table.columns["a"], load_csv_reference(p)[1][:, 1])

    def test_header_name_with_comma_roundtrips(self, tmp_path):
        table = RecordingTable(np.arange(3.0), {"left, knee": np.array([1.0, 2.0, 4.0]),
                                                'say "hi"': np.array([0.5, 0.25, 0.125])})
        save_csv(table, tmp_path / "a.csv")
        loaded = load_csv(tmp_path / "a.csv")
        assert loaded.channel_names == ["left, knee", 'say "hi"']
        np.testing.assert_array_equal(loaded.columns["left, knee"], [1.0, 2.0, 4.0])

    @pytest.mark.parametrize("scan", [False, True], ids=["parsed", "scanned"])
    @pytest.mark.parametrize("body,row,col", [
        ("0,1,2\n1,nan,3\n2,4,5\n", 2, "a"),
        ("0,1,2\n1,2,3\n2,4,-inf\n", 3, "b"),
        ("0,1,2\nnan,2,3\n2,4,5\n", 2, "time_ms"),
    ], ids=["nan", "inf", "nan-time"])
    def test_non_finite_cell_named(self, tmp_path, scan, body, row, col):
        if scan:        # a quoted cell sends the whole body to the row-by-row scan
            body = body.replace("0,1,2", '0,"1",2')
        p = write_csv(tmp_path / "a.csv", "time_ms,a,b\n" + body)
        with pytest.raises(DataError, match=f"non-finite cell at row {row}, column '{col}'"):
            load_csv(p)

    @pytest.mark.parametrize("scan", [False, True], ids=["parsed", "scanned"])
    @pytest.mark.parametrize("header,repeated", [
        ("time_ms,a,a", "'a'"),
        ("time_ms,a,time_ms", "'time_ms'"),
        ("time_ms,a,b,b,a", "'a', 'b'"),
    ], ids=["channel", "time", "two-names"])
    def test_repeated_column_name_is_an_error(self, tmp_path, scan, header, repeated):
        n = header.count(",")
        body = "".join(f"{t}" + f",{t + 5}" * n + "\n" for t in range(3))
        if scan:        # a quoted cell sends the whole body to the row-by-row scan
            body = '"0"' + body[1:]
        p = write_csv(tmp_path / "a.csv", f"{header}\n{body}")
        with pytest.raises(DataError, match=rf"repeated column names in header: \[{repeated}\]"):
            load_csv(p)


class TestStreamedBody:
    """The body streams into ``np.loadtxt``; anything it cannot take goes to
    the row-by-row scan, which names the row and column as before."""

    ROWS = 5000

    @staticmethod
    def _lines(rows):
        # cells with a fractional part and one without, as recordings have
        return [f"{t},{t * 0.25 - 7.5!r},{3 * t}" for t in range(rows)]

    def _write(self, tmp_path, row, cell):
        """A ``time_ms,a,b`` file of ``ROWS`` rows whose 1-based ``row`` is
        replaced by ``cell``: a whole line, or a function of the old line."""
        lines = self._lines(self.ROWS)
        lines[row - 1] = cell(lines[row - 1]) if callable(cell) else cell
        return write_csv(tmp_path / "a.csv", "time_ms,a,b\n" + "\n".join(lines) + "\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body,message", [
        ("", "no data rows"),
        ("\n", "row 1 has 0 cells, expected 2"),
        ("\n\n", "row 1 has 0 cells, expected 2"),
        ("\r\n\r\n", "row 1 has 0 cells, expected 2"),
        (" \n0,1\n", "row 1 has 1 cells, expected 2"),
    ], ids=["header-only", "one-blank", "blank-only", "blank-only-crlf", "whitespace"])
    def test_no_data_errors_without_a_warning(self, tmp_path, body, message):
        p = write_csv(tmp_path / "a.csv", "time_ms,a\n" + body)
        with pytest.raises(DataError, match=message):
            load_csv(p)

    @pytest.mark.parametrize("row", [1, ROWS // 2, ROWS], ids=["first", "middle", "last"])
    def test_invalid_utf8_still_raises(self, tmp_path, row):
        p = self._write(tmp_path, row, "0,1,2")
        data = p.read_bytes()
        at = data.index(b"0,1,2")
        p.write_bytes(data[:at] + b"\xff" + data[at + 1:])
        with pytest.raises(UnicodeDecodeError):
            load_csv(p)

    @pytest.mark.parametrize("row", [1, ROWS // 2, ROWS], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("cell,message", [
        (lambda line: line.rsplit(",", 1)[0] + ",x",
         "non-numeric cell at row {row}, column 'b': 'x'"),
        (lambda line: line.rsplit(",", 1)[0], "row {row} has 2 cells, expected 3"),
        ("", "row {row} has 0 cells, expected 3"),
    ], ids=["non-numeric", "ragged", "blank"])
    def test_error_names_the_row_anywhere(self, tmp_path, row, cell, message):
        p = self._write(tmp_path, row, cell)
        with pytest.raises(DataError) as err:
            load_csv(p)
        assert str(err.value) == f"{p}: " + message.format(row=row)

    @pytest.mark.parametrize("row", [1, ROWS // 2, ROWS], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("cell", [
        lambda line: '"' + line.replace(",", '",', 1),
        lambda line: line.rsplit(",", 1)[0] + ",1_0",
    ], ids=["quoted", "underscore"])
    def test_float_only_forms_load_anywhere(self, tmp_path, row, cell):
        p = self._write(tmp_path, row, cell)
        table = load_csv(p)
        _, ref = load_csv_reference(p)
        assert_same_bits(table.time_ms, ref[:, 0])
        assert_same_bits(table.matrix(["a", "b"]), ref[:, 1:])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                123456789.0, 0.123456789, 9.87654321e-300]


class TestCsvMatchesRowByRowOracles:
    @given(cells=st.lists(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                                             st.floats(allow_nan=False, allow_infinity=False)),
                                   min_size=3, max_size=3),
                          min_size=1, max_size=6),
           t0=st.integers(-1000, 10 ** 9), step=st.sampled_from([1.0, 0.5, 0.001, 4.0]))
    @settings(max_examples=80, deadline=None)
    def test_save_and_load_are_bit_exact(self, tmp_path_factory, cells, t0, step):
        root = tmp_path_factory.mktemp("csv")
        mat = np.array(cells, dtype=np.float64)
        time_ms = t0 + step * np.arange(len(mat))
        names = ["a", "b", "c"]
        save_csv(RecordingTable(time_ms, {n: mat[:, i] for i, n in enumerate(names)}),
                 root / "fast.csv")
        save_csv_reference(root / "ref.csv", time_ms, names, mat)
        assert (root / "fast.csv").read_bytes() == (root / "ref.csv").read_bytes()

        table = load_csv(root / "fast.csv")
        header, ref = load_csv_reference(root / "fast.csv")
        assert ["time_ms"] + table.channel_names == header
        assert_same_bits(table.time_ms, ref[:, 0])
        assert_same_bits(table.matrix(names), ref[:, 1:])

    def test_sixty_cycle_recording_is_bit_exact(self, tmp_path):
        table = synth_gait(60, seed=2)                     # 60 k rows x 41 channels
        save_csv(table, tmp_path / "rec.csv")
        loaded = load_csv(tmp_path / "rec.csv")
        header, ref = load_csv_reference(tmp_path / "rec.csv")
        assert ["time_ms"] + loaded.channel_names == header
        assert_same_bits(loaded.time_ms, ref[:, 0])
        assert_same_bits(loaded.matrix(header[1:]), ref[:, 1:])


class TestNormalizer:
    def test_hand_arithmetic(self):
        stats = fit_normalizer(np.array([[1.0], [2.0], [3.0]]), ["x"])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-9)
        np.testing.assert_allclose(stats.normalize(np.array([[1.0], [2.0], [3.0]])).ravel(),
                                   [-1.22474487, 0.0, 1.22474487])

    def test_zero_variance_rejected(self):
        with pytest.raises(DataError, match="flat"):
            fit_normalizer(np.column_stack([np.arange(3.0), np.ones(3)]), ["ok", "flat"])

    def test_roundtrip(self, rng):
        rows = rng.standard_normal((50, 3)) * 5 + 2
        stats = fit_normalizer(rows, list("abc"))
        np.testing.assert_allclose(stats.denormalize(stats.normalize(rows)), rows,
                                   atol=1e-6)


class TestWindows:
    def _table(self, n):
        return RecordingTable(np.arange(n, dtype=float),
                              {"gon_knee_angle": np.sin(np.arange(n) * 0.7) + 2,
                               "sens_01": np.cos(np.arange(n) * 0.3),
                               "knee_angle": np.sin(np.arange(n) * 0.7) + 2})

    def test_count_formula(self):
        assert window_count(10, 4, 2, 1) == 5
        assert window_count(6, 4, 2, 1) == 1
        assert window_count(5, 4, 2, 1) == 0

    def test_single_window(self):
        data = make_windows(self._table(8), lookback=4, label_len=2, horizon=2,
                            split=0.8)
        # train region 6 rows -> exactly 1 window; test region too short
        assert len(data.train) == 1 and len(data.test) == 0

    def test_split_boundary_no_leakage(self):
        data = make_windows(self._table(1000), lookback=16, label_len=8, horizon=4)
        boundary = 800
        assert (data.train.start_rows + 16 + 4 <= boundary).all()
        assert (data.test.start_rows >= boundary).all()

    def test_train_region_normalized(self):
        data = make_windows(self._table(500), lookback=8, label_len=4, horizon=2)
        assert abs(data.stats.normalize(
            np.column_stack([np.sin(np.arange(400) * 0.7) + 2,
                             np.cos(np.arange(400) * 0.3),
                             np.sin(np.arange(400) * 0.7) + 2])).mean()) < 1e-6

    def test_decoder_horizon_slots_zero(self):
        data = make_windows(self._table(200), lookback=8, label_len=4, horizon=4)
        assert (data.train.decoder[:, 4:, :] == 0.0).all()

    def test_too_short_table(self):
        with pytest.raises(DataError):
            make_windows(self._table(5), lookback=4, label_len=2, horizon=2)

    @pytest.mark.parametrize("split", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_split_outside_unit_interval(self, split):
        with pytest.raises(DataError, match=r"split must be in \(0, 1\)"):
            make_windows(self._table(200), lookback=8, label_len=4, horizon=4, split=split)

    def test_target_history_exclusion_flag(self):
        data = make_windows(self._table(200), lookback=8, label_len=4, horizon=4,
                            include_target_history=False)
        assert "gon_knee_angle" not in data.feature_names

    @given(st.integers(10, 200), st.integers(1, 12), st.integers(1, 8),
           st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_count_formula_property(self, n, lookback, horizon, stride):
        region = np.arange(n)
        expected = ((n - lookback - horizon) // stride + 1
                    if n >= lookback + horizon else 0)
        starts = np.arange(0, n - lookback - horizon + 1, stride) \
            if n >= lookback + horizon else []
        assert window_count(n, lookback, horizon, stride) == expected == len(starts)


class TestWindowsMatchCopyLoopOracle:
    @staticmethod
    def _columns(rows, seed):
        rng = np.random.default_rng(seed)
        return {name: rng.standard_normal(rows) * (k + 1) + k
                for k, name in enumerate(["gon_knee_angle", "sens_01", "sens_02",
                                          "knee_angle"])}

    @given(rows=st.integers(8, 90), lookback=st.integers(1, 12), horizon=st.integers(1, 6),
           stride=st.integers(1, 5), split=st.floats(0.3, 0.9), history=st.booleans(),
           seed=st.integers(0, 2 ** 16), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_field_bit_identical(self, rows, lookback, horizon, stride, split,
                                       history, seed, data):
        assume(rows >= lookback + horizon)
        label_len = data.draw(st.integers(0, lookback), label="label_len")
        columns = self._columns(rows, seed)
        got = make_windows(RecordingTable(np.arange(float(rows)), columns), lookback,
                           label_len, horizon, stride=stride, split=split,
                           include_target_history=history)
        want = windows_reference(columns, got.feature_names, "knee_angle", lookback,
                                 label_len, horizon, stride, split)
        for ws, ref in zip((got.train, got.test), want):
            for name, expected in zip(("encoder", "decoder", "target_norm", "target_raw",
                                       "start_rows"), ref):
                assert_same_bits(getattr(ws, name), expected)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_features_are_float64_z_scores_rounded_once(self, dtype):
        columns = {name: (vals * 100).astype(dtype)
                   for name, vals in self._columns(400, 3).items()}
        table = RecordingTable(np.arange(400.0), columns)
        data = make_windows(table, lookback=16, label_len=8, horizon=4)
        raw = table.matrix(data.feature_names)
        mean, std = data.stats.mean[:-1], data.stats.std[:-1]
        want = ((raw - mean) / std).astype(np.float32)
        for ws in (data.train, data.test):
            first, n = ws.start_rows[0], len(ws)
            # every row the stride-1 windows cover, in order
            got = np.concatenate([ws.encoder[:-1, 0], ws.encoder[-1]])
            assert_same_bits(got, want[first:first + n - 1 + 16])

    def test_views_share_one_matrix_and_are_read_only(self):
        columns = self._columns(300, 0)
        table = RecordingTable(np.arange(300.0), columns)
        data = make_windows(table, lookback=8, label_len=4, horizon=4)
        train, test = data.train, data.test
        for name in ("encoder", "target_norm", "target_raw"):
            a, b = getattr(train, name), getattr(test, name)
            assert np.shares_memory(a[0], a[1]) and np.shares_memory(b[0], b[1])
            # the test region starts 240 rows further into the same matrix
            offset = b.__array_interface__["data"][0] - a.__array_interface__["data"][0]
            assert offset == 240 * a.strides[0]
            assert not a.flags.writeable and not b.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        # the decoder holds no copy: it reads the encoder view when indexed
        assert isinstance(train.decoder, DecoderWindows)
        assert train.decoder.encoder is train.encoder
        assert not np.shares_memory(train.target_raw, columns["knee_angle"])


class TestDecoderWindows:
    """``WindowSet.decoder`` indexes as the copy-loop oracle's decoder does."""

    LOOKBACK, HORIZON = 6, 3

    def _windows(self, label_len, rows=60):
        columns = TestWindowsMatchCopyLoopOracle._columns(rows, label_len)
        got = make_windows(RecordingTable(np.arange(float(rows)), columns), self.LOOKBACK,
                           label_len, self.HORIZON)
        (_, want, *_), _ = windows_reference(columns, got.feature_names, "knee_angle",
                                             self.LOOKBACK, label_len, self.HORIZON, 1, 0.8)
        return got.train, want

    @pytest.mark.parametrize("label_len", [0, 2, 6])
    @pytest.mark.parametrize("key", [
        0, -1, 17, np.int64(5), np.int32(-3),
        slice(None), slice(3, 11), slice(None, None, 4), slice(-5, None), slice(9, 2),
        np.array([7, 0, 7, 30]), np.array([], dtype=np.int64), [2, 1],
        (4, slice(None, 2)), (4, slice(2, None)), (np.int64(4), 1, 2), (-2, -1),
        (slice(None), slice(4, None), slice(None)), (slice(2, 9), -1),
        (slice(None, None, 3), Ellipsis, 0), (np.array([3, 1]), slice(None), 0),
        (np.array([3, 1]), Ellipsis, slice(1, 3)), (5, None),
    ], ids=repr)
    def test_key_matches_oracle(self, label_len, key):
        ws, want = self._windows(label_len)
        assert_same_bits(np.asarray(ws.decoder[key]), want[key])

    @pytest.mark.parametrize("label_len", [0, 4])
    def test_whole_array_and_attributes(self, label_len):
        ws, want = self._windows(label_len)
        dec = ws.decoder
        assert (len(dec), dec.shape, dec.dtype, dec.ndim) == \
            (len(want), want.shape, want.dtype, want.ndim)
        assert_same_bits(np.asarray(dec), want)
        assert np.asarray(dec, dtype=np.float64).dtype == np.float64

    def test_window_axis_slice_stays_lazy(self):
        ws, want = self._windows(2)
        for part in (ws.decoder[4:20], ws.decoder[(slice(None, None, 2),)],
                     dataclasses.replace(ws, decoder=ws.decoder[:7]).decoder,
                     *(half.decoder for half in split_validation(ws))):
            assert isinstance(part, DecoderWindows)
            assert np.shares_memory(part.encoder, ws.encoder)
        assert_same_bits(np.asarray(ws.decoder[4:20][3:5]), want[4:20][3:5])

    def test_write_raises(self):
        ws, _ = self._windows(2)
        with pytest.raises(TypeError):
            ws.decoder[0] = 0.0
        with pytest.raises(TypeError):
            ws.decoder[:, 0] = 0.0

    @pytest.mark.parametrize("key", [(Ellipsis, 0), (None, 0), (np.array([0, 1]), [0, 1])],
                             ids=["ellipsis-first", "newaxis-first", "array-after-first"])
    def test_unsupported_key_raises(self, key):
        ws, _ = self._windows(2)
        with pytest.raises(IndexError):
            ws.decoder[key]


def _table_bytes(table):
    return table.time_ms.nbytes + sum(c.nbytes for c in table.columns.values())


def _traced_peak(fn, *args, **kwargs):
    """Peak bytes traced by ``tracemalloc`` while ``fn`` runs, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """No step of the data path allocates more than a few tables' worth."""

    def test_make_windows_stride1(self):
        table = synth_gait(10, seed=1)                     # 10 k rows x 41 channels
        peak, _ = _traced_peak(make_windows, table, 128, 64, 20)
        assert peak < 3 * _table_bytes(table)

    def test_save_and_load_csv(self, tmp_path):
        table = synth_gait(40, seed=1)                     # 40 k rows x 41 channels
        path = tmp_path / "rec.csv"
        peak, _ = _traced_peak(save_csv, table, path)
        assert peak < 2 * _table_bytes(table)
        peak, _ = _traced_peak(load_csv, path)
        assert peak < 1.5 * _table_bytes(table)


class TestAtomicSaveCsv:
    def _table(self, values):
        return RecordingTable(np.arange(float(len(values))),
                              {"a": np.asarray(values, dtype=object)})

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "rec.csv"
        save_csv(self._table([1.0, 2.0]), path)
        old = path.read_bytes()
        monkeypatch.setattr(fgn.data, "CSV_WRITE_BLOCK_ROWS", 1)
        # rows 0 and 1 are written before row 2 fails to format
        with pytest.raises(TypeError):
            save_csv(self._table([3.0, 4.0, "x"]), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["rec.csv"]

    def test_replaces_with_plain_open_mode(self, tmp_path):
        path = tmp_path / "rec.csv"
        save_csv(self._table([1.0]), path)
        save_csv(self._table([2.0, 3.0]), path)
        assert path.read_bytes() == b"time_ms,a\r\n0.000000,2\r\n1.000000,3\r\n"
        with open(tmp_path / "plain.csv", "w"):
            pass
        assert stat.S_IMODE(path.stat().st_mode) == \
            stat.S_IMODE((tmp_path / "plain.csv").stat().st_mode)


class TestSynthGait:
    def test_phase_zero_analytic_value(self):
        table = synth_gait(1, noise_std=0.0, seed=0)
        assert table.columns["knee_angle"][0] == pytest.approx(
            knee_angle_curve(np.array([0.0]))[0])

    def test_same_seed_bit_identical(self):
        a = synth_gait(2, seed=9)
        b = synth_gait(2, seed=9)
        for name in a.channel_names:
            np.testing.assert_array_equal(a.columns[name], b.columns[name])

    def test_period_by_autocorrelation(self):
        table = synth_gait(6, cycle_ms=500.0, noise_std=0.0, seed=1)
        x = table.columns["knee_angle"] - table.columns["knee_angle"].mean()
        ac = np.correlate(x, x, mode="full")[len(x) - 1:]
        # first local max after lag 0 marks the period
        lo, hi = 250, 750
        lag = lo + int(np.argmax(ac[lo:hi]))
        assert abs(lag - 500) <= 1

    def test_rejects_no_cycles(self):
        with pytest.raises(DataError):
            synth_gait(0)

    @pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_noise_std(self, noise_std):
        with pytest.raises(DataError, match="noise_std must be finite and >= 0"):
            synth_gait(1, noise_std=noise_std)

    def test_channel_inventory(self):
        table = synth_gait(1)
        assert len(table.channel_names) == 41
        assert "gon_knee_angle" in table.channel_names
        assert "knee_angle" in table.channel_names
