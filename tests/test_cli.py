import contextlib
import dataclasses
import io
import json
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fgn.data
import fgn.metrics
import fgn.training
from fgn.cli import _TRAIN_KEYS, load_run_config, main
from fgn.errors import ConfigError
from fgn.models import ModelConfig
from fgn.training import TrainRunConfig, load_checkpoint

README = Path(__file__).resolve().parents[1] / "README.md"


TOY_MODEL = {"n_encoder_layers": 1, "n_decoder_layers": 1, "d_model": 16,
             "d_ff": 32, "h": 2, "lookback": 8, "label_len": 4, "horizon": 4,
             "dropout_rate": 0.0}
TOY_TRAIN = {"max_epochs": 2, "patience": 1, "batch_size": 16}


class _Trains(Exception):
    """Raised by a spy in place of ``fgn.training.train``: the run got that far."""


def _in_range(drawn: dict) -> bool:
    """Whether a run whose train section and seed hold ``drawn`` may train:
    integer counts with 0 < patience < max_epochs, batch_size and restarts
    >= 1, seed >= 0, and a number base_lr that is finite and > 0. Bools are
    neither integers nor numbers here."""
    run = {**{f.name: f.default for f in dataclasses.fields(TrainRunConfig)}, **drawn}
    if any(not isinstance(run[k], int) or isinstance(run[k], bool)
           for k in ("max_epochs", "patience", "batch_size", "restarts", "seed")):
        return False
    lr = run["base_lr"]
    if not isinstance(lr, (int, float)) or isinstance(lr, bool):
        return False
    return (0 < run["patience"] < run["max_epochs"] and run["batch_size"] >= 1
            and run["restarts"] >= 1 and run["seed"] >= 0 and 0 < lr <= sys.float_info.max)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "gait.csv"
    assert main(["synth", "--out", str(data), "--cycles", "2",
                 "--noise", "0.02", "--seed", "4"]) == 0
    cfg = {"model": TOY_MODEL, "train": TOY_TRAIN, "seed": 5,
           "data": {"path": str(data), "stride": 4}}
    cfg_path = root / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    return root


def write_config(workdir, name, data=(), model=(), **top):
    """The workdir's run config with some keys changed, saved as <name>.json."""
    doc = json.loads((workdir / "run.json").read_text())
    doc["data"].update(data)
    doc["model"].update(model)
    doc.update(top)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def ablate_rows(workdir, name, **changes):
    cfg = write_config(workdir, name, horizons=[1], **changes)
    out = workdir / f"{name}_out"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["rows"]


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "train_out"
    code = main(["train", "--config", str(workdir / "run.json"),
                 "--out", str(out)])
    assert code == 0
    return out


class TestSynth:
    def test_row_and_channel_counts(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["synth", "--out", str(out), "--cycles", "3",
                     "--seed", "1"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 * 1000 + 1               # header + 1000 Hz rows
        assert len(lines[0].split(",")) == 1 + 41       # time + channels
        assert "3000 rows" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["--cycles", "2", "--noise", "0.05", "--seed", "7"]
        assert main(["synth", "--out", str(a)] + flags) == 0
        assert main(["synth", "--out", str(b)] + flags) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_cycles_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x.csv"),
                     "--cycles", "0"]) == 1
        assert "cycles" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_bad_noise_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "x.csv"
        assert main(["synth", "--out", str(out), "--noise", noise]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --noise must be finite and >= 0")
        assert err.count("\n") == 1
        assert not out.exists()


class TestTrain:
    def test_artifacts_exist_and_parse(self, trained):
        for name in ("checkpoint.fgn", "trace.json", "report.json", "report.txt"):
            assert (trained / name).exists()
        trace = json.loads((trained / "trace.json").read_text())
        assert len(trace["trace"]) >= 1
        report = json.loads((trained / "report.json").read_text())
        assert np.isfinite(report["metrics"]["mae"])
        assert report["seed"] == 5

    def test_rerun_reproduces_artifacts(self, workdir, trained):
        out2 = workdir / "train_out2"
        assert main(["train", "--config", str(workdir / "run.json"),
                     "--out", str(out2)]) == 0
        assert ((out2 / "checkpoint.fgn").read_bytes()
                == (trained / "checkpoint.fgn").read_bytes())
        for name in ("trace.json", "report.json", "report.txt"):
            assert (out2 / name).read_text() == (trained / name).read_text()

    def test_horizon_zero_usage_error(self, workdir, capsys):
        assert main(["train", "--config", str(workdir / "run.json"),
                     "--horizon", "0", "--out", str(workdir / "h0")]) == 1
        assert "horizon" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, workdir, capsys):
        bad = workdir / "bad.json"
        doc = json.loads((workdir / "run.json").read_text())
        doc["trian"] = {}
        bad.write_text(json.dumps(doc))
        assert main(["train", "--config", str(bad),
                     "--out", str(workdir / "bad_out")]) == 1
        assert "trian" in capsys.readouterr().err

    def test_unknown_model_key_rejected(self, workdir, capsys):
        bad = workdir / "bad_model.json"
        doc = json.loads((workdir / "run.json").read_text())
        doc["model"] = {**TOY_MODEL, "d_modell": 8}
        bad.write_text(json.dumps(doc))
        assert main(["train", "--config", str(bad),
                     "--out", str(workdir / "bad_out")]) == 1
        assert "d_modell" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_out_dir_key_rejected(self, workdir, capsys, command):
        bad = write_config(workdir, "out_dir", out_dir=str(workdir / "elsewhere"))
        assert main([command, "--config", str(bad),
                     "--out", str(workdir / "bad_out")]) == 1
        assert "out_dir" in capsys.readouterr().err

    def test_env_seed_overrides_config(self, workdir, monkeypatch):
        out = workdir / "env_seed"
        monkeypatch.setenv("FGN_SEED", "99")
        assert main(["train", "--config", str(workdir / "run.json"),
                     "--variant", "nlinear", "--out", str(out)]) == 0
        assert json.loads((out / "trace.json").read_text())["seed"] == 99

    def test_stdout_prints_the_row_it_writes(self, workdir, capsys):
        out = workdir / "stdout_row"
        assert main(["train", "--config", str(workdir / "run.json"),
                     "--variant", "nlinear", "--out", str(out)]) == 0
        row, note = (out / "report.txt").read_text().splitlines()
        assert row.startswith("nlinear/glu_dcf ")
        assert capsys.readouterr().out == row + "\n"
        assert note == "(MAPE is a fraction; relative errors guarded at 0.01 deg)"

    def test_empty_test_region_fails_before_training(self, workdir, tmp_path, capsys,
                                                      monkeypatch):
        data = tmp_path / "one_cycle.csv"
        assert main(["synth", "--out", str(data), "--cycles", "1"]) == 0
        cfg = write_config(workdir, "short_test", data={"path": str(data)},
                           model={"lookback": 128, "horizon": 100})
        trained = []
        monkeypatch.setattr(fgn.metrics, "train_restarts", lambda *a: trained.append(a))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: the test region has 200 rows, fewer than one window's "
            "lookback + horizon = 228\n")
        assert not trained and not out.exists()

    def test_nlinear_variant_flag(self, workdir):
        out = workdir / "nlin"
        assert main(["train", "--config", str(workdir / "run.json"),
                     "--variant", "nlinear", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        # near-periodic low-noise signal: last-value carryover is already close
        assert report["metrics"]["mae"] < 5.0


# Data keys that change the feature set -> (data keys, input_dim, target_channel).
FEATURE_SUBSETS = {
    "no_target_history": ({"include_target_history": False}, 39, 0),
    "feature_subset": ({"feature_columns": ["sens_01", "sens_02", "gon_knee_angle"]}, 3, 2),
}


class TestFitPath:
    @pytest.mark.parametrize("subset", FEATURE_SUBSETS)
    def test_train_takes_input_dim_from_the_data(self, workdir, subset):
        data, input_dim, target_channel = FEATURE_SUBSETS[subset]
        cfg = write_config(workdir, f"fit_{subset}", data=data)
        out = workdir / f"fit_{subset}_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        _, saved = load_checkpoint(out / "checkpoint.fgn")
        assert (saved.input_dim, saved.target_channel) == (input_dim, target_channel)

    @pytest.mark.parametrize("subset", FEATURE_SUBSETS)
    def test_ablate_takes_input_dim_from_the_data(self, workdir, subset):
        rows = ablate_rows(workdir, f"fit_ablate_{subset}", data=FEATURE_SUBSETS[subset][0])
        assert len(rows) == 3 and all(np.isfinite(r["mae"]) for r in rows)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("key,value,data_value", [("input_dim", 41, 40),
                                                      ("target_channel", 3, 0)])
    def test_disagreeing_derived_key_is_an_error(self, workdir, capsys, command,
                                                 key, value, data_value):
        cfg = write_config(workdir, f"fit_bad_{key}", model={key: value}, horizons=[1])
        assert main([command, "--config", str(cfg),
                     "--out", str(workdir / f"fit_bad_{key}_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert re.search(rf"model\.{key}\D+{value}\D+{data_value}\b", err)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_target_channel_past_the_default_input_dim(self, workdir, command):
        # 45 features with the target's history last: model.target_channel
        # 44 agrees with the data, and no model.input_dim is set, so the
        # default input_dim of 40 must not be checked against it.
        table = fgn.data.load_csv(workdir / "gait.csv")
        rng = np.random.default_rng(0)
        history = table.columns.pop("gon_knee_angle")
        table.columns.update({f"sens_extra_{i}": rng.standard_normal(len(table))
                              for i in range(5)})
        table.columns["gon_knee_angle"] = history
        wide = workdir / "wide.csv"
        fgn.data.save_csv(table, wide)
        cfg = write_config(workdir, f"wide_{command}", data={"path": str(wide)},
                           model={"target_channel": 44}, horizons=[1])
        out = workdir / f"wide_{command}_out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        if command == "train":
            _, saved = load_checkpoint(out / "checkpoint.fgn")
            assert (saved.input_dim, saved.target_channel) == (45, 44)

    @pytest.mark.parametrize("section,key,value", [
        ("model", "output_dim", 1), ("model", "glu_causal", True),
        ("model", "dlinear_ma_window", 25), ("train", "grad_clip", 1.0)])
    def test_deleted_key_is_unknown(self, workdir, capsys, section, key, value):
        doc = json.loads((workdir / "run.json").read_text())
        doc[section][key] = value
        cfg = workdir / f"deleted_{key}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg),
                     "--out", str(workdir / f"deleted_{key}_out")]) == 1
        err = capsys.readouterr().err
        assert "unknown keys" in err and key in err

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    @pytest.mark.parametrize("section,key,value", [("data", "label_len", 2),
                                                   ("train", "seed", 7)])
    def test_second_spelling_is_unknown(self, workdir, trained, capsys, command,
                                        section, key, value):
        doc = json.loads((workdir / "run.json").read_text())
        doc[section][key] = value
        doc["horizons"] = [1]
        cfg = workdir / f"second_{key}.json"
        cfg.write_text(json.dumps(doc))
        out = str(workdir / f"second_{key}_{command}_out")
        args = {"train": ["--out", out], "ablate": ["--out", out],
                "eval": ["--checkpoint", str(trained / "checkpoint.fgn"),
                         "--data", str(workdir / "gait.csv"), "--out", out]}
        assert main([command, "--config", str(cfg)] + args[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"unknown keys in {section} section: ['{key}']" in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_zero_heads_is_an_error(self, workdir, capsys, command):
        cfg = write_config(workdir, "zero_heads", model={"h": 0}, horizons=[1])
        assert main([command, "--config", str(cfg),
                     "--out", str(workdir / f"zero_heads_{command}_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "h must be positive" in err


class TestConfigValues:
    """A value of the wrong type or out of range exits 1 with one ``error:``
    line naming its key, in every section of the run config."""

    @pytest.mark.parametrize("section,key,value,message", [
        (None, "seed", "x", "seed must be an integer, got 'x'"),
        ("data", "stride", "x", "data.stride must be an integer, got 'x'"),
        ("data", "split", "0.8", "data.split must be a number, got '0.8'"),
        ("data", "include_target_history", "false",
         "data.include_target_history must be true or false, got 'false'"),
        ("data", "feature_columns", "sens_01",
         "data.feature_columns must be a list of strings, got 'sens_01'"),
        ("model", "h", "2", "h must be an integer, got '2'"),
        ("train", "max_epochs", "2", "max_epochs must be an integer, got '2'"),
        ("model", "d_ff", -1, "d_ff must be >= 1, got -1"),
        ("model", "n_encoder_layers", -1, "n_encoder_layers must be >= 1, got -1"),
        ("model", "n_decoder_layers", 0, "n_decoder_layers must be >= 1, got 0"),
    ], ids=["seed", "stride", "split", "include_target_history", "feature_columns",
            "h", "max_epochs", "d_ff", "n_encoder_layers", "n_decoder_layers"])
    def test_train_names_the_key(self, workdir, capsys, section, key, value, message):
        doc = json.loads((workdir / "run.json").read_text())
        (doc if section is None else doc[section])[key] = value
        cfg = workdir / f"typed_{key}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg),
                     "--out", str(workdir / f"typed_{key}_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("where,value,key", [
        ("config", -1, "seed"), ("flag", -3, "seed"), ("env", -1, "seed"),
        ("train", -1.0, "base_lr"), ("train", 0.0, "base_lr"),
        ("train", float("nan"), "base_lr"), ("train", float("inf"), "base_lr"),
        ("train", 10 ** 400, "base_lr"),
    ], ids=["config_seed", "flag_seed", "env_seed", "lr_negative", "lr_zero", "lr_nan",
            "lr_infinity", "lr_integer_past_float"])
    def test_seed_and_rate_out_of_range(self, workdir, tmp_path, capsys, monkeypatch,
                                        where, value, key):
        # a seed below 0 or a base_lr that is not finite and > 0 stops the run
        # before it trains or writes anything
        doc = json.loads((workdir / "run.json").read_text())
        args = []
        if where == "config":
            doc["seed"] = value
        elif where == "flag":
            args = ["--seed", str(value)]
        elif where == "env":
            monkeypatch.setenv("FGN_SEED", str(value))
        else:
            doc["train"]["base_lr"] = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))          # NaN and Infinity as JSON spells them
        trained = []
        monkeypatch.setattr(fgn.metrics, "train_restarts", lambda *a: trained.append(a))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{key} must be" in err
        assert not trained and not out.exists()

    # Values a run config may hold for a train key or the seed: in range ones
    # (as likely as the rest, so that runs also train), negatives, 0, NaN, the
    # infinities, integers past int64 and the float range, bools and strings.
    _VALUES = st.one_of(
        st.integers(1, 12) | st.sampled_from([1e-3, 0.5, 2 ** 63]),
        st.sampled_from([-1, 0, -1.0, 0.0, float("nan"), float("inf"), -float("inf"),
                         2 ** 64 + 1, -2 ** 63 - 1, 10 ** 400, True, False])
        | st.text(max_size=2))

    @given(train=st.dictionaries(st.sampled_from(sorted(_TRAIN_KEYS)), _VALUES, max_size=3),
           seed=st.none() | _VALUES)
    @settings(max_examples=100, deadline=None)
    def test_run_trains_or_fails_by_name_before_training(self, workdir, train, seed):
        doc = json.loads((workdir / "run.json").read_text())
        doc["train"] = train
        if seed is not None:
            doc["seed"] = seed
        cfg = workdir / "drawn.json"
        cfg.write_text(json.dumps(doc))
        trained, err = [], io.StringIO()

        def spy(*args):
            trained.append(args)
            raise _Trains                    # stop where the first step would start

        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(fgn.training, "train", spy)
            try:
                code = main(["train", "--config", str(cfg),
                             "--out", str(workdir / "drawn_out")])
            except _Trains:
                code = None
        event("trains" if code is None else "exits 1")
        assert (code is None) == _in_range({**train, "seed": 0 if seed is None else seed})
        if code is not None:
            assert code == 1 and not trained
            line = err.getvalue()
            assert line.startswith("error: ") and line.count("\n") == 1
            named = set(train) | ({"seed"} if seed is not None else set())
            assert any(key in line for key in named), line

    @pytest.mark.parametrize("split", [1.5, -0.2, float("nan")], ids=["1.5", "-0.2", "nan"])
    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_split_outside_unit_interval(self, workdir, trained, capsys, command, split):
        cfg = write_config(workdir, f"split_{command}", data={"split": split}, horizons=[1])
        args = ["--config", str(cfg), "--out", str(workdir / f"split_{command}_out")]
        if command == "eval":
            args += ["--checkpoint", str(trained / "checkpoint.fgn"),
                     "--data", str(workdir / "gait.csv")]
        assert main([command] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"split must be in (0, 1), got {split}" in err

    @pytest.mark.parametrize("horizons", ["x", [1, "2"]])
    def test_ablate_names_horizons(self, workdir, capsys, horizons):
        cfg = write_config(workdir, "typed_horizons", horizons=horizons)
        assert main(["ablate", "--config", str(cfg),
                     "--out", str(workdir / "typed_horizons_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"horizons must be a list of integers, got {horizons!r}" in err

    @pytest.mark.parametrize("value", [5, "abc", [1], None], ids=["5", "abc", "list", "null"])
    @pytest.mark.parametrize("section", ["model", "train", "data"])
    def test_section_must_be_an_object(self, workdir, capsys, section, value):
        doc = json.loads((workdir / "run.json").read_text())
        doc[section] = value
        cfg = workdir / f"section_{section}.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg),
                     "--out", str(workdir / f"section_{section}_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{section} section must be an object, got {value!r}" in err

    def test_ablate_rejects_empty_horizons(self, workdir, capsys):
        cfg = write_config(workdir, "empty_horizons", horizons=[])
        out = workdir / "empty_horizons_out"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "horizons must list at least one horizon" in err
        assert not out.exists()

    def test_ablate_rejects_repeated_horizons(self, workdir, capsys):
        cfg = write_config(workdir, "repeated_horizons", horizons=[2, 1, 2, 1, 3])
        out = workdir / "repeated_horizons_out"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "horizons must not repeat, got [1, 2] more than once" in err
        assert not out.exists()

    @pytest.mark.parametrize("horizons,below", [([1, 0], [0]), ([2, -3, 1], [-3])],
                             ids=["1,0", "2,-3,1"])
    def test_ablate_rejects_a_horizon_below_one_before_training(self, workdir, capsys,
                                                               monkeypatch, horizons, below):
        cfg = write_config(workdir, "low_horizons", horizons=horizons)
        out = workdir / "low_horizons_out"
        trained = []

        def spy(*args, **kwargs):
            trained.append(args)
            raise _Trains

        monkeypatch.setattr(fgn.training, "train", spy)
        try:
            code = main(["ablate", "--config", str(cfg), "--out", str(out)])
        except _Trains:
            code = None
        assert code == 1 and not trained
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"horizons must each be >= 1, got {below}" in err
        assert not out.exists()

    @pytest.mark.parametrize("data,match", [
        ({"feature_columns": []}, "the feature selection is empty"),
        ({"feature_columns": ["gon_knee_angle"], "include_target_history": False},
         "the only one selected is the target's history 'gon_knee_angle'"),
    ], ids=["empty", "history-only"])
    def test_no_feature_left_is_named(self, workdir, capsys, data, match):
        cfg = write_config(workdir, "no_features", data=data)
        out = workdir / "no_features_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert match in err
        assert not out.exists()

    def test_repeated_feature_column_is_named(self, workdir, capsys):
        cfg = write_config(workdir, "repeated_features", data={
            "feature_columns": ["gon_knee_angle", "gon_knee_angle", "sens_01"]})
        out = workdir / "repeated_features_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "feature names must not repeat, got ['gon_knee_angle'] more than once" in err
        assert not out.exists()

    def test_null_feature_columns_means_all(self, workdir):
        doc = json.loads((workdir / "run.json").read_text())
        doc["data"]["feature_columns"] = None
        cfg = workdir / "null_features.json"
        cfg.write_text(json.dumps(doc))
        out = workdir / "null_features_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        _, saved = load_checkpoint(out / "checkpoint.fgn")
        assert saved.input_dim == 40

    @pytest.mark.parametrize("command", ["eval", "bench"])
    @pytest.mark.parametrize("old,new,key", [(b'"d_ff": 32,', b'"d_ff": -1,', "d_ff"),
                                             (b'"n_encoder_layers": 1,',
                                              b'"n_encoder_layers": 0,', "n_encoder_layers")],
                             ids=["d_ff", "n_encoder_layers"])
    def test_checkpoint_blob_names_the_key(self, workdir, trained, capsys, command,
                                           old, new, key):
        raw = (trained / "checkpoint.fgn").read_bytes()
        assert old in raw
        bad = workdir / f"bad_{key}.fgn"
        bad.write_bytes(raw.replace(old, new, 1))
        args = {"eval": ["--data", str(workdir / "gait.csv")], "bench": ["--trials", "1"]}
        assert main([command, "--checkpoint", str(bad)] + args[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and f"{key} must be >= 1" in err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    @pytest.mark.parametrize("key,value,message", [
        ("input_dim", 0, "input_dim must be >= 1, got 0"),
        ("target_channel", 40, "target_channel must be in [0, input_dim); got 40 vs 40"),
    ], ids=["input_dim", "target_channel"])
    def test_checkpoint_blob_input_fields_checked(self, workdir, trained, capsys, command,
                                                  key, value, message):
        raw = (trained / "checkpoint.fgn").read_bytes()
        (blob_len,) = struct.unpack_from("<I", raw, 4)
        blob = json.dumps({**json.loads(raw[8:8 + blob_len]), key: value}).encode("utf-8")
        bad = workdir / f"bad_{key}_blob.fgn"
        bad.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + blob_len:])
        args = {"eval": ["--data", str(workdir / "gait.csv")], "bench": ["--trials", "1"]}
        assert main([command, "--checkpoint", str(bad)] + args[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and message in err


class TestEval:
    def test_reproduces_training_metrics(self, workdir, trained, capsys):
        out = workdir / "eval_out"
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.fgn"),
                     "--data", str(workdir / "gait.csv"),
                     "--config", str(workdir / "run.json"),
                     "--out", str(out)]) == 0
        got = json.loads((out / "report.json").read_text())["metrics"]
        want = json.loads((trained / "report.json").read_text())["metrics"]
        for key in ("mae", "rmse", "mape", "r2", "n_samples"):
            assert got[key] == want[key]

    def test_checkpoint_keeps_model_label_len(self, workdir):
        cfg = write_config(workdir, "label_len", model={"label_len": 2})
        out = workdir / "label_len_out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        _, saved = load_checkpoint(out / "checkpoint.fgn")
        assert saved.label_len == 2
        # eval cuts the windows training used from the checkpoint's label_len,
        # not from the model section of the config it is given (label_len 4)
        eval_out = workdir / "label_len_eval"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.fgn"),
                     "--data", str(workdir / "gait.csv"),
                     "--config", str(workdir / "run.json"),
                     "--out", str(eval_out)]) == 0
        got = json.loads((eval_out / "report.json").read_text())["metrics"]
        want = json.loads((out / "report.json").read_text())["metrics"]
        for key in ("mae", "rmse", "mape", "r2", "n_samples"):
            assert got[key] == want[key]

    def test_failed_write_keeps_the_old_report(self, workdir, trained, capsys, monkeypatch):
        out = workdir / "atomic_eval_out"
        out.mkdir()
        (out / "report.json").write_bytes(b"old report")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(fgn.data.os, "replace", refuse)
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.fgn"),
                     "--data", str(workdir / "gait.csv"),
                     "--config", str(workdir / "run.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("io error:")
        assert (out / "report.json").read_bytes() == b"old report"
        assert sorted(f.name for f in out.iterdir()) == ["report.json"]

    def test_missing_checkpoint_exit_code(self, workdir, capsys):
        assert main(["eval", "--checkpoint", str(workdir / "nope.fgn"),
                     "--data", str(workdir / "gait.csv")]) == 1
        assert capsys.readouterr().err.startswith("io error")

    def test_corrupt_checkpoint_exit_code(self, workdir, trained, capsys):
        bad = workdir / "corrupt.fgn"
        bad.write_bytes(b"XXXX" + (trained / "checkpoint.fgn").read_bytes()[4:])
        assert main(["eval", "--checkpoint", str(bad),
                     "--data", str(workdir / "gait.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_cell_exit_code(self, workdir, trained, capsys):
        lines = (workdir / "gait.csv").read_text().splitlines(keepends=True)
        cells = lines[1901].split(",")          # a row in the test region
        lines[1901] = ",".join(cells[:2] + ["nan"] + cells[3:])
        bad = workdir / "nan.csv"
        bad.write_text("".join(lines))
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.fgn"),
                     "--data", str(bad), "--config", str(workdir / "run.json"),
                     "--out", str(workdir / "nan_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite cell at row 1901, column 'sens_01'" in err

    def test_repeated_column_name_exit_code(self, workdir, trained, capsys):
        lines = (workdir / "gait.csv").read_text().splitlines(keepends=True)
        names = lines[0].split(",")
        lines[0] = ",".join(names[:3] + names[2:3] + names[4:])     # sens_02 -> sens_01
        bad = workdir / "repeated.csv"
        bad.write_text("".join(lines))
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.fgn"),
                     "--data", str(bad), "--config", str(workdir / "run.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "repeated column names in header: ['sens_01']" in err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_zero_heads_checkpoint_exit_code(self, workdir, trained, capsys, command):
        raw = (trained / "checkpoint.fgn").read_bytes()
        bad = workdir / "zero_heads.fgn"
        bad.write_bytes(raw.replace(b'"h": 2,', b'"h": 0,', 1))
        assert bad.read_bytes() != raw
        args = {"eval": ["--data", str(workdir / "gait.csv")], "bench": ["--trials", "1"]}
        assert main([command, "--checkpoint", str(bad)] + args[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "h must be positive" in err

    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_corrupt_config_blob_exit_code(self, workdir, trained, capsys, command):
        raw = bytearray((trained / "checkpoint.fgn").read_bytes())
        raw[9] = 0xFF
        bad = workdir / "corrupt_blob.fgn"
        bad.write_bytes(bytes(raw))
        args = {"eval": ["--data", str(workdir / "gait.csv")], "bench": ["--trials", "1"]}
        assert main([command, "--checkpoint", str(bad)] + args[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err


    @pytest.mark.parametrize("command", ["eval", "bench"])
    def test_config_blob_not_an_object(self, workdir, trained, capsys, command):
        raw = (trained / "checkpoint.fgn").read_bytes()
        (blob_len,) = struct.unpack_from("<I", raw, 4)
        blob = b'"abc"'
        bad = workdir / "string_blob.fgn"
        bad.write_bytes(raw[:4] + struct.pack("<I", len(blob)) + blob + raw[8 + blob_len:])
        args = {"eval": ["--data", str(workdir / "gait.csv")], "bench": ["--trials", "1"]}
        assert main([command, "--checkpoint", str(bad)] + args[command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "model config must be an object, got 'abc'" in err


class TestAblate:
    def test_small_grid(self, workdir, capsys):
        doc = json.loads((workdir / "run.json").read_text())
        doc["horizons"] = [1, 2]
        cfg = workdir / "ablate.json"
        cfg.write_text(json.dumps(doc))
        out = workdir / "ablate_out"
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert len(rows) == 3 * 2
        text = (out / "report.txt").read_text()
        assert "**" in text and "glu_dcf" in text
        assert "glu_only" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def default_rows(self, workdir):
        return ablate_rows(workdir, "ablate_default")

    @pytest.mark.parametrize("key,value", [("feature_columns", ["no_such_column"]),
                                           ("target_column", "no_such_column")],
                             ids=["feature_columns", "target_column"])
    def test_missing_column_is_an_error(self, workdir, capsys, key, value):
        cfg = write_config(workdir, f"ablate_{key}", data={key: value}, horizons=[1])
        assert main(["ablate", "--config", str(cfg),
                     "--out", str(workdir / f"ablate_{key}_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no_such_column" in err

    @pytest.mark.parametrize("data,model", [
        ({"split": 0.5}, {}),
        ({"include_target_history": False}, {"input_dim": 39}),
    ], ids=["split", "no_target_history"])
    def test_data_section_reaches_the_grid(self, workdir, default_rows, data, model):
        rows = ablate_rows(workdir, f"ablate_{next(iter(data))}", data=data, model=model)
        assert [(r["variant"], r["horizon_ms"]) for r in rows] == \
            [(r["variant"], r["horizon_ms"]) for r in default_rows]
        assert [r["mae"] for r in rows] != [r["mae"] for r in default_rows]

    def test_cell_matches_train_run(self, workdir):
        rows = ablate_rows(workdir, "ablate_cell", data={"split": 0.5})
        cfg = write_config(workdir, "train_split", data={"split": 0.5})
        out = workdir / "train_split_out"
        assert main(["train", "--config", str(cfg), "--ablation", "glu_only",
                     "--horizon", "1", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())["metrics"]
        cell = next(r for r in rows if r["variant"] == "glu_only")
        assert (cell["mae"], cell["rmse"]) == (report["mae"], report["rmse"])


class TestBench:
    def test_prints_and_writes_stats(self, workdir, trained, capsys):
        out = workdir / "bench_out"
        assert main(["bench", "--checkpoint", str(trained / "checkpoint.fgn"),
                     "--batch", "2", "--trials", "5", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        for key in ("mean", "p50", "p95"):
            assert key in printed
        stats = json.loads((out / "report.json").read_text())["timing_ms"]
        assert stats["n_trials"] == 5
        assert all(stats[k] > 0 for k in ("mean", "p50", "p95"))

    @pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--batch", "-1"),
                                            ("--trials", "0")])
    def test_count_below_one_usage_error(self, workdir, trained, capsys, flag, value):
        assert main(["bench", "--checkpoint", str(trained / "checkpoint.fgn"),
                     flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be >= 1") and err.count("\n") == 1

    def test_batch_too_large_to_allocate(self, workdir, trained, capsys):
        # 1e11 windows of [8, 40] float64 inputs is 256 TB: the allocation
        # of the first input, the encoder's, fails before anything is
        # allocated, and the message names its shape
        assert main(["bench", "--checkpoint", str(trained / "checkpoint.fgn"),
                     "--batch", "100000000000", "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert "(100000000000, 8, 40)" in err


class TestTargetHistory:
    @pytest.mark.parametrize("variant", ["dlinear", "nlinear"])
    @pytest.mark.parametrize("data", [
        {"include_target_history": False},
        {"feature_columns": ["sens_01", "sens_02", "sens_03"]},
    ], ids=["no_target_history", "feature_subset"])
    def test_linear_baseline_without_it_is_an_error(self, workdir, capsys, variant, data):
        cfg = write_config(workdir, f"history_{variant}", data=data,
                           model={"variant": variant})
        assert main(["train", "--config", str(cfg),
                     "--out", str(workdir / f"history_{variant}_out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gon_knee_angle" in err and variant in err

    @pytest.mark.parametrize("variant", ["dlinear", "nlinear"])
    def test_eval_without_the_features_trained_on_is_an_error(self, workdir, capsys,
                                                              variant):
        # the checkpoint was trained on 40 features; dropping the target's
        # history shifts sens_01 into its target channel
        out = workdir / f"width_{variant}_out"
        cfg = write_config(workdir, f"width_{variant}", model={"variant": variant})
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        narrow = write_config(workdir, f"width_{variant}_narrow",
                              data={"include_target_history": False})
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(out / "checkpoint.fgn"),
                     "--data", str(workdir / "gait.csv"), "--config", str(narrow)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "encoder input last extent 39 != input_dim 40" in captured.err


class TestReadme:
    """The README's run-config example loads, and every key it lists as
    removed is refused as unknown."""

    @staticmethod
    def accept(doc, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        doc = load_run_config(path)
        ModelConfig.from_dict(doc.get("model", {}))
        TrainRunConfig(**doc.get("train", {}))

    @pytest.fixture(scope="class")
    def text(self):
        return README.read_text(encoding="utf-8")

    @pytest.fixture
    def example(self, text):
        block = re.search(r"A run config is a JSON document.*?```json\n(.*?)```", text, re.S)
        return json.loads(block.group(1))

    def test_example_loads(self, example, tmp_path):
        self.accept(example, tmp_path)

    def test_removed_keys_are_unknown(self, text, example, tmp_path):
        sentence = re.search(r"The keys\s(.*?)\sno\s+longer\s+exist", text, re.S).group(1)
        listed = re.sub(r"\([^)]*\)", "", sentence)        # drop the reasons given
        removed = re.findall(r"`(model|train|data)\.(\w+)`", listed)
        assert ("data", "label_len") in removed and ("train", "seed") in removed
        for section, key in removed:
            doc = json.loads(json.dumps(example))
            doc.setdefault(section, {})[key] = 1
            with pytest.raises(ConfigError, match=rf"unknown keys.*'{key}'"):
                self.accept(doc, tmp_path)
