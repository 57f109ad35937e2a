"""Benchmark self-tests at tiny sizes: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fgn  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import IngestShapes, TrainShapes  # noqa: E402

TINY_MODEL = dict(d_model=8, h=2, d_ff=16, n_encoder_layers=1, n_decoder_layers=1,
                  lookback=16, label_len=8, horizon=4)
TINY = {
    "train-small": TrainShapes(model={**TINY_MODEL, "variant": "focalgatednet",
                                      "ablation": "glu_dcf"},
                               cycles=1, stride=8, n_train=8, n_val=4, n_test=8,
                               batch_size=4, max_epochs=2, setups=2, min_rounds=2),
    "ingest-stride1": IngestShapes(cycles=1, lookback=16, label_len=8, horizon=4, setups=2,
                                   min_passes=2, sample_windows=4, sample_cells=50),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name, tmp_path, trace=False, seed=3):
    tmp_path.mkdir(parents=True, exist_ok=True)
    return workloads.run(fgn, name, seed, 0.0, trace, tmp_path, shapes=TINY[name])


def test_spec_matches_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert bench_run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.LAYER_METRICS


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit_and_no_failures(name, trace, tmp_path):
    result = tiny_run(name, tmp_path, trace)
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["readings"]["failed_frac"]["value"] == 0.0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for name_, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name_


@pytest.mark.parametrize("name", list(TINY))
def test_traced_self_times_cover_the_wall_time(name, tmp_path):
    metrics = tiny_run(name, tmp_path, trace=True)["metrics"]
    assert 0.95 <= metrics["trace.self_sum_frac"]["value"] <= 1.0 + 1e-9
    assert metrics["trace.overhead_pct"]["value"] > 0


def test_span_cost_is_microseconds():
    assert 0 < spans.span_cost_s() < 50e-6


def test_per_step_counts_repeat_exactly(tmp_path):
    keys = ("tensor.ops_per_step", "tensor.f64_outputs_per_step", "tensor.out_bytes_per_step")
    first = tiny_run("train-small", tmp_path / "a", trace=True)["metrics"]
    second = tiny_run("train-small", tmp_path / "b", trace=True)["metrics"]
    for key in keys:
        assert first[key]["value"] > 0
        assert first[key]["value"] == second[key]["value"], key


def test_every_step_counts_the_same_ops(tmp_path):
    # Ops of the validation and evaluate passes between steps belong to no step.
    s = TINY["train-small"]
    tracer = spans.Tracer()
    workload = workloads.TrainSmall(fgn, s, 3, tmp_path, workloads.Ledger())
    tracer.install(fgn)
    try:
        workload.measure(0, tracer)
    finally:
        tracer.restore()
    per_step = Counter(span[spans.STEP] for span in tracer.spans
                       if span[spans.NAME].startswith("tensor.")
                       and span[spans.NAME] != "tensor.backward"
                       and span[spans.STEP] is not None)
    assert len(per_step) == s.min_rounds * s.max_epochs * (s.n_train // s.batch_size)
    assert len(set(per_step.values())) == 1


def test_layers_are_attributed(tmp_path):
    metrics = tiny_run("train-small", tmp_path, trace=True)["metrics"]
    m = {k: v["value"] for k, v in metrics.items()}
    s = TINY["train-small"]
    assert m["training.steps"] == s.min_rounds * s.max_epochs * (s.n_train // s.batch_size)
    assert m["attention.dcf_calls"] > 0 and m["attention.standard_calls"] > 0
    assert m["glu.calls"] > 0 and m["tensor.backward_s"] > 0
    assert m["tensor.matmul_calls"] > 0 and m["tensor.matmul_gflop"] > 0
    assert m["models.forward_s"] >= m["models.decoder_s"] > 0
    assert m["training.load_checkpoint_s"] > 0 and m["metrics.evaluate_s"] > 0
    assert m["data.rows"] == 1000


def test_tracer_restores_every_original(tmp_path):
    before = (fgn.tensor.matmul, fgn.training.adam_step, fgn.attention.DCFAttention.__call__,
              fgn.models.EncoderDecoderForecaster.forward, dict(fgn.layers._ACTIVATIONS))
    tiny_run("train-small", tmp_path, trace=True)
    after = (fgn.tensor.matmul, fgn.training.adam_step, fgn.attention.DCFAttention.__call__,
             fgn.models.EncoderDecoderForecaster.forward, dict(fgn.layers._ACTIVATIONS))
    assert before == after


def test_csv_precision_loss_is_a_failure(tmp_path, monkeypatch):
    def lossy_save(table, path):
        names = table.channel_names
        with open(path, "w") as f:
            f.write(",".join([fgn.data.TIME_COLUMN] + names) + "\n")
            for t, row in zip(table.time_ms, table.matrix(names)):
                f.write(",".join([f"{t:.6f}"] + [f"{v:.6g}" for v in row]) + "\n")

    monkeypatch.setattr(fgn.data, "save_csv", lossy_save)
    result = tiny_run("ingest-stride1", tmp_path)
    assert result["failed"] > 0
    assert any("%.9g" in f for f in result["failures"])


def test_batch1_forecasts_must_match_batched(tmp_path, monkeypatch):
    forward = fgn.models.EncoderDecoderForecaster.forward

    def batch_dependent(self, enc_in, dec_in, training=False, rng=None):
        out = forward(self, enc_in, dec_in, training, rng)
        return out + float(enc_in.shape[0] > 1)

    monkeypatch.setattr(fgn.models.EncoderDecoderForecaster, "forward", batch_dependent)
    result = tiny_run("train-small", tmp_path)
    assert any("matches batched" in f for f in result["failures"])


def test_checkpoint_must_keep_the_model(tmp_path, monkeypatch):
    load = fgn.training.load_checkpoint

    def perturbed_load(path):
        model, config = load(path)
        for _, p in model.parameters():
            p.data += 0.01
        return model, config

    monkeypatch.setattr(fgn.training, "load_checkpoint", perturbed_load)
    result = tiny_run("train-small", tmp_path)
    assert any("match the trained model" in f for f in result["failures"])


def test_main_prints_result_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SHAPES", TINY)
    assert bench_run.main(["--workload", "ingest-stride1", "--seed", "1",
                           "--seconds", "0.1", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    rich = json.loads(lines[-2][len("perfbench "):])
    assert {"numpy", "blas", "blas_threads", "cpu_count", "python",
            "git_commit"} <= set(rich["env"])
    for name, m in last["metrics"].items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == m["unit"]
                   for line in lines), name


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
