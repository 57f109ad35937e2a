"""Command-line front end: synth | train | eval | ablate | bench.

Run configuration is a JSON document with ``model``, ``train``, ``data``
sections plus top-level ``seed`` and ``horizons``; unknown keys anywhere
are hard errors. Each setting has one key: ``model.label_len`` is the only
label length (``eval`` and ``bench`` read it from the checkpoint) and the
top-level ``seed`` the only seed. Flags override file values; FGN_SEED
overrides both. All outputs land under --out with fixed filenames
(checkpoint.fgn, trace.json, report.json, report.txt).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .data import atomic_open, load_csv, make_windows, save_csv, synth_gait
from .errors import ConfigError, FgnError
from .metrics import (DEFAULT_HORIZONS, MAPE_GUARD_DEG, bench_inference, evaluate, fit,
                      render_ablation, run_ablation)
from .models import check_type
from .tensor import Tensor
from .training import TrainRunConfig, load_checkpoint, save_checkpoint

CHECKPOINT_NAME = "checkpoint.fgn"
TRACE_NAME = "trace.json"
REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"

# data-section key -> its type, as a key of models.check_type's table
_DATA_KEYS = {"path": "str", "feature_columns": "Optional[list[str]]", "target_column": "str",
              "stride": "int", "split": "float", "include_target_history": "bool"}
# data-section keys whose make_windows parameter has another name
_WINDOW_NAMES = {"feature_columns": "feature_names", "target_column": "target_name"}
_TRAIN_KEYS = set(TrainRunConfig.__dataclass_fields__) - {"seed"}
_TOP_KEYS = {"model", "train", "data", "seed", "horizons"}


def _check_keys(d: dict, allowed, where: str) -> None:
    unknown = set(d).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_run_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, _TOP_KEYS, "run config")
    for section in ("model", "train", "data"):
        if not isinstance(doc.get(section, {}), dict):
            raise ConfigError(f"{section} section must be an object, got {doc[section]!r}")
    _check_keys(doc.get("data", {}), _DATA_KEYS, "data section")
    _check_keys(doc.get("train", {}), _TRAIN_KEYS, "train section")
    # model section validated by ModelConfig.from_dict
    return doc


def _train_run_config(doc: dict, args) -> TrainRunConfig:
    """The ``train`` section with the run's seed: FGN_SEED, else --seed,
    else the top-level ``seed`` (default 0)."""
    env = os.environ.get("FGN_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"FGN_SEED must be an integer, got {env!r}") from None
    elif args.seed is not None:
        seed = args.seed
    else:
        seed = doc.get("seed", 0)    # its type is checked by TrainRunConfig
    return TrainRunConfig(**doc.get("train", {}), seed=seed)


def _read_data(doc: dict, data_path=None):
    """Load the table the ``data`` section names; return it with the
    ``make_windows`` keyword arguments the section sets (the keys it leaves
    out keep ``make_windows``' defaults)."""
    data = doc.get("data", {})
    for key, value in data.items():
        check_type(f"data.{key}", value, _DATA_KEYS[key])
    path = data_path or data.get("path")
    if path is None:
        raise ConfigError("no data path: the config sets no data.path and no --data was given")
    table = load_csv(path, schema=data.get("feature_columns"))
    return table, {_WINDOW_NAMES.get(key, key): value for key, value in data.items()
                   if key != "path"}


def _write_outputs(out: Path, texts: dict[str, str]) -> None:
    """Write each ``{file name: text}`` under ``out``, making ``out`` first;
    every file is replaced atomically, as ``save_checkpoint`` replaces its own."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        with atomic_open(out / name, "w", encoding="utf-8") as f:
            f.write(text)


def _check_count(flag: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{flag} must be >= 1, got {value}")


# -- subcommands -------------------------------------------------------------

def cmd_synth(args) -> int:
    _check_count("--cycles", args.cycles)
    if not (np.isfinite(args.noise) and args.noise >= 0):
        raise ConfigError(f"--noise must be finite and >= 0, got {args.noise}")
    table = synth_gait(args.cycles, noise_std=args.noise, seed=args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_csv(table, args.out)
    print(f"wrote {args.out}: {len(table)} rows, {len(table.channel_names)} channels")
    return 0


def cmd_train(args) -> int:
    doc = load_run_config(args.config)
    run_cfg = _train_run_config(doc, args)
    model_dict = dict(doc.get("model", {}))
    if args.horizon is not None:
        model_dict["horizon"] = args.horizon
    if args.variant is not None:
        model_dict["variant"] = args.variant
    if args.ablation is not None:
        model_dict["ablation"] = args.ablation
    table, window_kwargs = _read_data(doc, args.data)
    result, summary, report = fit(model_dict, table, run_cfg, **window_kwargs)
    cfg = result.model.config

    line = report.row(f"{cfg.variant}/{cfg.ablation}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.model, cfg, out / CHECKPOINT_NAME)
    _write_outputs(out, {
        TRACE_NAME: json.dumps({"trace": result.trace, "best_epoch": result.best_epoch,
                                "restart_summary": summary, "seed": run_cfg.seed}, indent=2),
        REPORT_JSON: json.dumps({"metrics": report.to_dict(), "variant": cfg.variant,
                                 "ablation": cfg.ablation, "seed": run_cfg.seed}, indent=2),
        REPORT_TEXT: line + "\n"
                     f"(MAPE is a fraction; relative errors guarded at {MAPE_GUARD_DEG} deg)\n",
    })
    print(line)
    return 0


def cmd_eval(args) -> int:
    model, cfg = load_checkpoint(args.checkpoint)
    doc = load_run_config(args.config) if args.config else {}
    table, window_kwargs = _read_data(doc, args.data)
    data = make_windows(table, cfg.lookback, cfg.label_len, cfg.horizon, **window_kwargs)
    report = evaluate(model, data.test, data.stats)
    line = report.row(f"{cfg.variant}/{cfg.ablation}")
    print(line)
    if args.out:
        _write_outputs(Path(args.out), {
            REPORT_JSON: json.dumps({"metrics": report.to_dict(), "variant": cfg.variant,
                                     "ablation": cfg.ablation}, indent=2),
            REPORT_TEXT: line + "\n",
        })
    return 0


def cmd_ablate(args) -> int:
    doc = load_run_config(args.config)
    run_cfg = _train_run_config(doc, args)
    table, window_kwargs = _read_data(doc)
    horizons = doc.get("horizons", list(DEFAULT_HORIZONS))
    check_type("horizons", horizons, "list[int]")
    if not horizons:
        raise ConfigError("horizons must list at least one horizon")
    repeats = sorted({h for h in horizons if horizons.count(h) > 1})
    if repeats:
        raise ConfigError(f"horizons must not repeat, got {repeats} more than once")
    below = [h for h in horizons if h < 1]
    if below:
        raise ConfigError(f"horizons must each be >= 1, got {below}")
    rows = run_ablation(doc.get("model", {}), table, horizons=horizons, run_config=run_cfg,
                        **window_kwargs)
    text = render_ablation(rows)
    print(text)
    _write_outputs(Path(args.out), {
        REPORT_JSON: json.dumps({"rows": rows, "seed": run_cfg.seed}, indent=2),
        REPORT_TEXT: text + "\n",
    })
    return 0


def cmd_bench(args) -> int:
    _check_count("--batch", args.batch)
    _check_count("--trials", args.trials)
    model, cfg = load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(0)
    enc = Tensor(rng.standard_normal((args.batch, cfg.lookback, cfg.input_dim))
                 .astype(np.float32))
    dec = Tensor(rng.standard_normal((args.batch, cfg.label_len, cfg.input_dim))
                 .astype(np.float32))
    stats = bench_inference(model, enc, dec, n_trials=args.trials)
    print(f"inference ms per forward (batch {args.batch}): "
          f"mean {stats['mean']:.3f}  p50 {stats['p50']:.3f}  p95 {stats['p95']:.3f}")
    if args.out:
        _write_outputs(Path(args.out), {REPORT_JSON: json.dumps(
            {"variant": cfg.variant, "timing_ms": stats, "batch": args.batch}, indent=2)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fgn", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="generate a synthetic gait-style CSV")
    s.add_argument("--out", required=True)
    s.add_argument("--cycles", type=int, default=10)
    s.add_argument("--noise", type=float, default=0.05)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_synth)

    s = sub.add_parser("train", help="train a model and report test metrics")
    s.add_argument("--config", required=True)
    s.add_argument("--data", default=None)
    s.add_argument("--horizon", type=int, default=None)
    s.add_argument("--variant", default=None)
    s.add_argument("--ablation", default=None)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_train)

    s = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("ablate", help="run the variant-by-horizon ablation grid")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_ablate)

    s = sub.add_parser("bench", help="time inference for a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--batch", type=int, default=1)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FgnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
