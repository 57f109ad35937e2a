"""Training harness: Adam on the engine's MSE loss with a per-epoch halving
schedule, early stopping on validation loss, and checkpoint persistence.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .data import WindowSet, atomic_open
from .errors import (CheckpointConfigError, CheckpointLengthError, CheckpointMagicError,
                     CheckpointTruncatedError, ConfigError, DivergenceError, TapeError)
from .layers import Module
from .models import ModelConfig, build_model, check_field_types
from .tensor import Tensor, mse_loss

CHECKPOINT_MAGIC = b"FGN1"
EVAL_BATCH_SIZE = 32           # windows per no-grad forward in evaluation and validation
VAL_FRACTION = 0.1             # share of the training windows split_validation holds out


def lr_at_epoch(base_lr: float, epoch: int) -> float:
    """Learning rate halves every epoch (epoch index 0-based)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return base_lr / (2.0 ** epoch)


@dataclass
class OptimizerState:
    """Adam accumulators, one slot per parameter."""
    beta1 = 0.9                # class constants, not fields
    beta2 = 0.999
    eps = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def init_slots(self, params: list[Tensor]) -> None:
        # float64 whatever the parameters' dtype: adam_step updates in float64.
        self.m = [np.zeros(p.shape, dtype=np.float64) for p in params]
        self.v = [np.zeros(p.shape, dtype=np.float64) for p in params]


def adam_step(params: list[Tensor], state: OptimizerState, lr: float) -> None:
    """One bias-corrected Adam update in place.

    ``m``, ``v`` and the parameter are written through ``out=`` buffers, in
    float64 and in the operation order of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p = p - lr*(m/c1) / (sqrt(v/c2) + eps)``, rounded once to ``p``'s dtype.
    """
    if not state.m:
        state.init_slots(params)
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        if p.grad is None:
            raise TapeError(f"parameter {i} has no gradient; run backward first")
        m, v = state.m[i], state.v[i]
        g = p.grad.astype(np.float64)
        step = np.multiply(g, 1 - b1)
        m *= b1
        m += step
        np.multiply(g, 1 - b2, out=step)
        step *= g
        v *= b2
        v += step
        np.divide(v, c2, out=g)                  # g now holds the denominator
        np.sqrt(g, out=g)
        g += state.eps
        np.divide(m, c1, out=step)
        step *= lr
        step /= g
        np.subtract(p.data, step, out=p.data, casting="same_kind")


@dataclass(frozen=True)
class TrainRunConfig:
    max_epochs: int = 10
    patience: int = 3
    batch_size: int = 32
    seed: int = 0
    base_lr: float = 1e-4
    restarts: int = 1

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.patience < self.max_epochs or self.max_epochs < 1:
            raise ConfigError(f"need 0 < patience < max_epochs, got "
                              f"{self.patience} / {self.max_epochs}")
        if self.batch_size < 1 or self.restarts < 1:
            raise ConfigError("batch_size and restarts must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # an integer past the float range is not finite either: no float holds it
        if not 0 < self.base_lr <= sys.float_info.max:
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")


def predict(model: Module, ws: WindowSet) -> np.ndarray:
    """Eval-mode forecasts of every window of ``ws`` in order, [n, horizon, 1],
    from no-grad forwards of ``EVAL_BATCH_SIZE`` windows at a time. A window's
    forecast does not depend on the windows batched with it, so neither does
    the result; the batch bounds only the activations one forward holds."""
    with T.no_grad():
        preds = [model.forward(Tensor(ws.encoder[s:s + EVAL_BATCH_SIZE]),
                               Tensor(ws.decoder[s:s + EVAL_BATCH_SIZE])).data
                 for s in range(0, len(ws), EVAL_BATCH_SIZE)]
    return np.concatenate(preds)


def dataset_loss(model: Module, ws: WindowSet) -> float:
    """Mean MSE over a window set (0.0 when it is empty), eval mode, no
    gradient recording: one mean, in the forecasts' dtype, over every forecast."""
    if len(ws) == 0:
        return 0.0
    return float(((predict(model, ws) - ws.target_norm) ** 2).mean())


@dataclass
class TrainResult:
    model: Module
    trace: list[dict]              # per-epoch {epoch, lr, train_loss, val_loss}
    best_epoch: int
    best_val_loss: float


def train(model: Module, train_set: WindowSet, val_set: WindowSet,
          run_config: TrainRunConfig) -> TrainResult:
    """Epoch loop with seeded shuffling, halving LR, early stopping; the
    returned model carries the best-validation parameters, not the last,
    and no gradients. A non-finite training or validation loss raises
    ``DivergenceError``.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ConfigError("train and validation sets must be non-empty")
    rng = np.random.default_rng(run_config.seed)
    params = [p for _, p in model.parameters()]
    state = OptimizerState()
    trace: list[dict] = []
    best_val = np.inf
    best_epoch = -1
    best_params: list[np.ndarray] = []
    since_best = 0

    for epoch in range(run_config.max_epochs):
        lr = lr_at_epoch(run_config.base_lr, epoch)
        order = rng.permutation(len(train_set))
        epoch_loss, n_batches = 0.0, 0
        for bi, start in enumerate(range(0, len(order), run_config.batch_size)):
            idx = order[start:start + run_config.batch_size]
            model.zero_grad()
            pred = model.forward(Tensor(train_set.encoder[idx]), Tensor(train_set.decoder[idx]),
                                 training=True, rng=rng)
            loss = mse_loss(pred, Tensor(train_set.target_norm[idx]))
            lv = loss.item()
            if not np.isfinite(lv):
                T._drop_tape()
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {bi}")
            T.backward(loss)
            adam_step(params, state, lr)
            epoch_loss += lv
            n_batches += 1
        val_loss = dataset_loss(model, val_set)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        trace.append({"epoch": epoch, "lr": lr,
                      "train_loss": epoch_loss / max(n_batches, 1),
                      "val_loss": val_loss})
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = [p.data.copy() for p in params]
            since_best = 0
        else:
            since_best += 1
            if since_best >= run_config.patience:
                break

    for p, best in zip(params, best_params):
        p.data = best
    model.zero_grad()
    return TrainResult(model, trace, best_epoch, best_val)


def split_validation(train_set: WindowSet) -> tuple[WindowSet, WindowSet]:
    """Carve the last ``VAL_FRACTION`` of the training windows off as validation."""
    n = len(train_set)
    n_val = max(1, int(np.floor(n * VAL_FRACTION)))
    cut = n - n_val
    if cut < 1:
        raise ConfigError(f"training set too small to split: {n} windows")

    def take(lo, hi):
        return WindowSet(*(getattr(train_set, f.name)[lo:hi] for f in fields(WindowSet)))

    return take(0, cut), take(cut, n)


def train_restarts(config: ModelConfig, train_set: WindowSet, val_set: WindowSet,
                   run_config: TrainRunConfig) -> tuple[TrainResult, dict]:
    """Seeded restarts over fixed splits; returns the best run plus a
    best/mean validation-loss summary. Only the best run so far is kept
    while the next one trains (the first of equal losses)."""
    best, losses = None, []
    for r in range(run_config.restarts):
        seed = run_config.seed + r
        result = train(build_model(config, np.random.default_rng(seed)), train_set, val_set,
                       replace(run_config, seed=seed, restarts=1))
        losses.append(result.best_val_loss)
        if best is None or result.best_val_loss < best.best_val_loss:
            best = result
        del result          # else it holds its model through the next restart
    summary = {"restarts": run_config.restarts,
               "best_val_loss": best.best_val_loss,
               "mean_val_loss": float(np.mean(losses))}
    return best, summary


# -- checkpoint persistence --------------------------------------------------

def save_checkpoint(model: Module, config: ModelConfig, path) -> None:
    """Magic, length-prefixed config JSON, float32 LE parameters in declared
    order, then a u64 LE parameter-count trailer; ``path`` is replaced only
    once the file is complete. ``config`` must be the one the model was
    built from, or the file would reload as another model."""
    saved, built = config.to_dict(), model.config.to_dict()
    differing = sorted(key for key in saved if saved[key] != built[key])
    if differing:
        raise ConfigError(f"config differs from the model's own config in {differing}")
    blob = json.dumps(saved, sort_keys=True).encode("utf-8")
    params = model.parameters()
    values = np.concatenate([p.data.astype(np.float32).ravel() for _, p in params])
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(values.astype("<f4").tobytes())
        f.write(struct.pack("<Q", values.size))


def load_checkpoint(path) -> tuple[Module, ModelConfig]:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {raw[:4]!r}, "
                                   f"expected {CHECKPOINT_MAGIC!r}")
    if len(raw) < 8:
        raise CheckpointTruncatedError(f"{path}: header truncated")
    (blob_len,) = struct.unpack_from("<I", raw, 4)
    body = 8 + blob_len
    if len(raw) < body + 8:
        raise CheckpointTruncatedError(f"{path}: config blob truncated")
    try:
        config = ModelConfig.from_dict(json.loads(raw[8:body].decode("utf-8")))
        model = build_model(config, np.random.default_rng(0))
    except (ValueError, TypeError) as e:     # bad UTF-8, bad JSON, bad or unknown keys
        raise CheckpointConfigError(f"{path}: bad config blob: {e}") from None
    (declared,) = struct.unpack_from("<Q", raw, len(raw) - 8)
    payload = raw[body:-8]
    if len(payload) % 4 != 0 or len(payload) // 4 != declared:
        raise CheckpointLengthError(
            f"{path}: expected {declared} float32 values, found {len(payload) / 4:g}")
    values = np.frombuffer(payload, dtype="<f4")
    params = model.parameters()
    need = sum(p.size for _, p in params)
    if need != declared:
        raise CheckpointLengthError(
            f"{path}: config implies {need} parameter values, file declares {declared}")
    off = 0
    for _, p in params:
        n = p.size
        p.data = values[off:off + n].reshape(p.shape).copy()
        off += n
    return model, config
