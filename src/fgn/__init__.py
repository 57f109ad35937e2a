"""Sequence-forecasting toolkit: focus-gated transformer forecaster with
linear baselines, built on a small tape-based autodiff engine."""

from .tensor import Tensor, backward, no_grad
from .models import ModelConfig, build_model
from .training import TrainRunConfig, train, save_checkpoint, load_checkpoint
from .metrics import MetricsReport, compute_metrics, evaluate

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "no_grad",
    "ModelConfig", "build_model",
    "TrainRunConfig", "train", "save_checkpoint", "load_checkpoint",
    "MetricsReport", "compute_metrics", "evaluate",
]
