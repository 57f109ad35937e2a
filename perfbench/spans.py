"""Span tracing of fgn's public names, installed from outside the package.

``Tracer.install()`` replaces module functions and class ``__call__`` /
``forward`` methods with wrappers that record one span per call: name,
start, end, parent span and the step id current when it started. The
originals are put back by ``Tracer.restore()``. Nothing under ``src/`` is
changed; the spans live in memory until ``layer_metrics`` reduces them.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans add up to the time spent inside
traced calls. Tensor ops that run inside another tensor op (``layer_norm``
is built from ``sub``/``mul``/``div``...) count toward the outermost op's
category, so the ``tensor.*_s`` categories do not overlap.
"""

from __future__ import annotations

import statistics
import time
from types import SimpleNamespace

import numpy as np

# Public fgn.tensor functions and the category each one's time counts toward.
TENSOR_CATEGORIES = {
    "matmul": "matmul",
    "conv1d": "conv1d",
    "softmax": "softmax",
    "layer_norm": "layer_norm",
    "backward": "backward",
    **{op: "shape_ops" for op in ("reshape", "transpose", "concatenate", "getitem")},
    **{op: "elementwise" for op in (
        "add", "sub", "mul", "div", "power", "sqrt", "sigmoid", "tanh", "relu",
        "gelu", "exp", "log", "dropout", "reduce_sum", "reduce_mean")},
}

# (module, attribute) -> span name, for module-level functions.
FUNCTIONS = {
    ("attention", "apply_mask_and_normalize"): "attention.mask_normalize",
    ("attention", "masked_position_softmax"): "attention.focus_softmax",
    ("training", "train"): "training.train",
    ("training", "mse_loss"): "training.mse_loss",
    ("training", "adam_step"): "training.adam_step",
    ("training", "dataset_loss"): "training.dataset_loss",
    ("training", "save_checkpoint"): "training.save_checkpoint",
    ("training", "load_checkpoint"): "training.load_checkpoint",
    ("metrics", "evaluate"): "metrics.evaluate",
    ("metrics", "compute_metrics"): "metrics.compute_metrics",
    ("data", "synth_gait"): "data.synth_gait",
    ("data", "save_csv"): "data.save_csv",
    ("data", "load_csv"): "data.load_csv",
    ("data", "make_windows"): "data.make_windows",
}

# (module, class, method) -> span name, for module classes.
METHODS = {
    ("attention", "DCFAttention", "__call__"): "attention.dcf",
    ("attention", "StandardAttention", "__call__"): "attention.standard",
    ("glu", "GatedConvUnit", "__call__"): "glu",
    ("layers", "LayerNorm", "__call__"): "layers.layer_norm",
    ("layers", "FeedForward", "__call__"): "layers.ffn",
    ("layers", "Dense", "__call__"): "layers.dense",
    ("models", "EncoderDecoderForecaster", "forward"): "models.forward",
    ("models", "EncoderDecoderForecaster", "__call__"): "models.forward",
    ("models", "EncoderLayer", "__call__"): "models.encoder",
    ("models", "DecoderLayer", "__call__"): "models.decoder",
}

# Calls whose tensor ops are not part of a training step.
NO_STEP = {"training.dataset_loss", "metrics.evaluate"}

# Per-layer metrics: name -> unit. Every traced run reports all of them;
# a layer a workload never calls reads 0.
LAYER_METRICS = {
    "tensor.ops_per_step": "count",
    "tensor.f64_outputs_per_step": "count",
    "tensor.out_bytes_per_step": "bytes",
    "tensor.matmul_s": "s",
    "tensor.matmul_calls": "count",
    "tensor.matmul_gflop": "GFLOP",
    "tensor.conv1d_s": "s",
    "tensor.softmax_s": "s",
    "tensor.layer_norm_s": "s",
    "tensor.elementwise_s": "s",
    "tensor.shape_ops_s": "s",
    "tensor.backward_s": "s",
    "attention.dcf_s": "s",
    "attention.dcf_calls": "count",
    "attention.standard_s": "s",
    "attention.standard_calls": "count",
    "attention.mask_normalize_s": "s",
    "attention.focus_softmax_s": "s",
    "glu.s": "s",
    "glu.calls": "count",
    "layers.layer_norm_s": "s",
    "layers.ffn_s": "s",
    "layers.dense_s": "s",
    "models.forward_s": "s",
    "models.encoder_s": "s",
    "models.decoder_s": "s",
    "training.steps": "count",
    "training.loss_s": "s",
    "training.adam_s": "s",
    "training.val_s": "s",
    "training.loop_self_s": "s",
    "training.load_checkpoint_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.compute_metrics_s": "s",
    "data.synth_gait_s": "s",
    "data.save_csv_s": "s",
    "data.load_csv_s": "s",
    "data.make_windows_s": "s",
    "data.window_bytes": "bytes",
    "data.rows": "count",
    "trace.wall_s": "s",
    "trace.self_sum_frac": "fraction",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

# Inclusive-time metrics: metric -> span name.
_INCLUSIVE = {
    "attention.dcf_s": "attention.dcf",
    "attention.standard_s": "attention.standard",
    "attention.mask_normalize_s": "attention.mask_normalize",
    "attention.focus_softmax_s": "attention.focus_softmax",
    "glu.s": "glu",
    "layers.layer_norm_s": "layers.layer_norm",
    "layers.ffn_s": "layers.ffn",
    "layers.dense_s": "layers.dense",
    "models.forward_s": "models.forward",
    "models.encoder_s": "models.encoder",
    "models.decoder_s": "models.decoder",
    "training.loss_s": "training.mse_loss",
    "training.adam_s": "training.adam_step",
    "training.val_s": "training.dataset_loss",
    "training.load_checkpoint_s": "training.load_checkpoint",
    "metrics.evaluate_s": "metrics.evaluate",
    "metrics.compute_metrics_s": "metrics.compute_metrics",
    "data.synth_gait_s": "data.synth_gait",
    "data.save_csv_s": "data.save_csv",
    "data.load_csv_s": "data.load_csv",
    "data.make_windows_s": "data.make_windows",
}

_CALLS = {
    "tensor.matmul_calls": "tensor.matmul",
    "attention.dcf_calls": "attention.dcf",
    "attention.standard_calls": "attention.standard",
    "glu.calls": "glu",
    "training.steps": "training.adam_step",
}

# Span record fields. WORK is the forward GEMM FLOPs of a matmul and the
# table rows of a make_windows call.
NAME, START, END, PARENT, STEP, F64, NBYTES, WORK = range(8)


def array_bytes(obj) -> int:
    """Bytes of every ndarray reachable through a dataclass's fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is None:
        return 0
    return sum(array_bytes(getattr(obj, f)) for f in fields)


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.step = None          # current training step id; None outside steps
        self._stack: list[int] = []
        self._no_step = 0
        self._undo: list = []

    # -- installing wrappers --------------------------------------------------

    def install(self, fgn) -> None:
        """Wrap every traced name of the imported ``fgn`` package."""
        tensor = fgn.tensor
        for op in TENSOR_CATEGORIES:
            if hasattr(tensor, op):
                self._patch(tensor, op, self._wrap(getattr(tensor, op), f"tensor.{op}",
                                                   tensor_op=True))
        # FeedForward picks its activation from this table when it is built.
        activations = getattr(fgn.layers, "_ACTIVATIONS", None)
        if isinstance(activations, dict):
            saved = dict(activations)
            activations.update({k: getattr(tensor, getattr(f, "__name__", ""), f)
                                for k, f in saved.items()})
            self._undo.append(lambda: activations.update(saved))
        for (mod, attr), name in FUNCTIONS.items():
            owner = getattr(fgn, mod)
            if hasattr(owner, attr):
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        for (mod, cls, attr), name in METHODS.items():
            owner = getattr(getattr(fgn, mod), cls, None)
            if owner is not None and attr in vars(owner):
                self._patch(owner, attr, self._wrap(vars(owner)[attr], name))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._undo:
            self._undo.pop()()

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _wrap(self, fn, name: str, tensor_op: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        no_step = name in NO_STEP
        advances_step = name == "training.adam_step"
        measures_windows = name == "data.make_windows"
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.step if tracer._no_step == 0 else None, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            if no_step:
                tracer._no_step += 1
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if no_step:
                    tracer._no_step -= 1
            if tensor_op:
                data = getattr(out, "data", None)
                if isinstance(data, np.ndarray):
                    rec[F64] = int(data.dtype == np.float64)
                    rec[NBYTES] = data.nbytes
                    if name == "tensor.matmul":
                        # 2 * (batch * M * N) * K multiply-adds for the forward GEMM.
                        rec[WORK] = 2 * data.size * args[0].shape[-1]
            elif measures_windows:
                rec[NBYTES] = array_bytes(out.train) + array_bytes(out.test)
                rec[WORK] = len(args[0]) if args else len(kwargs["table"])
            elif advances_step and tracer.step is not None:
                tracer.step += 1
            return out

        return traced


def span_cost_s() -> float:
    """Seconds one span adds to the call it wraps, measured on a no-op.

    The no-op is wrapped as a tensor op, the wrapper that does the most work
    per call; the best of five rounds of 20 000 calls is kept.
    """
    out = SimpleNamespace(data=np.zeros(1, dtype=np.float32))
    calls = 20000

    def op():
        return out

    best = float("inf")
    for _ in range(5):
        traced = Tracer()._wrap(op, "tensor.noop", tensor_op=True)
        t0 = time.perf_counter()
        for _ in range(calls):
            op()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Reduce spans to the per-layer metrics of ``LAYER_METRICS``."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    out = {k: 0.0 for k in LAYER_METRICS}
    category: list = [None] * n
    per_step: dict = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        if name.startswith("tensor."):
            parent = s[PARENT]
            outer = category[parent] if parent >= 0 else None
            category[i] = outer or TENSOR_CATEGORIES[name[len("tensor."):]]
            out[f"tensor.{category[i]}_s"] += self_t[i]
            if name == "tensor.matmul":
                out["tensor.matmul_gflop"] += s[WORK] / 1e9
            if name != "tensor.backward" and s[STEP] is not None:
                ops, f64, nbytes = per_step.get(s[STEP], (0, 0, 0))
                per_step[s[STEP]] = (ops + 1, f64 + s[F64], nbytes + s[NBYTES])
        elif name == "data.make_windows":
            out["data.window_bytes"] = max(out["data.window_bytes"], s[NBYTES])
            out["data.rows"] = max(out["data.rows"], s[WORK])
        elif name == "training.train":
            out["training.loop_self_s"] += self_t[i]

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for i, s in enumerate(spans):
        totals[s[NAME]] = totals.get(s[NAME], 0.0) + dur[i]
        counts[s[NAME]] = counts.get(s[NAME], 0) + 1
    for metric, span in _INCLUSIVE.items():
        out[metric] = totals.get(span, 0.0)
    for metric, span in _CALLS.items():
        out[metric] = counts.get(span, 0)

    if per_step:
        steps = list(per_step.values())
        out["tensor.ops_per_step"] = statistics.median_low(s[0] for s in steps)
        out["tensor.f64_outputs_per_step"] = statistics.median_low(s[1] for s in steps)
        out["tensor.out_bytes_per_step"] = statistics.median_low(s[2] for s in steps)
    out["trace.wall_s"] = wall_s
    out["trace.self_sum_frac"] = sum(self_t) / wall_s if wall_s > 0 else 0.0
    out["trace.spans"] = n
    return out
