"""Model zoo: the focus-gated encoder-decoder forecaster, a vanilla
transformer baseline, and the DLinear/NLinear linear baselines.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import tensor as T
from .attention import MASK_MODES, DCFAttention, StandardAttention
from .errors import ConfigError, ShapeError
from .glu import GatedConvUnit
from .layers import _ACTIVATIONS, Dense, FeedForward, LayerNorm, Module
from .tensor import Tensor

VARIANTS = ("focalgatednet", "transformer", "dlinear", "nlinear")
LINEAR_VARIANTS = ("dlinear", "nlinear")   # forecast from the target channel alone
# Ablation name -> (decoder uses DCF attention, decoder has a GLU sublayer).
ABLATIONS = {"glu_dcf": (True, True), "dcf_only": (True, False), "glu_only": (False, True)}
POSITIONAL = ("none", "sinusoidal")
DLINEAR_MA_WINDOW = 25   # moving-average width of DLinear's trend, capped at lookback


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# Declared field type -> (what the error says it must be, test); bool is not a number.
_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "list[str]": ("a list of strings",
                  lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "list[int]": ("a list of integers",
                  lambda v: isinstance(v, list) and all(_is_int(x) for x in v)),
}


def check_type(key: str, value, kind: str) -> None:
    """``ConfigError`` naming ``key`` unless ``value`` is of ``kind``: a key
    of ``_TYPES``, or ``Optional[<key>]``, which also admits None (the
    spelling of a dataclass field's declared type)."""
    if kind.startswith("Optional["):
        if value is None:
            return
        kind = kind[len("Optional["):-1]
    what, ok = _TYPES[kind]
    if not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def check_field_types(config) -> None:
    """Check every field of a config dataclass against its declared type,
    before any range check compares a value of the wrong type."""
    for f in fields(config):
        check_type(f.name, getattr(config, f.name), f.type)


@dataclass(frozen=True)
class ModelConfig:
    """The one model config: it describes every variant and ablation, and every
    block is built from it. Frozen, and validated once, in ``__post_init__``
    (``dataclasses.replace`` validates the copy it makes)."""

    n_encoder_layers: int = 3
    n_decoder_layers: int = 2
    d_model: int = 512
    d_ff: int = 2048
    h: int = 8
    dropout_rate: float = 0.1
    glu_k: int = 3
    lookback: int = 128
    label_len: Optional[int] = None
    horizon: int = 20
    input_dim: int = 40
    positional_embedding: str = "none"
    variant: str = "focalgatednet"
    ablation: str = "glu_dcf"
    ffn_activation: str = "relu"
    mask_mode: str = "pre_softmax_additive"
    target_channel: int = 0

    def __post_init__(self):
        check_field_types(self)          # before label_len's default reads lookback
        if self.label_len is None:
            object.__setattr__(self, "label_len", self.lookback // 2)
        # Every variant checks every field, the attention and GLU ones included.
        if self.d_model <= 0 or self.h <= 0:
            raise ConfigError(f"d_model and h must be positive, got {self.d_model}, {self.h}")
        if self.d_model % self.h != 0:
            raise ConfigError(f"d_model={self.d_model} not divisible by h={self.h}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.mask_mode not in MASK_MODES:
            raise ConfigError(f"mask_mode must be one of {MASK_MODES}, got {self.mask_mode!r}")
        for key in ("d_ff", "n_encoder_layers", "n_decoder_layers", "glu_k", "horizon",
                    "lookback", "input_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0 <= self.target_channel < self.input_dim:
            raise ConfigError(f"target_channel must be in [0, input_dim); got "
                              f"{self.target_channel} vs {self.input_dim}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {tuple(ABLATIONS)}, "
                              f"got {self.ablation!r}")
        if self.positional_embedding not in POSITIONAL:
            raise ConfigError(f"positional_embedding must be one of {POSITIONAL}")
        if self.ffn_activation not in _ACTIVATIONS:
            raise ConfigError(f"ffn_activation must be one of {tuple(_ACTIVATIONS)}")
        if not 0 <= self.label_len <= self.lookback:
            raise ConfigError(
                f"label_len must be in [0, lookback]; got {self.label_len} vs {self.lookback}")
        if self.variant == "dlinear" and self.lookback < 2:
            raise ConfigError("dlinear needs lookback >= 2")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"model config must be an object, got {d!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown keys in model config: {sorted(unknown)}")
        return cls(**d)


def sinusoidal_encoding(length: int, d_model: int, dtype=np.float32) -> np.ndarray:
    pos = np.arange(length)[:, None]
    i = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    enc = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return enc.astype(dtype)


class EncoderLayer(Module):
    def __init__(self, rng, cfg: ModelConfig):
        self.attn = StandardAttention(rng, cfg)
        self.ffn = FeedForward(rng, cfg)
        self.norm1 = LayerNorm(cfg.d_model)
        self.norm2 = LayerNorm(cfg.d_model)

    def __call__(self, x, training=False, rng=None):
        x = self.norm1(x + self.attn(x, x, training=training, rng=rng))
        return self.norm2(x + self.ffn(x))


class DecoderLayer(Module):
    def __init__(self, rng, cfg: ModelConfig, use_dcf: bool, use_glu: bool):
        attn_cls = DCFAttention if use_dcf else StandardAttention
        self.self_attn = attn_cls(rng, cfg)
        self.cross_attn = attn_cls(rng, cfg)
        self.norm1 = LayerNorm(cfg.d_model)
        self.norm2 = LayerNorm(cfg.d_model)
        self.glu = None
        if use_glu:
            self.glu = GatedConvUnit(rng, cfg)
            self.norm3 = LayerNorm(cfg.d_model)
        self.ffn = FeedForward(rng, cfg)
        self.norm4 = LayerNorm(cfg.d_model)

    def __call__(self, x, enc_out, training=False, rng=None):
        x = self.norm1(x + self.self_attn(x, x, causal=True, training=training, rng=rng))
        # Cross-attention sees every encoder key; the DCF focus weights are
        # causal over decoder positions, so the decoder stays causal end to end.
        x = self.norm2(x + self.cross_attn(x, enc_out, training=training, rng=rng))
        if self.glu is not None:
            x = self.norm3(x + self.glu(x))
        return self.norm4(x + self.ffn(x))


class EncoderDecoderForecaster(Module):
    """Transformer-style forecaster; attention flavor and GLU presence are
    selected by the config's variant/ablation fields."""

    def __init__(self, rng: np.random.Generator, cfg: ModelConfig):
        if cfg.variant == "focalgatednet":
            use_dcf, use_glu = ABLATIONS[cfg.ablation]
        elif cfg.variant == "transformer":
            use_dcf = use_glu = False
        else:
            raise ConfigError(f"not an encoder-decoder variant: {cfg.variant!r}")
        self.config = cfg
        self.enc_embed = Dense(rng, cfg.input_dim, cfg.d_model)
        self.dec_embed = Dense(rng, cfg.input_dim, cfg.d_model)
        self.encoders = [EncoderLayer(rng, cfg) for _ in range(cfg.n_encoder_layers)]
        self.decoders = [DecoderLayer(rng, cfg, use_dcf, use_glu)
                         for _ in range(cfg.n_decoder_layers)]
        self.head = Dense(rng, cfg.d_model, 1)

    def forward(self, enc_in: Tensor, dec_in: Tensor, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> Tensor:
        cfg = self.config
        if enc_in.shape[-1] != cfg.input_dim:
            raise ShapeError(f"encoder input last extent {enc_in.shape[-1]} != "
                             f"input_dim {cfg.input_dim}")
        x = self.enc_embed(enc_in)
        if cfg.positional_embedding == "sinusoidal":
            x = x + Tensor(sinusoidal_encoding(x.shape[1], cfg.d_model, x.dtype))
        for layer in self.encoders:
            x = layer(x, training=training, rng=rng)
        y = self.dec_embed(dec_in)
        if cfg.positional_embedding == "sinusoidal":
            y = y + Tensor(sinusoidal_encoding(y.shape[1], cfg.d_model, y.dtype))
        for layer in self.decoders:
            y = layer(y, x, training=training, rng=rng)
        out = self.head(y)
        return out[:, -cfg.horizon:, :]

    __call__ = forward


def _per_channel_linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Apply a shared [L_in, H] map along time, per channel: [B,L,C] -> [B,H,C]."""
    y = T.matmul(x.transpose(0, 2, 1), weight)           # [B, C, H]
    if bias is not None:
        y = y + bias
    return y.transpose(0, 2, 1)


def moving_average(x: Tensor, window: int) -> Tensor:
    """Centered moving average along time with edge replication, odd window."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"moving-average window must be odd and >= 1, got {window}")
    if window == 1:
        return x
    pad = (window - 1) // 2
    front = T.concatenate([x[:, :1, :]] * pad, axis=1)
    back = T.concatenate([x[:, -1:, :]] * pad, axis=1)
    xp = T.concatenate([front, x, back], axis=1)
    c = x.shape[-1]
    kernel = Tensor(np.tile(np.eye(c, dtype=x.dtype)[None, :, :] / window, (window, 1, 1)))
    return T.conv1d(xp, kernel)[:, pad:pad + x.shape[1], :]


class _LinearBaseline(Module):
    """Forecasts the target channel from its own lookback window alone."""

    def forward(self, enc_in: Tensor, dec_in=None, training=False, rng=None) -> Tensor:
        c = self.config.target_channel
        return self.forecast(enc_in[:, :, c:c + 1])

    __call__ = forward


class DLinear(_LinearBaseline):
    """Trend/seasonal decomposition with one linear map per component."""

    def __init__(self, rng: np.random.Generator, cfg: ModelConfig):
        self.config = cfg
        w = min(DLINEAR_MA_WINDOW, cfg.lookback)
        self.ma_window = w if w % 2 == 1 else w - 1
        self.trend = Dense(rng, cfg.lookback, cfg.horizon)
        self.seasonal = Dense(rng, cfg.lookback, cfg.horizon)

    def decompose(self, x: Tensor) -> tuple[Tensor, Tensor]:
        trend = moving_average(x, self.ma_window)
        return trend, x - trend

    def forecast(self, x: Tensor) -> Tensor:
        """x: [B, lookback, C] -> [B, horizon, C]."""
        trend, seasonal = self.decompose(x)
        return (_per_channel_linear(trend, self.trend.weight, self.trend.bias)
                + _per_channel_linear(seasonal, self.seasonal.weight, self.seasonal.bias))


class NLinear(_LinearBaseline):
    """Subtract the last observation, map linearly, add it back.

    Bias-free so a constant series maps to itself for any kernel."""

    def __init__(self, rng: np.random.Generator, cfg: ModelConfig):
        self.config = cfg
        self.lin = Dense(rng, cfg.lookback, cfg.horizon, bias=False)

    def forecast(self, x: Tensor) -> Tensor:
        """x: [B, lookback, C] -> [B, horizon, C]."""
        last = x[:, -1:, :]
        y = _per_channel_linear(x - last, self.lin.weight, self.lin.bias)
        return y + last


def build_model(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> Module:
    """Instantiate the model the config describes, seeding all weights."""
    if rng is None:
        rng = np.random.default_rng(0)
    if config.variant in ("focalgatednet", "transformer"):
        return EncoderDecoderForecaster(rng, config)
    if config.variant == "dlinear":
        return DLinear(rng, config)
    return NLinear(rng, config)
