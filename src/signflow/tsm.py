"""Temporal shift: move a slice of channels one step along the time axis.

The shifted slice ("fold", floor(C * fold_fraction) channels, default 1/8)
carries neighboring-frame features into the current frame at zero FLOP cost.
Shift is ``tensor.roll_time`` over the folds: a one-step move along time with
zero fill. Two directions:

  * bidirectional (offline): the first fold sees the next frame, the second
    fold sees the previous frame, the rest is untouched;
  * unidirectional (online-capable): only the first fold, previous frame.

The streaming form keeps a per-layer cache of the previous frame's first
fold and swaps it into the current frame, so a stream is processed one
frame at a time with no lookahead.

Shift is placed on the residual branch of backbone blocks: the block input
is shifted before its first convolution while the skip path stays clean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, UsageError
from .tensor import Tensor, roll_time

BIDIRECTIONAL = "bidirectional"
UNIDIRECTIONAL = "unidirectional"


@dataclass(frozen=True)
class ShiftConfig:
    """Fold sizing and shift direction for one model."""

    fold_fraction: Fraction | float = Fraction(1, 8)
    direction: str = BIDIRECTIONAL

    def __post_init__(self):
        frac = float(self.fold_fraction)
        if not 0.0 <= frac <= 0.5:
            raise ConfigError(f"fold_fraction must be in [0, 1/2], got {self.fold_fraction}")
        if self.direction not in (BIDIRECTIONAL, UNIDIRECTIONAL):
            raise ConfigError(f"unknown shift direction {self.direction!r}")

    def fold_channels(self, channels: int) -> int:
        cf = int(channels * float(self.fold_fraction))
        need = 2 * cf if self.direction == BIDIRECTIONAL else cf
        if need > channels:
            raise ConfigError(
                f"fold {cf} channels x2 exceeds {channels} total for bidirectional shift")
        if cf == 0:
            warnings.warn(
                f"fold_fraction {self.fold_fraction} of {channels} channels floors to 0; "
                "shift degenerates to identity", stacklevel=2)
        return cf


def _shift(x: Tensor, cfg: ShiftConfig, direction: str, offsets: tuple[int, ...]) -> Tensor:
    """roll_time of [N,T,C,H,W] with one fold per offset; cfg must be ``direction``."""
    if cfg.direction != direction:
        raise ConfigError(f"shift_{direction} called with direction {cfg.direction!r}")
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 5:
        raise ConfigError(f"shift expects [N,T,C,H,W], got shape {x.shape}")
    cf = cfg.fold_channels(x.shape[2])
    return roll_time(x, offsets, cf) if cf else x


def shift_bidirectional(x: Tensor, cfg: ShiftConfig) -> Tensor:
    """Mix past and future frames: fold 0 reads t+1, fold 1 reads t-1.

    Boundary timesteps read zeros. Differentiable; the gradient of a shift
    is the inverse shift with out-of-range gradients dropped.
    """
    return _shift(x, cfg, BIDIRECTIONAL, (-1, +1))


def shift_unidirectional(x: Tensor, cfg: ShiftConfig) -> Tensor:
    """Blend only past frames: fold 0 reads t-1, zero at t = 0."""
    return _shift(x, cfg, UNIDIRECTIONAL, (+1,))


def shift(x: Tensor, cfg: ShiftConfig) -> Tensor:
    if cfg.direction == BIDIRECTIONAL:
        return shift_bidirectional(x, cfg)
    return shift_unidirectional(x, cfg)


@dataclass
class OnlineCache:
    """Previous frame's first-fold channels for one layer of one stream."""

    stream_id: str
    layer_id: str
    fold: np.ndarray = field(repr=False)  # [N, c_f, H, W], zeros before the first frame

    @classmethod
    def zeros(cls, stream_id: str, layer_id: str, n: int, cf: int, h: int, w: int,
              dtype=np.float32) -> "OnlineCache":
        return cls(stream_id, layer_id, np.zeros((n, cf, h, w), dtype=dtype))


def online_step(frame_features: np.ndarray, cache: OnlineCache
                ) -> tuple[np.ndarray, OnlineCache]:
    """One streaming step: swap the cached fold into the current frame.

    Takes and returns plain [N,C,H,W] arrays: the blended features (cache
    fold + current remainder) and the successor cache holding the current
    frame's fold.
    """
    x = np.asarray(frame_features)
    if x.ndim != 4:
        raise UsageError(f"online_step expects frame features [N,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    cf = cache.fold.shape[1]
    if cache.fold.shape != (n, cf, h, w):
        raise UsageError(
            f"cache shape {cache.fold.shape} does not match frame fold ({n},{cf},{h},{w}) "
            f"for stream {cache.stream_id!r} layer {cache.layer_id!r}")
    if cf == 0:
        return x, cache
    out = np.concatenate([cache.fold.astype(x.dtype, copy=False), x[:, cf:]], axis=1)
    return out, OnlineCache(cache.stream_id, cache.layer_id, x[:, :cf].copy())
