"""Temporal shift: move a slice of channels one step along the time axis.

The shifted slice ("fold", floor(C * fold_fraction) channels, default 1/8)
carries neighboring-frame features into the current frame at zero FLOP cost.
``shift`` is ``tensor.roll_time`` over the folds: a one-step move along time
with zero fill. Two directions:

  * bidirectional (offline): the first fold sees the next frame, the second
    fold sees the previous frame, the rest is untouched;
  * unidirectional (online-capable): only the first fold, previous frame.

``online_step`` is the unidirectional shift one frame at a time: it takes
the first fold from the previous frame's input, so a stream needs no
lookahead and keeps nothing but each layer's previous input.

Shift is placed on the residual branch of backbone blocks: the block input
is shifted before its first convolution while the skip path stays clean.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError
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


def shift(x: Tensor, cfg: ShiftConfig) -> Tensor:
    """Move cfg's folds of [N,T,C,H,W] one step along time, zero-filled.

    Bidirectional: fold 0 reads t+1, fold 1 reads t-1. Unidirectional:
    fold 0 reads t-1. Differentiable; the gradient of a shift is the
    inverse shift with out-of-range gradients dropped.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.data.ndim != 5:
        raise ConfigError(f"shift expects [N,T,C,H,W], got shape {x.shape}")
    cf = cfg.fold_channels(x.shape[2])
    offsets = (-1, +1) if cfg.direction == BIDIRECTIONAL else (+1,)
    return roll_time(x, offsets, cf) if cf else x


def online_step(x: np.ndarray, prev: np.ndarray | None, fold: int) -> np.ndarray:
    """The unidirectional shift for one [N,C,H,W] frame: a copy of ``x`` whose
    first ``fold`` channels come from ``prev``, the previous frame's input
    (zeros before the first frame, when ``prev`` is None)."""
    out = x.copy()
    out[:, :fold] = 0 if prev is None else prev[:, :fold]
    return out
