"""Temporal shift: move a slice of channels one step along the time axis.

The shifted slice ("fold", floor(C * fold_fraction) channels, default 1/8)
carries neighboring-frame features into the current frame at zero FLOP cost.
``check_fold`` checks the fraction and the direction, and ``fold_channels``
sizes a block's fold once, when the network is specified;
``shift`` is ``tensor.roll_time`` over the folds, on a Tensor or an array:
a one-step move along time with zero fill. Two directions:

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

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, roll_time

BIDIRECTIONAL = "bidirectional"
UNIDIRECTIONAL = "unidirectional"


def check_fold(fold_fraction: float, direction: str) -> None:
    """A fraction outside [0, 1/2] or an unknown direction is a ConfigError."""
    if not 0.0 <= float(fold_fraction) <= 0.5:
        raise ConfigError(f"fold_fraction must be in [0, 1/2], got {fold_fraction}")
    if direction not in (BIDIRECTIONAL, UNIDIRECTIONAL):
        raise ConfigError(f"unknown shift direction {direction!r}")


def fold_channels(channels: int, fold_fraction: float, direction: str) -> int:
    """floor(C * fold_fraction), the fold of a shift over C channels; what
    check_fold rejects, or a fold of 0, is a ConfigError."""
    check_fold(fold_fraction, direction)
    fold = int(channels * float(fold_fraction))
    if fold == 0:
        raise ConfigError(f"fold_fraction {fold_fraction} of {channels} channels "
                          "floors to a fold of 0 channels")
    return fold


def shift(x: Tensor | np.ndarray, fold: int, direction: str) -> Tensor | np.ndarray:
    """Move ``fold``-channel folds of [N,T,C,H,W] one step along time, zero-filled.

    Bidirectional: fold 0 reads t+1, fold 1 reads t-1. Unidirectional:
    fold 0 reads t-1. A fold of 0 is the identity. On a Tensor it is
    differentiable; the gradient of a shift is the inverse shift with
    out-of-range gradients dropped. On an array it is a new array, and
    builds no graph.
    """
    if len(x.shape) != 5:
        raise ConfigError(f"shift expects [N,T,C,H,W], got shape {x.shape}")
    offsets = (-1, +1) if direction == BIDIRECTIONAL else (+1,)
    return roll_time(x, offsets, fold) if fold else x


def online_step(x: np.ndarray, prev: np.ndarray | None, fold: int) -> np.ndarray:
    """The unidirectional shift for one [N,C,H,W] frame: a copy of ``x`` whose
    first ``fold`` channels come from ``prev``, the previous frame's input
    (zeros before the first frame, when ``prev`` is None)."""
    out = x.copy()
    out[:, :fold] = 0 if prev is None else prev[:, :fold]
    return out
