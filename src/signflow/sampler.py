"""Segment sampling.

A variable-length video is divided into T near-equal segments; one frame is
drawn per segment (random within the segment for training, segment center
for evaluation). The model averages the T segments' predictions (see
backbone.Model.forward).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError

MODE_TRAIN_RANDOM = "train-random"
MODE_EVAL_CENTER = "eval-center"


@dataclass
class SampleSpec:
    """How to draw T frame indices from a video."""

    num_segments: int = 8
    mode: str = MODE_EVAL_CENTER
    seed: int = 0
    _rng: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.num_segments < 1:
            raise ConfigError(f"num_segments must be >= 1, got {self.num_segments}")
        if self.mode not in (MODE_TRAIN_RANDOM, MODE_EVAL_CENTER):
            raise ConfigError(f"unknown sampling mode {self.mode!r}")

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng(self.seed)
        return self._rng


def segment_sample(num_frames: int, spec: SampleSpec) -> list[int]:
    """Return T non-decreasing frame indices in [0, num_frames).

    Segment i covers [floor(i*n/T), floor((i+1)*n/T)). Empty segments (short
    videos) reuse floor(i*n/T) clamped to n-1.
    """
    if num_frames < 1:
        raise InputError(f"num_frames must be >= 1, got {num_frames}")
    t = spec.num_segments
    indices: list[int] = []
    for i in range(t):
        lo = i * num_frames // t
        hi = (i + 1) * num_frames // t
        if hi <= lo:
            indices.append(min(lo, num_frames - 1))
        elif spec.mode == MODE_EVAL_CENTER:
            indices.append((lo + hi - 1) // 2)
        else:
            indices.append(int(spec.rng.integers(lo, hi)))
    return indices

