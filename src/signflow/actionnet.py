"""Excitation gating block: the input times the sum of three sigmoid gates.

The block computes data-dependent gates three ways and multiplies its input
once by their sum:

  * ste: a spatial-temporal gate from a channel-mean map passed through a
    3x3x3 convolution over (T, H, W), run as conv2d + roll_time;
  * ce: a channel gate from spatially pooled features squeezed C -> C/r,
    convolved depthwise across time (kernel k, zero pad), and expanded back;
  * me: a motion gate from differences between transformed consecutive
    squeezed frames.

Every temporal move (the ste and ce conv taps and the me frame difference) is
``tensor.roll_time``, the same zero-filled move along time as the shift. Both
temporal convs put their taps on channels, roll each tap once and sum them.

Each branch returns its gate, in (0, 1): ste as [N,T,1,H,W], ce and me as
[N,T,C,1,1], each in the memory order of x (conv order, see tensor), so
their sum and the block output are in it too. The block output
x * (ste + ce + me) is bounded by 3|x| elementwise (pure gating; the
additive skip lives in the enclosing residual block). The branch internals
are reconstructions consistent with the named components, not a replica of
any published network. Like the shift module, the block sits on the
residual branch of a backbone block. ``check_squeeze`` checks the squeeze
ratio and the temporal kernel, for the network spec and for the block alike;
``squeezed`` also checks that the ratio divides the block's channels.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import ConfigError
from .tensor import (Parameter, Tensor, add, conv2d, matmul, mul, reshape, roll_time, sigmoid,
                     tmean, tsum)


def check_squeeze(reduce_ratio: int, temporal_kernel: int) -> None:
    """A ratio below 1 or an even temporal kernel is a ConfigError."""
    if reduce_ratio < 1:
        raise ConfigError(f"reduce_ratio must be positive, got {reduce_ratio}")
    if temporal_kernel % 2 != 1:
        raise ConfigError(f"temporal_kernel must be odd, got {temporal_kernel}")


def squeezed(channels: int, reduce_ratio: int, temporal_kernel: int) -> int:
    """C / reduce_ratio, the squeezed width of the ce and me gates at C channels.

    A ratio or kernel that check_squeeze rejects, or a ratio that does not
    divide C, is a ConfigError.
    """
    check_squeeze(reduce_ratio, temporal_kernel)
    if channels % reduce_ratio != 0:
        raise ConfigError(f"channels {channels} not divisible by reduce_ratio {reduce_ratio}")
    return channels // reduce_ratio


class ActionBlock:
    """Parameter container + forward for one excitation block at C channels."""

    _WEIGHTS = ("ste_w", "ste_b", "ce_squeeze", "ce_temporal", "ce_expand", "ce_bias",
                "me_squeeze", "me_transform", "me_expand", "me_bias")

    def __init__(self, channels: int, reduce_ratio: int, temporal_kernel: int,
                 rng: np.random.Generator, name: str, dtype=np.float32):
        cr = squeezed(channels, reduce_ratio, temporal_kernel)
        k = temporal_kernel

        def uniform(shape, fan_in):
            bound = np.sqrt(6.0 / fan_in)
            return rng.uniform(-bound, bound, size=shape).astype(dtype)

        self.ste_w = Parameter(uniform((1, 1, 3, 3, 3), 27), f"{name}.ste_w")
        self.ste_b = Parameter(np.zeros(1, dtype=dtype), f"{name}.ste_b")

        self.ce_squeeze = Parameter(uniform((channels, cr), channels), f"{name}.ce_squeeze")
        self.ce_temporal = Parameter(uniform((cr, k), k), f"{name}.ce_temporal")
        self.ce_expand = Parameter(uniform((cr, channels), cr), f"{name}.ce_expand")
        self.ce_bias = Parameter(np.zeros(channels, dtype=dtype), f"{name}.ce_bias")

        self.me_squeeze = Parameter(uniform((cr, channels, 1, 1), channels), f"{name}.me_squeeze")
        self.me_transform = Parameter(uniform((cr, cr, 3, 3), cr * 9), f"{name}.me_transform")
        self.me_expand = Parameter(uniform((cr, channels), cr), f"{name}.me_expand")
        self.me_bias = Parameter(np.zeros(channels, dtype=dtype), f"{name}.me_bias")

    def parameters(self) -> list[Parameter]:
        return [getattr(self, name) for name in self._WEIGHTS]

    def constant(self) -> "ActionBlock":
        """A copy whose weights are constant Tensors on new arrays: a snapshot
        of the weights whose forward builds no graph."""
        frozen = copy.copy(self)
        for name in self._WEIGHTS:
            setattr(frozen, name, Tensor(getattr(self, name).data.copy()))
        return frozen

    # -- branches ---------------------------------------------------------------

    def ste(self, x: Tensor) -> Tensor:
        """Spatial-temporal gate [N,T,1,H,W]: channel mean -> 3x3x3 conv -> sigmoid.

        One conv2d puts the 3 time taps of ste_w on its output channels; roll_time
        moves tap a by 1 - a frames (zero fill), and the taps are summed.
        """
        n, t, c, h, w = x.shape
        cmap = reshape(tmean(x, axis=2), n * t, 1, h, w)
        taps = conv2d(cmap, reshape(self.ste_w, 3, 1, 3, 3), pad=1)  # [N*T, 3, H, W]
        taps = roll_time(reshape(taps, n, t, 3, h, w), (+1, 0, -1), 1)
        g = sigmoid(add(tsum(taps, axis=2), self.ste_b))             # [N, T, H, W]
        return reshape(g, n, t, 1, h, w)

    def ce(self, x: Tensor) -> Tensor:
        """Channel gate [N,T,C,1,1]: pool -> squeeze -> temporal conv -> expand -> sigmoid.

        The depthwise temporal conv puts the k taps of ce_temporal [D, k] on
        channels d*k + tap; roll_time moves tap by k//2 - tap frames (zero fill),
        and the taps are summed. The squeeze and the taps are one [C, D*k]
        matrix, so every matmul here reads the pooled features' memory order and
        the gate comes out in x's order.
        """
        n, t, c, h, w = x.shape
        pooled = tmean(reshape(x, n * t, c, h, w), axis=(2, 3))   # [N*T, C]
        d, k = self.ce_temporal.shape
        squeeze_taps = reshape(mul(reshape(self.ce_squeeze, c, d, 1), self.ce_temporal), c, d * k)
        taps = reshape(matmul(pooled, squeeze_taps), n, t, d * k)  # [N, T, D*k]
        taps = roll_time(taps, tuple(range(k // 2, k // 2 - k, -1)) * d, 1)
        s = tsum(reshape(taps, n, t, d, k), axis=3)               # [N, T, D]
        g = sigmoid(add(matmul(reshape(s, n * t, d), self.ce_expand), self.ce_bias))
        return reshape(g, n, t, c, 1, 1)

    def me(self, x: Tensor) -> Tensor:
        """Motion gate [N,T,C,1,1] from transformed frame differences; m[T-1] = 0."""
        n, t, c, h, w = x.shape
        s = conv2d(reshape(x, n * t, c, h, w), self.me_squeeze)   # [N*T, C/r, H, W]
        cr = s.shape[1]
        moved = reshape(conv2d(s, self.me_transform, stride=1, pad=1), n, t, cr, h, w)
        # d[t] = transform(s[t]) - s[t-1], then m[t] = d[t+1], zero at t = T-1
        prev = roll_time(reshape(s, n, t, cr, h, w), (+1,), cr)
        motion = roll_time(moved - prev, (-1,), cr)
        pooled = tmean(reshape(motion, n * t, cr, h, w), axis=(2, 3))  # [N*T, C/r]
        g = sigmoid(add(matmul(pooled, self.me_expand), self.me_bias))
        return reshape(g, n, t, c, 1, 1)

    def forward(self, x: Tensor) -> Tensor:
        """x * (ste(x) + ce(x) + me(x)); the two [N,T,C,1,1] gates are added first."""
        return mul(x, add(self.ste(x), add(self.ce(x), self.me(x))))

    __call__ = forward

