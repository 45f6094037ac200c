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
The body is written once, in method syntax, for a Tensor (the graph) and
an array (no graph). Its three convs and the ce squeeze-and-taps matrix are
hooks: ``ActionBlock``'s run conv2d on the Parameters and form the matrix
per call; ``ArrayBlock``, for graph-free inference, inherits the body and
puts the inference plan's convs and a matrix formed per load in their place.

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

import numpy as np

from .errors import ConfigError
from .tensor import Parameter, Tensor, conv2d, matmul, roll_time, sigmoid


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

    # -- the convs and the ce matrix: graph ops here, the plan's in ArrayBlock ----

    def ste_conv(self, cmap: Tensor) -> Tensor:
        return conv2d(cmap, self.ste_w.reshape(3, 1, 3, 3), pad=1)

    def squeeze_conv(self, x4: Tensor) -> Tensor:
        return conv2d(x4, self.me_squeeze)

    def transform_conv(self, s: Tensor) -> Tensor:
        return conv2d(s, self.me_transform, stride=1, pad=1)

    def squeeze_taps(self) -> Tensor:
        (c, d), k = self.ce_squeeze.shape, self.ce_temporal.shape[1]
        return (self.ce_squeeze.reshape(c, d, 1) * self.ce_temporal).reshape(c, d * k)

    # -- branches ---------------------------------------------------------------

    def ste(self, x: Tensor) -> Tensor:
        """Spatial-temporal gate [N,T,1,H,W]: channel mean -> 3x3x3 conv -> sigmoid.

        One conv2d puts the 3 time taps of ste_w on its output channels; roll_time
        moves tap a by 1 - a frames (zero fill), and the taps are summed.
        """
        n, t, c, h, w = x.shape
        taps = self.ste_conv(x.mean(axis=2).reshape(n * t, 1, h, w))  # [N*T, 3, H, W]
        taps = roll_time(taps.reshape(n, t, 3, h, w), (+1, 0, -1), 1)
        g = sigmoid(taps.sum(axis=2) + self.ste_b)                     # [N, T, H, W]
        return g.reshape(n, t, 1, h, w)

    def ce(self, x: Tensor) -> Tensor:
        """Channel gate [N,T,C,1,1]: pool -> squeeze -> temporal conv -> expand -> sigmoid.

        The depthwise temporal conv puts the k taps of ce_temporal [D, k] on
        channels d*k + tap; roll_time moves tap by k//2 - tap frames (zero fill),
        and the taps are summed. The squeeze and the taps are one [C, D*k]
        matrix, so every matmul here reads the pooled features' memory order and
        the gate comes out in x's order.
        """
        n, t, c, h, w = x.shape
        pooled = x.reshape(n * t, c, h, w).mean(axis=(2, 3))       # [N*T, C]
        d, k = self.ce_temporal.shape
        taps = matmul(pooled, self.squeeze_taps()).reshape(n, t, d * k)
        taps = roll_time(taps, tuple(range(k // 2, k // 2 - k, -1)) * d, 1)
        s = taps.reshape(n, t, d, k).sum(axis=3)                   # [N, T, D]
        g = sigmoid(matmul(s.reshape(n * t, d), self.ce_expand) + self.ce_bias)
        return g.reshape(n, t, c, 1, 1)

    def me(self, x: Tensor) -> Tensor:
        """Motion gate [N,T,C,1,1] from transformed frame differences; m[T-1] = 0."""
        n, t, c, h, w = x.shape
        s = self.squeeze_conv(x.reshape(n * t, c, h, w))            # [N*T, C/r, H, W]
        cr = s.shape[1]
        moved = self.transform_conv(s).reshape(n, t, cr, h, w)
        # d[t] = transform(s[t]) - s[t-1], then m[t] = d[t+1], zero at t = T-1
        prev = roll_time(s.reshape(n, t, cr, h, w), (+1,), cr)
        motion = roll_time(moved - prev, (-1,), cr)
        pooled = motion.reshape(n * t, cr, h, w).mean(axis=(2, 3))  # [N*T, C/r]
        g = sigmoid(matmul(pooled, self.me_expand) + self.me_bias)
        return g.reshape(n, t, c, 1, 1)

    def forward(self, x: Tensor) -> Tensor:
        """x * (ste(x) + ce(x) + me(x)); the two [N,T,C,1,1] gates are added first."""
        return x * (self.ste(x) + (self.ce(x) + self.me(x)))

    __call__ = forward


class ArrayBlock(ActionBlock):
    """ActionBlock's body on plain arrays, for graph-free inference: the same
    calls, at float32 the same bytes, with no graph. ``convs`` are its three
    conv hooks, each with a ``load(w, b)``: ste's (3x3, pad 1, 3 taps out),
    me's squeeze (1x1, pad 0) and transform (3x3, pad 1). ``load`` takes a
    block's weights as new arrays (a snapshot), under the block's names, and
    forms the ce squeeze-and-taps matrix once."""

    def __init__(self, convs: tuple):
        self.convs = convs
        self.ste_conv, self.squeeze_conv, self.transform_conv = convs

    def load(self, block: ActionBlock) -> None:
        for name in self._WEIGHTS:
            setattr(self, name, getattr(block, name).data.copy())
        self.ste_w = self.ste_w.reshape(3, 1, 3, 3)
        for conv, w in zip(self.convs, (self.ste_w, self.me_squeeze, self.me_transform)):
            conv.load(w, None)
        taps = ActionBlock.squeeze_taps(self)
        self.squeeze_taps = lambda: taps
