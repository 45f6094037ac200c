"""Tiny residual video classifier with pluggable temporal modules.

The trunk is a per-frame 2D residual network (time folded into the batch
axis). Each block may carry a temporal module on its residual branch:
``shift`` (see tsm), ``action`` (see actionnet), or ``none``. After the
trunk: global spatial pooling and a linear classification head on each
frame, then consensus: the mean of the T segments' class scores (tmean).

Normalization is part of each conv unit: a per-channel affine (gamma,
beta; running statistics frozen to mean 0 / var 1, so outputs carry no
batch-size dependence), folded into the conv's weight and bias by one
expression, ``_fold``.

The network is walked once per representation; both walks share the
weights and the fold. ``per_frame_logits`` builds the autodiff graph
(training needs it, and it is the reference), with ``_fold`` on the
Parameters so gamma and beta get their gradients; ``forward`` is its
consensus. ``InferencePlan.frame_logits`` runs ``_fold`` on the arrays and
plain numpy calls; its caller gives each block's branch input (``infer``
the temporal module over the clip, ``StreamState.step`` the online shift).
Both run the plan's convs (``_PlanConv``), conv2d_array's im2col and GEMM
on views each keeps per input shape: at batch 1 a conv's cost is its numpy
calls, and a call makes four (write the input's interior; copy its windows
to the cols, or for a stream's few rows of small cols gather them through
``gather_index``; the GEMM; the bias) where conv2d_array makes ten or so.
``infer`` keeps one plan per model and folds the current weights into it
on every call; a stream's plan is folded once, when it is opened (a
snapshot). A warmed plan makes no buffer and takes no page fault for one.

NetSpec is the one config of the temporal modules: ``block_layout`` sizes
each block's shift fold once (``_Block.fold``), and every walk reads it
there. A stream runs one frame at a time. For each block it keeps the
previous frame's block input, and ``tsm.online_step`` takes the shifted
fold from it, which equals the offline unidirectional shift frame by frame.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
from collections.abc import Callable
from dataclasses import dataclass, asdict

import numpy as np

from .dataset import read_json, write_bytes
from .errors import ConfigError, DimensionError, InputError, NumericError, ParseError, UsageError
from .tensor import (Array, Parameter, Tensor, _channel_major, _conv2d_out_hw, _im2col,
                     _windows, add, class_labels, conv2d, log_softmax, matmul, relu, reshape,
                     softmax_cross_entropy, tmean, load_weights, save_weights)
from .tsm import BIDIRECTIONAL, UNIDIRECTIONAL, check_fold, fold_channels, online_step, shift
from .actionnet import ActionBlock, check_squeeze, squeezed

TEMPORAL_NONE = "none"
TEMPORAL_SHIFT = "shift"
TEMPORAL_ACTION = "action"

# Frames per chunk of an infer call: at T = 8 two clips share one pass of
# per-op Python calls. Longer chunks gained nothing at the tiny preset and
# raised peak memory.
_INFER_FRAMES = 16


@dataclass(frozen=True)
class StageSpec:
    blocks: int
    channels: int
    stride: int = 1


@dataclass(frozen=True)
class NetSpec:
    """Architecture description; weights come from build()."""

    num_classes: int
    t: int = 8
    in_channels: int = 1
    frame_size: tuple[int, int] = (32, 32)
    stem_channels: int = 8
    stem_stride: int = 2
    stages: tuple[StageSpec, ...] = (StageSpec(1, 8), StageSpec(1, 16, 2))
    temporal: str = TEMPORAL_SHIFT
    fold_fraction: float = 0.125
    direction: str = BIDIRECTIONAL
    action_ratio: int = 4
    action_temporal_kernel: int = 3

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.t < 1:
            raise ConfigError(f"t must be >= 1, got {self.t}")
        if len(self.frame_size) != 2:
            raise ConfigError(f"frame_size must be (H, W), got {self.frame_size}")
        sizes = {"in_channels": self.in_channels, "stem_channels": self.stem_channels,
                 "stem_stride": self.stem_stride, "frame_size[0]": self.frame_size[0],
                 "frame_size[1]": self.frame_size[1]}
        for i, stage in enumerate(self.stages):
            if stage.blocks < 0:
                raise ConfigError(f"stages[{i}].blocks must be >= 0, got {stage.blocks}")
            sizes.update({f"stages[{i}].channels": stage.channels,
                          f"stages[{i}].stride": stage.stride})
        for key, value in sizes.items():
            if value < 1:
                raise ConfigError(f"{key} must be >= 1, got {value}")
        if self.temporal not in (TEMPORAL_NONE, TEMPORAL_SHIFT, TEMPORAL_ACTION):
            raise ConfigError(f"unknown temporal module {self.temporal!r}")
        # both modules' fields are checked whatever the module; only the sizing
        # by each block's channels is the module's own
        check_fold(self.fold_fraction, self.direction)
        check_squeeze(self.action_ratio, self.action_temporal_kernel)
        self.block_layout()  # sizes every fold and squeeze: a bad one is a ConfigError

    def block_layout(self) -> list[tuple[str, int, int, int, int]]:
        """(name, cin, cout, stride, fold) of each residual block, in order: fold
        is tsm.fold_channels of cin (0 without a shift). Checks each squeeze."""
        layout, cin = [], self.stem_channels
        for si, stage in enumerate(self.stages):
            for bi in range(stage.blocks):
                if self.temporal == TEMPORAL_ACTION:
                    squeezed(cin, self.action_ratio, self.action_temporal_kernel)
                fold = fold_channels(cin, self.fold_fraction, self.direction) \
                    if self.temporal == TEMPORAL_SHIFT else 0
                layout.append((f"stage{si}.block{bi}", cin, stage.channels,
                               stage.stride if bi == 0 else 1, fold))
                cin = stage.channels
        return layout

    @property
    def clip_shape(self) -> tuple[int, int, int, int]:
        return (self.t, self.in_channels, *self.frame_size)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["stages"] = [asdict(s) for s in self.stages]
        d["frame_size"] = list(self.frame_size)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NetSpec":
        """Inverse of to_dict: the same keys, each value of its JSON type."""
        like = cls(num_classes=2).to_dict()
        if not isinstance(d, dict):
            raise ConfigError(f"netspec must be a JSON object, got {type(d).__name__}")
        if set(d) != set(like):
            raise ConfigError(f"netspec keys: missing {sorted(set(like) - set(d))}, "
                              f"unexpected {sorted(set(d) - set(like))}")
        for key, value in d.items():
            if not _json_like(value, like[key]):
                raise ConfigError(f"netspec {key!r}: expected a value like {like[key]!r}, "
                                  f"got {value!r}")
        d = dict(d)
        d["stages"] = tuple(StageSpec(**s) for s in d["stages"])
        d["frame_size"] = tuple(d["frame_size"])
        return cls(**d)

    # -- presets ----------------------------------------------------------------

    @classmethod
    def tiny(cls, num_classes: int, temporal: str = TEMPORAL_SHIFT, **kw) -> "NetSpec":
        """Default desk-scale net: stem 3->16, stages 2x16 / 2x32 / 2x64."""
        return cls(num_classes=num_classes, in_channels=3, frame_size=(32, 32),
                   stem_channels=16, stem_stride=1,
                   stages=(StageSpec(2, 16), StageSpec(2, 32, 2), StageSpec(2, 64, 2)),
                   temporal=temporal, **kw)

    @classmethod
    def micro(cls, num_classes: int, temporal: str = TEMPORAL_SHIFT, **kw) -> "NetSpec":
        """Minutes-on-CPU net used by the synthetic-signal experiments.

        Downsamples to 4x4 maps so one 3x3 kernel spans the whole frame;
        cross-frame patch transitions then stay inside the receptive field.
        """
        return cls(num_classes=num_classes, in_channels=1, frame_size=(32, 32),
                   stem_channels=8, stem_stride=2,
                   stages=(StageSpec(1, 8, 2), StageSpec(1, 16, 2)),
                   temporal=temporal, **kw)


def _json_like(value, like) -> bool:
    """Whether a JSON value has the keys and value types of ``like``."""
    if isinstance(like, dict):
        return isinstance(value, dict) and set(value) == set(like) and all(
            _json_like(value[k], like[k]) for k in like)
    if isinstance(like, list):
        return isinstance(value, list) and all(_json_like(v, like[0]) for v in value)
    kinds = (int, float) if isinstance(like, float) else type(like)
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name, ok, rule in (("epochs", self.epochs >= 0, ">= 0"),
                               ("batch_size", self.batch_size >= 1, ">= 1"),
                               ("lr", 0 <= self.lr < math.inf, "finite and >= 0"),
                               ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                               ("weight_decay", 0 <= self.weight_decay < math.inf,
                                "finite and >= 0")):
            if not ok:  # NaN fails every comparison
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass
class Metrics:
    prec1: float
    prec5: float
    loss: float

    def to_dict(self, epoch: int | None = None) -> dict:
        d = {"prec1": round(self.prec1, 4), "prec5": round(self.prec5, 4),
             "loss": round(self.loss, 6)}
        if epoch is not None:
            d = {"epoch": epoch, **d}
        return d


# -- layers ------------------------------------------------------------------------


def _fold(w, b, gamma, beta):
    """The conv's frozen-statistics affine folded into it: w' = gamma * w per
    output channel, b' = gamma * b + beta. Runs on Parameters (a graph) and
    on plain arrays (a snapshot) alike."""
    return w * gamma.reshape(-1, 1, 1, 1), b * gamma + beta


class _ConvUnit:
    """A conv and its per-channel affine; ``norm`` names gamma and beta."""

    def __init__(self, cin: int, cout: int, k: int, stride: int, pad: int, name: str,
                 norm: str, rng: np.random.Generator, dtype):
        bound = math.sqrt(6.0 / (cin * k * k))
        self.w = Parameter(rng.uniform(-bound, bound, size=(cout, cin, k, k)).astype(dtype),
                           f"{name}.w")
        self.b = Parameter(np.zeros(cout, dtype=dtype), f"{name}.b")
        self.gamma = Parameter(np.ones(cout, dtype=dtype), f"{norm}.gamma")
        self.beta = Parameter(np.zeros(cout, dtype=dtype), f"{norm}.beta")
        self.stride, self.pad = stride, pad

    def __call__(self, x: Tensor) -> Tensor:
        w, b = _fold(self.w, self.b, self.gamma, self.beta)
        return conv2d(x, w, b, stride=self.stride, pad=self.pad)

    def parameters(self):
        return [self.w, self.b, self.gamma, self.beta]

    def folded(self) -> tuple[Array, Array]:
        """(w, b) of conv2d_array on the folded weights (new arrays: a
        snapshot)."""
        return _fold(self.w.data, self.b.data, self.gamma.data, self.beta.data)


class _Block:
    """Residual block; temporal module feeds the conv branch, skip stays clean."""

    def __init__(self, name: str, cin: int, cout: int, stride: int, fold: int,
                 spec: NetSpec, rng: np.random.Generator, dtype):
        self.cout, self.fold = cout, fold
        self.conv1 = _ConvUnit(cin, cout, 3, stride, 1, f"{name}.conv1", f"{name}.norm1",
                               rng, dtype)
        self.conv2 = _ConvUnit(cout, cout, 3, 1, 1, f"{name}.conv2", f"{name}.norm2",
                               rng, dtype)
        self.proj = _ConvUnit(cin, cout, 1, stride, 0, f"{name}.proj", f"{name}.proj_norm",
                              rng, dtype) if cin != cout or stride != 1 else None
        self.action: ActionBlock | None = None
        if spec.temporal == TEMPORAL_ACTION:
            self.action = ActionBlock(cin, spec.action_ratio, spec.action_temporal_kernel,
                                      rng, f"{name}.action", dtype)

    def parameters(self):
        params = [*self.conv1.parameters(), *self.conv2.parameters()]
        if self.proj is not None:
            params += self.proj.parameters()
        if self.action is not None:
            params += self.action.parameters()
        return params


class Model:
    """Built network: parameters plus the forward graph builders."""

    def __init__(self, spec: NetSpec, seed: int = 0, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype).type
        if self.dtype not in (np.float32, np.float64):
            raise ConfigError(f"model dtype must be float32 or float64, got {np.dtype(dtype)}")
        rng = np.random.default_rng(seed)
        self.stem = _ConvUnit(spec.in_channels, spec.stem_channels, 3, spec.stem_stride, 1,
                              "stem", "stem_norm", rng, dtype)
        self.blocks = [_Block(*layout, spec, rng, dtype) for layout in spec.block_layout()]

        head_in = self.blocks[-1].cout if self.blocks else spec.stem_channels
        bound = math.sqrt(6.0 / head_in)
        self.head_w = Parameter(
            rng.uniform(-bound, bound, size=(head_in, spec.num_classes)).astype(dtype), "head.w")
        self.head_b = Parameter(np.zeros(spec.num_classes, dtype=dtype), "head.b")
        self._plan: InferencePlan | None = None  # infer's, built on its first call

    # -- parameter plumbing ------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        params = self.stem.parameters()
        for block in self.blocks:
            params += block.parameters()
        params += [self.head_w, self.head_b]
        return params

    def state_dict(self) -> dict[str, Array]:
        return {p.name: p.data for p in self.parameters()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        params = {p.name: p for p in self.parameters()}
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ConfigError(f"weight mismatch: missing {missing}, unexpected {extra}")
        for name, p in params.items():
            arr = np.array(state[name], dtype=self.dtype)  # a copy: the caller's stays theirs
            if arr.shape != p.data.shape:
                raise DimensionError(
                    f"weight {name}: file shape {arr.shape} vs model shape {p.data.shape}")
            p.data = arr
            p.grad = None

    def save(self, weights_path, spec_path=None) -> None:
        """Write the weights (and the netspec); the weight file holds float32,
        so saving a model of another dtype is a ConfigError."""
        if self.dtype != np.float32:
            raise ConfigError(f"{weights_path}: the weight file holds float32, and this "
                              f"model is {np.dtype(self.dtype)}")
        save_weights(weights_path, self.state_dict())
        if spec_path is not None:
            write_bytes(spec_path, (json.dumps(self.spec.to_dict(), indent=2, sort_keys=True)
                                    + "\n").encode("utf-8"))

    @classmethod
    def load(cls, weights_path, spec_path) -> "Model":
        """Build from a netspec.json and load weights; a bad netspec is a ParseError."""
        try:
            spec = NetSpec.from_dict(read_json(spec_path))
        except ConfigError as exc:
            raise ParseError(f"{spec_path}: {exc}") from None
        model = cls(spec, seed=0)
        state = load_weights(weights_path)
        try:
            model.load_state_dict(state)
        except (ConfigError, DimensionError) as exc:  # name the file the weights came from
            raise type(exc)(f"{weights_path}: {exc}") from None
        return model

    # -- forward -------------------------------------------------------------------

    def _temporal(self, x4: Tensor, fold: int, action, n: int, t: int) -> Tensor:
        """Apply a block's temporal module to [N*T,C,H,W] features: the shift
        of its ``fold``, or its excitation block ``action``, or neither."""
        if not fold and action is None:
            return x4
        _, c, h, w = x4.shape
        x5 = reshape(x4, n, t, c, h, w)
        out = shift(x5, fold, self.spec.direction) if fold else action(x5)
        return reshape(out, n * t, c, h, w)

    def _clip(self, clip, check_t: bool) -> Tensor:
        """Clip as an [N,T,C,H,W] tensor with N >= 1, in the model's dtype: a
        list of [T,C,H,W] clips is stacked, and a [T,C,H,W] array is one clip.
        C, H, W (and T if check_t) must match the spec."""
        if isinstance(clip, list):
            shapes = [np.shape(c) for c in clip]
            if not clip or any(len(shape) != 4 or shape != shapes[0] for shape in shapes):
                raise DimensionError(f"clips to batch must share one [T,C,H,W] shape, "
                                     f"got {shapes}")
            clip = np.stack(clip, dtype=self.dtype)
        x = clip if isinstance(clip, Tensor) else Tensor(np.asarray(clip, dtype=self.dtype))
        if x.data.ndim == 4:  # single clip without batch axis
            x = reshape(x, 1, *x.shape)
        frame = (self.spec.in_channels, *self.spec.frame_size)
        if x.data.ndim != 5 or not x.shape[0] or x.shape[2:] != frame or \
                (check_t and x.shape[1] != self.spec.t):
            t = self.spec.t if check_t else "T"
            raise DimensionError(f"clip shape {x.shape} does not match spec "
                                 f"[N,{t},{','.join(map(str, frame))}]")
        return x

    def forward(self, clip) -> Tensor:
        """[N,T,C,H,W] clip -> [N,K] consensus logits: the mean over T of
        per_frame_logits."""
        return tmean(self.per_frame_logits(self._clip(clip, check_t=True)), axis=1)

    def infer(self, clips) -> Array:
        """[N,T,C,H,W] clips (or a list of N [T,C,H,W] clips) -> [N,K]
        consensus logits, without a graph.

        The same function as forward, on folded weights: the result agrees
        with forward to rounding, not bit for bit. The model keeps one
        InferencePlan, built on the first call, and every call folds the
        current parameters into it, so the result always follows them while
        the plan's convs keep their buffers. The clips run in order, in
        chunks of _INFER_FRAMES frames' worth (at least one clip), so float32
        logits can differ by rounding from one-clip calls. An excitation
        block runs as the plan's constant copy, so no call builds a graph.
        Calls on one model share the plan's buffers, so they must not
        overlap.
        """
        x = self._clip(clips, check_t=True).data
        n, t = x.shape[:2]
        chunk = max(1, _INFER_FRAMES // t)
        if self._plan is None:
            self._plan = InferencePlan(self)
        else:
            self._plan.fold(self)
        plan = self._plan

        def branch(i: int, feats: Array) -> Array:
            return self._temporal(Tensor(feats), plan.folds[i], plan.actions[i],
                                  len(feats) // t, t).data

        logits = [plan.frame_logits(x[s:s + chunk].reshape(-1, *x.shape[2:]), branch)
                  for s in range(0, n, chunk)]
        return np.concatenate(logits).reshape(n, t, -1).mean(axis=1)

    def per_frame_logits(self, clip) -> Tensor:
        """[N,T,C,H,W] (or [T,C,H,W]) -> [N,T,K] logits of each frame before
        consensus; T may differ from the spec's."""
        x = self._clip(clip, check_t=False)
        n, t = x.shape[0], x.shape[1]
        x = relu(self.stem(reshape(x, n * t, *x.shape[2:])))
        for block in self.blocks:
            y = block.conv2(relu(block.conv1(self._temporal(x, block.fold, block.action, n, t))))
            x = relu(add(y, block.proj(x) if block.proj is not None else x))
        logits = add(matmul(tmean(x, axis=(2, 3)), self.head_w), self.head_b)
        return reshape(logits, n, t, self.spec.num_classes)

    # -- streaming ---------------------------------------------------------------

    def open_stream(self, stream_id: str = "stream0") -> "StreamState":
        """A stream over the weights as they are now: it runs an InferencePlan
        folded here, so later training or load_state_dict does not reach it."""
        if self.spec.temporal == TEMPORAL_ACTION:
            raise UsageError("streaming inference is only defined for shift or none")
        if self.spec.temporal == TEMPORAL_SHIFT and self.spec.direction != UNIDIRECTIONAL:
            raise UsageError("streaming requires a unidirectional shift model")
        return StreamState(InferencePlan(self), stream_id)


def _conv_units(model: Model) -> list[_ConvUnit | None]:
    """The model's conv units in plan order: the stem, then each block's
    conv1, conv2 and proj (None without one)."""
    return [model.stem, *(unit for block in model.blocks
                          for unit in (block.conv1, block.conv2, block.proj))]


def _relu(x: Array) -> Array:
    """relu in place; callers pass only arrays they own."""
    return np.maximum(x, 0, out=x)


class InferencePlan:
    """A model's weights folded for graph-free inference, and their convs.

    The plan holds copies of the weights as they were at its last ``fold``
    (the first when it is built). Model.infer keeps one plan and folds it
    again on every call; a stream's plan is folded once, when the stream is
    opened, so it is a snapshot. ``convs`` are its _PlanConvs in the order of
    _conv_units, ``stem`` the first and ``blocks[i]`` block i's (conv1,
    conv2, proj or None). A fold gives them new weights, and each keeps, per
    input shape, every view its call needs (the array lowerings' in private
    anonymous mappings, _Scratch), so a warmed plan makes none.
    ``folds[i]`` is block i's shift fold (0 without a shift), ``actions[i]``
    its excitation block as a copy on constant Tensors (None without one),
    and ``frame_shape`` is (C, H, W).
    """

    def __init__(self, model: Model):
        self.frame_shape = (model.spec.in_channels, *model.spec.frame_size)
        self.folds = [block.fold for block in model.blocks]
        scratch = _Scratch(model.dtype)
        self.convs = [None if unit is None else _PlanConv(unit.stride, unit.pad, scratch)
                      for unit in _conv_units(model)]
        self.stem, *rest = self.convs
        self.blocks = [tuple(rest[i:i + 3]) for i in range(0, len(rest), 3)]
        self.fold(model)

    def fold(self, model: Model) -> None:
        """Fold the model's current weights into the plan, as new arrays: each
        conv's (its kept lowerings and buffers hold no weights), the
        excitation blocks' copies and the head."""
        for conv, unit in zip(self.convs, _conv_units(model)):
            if unit is not None:
                conv.load(*unit.folded())
        self.actions = [block.action.constant() if block.action is not None else None
                        for block in model.blocks]
        self.head_w, self.head_b = model.head_w.data.copy(), model.head_b.data.copy()

    def frame_logits(self, frames: Array, branch: Callable[[int, Array], Array]) -> Array:
        """[M,C,H,W] frames -> [M,K] logits of each frame. ``branch(i, x)``
        gives block i's branch input from its input x."""
        x = _relu(self.stem(frames))
        for i, (conv1, conv2, proj) in enumerate(self.blocks):
            y = conv2(_relu(conv1(branch(i, x))))
            y += proj(x) if proj is not None else x
            x = _relu(y)
        return x.mean(axis=(2, 3)) @ self.head_w + self.head_b


@functools.lru_cache(maxsize=64)
def gather_index(c: int, h: int, w: int, n: int, kh: int, kw: int, stride: int,
                 pad: int) -> Array:
    """Where each element of a conv's cols lies in its zero-bordered input:
    the _im2col cols of an [N, C, H+2*pad, W+2*pad] buffer that holds its own
    flat positions. One read-only array per geometry, shared by every
    plan."""
    oh, ow = _conv2d_out_hw(h, w, kh, kw, stride, pad)
    shape = (n, c, h + 2 * pad, w + 2 * pad)
    positions = np.arange(math.prod(shape)).reshape(shape)
    index = _im2col(_channel_major(positions, 0), kh, kw, stride, oh, ow)
    index.flags.writeable = False
    return index


# The most rows N and cols (C*kh*kw*oh*ow*N elements) a conv gathers for. The
# gather indexes element by element, so it beats conv2d_array's copies only
# on a stream's traffic: every conv of the micro net, and the 1x1
# projections of the tiny net, at N = 1 and 2.
GATHER_MAX_COLS = 16_384
GATHER_MAX_ROWS = 2


class _Scratch:
    """The buffers one plan's array lowerings keep, in private anonymous
    mappings: outside the malloc heap, kept blocks do not fragment it
    between training's transients, and no freed block lets glibc trim pages
    that the next call faults back in. ``take`` carves zeroed buffers from a
    mapping of at least _SCRATCH_CHUNK bytes; ``shared`` is the one cols
    buffer that the plan's array lowerings share, since a conv's cols are
    dead after its GEMM, and ``share`` points each at it."""

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self.spare = self.shared = np.empty(0, self.dtype)
        self.sharers: list[list] = []

    def take(self, shape: tuple[int, ...]) -> Array:
        """A zeroed C-contiguous array of ``shape``, 64-byte aligned."""
        size, step = math.prod(shape), 64 // self.dtype.itemsize
        if self.spare.size < size:
            self.spare = _mapped(max(size, _SCRATCH_CHUNK // self.dtype.itemsize), self.dtype)
        view = self.spare[:size].reshape(shape)
        self.spare = self.spare[-(-size // step) * step:]
        return view

    def share(self, lowering: list) -> None:
        """Point an array lowering's cols at the shared cols, as [C*kh*kw,
        oh*ow*N] (``lowering[3]``) and in its windows' shape (``lowering[2]``).
        Cols too small grow, as a new mapping, and every sharer is pointed at
        it anew, so none writes into a stale one."""
        self.sharers.append(lowering)
        if self.shared.size < lowering[1].size:
            self.shared = _mapped(lowering[1].size, self.dtype)
        for kept in self.sharers:
            cols = self.shared[:kept[1].size].reshape(-1, kept[4].shape[1])
            kept[2:4] = cols.reshape(kept[1].shape), cols


# Bytes of each mapping _Scratch.take carves from. An untouched page costs no
# memory, so one mapping serves every small buffer of a plan; below 2 MiB no
# transparent huge page can back it.
_SCRATCH_CHUNK = 1 << 20


def _mapped(size: int, dtype) -> Array:
    """A zeroed 1-D array of ``size`` elements in a new private anonymous
    mapping (private: a fork does not share it)."""
    buf = mmap.mmap(-1, size * dtype.itemsize, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype, size)


class _PlanConv:
    """One folded conv of an InferencePlan, with a lowering kept for each
    [N,C,H,W] input shape it has seen (``lowered``): every view its call
    needs. A call writes the input into the interior of a zero-bordered
    buffer, fills the cols, runs the GEMM into a kept output, adds the bias
    and returns a kept conv-order view of it, valid until the conv's next
    call of that shape (InferencePlan.frame_logits never keeps one past it).
    Within GATHER_MAX_ROWS and GATHER_MAX_COLS it gathers, (interior, flat,
    index, out, result): fancy indexing through gather_index (which beat
    ``np.take``), on the heap, as a stream's plan is made per stream and a
    mapping would cost its first step a system call and a fault per page.
    Otherwise, [interior, windows, cols as windows, cols, out, result] in
    the plan's _Scratch: the windows (``_windows``) of a [C,Hp,Wp,N] buffer,
    kept at pad 0 too, are copied into the cols _Scratch.share points it at.
    Either way the cols are _im2col's: the result is conv2d_array's, at
    float32 bit for bit."""

    def __init__(self, stride: int, pad: int, scratch: _Scratch):
        self.stride, self.pad, self.scratch = stride, pad, scratch
        self.lowered: dict[tuple[int, ...], tuple | list] = {}

    def load(self, w: Array, b: Array) -> None:
        """Take (w, b) as the conv's weights; the kept lowerings hold none."""
        self.w = w
        self.w2d, self.b2d = w.reshape(len(w), -1), b[:, None]

    def __call__(self, x: Array) -> Array:
        lowering = self.lowered.get(x.shape) or self._lower(*x.shape)
        lowering[0][...] = x
        if len(lowering) == 5:
            _, flat, index, out, result = lowering
            np.matmul(self.w2d, flat[index], out=out)
        else:
            _, windows, cols_6d, cols, out, result = lowering
            np.copyto(cols_6d, windows)
            np.matmul(self.w2d, cols, out=out)
        out += self.b2d
        return result

    def _lower(self, n: int, c: int, h: int, wd: int) -> tuple | list:
        """Make and keep the lowering of [n, c, h, wd] inputs."""
        co, _, kh, kw = self.w.shape
        p, s = self.pad, self.stride
        oh, ow = _conv2d_out_hw(h, wd, kh, kw, s, p)
        if n <= GATHER_MAX_ROWS and c * kh * kw * oh * ow * n <= GATHER_MAX_COLS:
            buf = np.zeros((n, c, h + 2 * p, wd + 2 * p), dtype=self.w.dtype)
            out = np.empty((co, oh * ow * n), dtype=self.w.dtype)
            lowering = (buf[:, :, p:p + h, p:p + wd], buf.reshape(-1),
                        gather_index(c, h, wd, n, kh, kw, s, p), out)
        else:
            xp = self.scratch.take((c, h + 2 * p, wd + 2 * p, n))
            out = self.scratch.take((co, oh * ow * n))
            lowering = [xp[:, p:p + h, p:p + wd].transpose(3, 0, 1, 2),
                        _windows(xp, kh, kw, s, oh, ow), None, None, out]
            self.scratch.share(lowering)
        lowering += (out.reshape(co, oh, ow, n).transpose(3, 0, 1, 2),)
        self.lowered[(n, c, h, wd)] = lowering
        return lowering


class StreamState:
    """Per-stream mutable state: each block's previous input and a logit sum.

    It runs the InferencePlan folded when the stream was opened, which gives
    each block's fold, the frame shape and the convs. The batch size N is
    the first frame's; later frames must match it."""

    def __init__(self, plan: InferencePlan, stream_id: str):
        self.plan = plan
        self.dtype = plan.head_w.dtype
        self.stream_id = stream_id
        self.prev: list[Array | None] = [None] * len(plan.folds)
        self.frames_seen = 0
        self.logit_sum: Array | None = None

    def step(self, frame: Array) -> dict:
        """Process one [N,C,H,W] frame (or [C,H,W]); returns the frame's
        [N, classes] logits and the rolling consensus, their mean over the
        frames seen, as ``frame_logits`` and ``rolling_logits``."""
        frame = np.asarray(frame, dtype=self.dtype)
        if frame.ndim == 3:
            frame = frame[None]
        rows = frame.shape[:1] if self.logit_sum is None else self.logit_sum.shape[:1]
        if frame.shape != (*rows, *self.plan.frame_shape) or not frame.size:
            n = "N" if self.logit_sum is None else rows[0]
            raise InputError(f"stream {self.stream_id!r}: frame shape {frame.shape} is not "
                             f"[{n},{','.join(map(str, self.plan.frame_shape))}]")
        logits = self.plan.frame_logits(frame, self._branch)
        self.frames_seen += 1
        self.logit_sum = logits if self.logit_sum is None else self.logit_sum + logits
        return {"frame_logits": logits, "rolling_logits": self.logit_sum / self.frames_seen}

    def _branch(self, i: int, x: Array) -> Array:
        """Block i's branch input: x itself without a shift. With one it keeps
        a copy of x's first fold channels, all that the next frame's shift
        reads: x may be a view of a plan conv's kept buffer, which the next
        step writes."""
        fold = self.plan.folds[i]
        if not fold:
            return x
        branch = online_step(x, self.prev[i], fold)
        self.prev[i] = x[:, :fold].copy()
        return branch


def build(spec: NetSpec, seed: int = 0, dtype=np.float32) -> Model:
    """Deterministic model construction: same spec and seed, same weights."""
    return Model(spec, seed=seed, dtype=dtype)


def parameter_count(model: Model) -> int:
    return sum(p.data.size for p in model.parameters())


# -- evaluation ---------------------------------------------------------------------


def topk_hits(logits: Array, labels: Array, k: int) -> int:
    """Count rows whose label is among the k largest logits.

    Ties broken toward the lower class index (stable sort on descending value).
    """
    k = min(k, logits.shape[1])
    order = np.argsort(-logits, axis=1, kind="stable")[:, :k]
    return int((order == labels[:, None]).any(axis=1).sum())


def evaluate(model: Model, dataset) -> Metrics:
    """Prec@1 / Prec@5 / mean loss over (clip, label) pairs.

    The clips go to one model.infer call, in dataset order. The per-clip
    losses come from one log_softmax over the logits, and they are combined
    with an exact sum. The result is deterministic for a given order.
    """
    items = list(dataset)
    if not items:
        raise InputError("evaluate requires a nonempty dataset")
    logits = model.infer([clip for clip, _ in items])
    n = len(items)
    labels = class_labels([label for _, label in items], *logits.shape)
    losses = -log_softmax(logits)[np.arange(n), labels]
    return Metrics(prec1=100.0 * topk_hits(logits, labels, 1) / n,
                   prec5=100.0 * topk_hits(logits, labels, 5) / n,
                   loss=math.fsum(losses.tolist()) / n)


# -- training -----------------------------------------------------------------------


def train(model: Model, dataset, cfg: TrainConfig, eval_dataset=None,
          on_epoch=None) -> list[dict]:
    """SGD with momentum; returns one metrics record per epoch.

    Records carry training prec/loss (accumulated over the epoch's batches);
    when eval_dataset is given, its metrics are appended under val_*.
    """
    items = list(dataset)
    if not items:
        raise InputError("train requires a nonempty dataset")
    class_labels([label for _, label in items], len(items), model.spec.num_classes)

    params = model.parameters()
    velocity = [np.zeros_like(p.data) for p in params]
    rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(items))
        hits1 = hits5 = 0
        loss_sum = 0.0
        for start in range(0, len(items), cfg.batch_size):
            batch = [items[i] for i in order[start:start + cfg.batch_size]]
            labels = np.array([l for _, l in batch], dtype=np.int64)
            logits = model.forward([c for c, _ in batch])
            loss = softmax_cross_entropy(logits, labels)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss {loss_value} at epoch {epoch}, batch {start // cfg.batch_size}")
            loss.backward()

            for p, v in zip(params, velocity):
                if p.grad is None:
                    raise UsageError(f"parameter {p.name!r} received no gradient")
                grad = p.grad + cfg.weight_decay * p.data
                np.multiply(v, cfg.momentum, out=v)
                v -= cfg.lr * grad
                p.data = p.data + v

            hits1 += topk_hits(logits.numpy(), labels, 1)
            hits5 += topk_hits(logits.numpy(), labels, 5)
            loss_sum += loss_value * len(batch)

        record = Metrics(prec1=100.0 * hits1 / len(items), prec5=100.0 * hits5 / len(items),
                         loss=loss_sum / len(items)).to_dict(epoch=epoch)
        if eval_dataset is not None:
            val = evaluate(model, eval_dataset).to_dict()
            record.update({f"val_{key}": value for key, value in val.items()})
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
    return history
