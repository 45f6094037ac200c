"""Minimal dense-tensor autodiff engine.

Reverse-mode differentiation over numpy arrays, covering exactly the ops the
video backbone needs: elementwise arithmetic, matmul, 2D convolution,
reductions (``tmean`` also pools space and averages the segments), moves
along the time axis (roll_time), and softmax cross-entropy.

Layout conventions:
  * shapes are logical numpy shapes; video batches use [N, T, C, H, W],
  * time is folded into batch ([N*T, C, H, W]) for 2D ops and restored with
    plain reshapes for temporal ops,
  * memory order follows the data: conv2d returns [N, Co, oh, ow] as a view
    of the [Co, oh, ow, N] array it computes ("conv order"); elementwise ops,
    reductions and grad buffers keep their inputs' order, and matmul's
    product its left operand's. Row-major inputs are read as they are,
  * float64 is the test/oracle precision, float32 is allowed for training.

conv2d's arithmetic follows the dtype. At float64 it accumulates kernel
taps in (c, kh, kw) order, which makes its output bit-identical to a naive
six-loop evaluation. At float32 it lowers with the batch innermost: the
input is held zero-padded and channel-major as [C, Hp, Wp, N] (a view when
pad is 0, and a contiguous one when the input is in conv order), its
windows, viewed as (c, kh, kw, oh, ow, n), are copied to cols
[C*kh*kw, oh*ow*N], and the output is one GEMM w[Co, C*kh*kw] @ cols,
returned as a conv-order view. Every copy then runs N wide at stride 2
and ow*N wide at stride 1, where a row-major window copy would run only ow
wide. ``conv2d_array`` is that forward on plain arrays, without a graph
node, and conv2d calls it; graph-free inference runs the same windows
(``_windows``) and GEMM on views it keeps (backbone). At N = 1 conv order is
the memory order of [1, C, H, W], so that path copies no more than a plain
pad. The backward runs on the GEMM lowering at either dtype: with g
[Co, oh*ow*N] (a free reshape of a conv-order grad), dW = (cols @ g^T)^T (cols
rebuilt from the unpadded input the node keeps), and dX scatters w^T @ g
tap by tap into a [C, Hp, Wp, N] buffer whose interior is added to x's
grad, contiguously when x is in conv order.
"""

from __future__ import annotations

import math
import os
import struct
import time
from typing import Callable, Iterable, Sequence

import numpy as np

from .dataset import write_bytes
from .errors import DimensionError, InputError, ParseError, UsageError

Array = np.ndarray


def _as_array(data, dtype=None) -> Array:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A node in the computation graph.

    Leaf tensors wrap raw data; op outputs additionally carry the closures
    needed to push gradients to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op", "_done")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 backward: Callable[[Array], None] | None = None,
                 op: str = ""):
        self.data = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward
        self._op = op
        self._done = False

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> Array:
        return self.data

    def __repr__(self) -> str:
        tag = f" op={self._op}" if self._op else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"

    # -- graph construction helpers -------------------------------------------

    def _child(self, data: Array, parents: tuple["Tensor", ...],
               backward: Callable[[Array], None], op: str) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data, op=op)
        return Tensor(data, requires_grad=True, parents=parents, backward=backward, op=op)

    # -- operators -------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(_wrap(other, like=self), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, *shape)

    def sum(self, axis=None) -> "Tensor":
        return tsum(self, axis)

    # -- backward --------------------------------------------------------------

    def backward(self, profile: dict[str, list] | None = None) -> None:
        """Populate .grad on every reachable tensor with d(self)/d(node).

        self must be a scalar produced by tracked ops. Grads are zeroed at
        the start of every pass; a second backward without a fresh forward
        is rejected. With ``profile`` given, each op's backward is timed and
        ``profile[op]`` accumulates [calls, seconds].
        """
        if self.data.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad or not self._parents:
            raise UsageError("backward on a tensor that is not the output of tracked ops")
        if self._done:
            raise UsageError("backward already ran on this node; run forward again first")
        self._done = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        for node in order:
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        clock = time.perf_counter
        for node in reversed(order):
            if node._backward is None:
                continue
            t0 = clock() if profile is not None else 0.0
            node._backward(node.grad)
            if profile is not None:
                entry = profile.setdefault(node._op, [0, 0.0])
                entry[0] += 1
                entry[1] += clock() - t0


class Parameter(Tensor):
    """A named trainable leaf tensor."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _wrap(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum grad down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ops ------------------------------------------------------------


def add(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    out_data = a.data + b.data

    def backward(grad: Array) -> None:
        if a.requires_grad:
            a.grad += _unbroadcast(grad, a.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(grad, b.shape)

    return a._child(out_data, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a = _wrap(a)
    b = _wrap(b, like=a)
    out_data = a.data * b.data

    def backward(grad: Array) -> None:
        if a.requires_grad:
            a.grad += _unbroadcast(grad * b.data, a.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(grad * a.data, b.shape)

    return a._child(out_data, (a, b), backward, "mul")


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(grad: Array) -> None:
        x.grad += grad * (out_data > 0)

    return x._child(out_data, (x,), backward, "relu")


def sigmoid(x: Tensor) -> Tensor:
    # numerically stable two-sided form
    d = x.data
    e = np.exp(-np.abs(d))
    out_data = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(d.dtype)

    def backward(grad: Array) -> None:
        x.grad += grad * out_data * (1.0 - out_data)

    return x._child(out_data, (x,), backward, "sigmoid")


# -- shape ops --------------------------------------------------------------------


def reshape(x: Tensor, *shape) -> Tensor:
    try:
        new = np.reshape(x.data, shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}") from None
    old_shape = x.shape

    def backward(grad: Array) -> None:
        x.grad += grad.reshape(old_shape)

    return x._child(new, (x,), backward, "reshape")


def roll_time(x: Tensor, offsets: Sequence[int], fold: int) -> Tensor:
    """Move channel blocks of [N,T,C,...] along time, filling the gap with zeros.

    Block i (channels i*fold to (i+1)*fold of axis 2) moves ``offsets[i]``
    steps along axis 1: out[:, t] = x[:, t - offsets[i]], zero where that
    index falls outside [0, T). Channels after the last block pass through.
    The backward pass is the opposite move.
    """
    end = len(offsets) * fold
    if x.data.ndim < 3 or fold < 0 or end > x.shape[2]:
        raise DimensionError(f"roll_time: {len(offsets)} blocks of {fold} channels "
                             f"do not fit [N,T,C,...] shape {x.shape}")
    t = x.shape[1]
    moves = []  # (destination time, source time, channels) of each block
    for i, off in enumerate(offsets):
        off = max(-t, min(t, off))  # |offset| >= T leaves nothing to copy
        moves.append((slice(max(off, 0), t + min(off, 0)), slice(max(-off, 0), t - max(off, 0)),
                      slice(i * fold, (i + 1) * fold)))
    out_data = np.zeros_like(x.data)
    out_data[:, :, end:] = x.data[:, :, end:]
    for dst, src, ch in moves:
        out_data[:, dst, ch] = x.data[:, src, ch]

    def backward(grad: Array) -> None:
        x.grad[:, :, end:] += grad[:, :, end:]
        for dst, src, ch in moves:
            x.grad[:, src, ch] += grad[:, dst, ch]

    return x._child(out_data, (x,), backward, "roll_time")


# -- reductions --------------------------------------------------------------------


def tsum(x: Tensor, axis=None) -> Tensor:
    out_data = x.data.sum(axis=axis)

    def backward(grad: Array) -> None:  # a full reduction's scalar grad broadcasts as it is
        x.grad += grad if axis is None else np.expand_dims(grad, axis)

    return x._child(out_data, (x,), backward, "sum")


def tmean(x: Tensor, axis=None) -> Tensor:
    out_data = x.data.mean(axis=axis)
    count = x.data.size // max(out_data.size, 1)  # entries averaged into each output

    def backward(grad: Array) -> None:
        x.grad += (grad if axis is None else np.expand_dims(grad, axis)) / count

    return x._child(out_data, (x,), backward, "mean")


# -- matmul -------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _wrap(a)
    b = _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    # keeps a's order: gates from features pooled in conv order stay in it
    out_data = np.matmul(a.data, b.data, order="F" if a.data.flags.f_contiguous else "C")

    def backward(grad: Array) -> None:
        if a.requires_grad:
            a.grad += grad @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ grad

    return a._child(out_data, (a, b), backward, "matmul")


# -- convolution ----------------------------------------------------------------------


def _conv2d_out_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise DimensionError(
            f"conv2d output empty: input {h}x{w}, kernel {kh}x{kw}, stride {stride}, pad {pad}")
    return oh, ow


def _channel_major(x: Array, pad: int) -> Array:
    """[N,C,H,W] -> [C, H+2*pad, W+2*pad, N], zero borders; a view when pad is
    0."""
    xt = x.transpose(1, 2, 3, 0)
    if not pad:
        return xt
    c, h, w, n = xt.shape
    out = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    out[:, pad:pad + h, pad:pad + w] = xt
    return out


def _windows(xp: Array, kh: int, kw: int, stride: int, oh: int, ow: int) -> Array:
    """The read-only (c, kh, kw, oh, ow, n) view of [C,Hp,Wp,N] whose copy is
    the cols."""
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(xp.shape[0], kh, kw, oh, ow, xp.shape[3]),
        strides=(s0, s1, s2, s1 * stride, s2 * stride, s3), writeable=False)


def _im2col(xp: Array, kh: int, kw: int, stride: int, oh: int, ow: int) -> Array:
    """[C,Hp,Wp,N] -> C-contiguous cols [C*kh*kw, oh*ow*N], rows in (c, kh, kw)
    order; a view only when xp already holds them so (a conv-order 1x1
    input)."""
    c, _, _, n = xp.shape
    return np.ascontiguousarray(_windows(xp, kh, kw, stride, oh, ow).reshape(
        c * kh * kw, oh * ow * n))


def conv2d_array(x: Array, w: Array, bias: Array | None, stride: int, pad: int) -> Array:
    """The forward of conv2d on plain arrays, with no graph node:
    [N,C,H,W] * [Co,C,kh,kw] -> [N,Co,oh,ow], a view of the [Co,oh,ow,N]
    array the tap loop (float64) or the GEMM (float32) fills."""
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4D x and w, got {x.shape} and {w.shape}")
    n, c, h, wd = x.shape
    co, cw, kh, kw = w.shape
    if cw != c:
        raise DimensionError(f"conv2d channel mismatch: x {x.shape} vs w {w.shape}")
    oh, ow = _conv2d_out_hw(h, wd, kh, kw, stride, pad)
    xp = _channel_major(x, pad)

    if x.dtype == np.float64:
        out = np.zeros((co, oh, ow, n), dtype=x.dtype)
        tmp = np.empty_like(out)
        for ci in range(c):
            for i in range(kh):
                for j in range(kw):
                    patch = xp[ci, i:i + stride * oh:stride, j:j + stride * ow:stride]
                    np.multiply(patch, w[:, ci, i, j, None, None, None], out=tmp)
                    out += tmp
    else:
        out = (w.reshape(co, -1) @ _im2col(xp, kh, kw, stride, oh, ow)).reshape(co, oh, ow, n)
    if bias is not None:
        out += bias[:, None, None, None]
    return out.transpose(3, 0, 1, 2)


def conv2d(x: Tensor, w: Tensor, bias: Tensor | None = None, stride: int = 1,
           pad: int = 0) -> Tensor:
    """Cross-correlation of [N,C,H,W] with [Co,C,kh,kw], zero padding.

    At float64 the result is bit-identical to the naive loop (see the module
    docstring). An array bias is wrapped as a constant in x's dtype.
    """
    x = _wrap(x)
    w = _wrap(w)
    if bias is not None:
        bias = _wrap(bias, like=x)
    xd = x.data
    out_data = conv2d_array(xd, w.data, None if bias is None else bias.data, stride, pad)
    n, c, h, wd = xd.shape
    co, _, kh, kw = w.shape
    oh, ow = out_data.shape[2:]

    def backward(grad: Array) -> None:
        g_t = grad.transpose(1, 2, 3, 0).reshape(co, oh * ow * n)
        if w.requires_grad:
            cols = _im2col(_channel_major(xd, pad), kh, kw, stride, oh, ow)
            # (cols @ g^T)^T is g @ cols^T; BLAS runs this orientation faster
            # at every 3x3 shape of the presets
            w.grad += (cols @ g_t.T).T.reshape(w.shape)
        if x.requires_grad:
            dcols = (w.data.reshape(co, -1).T @ g_t).reshape(c, kh, kw, oh, ow, n)
            dxp = np.zeros((c, h + 2 * pad, wd + 2 * pad, n), dtype=grad.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
            x.grad += dxp[:, pad:pad + h, pad:pad + wd].transpose(3, 0, 1, 2)
        if bias is not None and bias.requires_grad:
            bias.grad += g_t.sum(axis=1)

    parents = (x, w) if bias is None else (x, w, bias)
    return x._child(out_data, parents, backward, "conv2d")


# -- loss -----------------------------------------------------------------------------


def log_softmax(logits: Array) -> Array:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def class_labels(labels, n: int, k: int) -> Array:
    """labels as an int64 [n] array of class indices in [0, k)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match logits rows {n}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        bad = labels[(labels < 0) | (labels >= k)][0]
        raise InputError(f"label {bad} out of range [0, {k})")
    return labels


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over rows of -log softmax(logits)[label]; labels are class indices."""
    logits = _wrap(logits)
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy expects [N,K] logits, got {logits.shape}")
    n, k = logits.shape
    labels = class_labels(labels, n, k)

    logp = log_softmax(logits.data)
    out_data = np.asarray(-logp[np.arange(n), labels].mean(), dtype=logits.data.dtype)

    def backward(grad: Array) -> None:
        g = np.exp(logp)
        g[np.arange(n), labels] -= 1.0
        logits.grad += grad * g / n

    return logits._child(out_data, (logits,), backward, "softmax_cross_entropy")


# -- gradient checking ----------------------------------------------------------------


def grad_check(fn: Callable[[Tensor], Tensor], x: Array, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    fn must be scalar-valued and smooth at x; relative error per element is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    x = np.asarray(x, dtype=np.float64)
    leaf = Tensor(x.copy(), requires_grad=True)
    out = fn(leaf)
    out.backward()
    analytic = leaf.grad.copy()

    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(Tensor(x)).item()
        flat[i] = orig - eps
        lo = fn(Tensor(x)).item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


# -- weight store ("SGNF1") -------------------------------------------------------------

WEIGHT_MAGIC = b"SGNF1"


def save_weights(path, tensors: dict[str, Array] | Iterable[tuple[str, Array]]) -> None:
    """Write named tensors: magic, count, then {name, rank, dims, f32 values}.

    All integers are unsigned 32-bit little-endian; values are float32
    little-endian. Round-trips bit-exactly.
    """
    if isinstance(tensors, dict):
        items = list(tensors.items())
    else:
        items = list(tensors)
    parts = [WEIGHT_MAGIC, struct.pack("<I", len(items))]
    for name, arr in items:
        arr = np.asarray(arr, dtype="<f4")  # keeps rank 0; ascontiguousarray makes it 1
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    write_bytes(path, b"".join(parts))


def load_weights(path) -> dict[str, Array]:
    """Read a weight file written by save_weights; returns float32 arrays.

    A truncated file, trailing bytes, a repeated or non-UTF-8 tensor name,
    dims too large to index, or a NaN or infinite value is a ParseError
    that names the file.
    """
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size

        def read(size: int, what: str) -> bytes:
            # a size past the end (dims up to 2**32 - 1 each) is not read at all
            raw = fh.read(size) if size <= end - fh.tell() else b""
            if len(raw) != size:
                raise ParseError(f"{path}: truncated {what}")
            return raw

        magic = fh.read(len(WEIGHT_MAGIC))
        if magic != WEIGHT_MAGIC:
            raise ParseError(f"{path}: bad magic {magic!r}, expected {WEIGHT_MAGIC!r}")
        (count,) = struct.unpack("<I", read(4, "tensor count"))
        out: dict[str, Array] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<I", read(4, f"name length of tensor {i}"))
            try:
                name = read(name_len, f"name of tensor {i}").decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: name of tensor {i} is not UTF-8") from None
            if name in out:
                raise ParseError(f"{path}: duplicate tensor name {name!r}")
            (rank,) = struct.unpack("<I", read(4, f"rank of tensor {name!r}"))
            dims = struct.unpack(f"<{rank}I", read(4 * rank, f"dims of tensor {name!r}"))
            raw = read(4 * math.prod(dims), f"values for tensor {name!r}")
            try:
                out[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
            except ValueError:  # no values, but numpy cannot index dims that large
                raise ParseError(f"{path}: dims {dims} of tensor {name!r} are too large") from None
            if not np.isfinite(out[name]).all():
                raise ParseError(f"{path}: non-finite values in tensor {name!r}")
        if fh.read(1):
            raise ParseError(f"{path}: trailing bytes after {count} tensors")
        return out
