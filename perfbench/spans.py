"""In-process span tracer for the traced benchmark run.

The tracer replaces signflow's public functions at the names their callers
look up (``signflow.backbone.conv2d``, ``signflow.videoplan.read_clip``,
``signflow.backbone.Model.forward`` ...) with wrappers that record one span
per call: name, start, end, parent span and operation id. Spans stay in
memory in flat arrays, are written out once at the end, and are reduced to
per-layer metrics (call counts, total time, self time).

Nothing here is imported or installed by the untraced run, so the end-to-end
numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

SETUP = "setup"
CHECKS = "checks"      # expected outputs for the checks: neither set-up nor measured
WARMUP = "warmup"

class Tracer:
    """Span recorder. ``begin_op`` names the operation later spans belong to."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_kinds: list[str] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.graph_nodes: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def begin_op(self, kind: str) -> None:
        self.op_kinds.append(kind)

    @property
    def kind(self) -> str:
        return self.op_kinds[-1] if self.op_kinds else SETUP

    def count(self, counter: str, value: float) -> None:
        self.counters[(_phase(self.kind), counter)] += value

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, counter=None):
        """Return fn wrapped in a span; counter(args, result) adds to counts."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(len(self.op_kinds) - 1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, counter))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span (relative times) plus the name and op tables."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64) - t0,
                 end=np.frombuffer(self.end, dtype=np.float64) - t0,
                 names=np.array(json.dumps(self.names)),
                 op_kinds=np.array(json.dumps(self.op_kinds)))

    def reduce(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics from the spans; counts are per measured round."""
        return _Reduction(self, rounds).metrics()


def _phase(kind: str) -> str:
    return kind if kind in (SETUP, CHECKS, WARMUP) else "measure"


class _Reduction:
    def __init__(self, tracer: Tracer, rounds: int):
        self.t = tracer
        self.rounds = max(rounds, 1)
        name = np.frombuffer(tracer.name, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.end, dtype=np.float64) - \
            np.frombuffer(tracer.start, dtype=np.float64)
        children = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        kinds = np.array(tracer.op_kinds + [SETUP])  # op -1 (before any op) is set-up
        op_kind = kinds[np.frombuffer(tracer.op, dtype=np.int32)]
        self.name, self.dur, self.self_time, self.op_kind = name, dur, dur - children, op_kind
        self.measured = (op_kind != SETUP) & (op_kind != CHECKS) & (op_kind != WARMUP)
        self.in_setup = op_kind == SETUP

    def _select(self, span: str, kind: str | None = None) -> np.ndarray:
        nid = self.t._name_ids.get(span, -1)
        mask = self.name == nid
        if kind is not None:
            return mask & (self.op_kind == kind)
        # a layer that only runs during set-up on this workload is timed there
        return mask & (self.measured if (mask & self.measured).any() else self.in_setup)

    def mean(self, span: str, kind: str | None = None, self_time: bool = False,
             scale: float = 1e3) -> float:
        mask = self._select(span, kind)
        if not mask.any():
            return 0.0
        values = self.self_time if self_time else self.dur
        return float(values[mask].mean()) * scale

    def total(self, span: str, kind: str | None = None, self_time: bool = False) -> float:
        values = self.self_time if self_time else self.dur
        return float(values[self._select(span, kind)].sum())

    def calls(self, span: str, kind: str | None = None) -> int:
        nid = self.t._name_ids.get(span, -1)
        mask = (self.name == nid) & self.measured
        if kind is not None:
            mask &= self.op_kind == kind
        return int(mask.sum())

    def counter(self, name: str) -> float:
        return self.t.counters.get(("measure", name), 0.0)

    def metrics(self) -> dict[str, float]:
        m: dict[str, float] = {}
        variants = ("shift", "action", "none")
        for v in variants:
            m[f"tensor.backward_ms.{v}"] = self.mean("tensor.backward", f"train:{v}")
            m[f"tensor.graph_nodes.{v}"] = float(self.t.graph_nodes.get(v, 0))
            m[f"backbone.forward_ms.{v}"] = self.mean("backbone.forward", f"train:{v}",
                                                      self_time=True)
        m["tensor.conv2d_ms"] = self.mean("tensor.conv2d")
        m["tensor.conv2d.calls"] = self.calls("tensor.conv2d") / self.rounds
        m["tensor.softmax_cross_entropy_ms"] = self.mean("tensor.softmax_cross_entropy")
        m["tsm.shift_ms"] = self.mean("tsm.shift")
        m["tsm.online_step_us"] = self.mean("tsm.online_step", scale=1e6)
        m["tsm.online_step.calls"] = self.calls("tsm.online_step") / self.rounds
        m["actionnet.forward_ms"] = self.mean("actionnet.forward")

        steps = sum(self.calls("backbone.forward", f"train:{v}") for v in variants)
        m["backbone.train_self_ms"] = \
            1e3 * self.total("backbone.train", self_time=True) / steps if steps else 0.0
        eval_clips = sum(self.calls("backbone.forward", f"eval:{v}") for v in variants)
        m["backbone.evaluate_ms_per_clip"] = \
            1e3 * self.total("backbone.evaluate") / eval_clips if eval_clips else 0.0
        m["backbone.stream_step_us"] = self.mean("backbone.stream_step", self_time=True,
                                                 scale=1e6)
        m["backbone.open_stream_us"] = self.mean("backbone.open_stream", scale=1e6)
        step_ms = self.mean("backbone.stream_step")
        for t in (8, 16, 32):
            fwd = self.mean("backbone.forward", f"offline:t{t}")
            m[f"backbone.forward_ms.t{t}"] = fwd
            m[f"backbone.online_offline_ratio.t{t}"] = step_ms / fwd if fwd else 0.0

        m["sampler.segment_sample_us"] = self.mean("sampler.segment_sample", scale=1e6)
        m["sampler.segment_sample.calls"] = self.calls("sampler.segment_sample") / self.rounds
        m["dataset.synth_s"] = self.mean("dataset.synth_temporal", scale=1.0)
        m["dataset.load_clip_dataset_s"] = self.mean("dataset.load_clip_dataset", scale=1.0)
        m["dataset.make_isolated_clips_s"] = self.mean("dataset.make_isolated_clips",
                                                       scale=1.0)
        m["dataset.read_clip_us"] = self.mean("dataset.read_clip", scale=1e6)
        m["dataset.frames_read"] = self.counter("frames_read") / self.rounds

        m["gloss.segment_us"] = self.mean("gloss.segment", scale=1e6)
        m["gloss.reorder_us"] = self.mean("gloss.reorder", scale=1e6)
        m["gloss.glosses_to_text_us"] = self.mean("gloss.glosses_to_text", scale=1e6)
        tokens = self.counter("tokens")
        m["gloss.vocab_hit_ratio"] = self.counter("vocab_hits") / tokens if tokens else 0.0

        m["videoplan.plan_us"] = self.mean("videoplan.plan", scale=1e6)
        m["videoplan.concat_frames_ms"] = self.mean("videoplan.concat_frames")
        m["videoplan.frames_written"] = self.counter("frames_written") / self.rounds
        m["videoplan.recognize_self_ms"] = self.mean("videoplan.recognize", self_time=True)
        m["videoplan.windows"] = self.counter("windows") / self.rounds
        plan_tokens = self.counter("plan_tokens")
        m["videoplan.plan_hit_ratio"] = \
            self.counter("plan_entries") / plan_tokens if plan_tokens else 0.0
        return m


# -- wrap points ---------------------------------------------------------------------


def _count_frames_read(tracer, args, result):
    tracer.count("frames_read", len(set(args[1])))


def _count_segment(tracer, args, result):
    tracer.count("tokens", len(result))
    tracer.count("vocab_hits", sum(1 for tok in result if tok.gloss_id is not None))


def _count_plan(tracer, args, result):
    tracer.count("plan_tokens", len(args[0].tokens))
    tracer.count("plan_entries", len(result.entries))


def _count_concat(tracer, args, result):
    tracer.count("frames_written", result.num_frames if result is not None else 0)


def _count_recognize(tracer, args, result):
    tracer.count("windows", len(result["windows"]))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where signflow's callers look them up."""
    from signflow import actionnet, backbone, dataset, gloss, sampler, tensor, videoplan

    points = [
        (backbone, "conv2d", "tensor.conv2d", None),
        (actionnet, "conv2d", "tensor.conv2d", None),
        (backbone, "softmax_cross_entropy", "tensor.softmax_cross_entropy", None),
        (backbone, "shift", "tsm.shift", None),
        (backbone, "online_step", "tsm.online_step", None),
        (actionnet.ActionBlock, "__call__", "actionnet.forward", None),
        (backbone.Model, "forward", "backbone.forward", None),
        (backbone.Model, "open_stream", "backbone.open_stream", None),
        (backbone.StreamState, "step", "backbone.stream_step", None),
        (backbone, "train", "backbone.train", None),
        (backbone, "evaluate", "backbone.evaluate", None),
        # load_clip_dataset imports segment_sample from the sampler module at call time
        (sampler, "segment_sample", "sampler.segment_sample", None),
        (videoplan, "segment_sample", "sampler.segment_sample", None),
        (dataset, "synth_temporal", "dataset.synth_temporal", None),
        (dataset, "load_clip_dataset", "dataset.load_clip_dataset", None),
        (dataset, "make_isolated_clips", "dataset.make_isolated_clips", None),
        (dataset, "read_clip", "dataset.read_clip", _count_frames_read),
        (videoplan, "read_clip", "dataset.read_clip", _count_frames_read),
        (gloss, "segment", "gloss.segment", _count_segment),
        (gloss, "reorder", "gloss.reorder", None),
        (videoplan, "glosses_to_text", "gloss.glosses_to_text", None),
        (videoplan, "plan", "videoplan.plan", _count_plan),
        (videoplan, "concat_frames", "videoplan.concat_frames", _count_concat),
        (videoplan, "recognize", "videoplan.recognize", _count_recognize),
    ]
    for owner, attr, name, counter in points:
        tracer.patch(owner, attr, name, counter)

    # Tensor.backward gets its own wrapper: on the first step of each temporal
    # module it counts the graph reachable from the loss, inside a span of its
    # own so that the walk is not charged to backbone.train's self time.
    traced_backward = tracer.wrap(tensor.Tensor.backward, "tensor.backward")
    graph_walk = tracer.wrap(_graph_size, "trace.graph_walk")

    def backward(loss):
        kind = tracer.kind
        if kind.startswith("train:"):
            variant = kind.split(":", 1)[1]
            if variant not in tracer.graph_nodes:
                tracer.graph_nodes[variant] = graph_walk(loss)
        return traced_backward(loss)

    tracer._undo.append((tensor.Tensor, "backward", tensor.Tensor.backward))
    tensor.Tensor.backward = backward


def _graph_size(loss) -> int:
    """Distinct tensors reachable from the loss through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)
