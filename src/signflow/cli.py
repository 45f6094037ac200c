"""Command-line surface.

Machine output is JSON on stdout (one object, or one object per line for
streams); diagnostics go to stderr. Exit codes: 0 success, 1 domain error
or an OS error on a path, 2 usage error, argparse's own included; every
error is one stderr line. Each subcommand takes only the shared flags it
reads: every one takes --config, a JSON file of flag defaults (explicit
flags win; a key that names no flag of any subcommand is a usage error);
synth, train, bench and gradcheck take --seed, whose default SIGNFLOW_SEED
overrides; all but stream, whose lines carry no timestamp, take
--no-timestamp and --pretty. The inputs choose the mode: synth --lexicon
writes one clip per gloss, translate --out (with --clips) writes the
planned frames, and train takes its class count from the manifest. A flag
that only another mode reads is a usage error, but only from the command line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .backbone import Model, NetSpec, TrainConfig, build, evaluate, parameter_count, train
from .dataset import (ManifestEntry, SynthSpec, load_clip_dataset, load_labels,
                      load_manifest, make_isolated_clips, read_clip, read_json, synth_temporal)
from .errors import ConfigError, DimensionError, ParseError, SignflowError, UsageError
from .gloss import Lexicon, ReorderRule, load_lexicon, load_rules, reorder, segment
from .sampler import SampleSpec, MODE_EVAL_CENTER, MODE_TRAIN_RANDOM
from .tensor import (Tensor, conv2d, grad_check, matmul, mul, relu, roll_time, sigmoid,
                     softmax_cross_entropy, tmean)
from .tsm import UNIDIRECTIONAL
from .videoplan import (ClipIndex, RecognizeConfig, TransitionPolicy, _gloss_by_class,
                        concat_frames, plan, recognize)

def _emit(obj: dict, args) -> None:
    if not args.no_timestamp:
        obj = {**obj, "timestamp": datetime.now(timezone.utc).isoformat()}
    indent = 2 if args.pretty else None
    sys.stdout.write(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=indent) + "\n")


def _emit_line(obj: dict, file) -> None:
    """One JSON line, keys sorted, flushed: a stream record on stdout, or a
    diagnostics record (a warning, a timing) on stderr."""
    file.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
    file.flush()


def _require_file(path: str | Path | None, flag: str) -> Path:
    if path is None:
        raise UsageError(f"{flag} is required")
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{flag}: {p} does not exist")
    if not p.is_file():
        raise UsageError(f"{flag}: {p} is not a file")
    return p


def _default_seed() -> int:
    env = os.environ.get("SIGNFLOW_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(f"SIGNFLOW_SEED must be an integer, got {env!r}") from None


def _netspec_from_args(num_classes: int, *, preset: str, temporal: str, t: int | None,
                       fold: float | None, direction: str | None) -> NetSpec:
    if temporal != "shift":  # fold and direction are the shift's: another module takes neither
        fold = direction = None
    kw = {key: value for key, value in (("fold_fraction", fold), ("direction", direction),
                                        ("t", t)) if value is not None}
    make = NetSpec.tiny if preset == "tiny" else NetSpec.micro
    return make(num_classes, temporal=temporal, **kw)


def _data_channels(clips, manifest: Path, preset: str) -> int:
    """The channel count of the first clip read, which either preset is built
    with; a clip with another count is a DimensionError naming the manifest
    and the preset."""
    channels = clips[0][0].shape[1]
    for clip, _ in clips:
        if clip.shape[1] != channels:
            raise DimensionError(f"{manifest}: a clip of {clip.shape[1]} channels after one of "
                                 f"{channels}: --preset {preset} takes one channel count")
    return channels


def _load_model(args) -> Model:
    weights = _require_file(args.weights, "--weights")
    spec_path = _require_file(args.netspec or weights.with_name("netspec.json"), "--netspec")
    return Model.load(weights, spec_path)


def _lexicon_and_rules(args) -> tuple[Lexicon, list[ReorderRule]]:
    lex = load_lexicon(_require_file(args.lexicon, "--lexicon"))
    rules = load_rules(_require_file(args.rules, "--rules"), known_tags=lex.known_tags) \
        if args.rules else []
    return lex, rules


def _frames_entry(frames: str) -> ManifestEntry:
    frames_dir = Path(frames)
    if not frames_dir.is_dir():
        raise UsageError(f"--frames: {frames_dir} is not a directory")
    count = len(list(frames_dir.glob("frame_*.p?m")))
    if count == 0:
        raise UsageError(f"--frames: no frame_*.pgm/.ppm files in {frames_dir}")
    return ManifestEntry(frames_dir.name, str(frames_dir), count, 0, "test")


# -- subcommands --------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    _require_mode(args, "a temporal synth (no --lexicon)", not args.lexicon)
    if args.lexicon:
        lex = load_lexicon(_require_file(args.lexicon, "--lexicon"))
        glosses = {e.gloss_id: i for i, e in
                   enumerate(sorted(lex.entries.values(), key=lambda e: e.gloss_id))}
        manifest = make_isolated_clips(glosses, out, num_frames=args.t,
                                       frame_size=(args.size, args.size), seed=args.seed)
    else:
        per_split = {"train": args.train_per_class, "val": args.val_per_class,
                     "test": args.test_per_class}
        spec = SynthSpec(num_classes=args.classes, t=args.t,
                         frame_size=(args.size, args.size),
                         clips_per_class=per_split, noise=args.noise, seed=args.seed)
        manifest = synth_temporal(spec, out)
    entries, _ = load_manifest(manifest)
    _emit({"manifest": str(manifest), "labels": str(manifest.parent / "labels.json"),
           "entries": len(entries)}, args)
    return 0


def _minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cmd_train(args) -> int:
    _require_mode(args, "--temporal shift", args.temporal == "shift", "--fold", "--direction")
    manifest = _require_file(args.manifest, "--manifest")
    entries, label_map = load_manifest(manifest)
    num_classes = len(label_map) if label_map else max(e.label for e in entries) + 1
    spec = _netspec_from_args(num_classes, preset=args.preset, temporal=args.temporal,
                              t=args.t, fold=args.fold, direction=args.direction)
    mode = MODE_TRAIN_RANDOM if args.sample_mode == "random" else MODE_EVAL_CENTER
    sample = SampleSpec(num_segments=spec.t, mode=mode, seed=args.seed)
    train_ds = load_clip_dataset(manifest, "train", sample, size=spec.frame_size,
                                 dtype=np.float32)
    spec = replace(spec, in_channels=_data_channels(train_ds, manifest, args.preset))
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                      momentum=args.momentum, weight_decay=args.weight_decay, seed=args.seed)
    model = build(spec, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    epoch_start, faults_start = time.perf_counter(), _minor_faults()

    def on_epoch(record: dict) -> None:
        # timing and page faults go to stderr: stdout stays byte-stable for a seed
        nonlocal epoch_start, faults_start
        seconds, faults = time.perf_counter() - epoch_start, _minor_faults() - faults_start
        _emit_line(record, sys.stdout)
        _emit_line({"epoch": record["epoch"], "seconds": round(seconds, 6),
                    "clips_per_s": round(len(train_ds) / seconds, 3),
                    "minor_faults": faults}, sys.stderr)
        epoch_start, faults_start = time.perf_counter(), _minor_faults()

    history = train(model, train_ds, cfg, on_epoch=on_epoch)
    weights_path = out / "model.sgnf"
    model.save(weights_path, out / "netspec.json")
    summary = {"weights": str(weights_path), "netspec": str(out / "netspec.json"),
               "epochs": len(history), "parameters": parameter_count(model),
               "final": history[-1] if history else None}
    _emit(summary, args)
    return 0


def cmd_eval(args) -> int:
    manifest = _require_file(args.manifest, "--manifest")
    model = _load_model(args)
    sample = SampleSpec(num_segments=model.spec.t, mode=MODE_EVAL_CENTER)
    dataset = load_clip_dataset(manifest, args.split, sample, size=model.spec.frame_size,
                                dtype=model.dtype)
    metrics = evaluate(model, dataset)
    _emit({"split": args.split, **metrics.to_dict()}, args)
    return 0


def cmd_recognize(args) -> int:
    for flag, value in (("--manifest", args.manifest), ("--video-id", args.video_id)):
        if args.frames and value is not None:
            raise UsageError(f"--frames and {flag} exclude each other")
    model = _load_model(args)
    lex, rules = _lexicon_and_rules(args)
    if args.frames:
        entry = _frames_entry(args.frames)
        base = Path(".")
        label_map = labels_path = None
    else:
        manifest = _require_file(args.manifest, "--manifest")
        if args.video_id is None:
            raise UsageError("--video-id is required with --manifest")
        entries, label_map = load_manifest(manifest)
        by_id = {e.video_id: e for e in entries}
        if args.video_id not in by_id:
            raise UsageError(f"--video-id: {args.video_id!r} not in {manifest}")
        entry = by_id[args.video_id]
        base = manifest.parent
        labels_path = manifest.parent / "labels.json"
    if args.labels:
        labels_path = _require_file(args.labels, "--labels")
        label_map = load_labels(labels_path)
    if label_map is None:
        raise ConfigError("recognize requires a label map (gloss -> class index): "
                          "pass --labels")
    try:  # recognize checks the map again; this check names the file it came from
        _gloss_by_class(model, lex, label_map)
    except ConfigError as exc:
        raise ConfigError(f"{labels_path}: {exc}") from None
    cfg = RecognizeConfig(window=args.window, stride=args.stride)
    sample = SampleSpec(num_segments=model.spec.t, mode=MODE_EVAL_CENTER)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = recognize(entry, model, lex, rules, sample, base=base,
                           label_map=label_map, cfg=cfg, size=model.spec.frame_size)
    for w in caught:
        _emit_line({"kind": "warning", "category": w.category.__name__,
                    "message": str(w.message)}, sys.stderr)
    _emit(result, args)
    return 0


def cmd_stream(args) -> int:
    model = _load_model(args)
    entry = _frames_entry(args.frames)
    stream = model.open_stream(stream_id=entry.video_id)
    step_ms = []
    for i in range(entry.num_frames):
        frame = read_clip(entry, [i], base=".", size=model.spec.frame_size,
                          dtype=model.dtype)[0]
        t0 = time.perf_counter()
        rolling = stream.step(frame)["rolling_logits"][0]
        step_ms.append((time.perf_counter() - t0) * 1e3)
        _emit_line({"frame": i, "prediction": int(np.argmax(rolling)),
                    "rolling_logits": [round(float(v), 6) for v in rolling]}, sys.stdout)
    # step timings go to stderr: stdout stays byte-stable
    p50, p99 = np.percentile(step_ms, [50, 99])
    _emit_line({"frames": len(step_ms), "step_ms_p50": round(float(p50), 4),
                "step_ms_p99": round(float(p99), 4)}, sys.stderr)
    return 0


def cmd_translate(args) -> int:
    _require_mode(args, "--clips", bool(args.clips))
    lex, rules = _lexicon_and_rules(args)
    tokens = segment(args.text, lex)
    seq = reorder(tokens, rules)
    result: dict = {"text": args.text, "segmented": [t.surface for t in tokens],
                    **seq.to_dict()}
    if args.clips:
        index = ClipIndex(_require_file(args.clips, "--clips"), fps=args.fps)
        policy = TransitionPolicy.parse(args.policy)
        manifest = plan(seq, lex, index, policy=policy, fallback=args.fallback)
        for record in manifest.warnings:
            _emit_line(record, sys.stderr)
        result["manifest"] = manifest.to_dict()
        if args.out:
            out_dir = Path(args.out)
            entry = concat_frames(manifest, index, out_dir / "frames", video_id=out_dir.name)
            result["frames_dir"] = str(out_dir / "frames") if entry else None
            result["materialized_frames"] = entry.num_frames if entry else 0
    _emit(result, args)
    return 0


def _median_ms(fn, reps: int) -> tuple[float, float]:
    """Median ms of ``reps`` timed calls, after 3 untimed warm-up calls, and
    the minor page faults per timed call."""
    for _ in range(3):
        fn()
    samples = []
    faults = _minor_faults()
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples), (_minor_faults() - faults) / reps


def _profile_step(model: Model, dataset, cfg: TrainConfig) -> dict:
    """Per-op backward ms and op-node count of one training step (no update)."""
    batch = dataset[:cfg.batch_size]
    labels = np.array([l for _, l in batch], dtype=np.int64)
    profile: dict[str, list] = {}
    softmax_cross_entropy(model.forward([c for c, _ in batch]), labels).backward(profile)
    return {"op_nodes": sum(calls for calls, _ in profile.values()),
            "backward_ms": {op: round(sec * 1e3, 4) for op, (_, sec) in sorted(profile.items())}}


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise UsageError(f"--reps must be at least 1, got {args.reps}")
    variants = [variant.strip() for variant in args.variants.split(",")]
    _require_mode(args, "--epochs above 0", args.epochs > 0, "--lr")
    _require_mode(args, "--epochs above 0 or --profile", args.epochs > 0 or args.profile,
                  "--batch-size")
    _require_mode(args, "a shift entry in --variants", "shift" in variants, "--fold")
    manifest = _require_file(args.manifest, "--manifest")
    entries, label_map = load_manifest(manifest)
    num_classes = len(label_map) if label_map else max(e.label for e in entries) + 1
    sample = SampleSpec(num_segments=args.t, mode=MODE_EVAL_CENTER)
    specs = [_netspec_from_args(num_classes, preset=args.preset, temporal=variant, t=args.t,
                                fold=args.fold,
                                direction=UNIDIRECTIONAL if variant == "shift" else None)
             for variant in variants]
    # every variant of one preset reads frames of one size: load each split once
    size = specs[0].frame_size
    train_ds = load_clip_dataset(manifest, "train", sample, size=size, dtype=np.float32)
    eval_split = args.split if any(e.split == args.split for e in entries) else "train"
    eval_ds = train_ds if eval_split == "train" else \
        load_clip_dataset(manifest, eval_split, sample, size=size, dtype=np.float32)
    channels = _data_channels([*train_ds, *eval_ds], manifest, args.preset)
    specs = [replace(spec, in_channels=channels) for spec in specs]
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                      seed=args.seed)
    rows = []
    for spec in specs:
        variant = spec.temporal
        model = build(spec, seed=args.seed)
        if args.epochs:
            train(model, train_ds, cfg)
        metrics = evaluate(model, eval_ds)
        if args.profile:
            _emit_line({"variant": variant, "batch_size": cfg.batch_size,
                        **_profile_step(model, train_ds, cfg)}, sys.stderr)

        # every latency goes through _median_ms: one timed evaluate pass after its warm-up
        ms_eval = _median_ms(lambda: evaluate(model, eval_ds), 1)[0] / len(eval_ds)
        clip = eval_ds[0][0]  # read at float32, the model's dtype
        ms_clip, infer_faults = _median_ms(lambda: model.infer(clip), args.reps)
        if variant in ("shift", "none"):
            frame = clip[0]
            stream = model.open_stream()
            ms_frame = _median_ms(lambda: stream.step(frame), args.reps)[0]
            ratio = ms_frame / ms_clip
        else:
            ms_frame = None
            ratio = None
        rows.append({"variant": variant, **metrics.to_dict(),
                     "eval_ms_per_clip": round(ms_eval, 4),
                     "ms_per_clip": round(ms_clip, 4),
                     "infer_minor_faults": round(infer_faults, 2),
                     "ms_per_frame_online": round(ms_frame, 4) if ms_frame is not None else None,
                     "online_offline_ratio": round(ratio, 4) if ratio is not None else None})
    _emit({"t": args.t, "reps": args.reps, "split": eval_split, "rows": rows}, args)
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = []

    def record(op, err, tol=1e-4):
        checks.append({"op": op, "max_rel_err": float(err), "tolerance": tol,
                       "pass": bool(err <= tol)})

    x = rng.uniform(-1, 1, (3, 4))
    w = rng.uniform(-1, 1, (4, 2))
    record("matmul", grad_check(lambda t: matmul(t, Tensor(w)).sum(), x))
    xc = rng.uniform(-1, 1, (2, 3, 6, 6))
    wc = rng.uniform(-1, 1, (4, 3, 3, 3))
    record("conv2d", grad_check(lambda t: conv2d(t, Tensor(wc), stride=2, pad=1).sum(), xc))
    record("mean", grad_check(lambda t: tmean(t, axis=(2, 3)).sum(), xc))
    # keep relu inputs away from the kink
    xr = rng.uniform(0.1, 1, (3, 5)) * rng.choice([-1.0, 1.0], size=(3, 5))
    record("relu", grad_check(lambda t: relu(t).sum(), xr))
    record("sigmoid", grad_check(lambda t: sigmoid(t).sum(), x))
    logits = rng.uniform(-1, 1, (4, 5))
    labels = rng.integers(0, 5, size=4)
    record("softmax_cross_entropy",
           grad_check(lambda t: softmax_cross_entropy(t, labels), logits))

    from .backbone import StageSpec
    spec = NetSpec(num_classes=3, t=4, in_channels=2, frame_size=(8, 8), stem_channels=8,
                   stem_stride=1, stages=(StageSpec(1, 8),), temporal="shift")
    model = build(spec, seed=args.seed, dtype=np.float64)
    clip = rng.uniform(0.05, 1, (1, 4, 2, 8, 8))
    labels_net = np.array([1])

    def net_loss(t: Tensor) -> Tensor:
        return softmax_cross_entropy(model.forward(t), labels_net)

    record("backbone_input", grad_check(net_loss, clip))
    # drawn last: the seeded inputs of the checks above do not depend on it
    xt = rng.uniform(-1, 1, (2, 3, 5, 2))
    wt = rng.uniform(-1, 1, (2, 3, 5, 2))
    record("roll_time", grad_check(lambda t: mul(roll_time(t, (-1, 2), 2), Tensor(wt)).sum(), xt))
    xw = rng.uniform(-1, 1, (2, 3, 6, 6))
    ww = rng.uniform(-1, 1, (4, 3, 3, 3))
    record("conv2d_weight",
           grad_check(lambda t: conv2d(Tensor(xw), t, stride=2, pad=1).sum(), ww))

    ok = all(c["pass"] for c in checks)
    _emit({"checks": checks, "all_pass": ok}, args)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one-line UsageErrors; subparsers inherit it."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


class _ModeOnly(argparse.Action):
    """A flag one mode reads, noted in ``mode_flags`` when the command line gives it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.mode_flags = [*namespace.mode_flags, self.option_strings[0]]


def _require_mode(args, mode: str, on: bool, *flags: str) -> None:
    """A usage error for the first noted flag (of ``flags``, or any) while ``mode`` is off."""
    given = [flag for flag in args.mode_flags if not flags or flag in flags]
    if given and not on:
        raise UsageError(f"{given[0]} requires {mode}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signflow", description="Two-way sign language translation engine")
    parser.add_argument("--version", action="version", version=f"signflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    seed_default = _default_seed()

    def common(p, *, seed: bool, emit: bool = True):
        """The shared flags a subcommand reads: --seed where it draws random
        numbers, --no-timestamp and --pretty where it prints through _emit."""
        if seed:
            p.add_argument("--seed", type=int, default=seed_default)
        p.add_argument("--config", help="JSON file of flag defaults (flags win)")
        if emit:
            p.add_argument("--no-timestamp", action="store_true",
                           help="omit the timestamp field (byte-stable output)")
            p.add_argument("--pretty", action="store_true", help="indent JSON output")
        p.set_defaults(config_parser=p, mode_flags=[])

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=4, action=_ModeOnly)
    p.add_argument("--t", type=int, default=8)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--train-per-class", type=int, default=50, action=_ModeOnly)
    p.add_argument("--val-per-class", type=int, default=0, action=_ModeOnly)
    p.add_argument("--test-per-class", type=int, default=13, action=_ModeOnly)
    p.add_argument("--noise", type=float, default=0.05, action=_ModeOnly)
    p.add_argument("--lexicon",
                   help="lexicon TSV: write one clip per gloss instead of the temporal set")
    common(p, seed=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=["micro", "tiny"], default="micro")
    p.add_argument("--temporal", choices=["shift", "action", "none"], default="shift")
    p.add_argument("--direction", choices=["bidirectional", "unidirectional"], action=_ModeOnly,
                   help="with --temporal shift")
    p.add_argument("--fold", type=float, action=_ModeOnly,
                   help="shift fold fraction (default 1/8; with --temporal shift); a fold of "
                        "0 channels is an error")
    p.add_argument("--t", type=int, help="segments per clip (default: preset value)")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--sample-mode", choices=["random", "center"], default="center")
    common(p, seed=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate weights on a manifest split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--netspec", help="defaults to netspec.json beside the weights")
    p.add_argument("--split", default="test")
    common(p, seed=False)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("recognize", help="recognize a sign video to text")
    p.add_argument("--weights", required=True)
    p.add_argument("--netspec")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--rules")
    p.add_argument("--labels", help="labels.json gloss->class map")
    p.add_argument("--frames", help="frame directory")
    p.add_argument("--manifest", help="dataset manifest (with --video-id)")
    p.add_argument("--video-id")
    p.add_argument("--window", type=int, help="sliding window length in frames")
    p.add_argument("--stride", type=int)
    common(p, seed=False)
    p.set_defaults(fn=cmd_recognize)

    p = sub.add_parser("stream", help="per-frame rolling prediction via the online shift")
    p.add_argument("--weights", required=True)
    p.add_argument("--netspec")
    p.add_argument("--frames", required=True)
    common(p, seed=False, emit=False)
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("translate", help="text -> gloss order -> clip plan (-> frames)")
    p.add_argument("--text", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--rules")
    p.add_argument("--clips", help="isolated-word clip manifest")
    p.add_argument("--policy", default="hard-cut", action=_ModeOnly,
                   help="hard-cut or hold-last-frame:N (with --clips)")
    p.add_argument("--fallback", choices=["skip", "error"], default="skip", action=_ModeOnly)
    p.add_argument("--fps", type=float, default=25.0, action=_ModeOnly)
    p.add_argument("--out", action=_ModeOnly, help="write the planned frames here (with --clips)")
    common(p, seed=False)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("bench", help="latency/accuracy comparison across temporal variants")
    p.add_argument("--manifest", required=True)
    p.add_argument("--variants", default="shift,action,none")
    p.add_argument("--preset", choices=["micro", "tiny"], default="micro")
    p.add_argument("--fold", type=float, action=_ModeOnly, help="with a shift variant")
    p.add_argument("--t", type=int, default=8)
    p.add_argument("--epochs", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=16, action=_ModeOnly)
    p.add_argument("--lr", type=float, default=0.02, action=_ModeOnly)
    p.add_argument("--split", default="test")
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--profile", action="store_true",
                   help="print per-op backward ms of one training step to stderr")
    common(p, seed=True)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every op")
    common(p, seed=True)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: list[str]) -> argparse.Namespace:
    """Parse again with --config JSON values as the subcommand's defaults,
    so that argparse, not a guess from argv, decides which flags were given."""
    if not getattr(args, "config", None):
        return args
    path = _require_file(args.config, "--config")
    try:
        defaults = read_json(path)
    except ParseError as exc:  # invalid JSON or not UTF-8: a flag's file, so a usage error
        raise UsageError(f"--config: {exc}") from None
    if not isinstance(defaults, dict):
        raise UsageError(f"--config: {path} must hold a JSON object")
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    known = {a.dest for p in sub.choices.values() for a in p._actions}
    actions = {a.dest: a for a in args.config_parser._actions}
    values = {}
    for key, value in defaults.items():
        dest = key.replace("-", "_")
        if dest not in known:  # a key of another subcommand is left for that one
            raise UsageError(f"--config: {path}: {key!r} names no flag of any subcommand")
        action = actions.get(dest)
        if action is not None and hasattr(args, action.dest):
            values[action.dest] = _config_value(action, key, value, path)
    args.config_parser.set_defaults(**values)
    return parser.parse_args(argv)


def _config_value(action: argparse.Action, key: str, value, path: Path):
    """A --config value checked against its flag's argparse type and choices."""
    if action.nargs == 0:  # store_true flags
        want, ok = "true or false", isinstance(value, bool)
    else:
        want, kinds = {int: ("an integer", int), float: ("a number", (int, float))}.get(
            action.type, ("a string", str))
        ok = isinstance(value, kinds) and not isinstance(value, bool)
    if not ok:
        raise UsageError(f"--config: {path}: {key!r} must be {want}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"--config: {path}: {key!r} must be one of "
                         f"{', '.join(map(str, action.choices))}, got {value!r}")
    return float(value) if action.type is float else value


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = _apply_config(parser, parser.parse_args(argv), argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SignflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an output directory whose path is a file
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
