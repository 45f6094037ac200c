"""Generation-side assembly and the end-to-end recognition pipeline.

Generation: a gloss sequence becomes an ordered clip plan over an
isolated-word clip index, then (optionally) a materialized frame directory.
Output is frames + manifest, never an encoded container, so results stay
bit-exact and testable; an external encoder can consume the directory.

Recognition: frames -> segment sampling -> model -> class -> gloss id ->
natural-order text, with the intermediate gloss trace kept observable.
Continuous multi-sign videos are cut by fixed-stride sliding windows with
one vote per window (a baseline cutter; repeats collapse).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (FRAME_EXTS, ManifestEntry, load_manifest, make_dir, missing_frame,
                      read_clip, save_manifest, write_bytes)
from .errors import ConfigError, FrameIOError, GlossLookupError, InputError
from .gloss import GlossSequence, Lexicon, ReorderRule, glosses_to_text, tokens_from_gloss_ids
from .sampler import SampleSpec, segment_sample

HARD_CUT = "hard-cut"
FALLBACK_SKIP = "skip"
FALLBACK_ERROR = "error"


@dataclass(frozen=True)
class TransitionPolicy:
    """hard-cut, or hold-last-frame(n) copies between consecutive entries."""

    kind: str = HARD_CUT
    hold_frames: int = 0

    def __post_init__(self):
        if self.kind not in (HARD_CUT, "hold-last-frame"):
            raise ConfigError(f"unknown transition policy {self.kind!r}")
        if self.kind == HARD_CUT and self.hold_frames:
            raise ConfigError("hard-cut takes no hold_frames")
        if self.hold_frames < 0:
            raise ConfigError("hold_frames must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "TransitionPolicy":
        if text == HARD_CUT:
            return cls()
        if text.startswith("hold-last-frame:"):
            try:
                frames = int(text.split(":", 1)[1])
            except ValueError:
                raise ConfigError(f"cannot parse transition policy {text!r}: "
                                  "hold frames must be an integer") from None
            return cls("hold-last-frame", frames)
        raise ConfigError(f"cannot parse transition policy {text!r}")


@dataclass(frozen=True)
class PlanEntry:
    gloss_id: str
    clip_ref: str
    frame_count: int
    fps: float

    def to_dict(self) -> dict:
        return {"gloss_id": self.gloss_id, "clip_ref": self.clip_ref,
                "frame_count": self.frame_count, "fps": self.fps}


@dataclass
class AssemblyManifest:
    """A planned video: its clip entries and, in order, the (clip, frame
    index) of every frame it writes; a held frame repeats the tuple before it."""

    entries: list[PlanEntry]
    policy: TransitionPolicy
    frames: list[tuple[ManifestEntry, int]]
    warnings: list[dict] = field(default_factory=list)

    @property
    def total_frames(self) -> int:
        return len(self.frames)

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries],
                "policy": {"kind": self.policy.kind, "hold_frames": self.policy.hold_frames},
                "total_frames": self.total_frames,
                "warnings": self.warnings}


class ClipIndex:
    """Isolated-word clip lookup: clip_ref -> manifest entry + frame dir."""

    def __init__(self, manifest_path: Path | str, fps: float = 25.0):
        self.manifest_path = Path(manifest_path)
        entries, _ = load_manifest(self.manifest_path)
        self.base = self.manifest_path.parent
        self.by_id = {e.video_id: e for e in entries}
        self.fps = fps

    def get(self, clip_ref: str) -> ManifestEntry | None:
        return self.by_id.get(clip_ref)


def plan(glosses: GlossSequence, lex: Lexicon, index: ClipIndex,
         policy: TransitionPolicy = TransitionPolicy(),
         fallback: str = FALLBACK_SKIP) -> AssemblyManifest:
    """One plan entry per gloss and every frame of the video, in order; a
    hold repeats the previous frame between entries. OOV tokens map to
    per-character clips when the lexicon has them; otherwise the fallback
    applies (skip-with-warning or a single error naming all missing ids)."""
    if fallback not in (FALLBACK_SKIP, FALLBACK_ERROR):
        raise ConfigError(f"unknown fallback {fallback!r}")
    entries: list[PlanEntry] = []
    frames: list[tuple[ManifestEntry, int]] = []
    warnings: list[dict] = []
    missing: list[str] = []
    for token, gloss_name in zip(glosses.tokens, glosses.gloss_ids):
        if token.gloss_id is not None:
            lex_entry = lex.lookup_gloss(token.gloss_id)
        else:
            lex_entry = lex.entries.get(token.surface)  # per-character fingerspell clip
        clip = index.get(lex_entry.clip_ref) if lex_entry is not None else None
        if clip is None:
            missing.append(gloss_name)
            warnings.append({"kind": "missing-clip", "gloss": gloss_name,
                             "surface": token.surface})
            continue
        frames += frames[-1:] * policy.hold_frames
        entries.append(PlanEntry(gloss_name, clip.video_id, clip.num_frames, index.fps))
        frames += [(clip, i) for i in range(clip.num_frames)]
    if missing and fallback == FALLBACK_ERROR:
        raise GlossLookupError(f"no clips for glosses: {missing}")
    return AssemblyManifest(entries, policy, frames, warnings)


def concat_frames(manifest: AssemblyManifest, index: ClipIndex, out_dir: Path | str,
                  video_id: str = "assembled") -> ManifestEntry | None:
    """Hard-link the plan's frames, in order, into out_dir, whose frame_* files
    are replaced by exactly these; returns a dataset entry for the assembled
    video (None when the plan is empty).

    A frame is a byte copy where the link fails (across filesystems, or past
    the link limit of an inode). No existing file is opened for writing, so
    nothing is written through a link into the clip store.
    """
    out_dir = Path(out_dir)
    make_dir(out_dir)
    out_stat = os.stat(out_dir)
    stems: dict[str, str] = {}  # frame_dir -> "<clip dir>/frame_"
    for clip, _ in manifest.frames:
        if clip.frame_dir not in stems:
            src_dir = index.base / clip.frame_dir
            if _same_dir(src_dir, out_stat):
                raise FrameIOError(f"{out_dir}: is the frame directory of clip "
                                   f"{clip.video_id!r}")
            stems[clip.frame_dir] = str(src_dir / "frame_")
    try:
        with os.scandir(out_dir) as entries:
            old = [e.path for e in entries if e.name.startswith("frame_")]
        for path in old:
            os.unlink(path)
    except OSError as exc:
        raise FrameIOError.of(out_dir, exc) from exc
    dst_stem = str(out_dir / "frame_")
    for k, (clip, i) in enumerate(manifest.frames):
        src, dst = f"{stems[clip.frame_dir]}{i:05d}.", f"{dst_stem}{k:05d}."
        for ext in FRAME_EXTS:
            try:
                os.link(src + ext, dst + ext)
            except (FileNotFoundError, NotADirectoryError):
                continue
            except OSError:  # EXDEV, EPERM, EMLINK, ...
                _copy_to_new(src + ext, dst + ext)
            break
        else:
            raise missing_frame(index.base / clip.frame_dir, i)
    write_bytes(out_dir.parent / f"{video_id}.plan.json",
                (json.dumps(manifest.to_dict(), ensure_ascii=False, indent=2) + "\n")
                .encode("utf-8"))
    if not manifest.frames:
        return None
    result = ManifestEntry(video_id, out_dir.name, manifest.total_frames, 0, "test")
    save_manifest(out_dir.parent / f"{video_id}.jsonl", [result])
    return result


def _same_dir(path: Path, stat: os.stat_result) -> bool:
    try:
        return os.path.samestat(os.stat(path), stat)
    except OSError:  # a missing clip directory is reported frame by frame
        return False


def _copy_to_new(src: str, dst: str) -> None:
    try:
        with open(src, "rb") as fin, open(dst, "xb") as fout:
            shutil.copyfileobj(fin, fout)
    except OSError as exc:
        raise FrameIOError.of(src, exc) from exc


# -- recognition ------------------------------------------------------------------------


@dataclass(frozen=True)
class RecognizeConfig:
    """Window cutting for continuous videos; None = one window over all.
    A stride of None is the window; a stride without a window is an error."""

    window: int | None = None
    stride: int | None = None


def recognize(entry: ManifestEntry, model, lex: Lexicon, rules: list[ReorderRule],
              sample_spec: SampleSpec, base: Path | str = ".",
              label_map: dict[str, int] | None = None,
              cfg: RecognizeConfig = RecognizeConfig(),
              size: tuple[int, int] | None = None) -> dict:
    """Video -> {text, glosses, windows}: the two-phase path made observable.

    Phase one treats the classifier as a tokenizer emitting gloss ids per
    window (the windows go to one model.infer call, in order); phase two
    maps the gloss sequence to natural-order text.
    """
    inv_labels = _gloss_by_class(model, lex, label_map)
    windows = _cut_windows(entry.num_frames, cfg)
    clips = [read_clip(entry, [w_start + i for i in segment_sample(w_len, sample_spec)],
                       base=base, size=size, dtype=model.dtype) for w_start, w_len in windows]
    details: list[dict] = []
    for (w_start, w_len), logits in zip(windows, model.infer(clips)):
        cls = int(np.argmax(logits))
        details.append({"start": w_start, "length": w_len, "class": cls,
                        "gloss": inv_labels[cls]})
    gloss_ids = [d["gloss"] for d in details]
    collapsed = [g for i, g in enumerate(gloss_ids) if i == 0 or g != gloss_ids[i - 1]]
    text = glosses_to_text(tokens_from_gloss_ids(collapsed, lex), lex, rules)
    return {"text": text, "glosses": collapsed, "windows": details}


def _gloss_by_class(model, lex: Lexicon, label_map: dict[str, int] | None) -> dict[int, str]:
    """class index -> gloss id; label map must agree with the lexicon."""
    k = model.spec.num_classes
    if label_map is None:
        raise ConfigError("recognize requires a label map (gloss -> class index)")
    inv: dict[int, str] = {}
    for gloss_id, cls in label_map.items():
        if not 0 <= cls < k:
            raise ConfigError(f"label map class {cls} out of range for {k}-way model")
        if cls in inv:
            raise ConfigError(f"label map maps two glosses to class {cls}")
        inv[cls] = gloss_id
    missing = [gid for gid in inv.values()
               if not gid.startswith("#") and lex.lookup_gloss(gid) is None]
    if missing:
        raise ConfigError(f"label map glosses not in lexicon: {sorted(missing)}")
    if len(inv) != k:
        raise ConfigError(f"label map covers {len(inv)} of {k} classes")
    return inv


def _cut_windows(num_frames: int, cfg: RecognizeConfig) -> list[tuple[int, int]]:
    if num_frames < 1:
        raise InputError("empty video: no frames to recognize")
    if cfg.window is None:
        if cfg.stride is not None:
            raise ConfigError(f"stride {cfg.stride} given without a window")
        return [(0, num_frames)]
    if cfg.window < 1:
        raise ConfigError(f"window must be >= 1, got {cfg.window}")
    stride = cfg.stride if cfg.stride is not None else cfg.window
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    windows = []
    start = 0
    while start < num_frames:
        length = min(cfg.window, num_frames - start)
        windows.append((start, length))
        if start + cfg.window >= num_frames:
            break
        start += stride
    return windows
