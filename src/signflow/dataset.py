"""Frame-directory datasets: manifest IO, clip reading, synthetic generators.

Layout: one directory of raster frames per video, frames named
``frame_%05d.pgm`` (grayscale) or ``frame_%05d.ppm`` (RGB), plus a
line-delimited JSON manifest and a ``labels.json`` gloss->index map.

The synthetic generator builds an order-permutation dataset: every class
shows the same T frames (a bright patch parked on T fixed cells), only the
visiting order differs. A classifier that ignores frame order is at chance
on it by construction.
"""

from __future__ import annotations

import functools
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FrameIOError, InputError, ParseError

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    frame_dir: str
    num_frames: int
    label: int
    split: str

    def __post_init__(self):
        if self.num_frames < 1:
            raise ParseError(f"entry {self.video_id!r}: num_frames must be positive")
        if self.split not in SPLITS:
            raise ParseError(f"entry {self.video_id!r}: unknown split {self.split!r}")

    def to_json(self) -> str:
        return json.dumps({"video_id": self.video_id, "frame_dir": self.frame_dir,
                           "num_frames": self.num_frames, "label": self.label,
                           "split": self.split}, ensure_ascii=False)


# -- portable raster frames ------------------------------------------------------------


def write_frame(path: Path | str, frame: np.ndarray) -> None:
    """Write [H,W] or [C,H,W] (C in {1,3}) values in [0,1] as 8-bit PGM/PPM."""
    arr = np.asarray(frame)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise FrameIOError(f"{path}: frame must be [H,W] or [C,H,W] with 1 or 3 channels")
    _write_frames([path], (arr * 255.0)[None])


def _write_frames(paths: list, scaled: np.ndarray) -> None:
    """Write frame t of [T,C,H,W] values in [0,1] times 255 (C in {1,3}) to
    paths[t] as an 8-bit binary PGM/PPM file. ``scaled`` is quantized in place."""
    c, h, w = scaled.shape[1:]
    header = b"%s\n%d %d\n255\n" % (b"P5" if c == 1 else b"P6", w, h)
    levels = np.clip(np.rint(scaled, out=scaled), 0, 255, out=scaled).astype(np.uint8)
    for path, frame in zip(paths, np.moveaxis(levels, 1, 3)):  # P6 interleaves RGB per pixel
        try:
            write_bytes(path, header + frame.tobytes())
        except OSError as exc:
            raise FrameIOError.of(path, exc) from exc


def read_frame(path: Path | str) -> np.ndarray:
    """Read a binary PGM/PPM frame back to [C,H,W] floats in [0,1]."""
    try:
        raw = _read_bytes(path)
    except OSError as exc:
        raise FrameIOError.of(path, exc) from exc
    return np.take(_levels(np.float64), _rasters([raw], _header(raw, path))[0], mode="wrap")


_READ_CHUNK = 1 << 16  # under glibc's mmap threshold: a read's buffer comes from the heap


def _read_bytes(path: Path | str) -> bytes:
    """A file's bytes, by os.read until EOF: no file object, and the fd is
    closed on every path. OSError propagates."""
    fd = os.open(path, os.O_RDONLY)
    try:
        parts = []
        while chunk := os.read(fd, _READ_CHUNK):
            parts.append(chunk)
        return b"".join(parts)
    finally:
        os.close(fd)


def write_bytes(path: Path | str, data: bytes) -> None:
    """Make ``data`` the whole content of ``path``, in place: the file is
    opened without truncation, written from offset 0, then cut to
    ``len(data)``. An existing file keeps its inode, so a hard-linked path is
    written through. (Truncating to zero first would make ext4, under its
    default ``auto_da_alloc``, force a writeback at close.) A crash
    mid-rewrite can leave old and new bytes mixed; every file signflow writes
    is an output it can regenerate. OSError propagates."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


# The header signflow writes: magic, one whitespace byte between fields, no
# leading zeros, at most 9 digits, maxval 255, one whitespace byte. Anything
# else goes through _parse_header, which gives every message.
_PLAIN_HEADER = re.compile(rb"P([56])\s([1-9]\d{0,8})\s([1-9]\d{0,8})\s255\s")


@functools.lru_cache(maxsize=8)
def _levels(dtype) -> np.ndarray:
    """The value of each 8-bit level in ``dtype``: level / 255 in float64,
    then cast, so a lookup equals the float64 decode cast to ``dtype``."""
    table = (np.arange(256) / 255.0).astype(dtype)
    table.flags.writeable = False
    return table


def _header(raw: bytes, path: Path | str) -> tuple[int, int, int, int]:
    """(channels, width, height, raster offset) of a binary PGM/PPM file's bytes."""
    m = _PLAIN_HEADER.match(raw)
    if m is not None:
        channels, w, h, pos = 1 if m[1] == b"5" else 3, int(m[2]), int(m[3]), m.end()
        if len(raw) - pos >= w * h * channels:
            return channels, w, h, pos
    return _parse_header(raw, path)


def _rasters(files: list[bytes], header: tuple[int, int, int, int]) -> np.ndarray:
    """The [N,C,H,W] uint8 pixels (a view) of N PGM/PPM files of one length and header."""
    channels, w, h, pos = header
    n = len(files)  # a join of one bytes is that bytes, not a copy
    pixels = np.ndarray((n, w * h * channels), np.uint8, b"".join(files), pos, (len(files[0]), 1))
    if channels == 1:
        return pixels.reshape(n, 1, h, w)
    return pixels.reshape(n, h, w, 3).transpose(0, 3, 1, 2)  # P6 interleaves RGB per pixel


def _parse_header(raw: bytes, path: Path | str) -> tuple[int, int, int, int]:
    """(channels, width, height, raster offset) of any binary PGM/PPM header;
    a malformed header or a short raster is a FrameIOError naming the file."""
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise FrameIOError(f"{path}: not a binary PGM/PPM file (magic {magic!r})")
    # header: magic, whitespace-separated width height maxval, then raster
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":  # comment line
            end = raw.find(b"\n", pos)
            if end < 0:
                raise FrameIOError(f"{path}: unterminated comment in header")
            pos = end + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if not raw[start:pos].isdigit():
            raise FrameIOError(f"{path}: bad or truncated header field {raw[start:pos]!r}")
        try:
            fields.append(int(raw[start:pos]))
        except ValueError:  # more digits than int() converts
            raise FrameIOError(f"{path}: header field of {pos - start} digits") from None
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise FrameIOError(f"{path}: only 8-bit rasters supported, maxval {maxval}")
    if not w or not h:
        raise FrameIOError(f"{path}: empty raster ({w}x{h})")
    channels = 1 if magic == b"P5" else 3
    expected = w * h * channels
    if len(raw) - pos < expected:
        raise FrameIOError(f"{path}: truncated raster ({max(len(raw) - pos, 0)} of "
                           f"{expected} bytes)")
    return channels, w, h, pos


def make_dir(path: Path) -> None:
    """Make a frame directory and its parents; an OS fault is a FrameIOError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FrameIOError.of(path, exc) from exc


FRAME_EXTS = ("pgm", "ppm")  # the extensions tried, in order, for each frame index


def missing_frame(frame_dir: Path, index: int) -> FrameIOError:
    return FrameIOError(f"{frame_dir}: no frame_{index:05d}.pgm/.ppm")


def _read_indexed(stem: str, frame_dir: Path, index: int) -> tuple[bytes, str]:
    """The bytes and path of frame ``index`` of frame_dir (``stem`` is
    ``frame_dir/frame_``): the .pgm, else the .ppm, found by opening it, so a
    name costs no stat."""
    for ext in FRAME_EXTS:
        path = f"{stem}{index:05d}.{ext}"
        try:
            return _read_bytes(path), path
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:
            raise FrameIOError.of(path, exc) from exc
    raise missing_frame(frame_dir, index)


def _resize_nearest(frames: np.ndarray, size: tuple[int, int] | None) -> np.ndarray:
    if size is None or frames.shape[-2:] == tuple(size):
        return frames
    (h, w), (th, tw) = frames.shape[-2:], size
    rows = (np.arange(th) * h // th).astype(np.intp)
    cols = (np.arange(tw) * w // tw).astype(np.intp)
    return frames[..., rows[:, None], cols[None, :]]


# -- manifest ---------------------------------------------------------------------------


def save_manifest(path: Path | str, entries: list[ManifestEntry],
                  label_map: dict[str, int] | None = None) -> None:
    path = Path(path)
    write_bytes(path, "".join(entry.to_json() + "\n" for entry in entries).encode("utf-8"))
    if label_map is not None:
        write_bytes(path.parent / "labels.json",
                    (json.dumps(label_map, ensure_ascii=False, indent=0, sort_keys=True)
                     + "\n").encode("utf-8"))


def load_manifest(path: Path | str) -> tuple[list[ManifestEntry], dict[str, int] | None]:
    """Parse a JSONL manifest; returns entries and the sibling label map.

    Duplicate video ids and malformed lines are rejected with line numbers.
    """
    path = Path(path)
    entries: list[ManifestEntry] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            entry = ManifestEntry(json_str(obj["video_id"], "video_id"),
                                  json_str(obj["frame_dir"], "frame_dir"),
                                  json_int(obj["num_frames"], "num_frames"),
                                  json_int(obj["label"], "label"),
                                  json_str(obj["split"], "split"))
        except (KeyError, TypeError, ValueError, ParseError) as exc:
            raise ParseError(f"{path}:{lineno}: malformed manifest line: {exc}") from exc
        if entry.video_id in seen:
            raise ParseError(
                f"{path}:{lineno}: duplicate video_id {entry.video_id!r} "
                f"(first seen on line {seen[entry.video_id]})")
        seen[entry.video_id] = lineno
        entries.append(entry)

    labels_path = path.parent / "labels.json"
    label_map = load_labels(labels_path) if labels_path.exists() else None
    return entries, label_map


def load_labels(path: Path | str) -> dict[str, int]:
    """Read a labels.json gloss -> class index map.

    Invalid JSON or anything but an object of JSON integer values is a
    ParseError that names the file.
    """
    raw = read_json(path)
    try:
        return {str(k): json_int(v, repr(k)) for k, v in raw.items()}
    except (AttributeError, TypeError, ValueError):
        raise ParseError(f"{path}: labels must be a JSON object of gloss -> class index") \
            from None


def read_text(path: Path | str) -> str:
    """The text of a UTF-8 file, with universal newlines. A path that cannot
    be read (missing, a directory, ...) or bytes that are not UTF-8 are a
    ParseError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc})") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None


def read_json(path: Path | str):
    """The JSON value of a UTF-8 file (read_text); invalid JSON is a
    ParseError that names the file, at the file's own line and column."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def json_int(value, key: str) -> int:
    """A JSON integer; a float, a bool or a string is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be a JSON integer, got {value!r}")
    return value


def json_str(value, key: str) -> str:
    """A JSON string; a number, a list or an object is a TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a JSON string, got {value!r}")
    return value


@functools.lru_cache(maxsize=1024)
def _frame_dir(base: Path | str, frame_dir: str) -> tuple[Path, str]:
    """A clip's frame directory (``frame_dir`` under ``base`` unless it is
    absolute) and its ``<dir>/frame_`` stem. Cached: a stream reads its clip
    one frame per call, and pathlib costs more than the frame's open."""
    p = Path(frame_dir)
    d = p if p.is_absolute() else Path(base) / p
    return d, str(d / "frame_")


def read_clip(entry: ManifestEntry, indices: list[int], base: Path | str = ".",
              size: tuple[int, int] | None = None, dtype=np.float64) -> np.ndarray:
    """Decode each given frame index (a repeated index is decoded again) to a
    [T,C,H,W] array of ``dtype`` in [0,1], equal to the float64 decode cast to
    ``dtype``. The frames with the first frame's header bytes and length share
    its layout, and their levels are looked up in one call."""
    if not indices:
        raise InputError(f"{entry.video_id}: no frame indices to read")
    for idx in indices:
        if not 0 <= idx < entry.num_frames:
            raise InputError(f"{entry.video_id}: frame index {idx} outside "
                             f"[0, {entry.num_frames})")
    d, stem = _frame_dir(base, entry.frame_dir)
    first, path = _read_indexed(stem, d, indices[0])
    header = _header(first, path)
    head, alike, others = first[:header[3]], [first], []
    for i, idx in enumerate(indices[1:], 1):
        raw, path = _read_indexed(stem, d, idx)
        if len(raw) != len(first) or not raw.startswith(head):
            pixels = _resize_nearest(_rasters([raw], _header(raw, path))[0], size)
            shape = _resize_nearest(_rasters([first], header)[0], size).shape
            if pixels.shape != shape:
                raise FrameIOError(f"{d}: frame {idx} has shape {pixels.shape}, "
                                   f"frame {indices[0]} has {shape}")
            others.append((i, pixels))
            raw = first  # holds slot i until the frame's own levels go in below
        alike.append(raw)
    levels = _levels(dtype)
    # nearest neighbour picks pixels, so it commutes with the lookup; every uint8
    # level indexes the table, so "wrap" skips np.take's buffered bounds check
    clip = np.take(levels, _resize_nearest(_rasters(alike, header), size), mode="wrap")
    for i, pixels in others:
        np.take(levels, pixels, out=clip[i], mode="wrap")
    return clip


# -- synthetic order-permutation videos ---------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Order-permutation dataset: same frames per class, different order."""

    num_classes: int = 4
    t: int = 8
    frame_size: tuple[int, int] = (32, 32)
    clips_per_class: dict[str, int] = field(
        default_factory=lambda: {"train": 50, "val": 0, "test": 13})
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.t < 2:
            raise ConfigError("synthetic clips need t >= 2 to carry order information")
        rows, cols = _grid(self.t)
        h, w = self.frame_size
        if h < rows or w < cols:
            raise ConfigError(f"frame size {h}x{w} is smaller than the {rows}x{cols} cell grid "
                              f"of t={self.t}: its cells would be empty")
        if self.num_classes < 2:
            raise ConfigError("need at least 2 classes")
        limit = 1
        for i in range(2, self.t + 1):
            limit *= i
            if limit >= self.num_classes:
                break
        if self.num_classes > limit:
            raise ConfigError(
                f"{self.num_classes} classes exceed the {limit} distinct orderings of "
                f"{self.t} cells")
        for split in self.clips_per_class:
            if split not in SPLITS:
                raise ConfigError(f"unknown split {split!r}")


def _grid(t: int) -> tuple[int, int]:
    """(rows, cols) of the near-square grid that holds t cells."""
    cols = int(np.ceil(np.sqrt(t)))
    return int(np.ceil(t / cols)), cols


def _cell_positions(t: int, size: tuple[int, int]) -> list[tuple[int, int, int, int]]:
    """T cell rectangles arranged on a near-square grid."""
    h, w = size
    rows, cols = _grid(t)
    ch, cw = h // rows, w // cols
    cells = []
    for k in range(t):
        r, c = divmod(k, cols)
        cells.append((r * ch, min((r + 1) * ch, h), c * cw, min((c + 1) * cw, w)))
    return cells


def class_orders(spec: SynthSpec) -> list[list[int]]:
    """Deterministic distinct visiting orders; class 0 is the identity order."""
    rng = np.random.default_rng(spec.seed)
    orders = [list(range(spec.t))]
    seen = {tuple(orders[0])}
    while len(orders) < spec.num_classes:
        candidate = tuple(rng.permutation(spec.t).tolist())
        if candidate not in seen:
            seen.add(candidate)
            orders.append(list(candidate))
    return orders


def base_frames(spec: SynthSpec) -> np.ndarray:
    """The T noiseless frames shared by every class: one lit cell each."""
    h, w = spec.frame_size
    frames = np.zeros((spec.t, 1, h, w))
    for k, (r0, r1, c0, c1) in enumerate(_cell_positions(spec.t, spec.frame_size)):
        frames[k, 0, r0:r1, c0:c1] = 1.0
    return frames


def synth_temporal(spec: SynthSpec, out_dir: Path | str) -> Path:
    """Generate the dataset under out_dir; returns the manifest path.

    Fixed seed gives a byte-identical tree. Class k's clips show the shared
    frames in class_orders(spec)[k] order plus seeded uniform noise.
    """
    out_dir = Path(out_dir)
    make_dir(out_dir)
    orders = class_orders(spec)
    frames = base_frames(spec)
    rng = np.random.default_rng(spec.seed + 1)
    entries: list[ManifestEntry] = []
    for split in SPLITS:
        count = spec.clips_per_class.get(split, 0)
        for label in range(spec.num_classes):
            for i in range(count):
                video_id = f"{split}_c{label}_{i:04d}"
                rel = f"{split}/{video_id}"
                clip = frames[orders[label]]  # a new array: the class's frames in order
                if spec.noise > 0:  # one draw per clip: the stream of one draw per frame
                    clip += rng.uniform(-spec.noise, spec.noise, size=clip.shape)
                    np.clip(clip, 0, 1, out=clip)
                _write_clip(out_dir / rel, clip)
                entries.append(ManifestEntry(video_id, rel, spec.t, label, split))

    label_map = {f"ORDER{k}": k for k in range(spec.num_classes)}
    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(manifest_path, entries, label_map)
    return manifest_path


def _write_clip(frame_dir: Path, clip: np.ndarray) -> None:
    """Write a [T,1,H,W] clip of values in [0,1] (scaled in place) as frame_dir's frames."""
    make_dir(frame_dir)
    clip *= 255.0
    _write_frames([f"{frame_dir}/frame_{t:05d}.pgm" for t in range(len(clip))], clip)


def make_isolated_clips(glosses: dict[str, int], out_dir: Path | str, num_frames: int = 8,
                        frame_size: tuple[int, int] = (32, 32), seed: int = 0) -> Path:
    """Synthetic isolated-word clips, one per gloss id, for assembly demos.

    Class k is encoded as a patch whose intensity level is (k+1)/(K+1), so a
    deterministic oracle recognizer can decode the class from pixels alone.
    """
    if num_frames < 1:
        raise ConfigError(f"isolated clips need at least 1 frame, got {num_frames}")
    if min(frame_size) < 1:
        raise ConfigError(f"frame size must be at least 1x1, got {frame_size}")
    out_dir = Path(out_dir)
    make_dir(out_dir)
    k_total = len(glosses)
    h, w = frame_size
    rng = np.random.default_rng(seed)
    entries = []
    for gloss_id, label in sorted(glosses.items(), key=lambda kv: kv[1]):
        rel = str(Path("clips") / gloss_id)  # as pathlib joins any gloss id
        clip = np.zeros((num_frames, 1, h, w))
        clip[:, 0, h // 4: 3 * h // 4, w // 4: 3 * w // 4] = (label + 1) / (k_total + 1)
        # tiny jitter outside the patch keeps clips non-constant
        clip[:, 0, 0, :] = rng.uniform(0, 0.02, size=(num_frames, w))
        _write_clip(out_dir / rel, clip)
        entries.append(ManifestEntry(gloss_id, rel, num_frames, label, "train"))
    manifest_path = out_dir / "manifest.jsonl"
    save_manifest(manifest_path, entries, dict(sorted(glosses.items())))
    return manifest_path


def load_clip_dataset(manifest: Path | str, split: str, sample_spec,
                      size: tuple[int, int] | None = None,
                      dtype=np.float64) -> list[tuple[np.ndarray, int]]:
    """Materialize (clip, label) pairs for one split via segment sampling,
    each clip read at ``dtype``."""
    from .sampler import segment_sample

    manifest = Path(manifest)
    entries, _ = load_manifest(manifest)
    base = manifest.parent
    out = []
    for entry in entries:
        if entry.split != split:
            continue
        indices = segment_sample(entry.num_frames, sample_spec)
        out.append((read_clip(entry, indices, base=base, size=size, dtype=dtype), entry.label))
    if not out:
        raise InputError(f"{manifest}: no entries in split {split!r}")
    return out
