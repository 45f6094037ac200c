"""Malformed artifacts × subcommands: each ends in one typed error line.

Every row writes its artifacts into a fresh directory and runs one
subcommand on them. The run must exit with code 1 and print a single
stderr line that names the bad file (and the line, for a manifest) and
holds no Python traceback. A directory given to a flag that takes a file is
a usage error (exit code 2) that names the flag and the path. A property at
the end feeds every artifact loader arbitrary and mutated bytes: each
returns or raises a SignflowError.
"""

import json
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from signflow import cli
from signflow.backbone import Model, NetSpec
from signflow.dataset import load_labels, load_manifest, read_frame, write_frame
from signflow.errors import ParseError, SignflowError
from signflow.gloss import load_lexicon, load_rules
from signflow.tensor import load_weights, save_weights

DEMO = Path(__file__).resolve().parent.parent / "src" / "signflow" / "demo"
LEXICON = str(DEMO / "lexicon.tsv")
TRANSLATE = ("translate", "--text", "x", "--lexicon")


def manifest_line(**changes) -> bytes:
    entry = {"video_id": "v0", "frame_dir": "v0", "num_frames": 2, "label": 0, "split": "train"}
    return (json.dumps({**entry, **changes}) + "\n").encode()


def weights_with_dims(*dims) -> bytes:
    """A weight file whose one tensor has ``dims`` and no values."""
    name = b"stem.w"
    return (b"SGNF1" + struct.pack("<II", 1, len(name)) + name
            + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims))


def rules(*objs) -> bytes:
    return json.dumps(list(objs)).encode()


def drop_rule(**changes) -> dict:
    """A valid rule that drops token 1, with ``changes`` applied."""
    return {"id": "r", "priority": 0, "action": "drop", "match": {"index": 1}, **changes}


def clips_with_labels(labels: dict) -> dict:
    """A valid clip manifest whose sibling labels.json holds ``labels``."""
    return {"clips.jsonl": manifest_line(), "labels.json": json.dumps(labels).encode()}


CLIPS = (*TRANSLATE, LEXICON, "--clips", "{d}/clips.jsonl")
RULES = (*TRANSLATE, LEXICON, "--rules", "{d}/rules.json")
EVAL = ("eval", "--manifest", "{d}/clips.jsonl", "--weights", "{d}/w.sgnf",
        "--netspec", "{d}/netspec.json")

# id: (artifacts as name -> bytes, argv with {d} for their directory, what stderr must name)
ROWS = {
    "lexicon-not-utf8": ({"lex.tsv": b"\xff\tG\tclip\n"}, (*TRANSLATE, "{d}/lex.tsv"),
                         "{d}/lex.tsv"),
    "lexicon-duplicate-gloss": ({"lex.tsv": b"a\tG\tc1\nb\tG\tc2\n"},
                                (*TRANSLATE, "{d}/lex.tsv"),
                                "{d}/lex.tsv:2: duplicate gloss id 'G' (first on line 1)"),
    "lexicon-empty-word": ({"lex.tsv": b"a\tG1\tc1\n\tG2\tc2\n"}, (*TRANSLATE, "{d}/lex.tsv"),
                           "{d}/lex.tsv:2: empty word"),
    "manifest-not-utf8": ({"clips.jsonl": b'{"video_id": "\xff"}\n'}, CLIPS,
                          "{d}/clips.jsonl"),
    "manifest-num-frames-float": ({"clips.jsonl": manifest_line(num_frames=2.9)}, CLIPS,
                                  "{d}/clips.jsonl:1"),
    "manifest-label-bool": ({"clips.jsonl": manifest_line(label=True)}, CLIPS,
                            "{d}/clips.jsonl:1"),
    "manifest-num-frames-zero": ({"clips.jsonl": manifest_line(num_frames=0)}, CLIPS,
                                 "{d}/clips.jsonl:1"),
    "manifest-video-id-list": ({"clips.jsonl": manifest_line(video_id=["x"])}, CLIPS,
                               "{d}/clips.jsonl:1"),
    "manifest-frame-dir-number": ({"clips.jsonl": manifest_line(frame_dir=7)}, CLIPS,
                                  "{d}/clips.jsonl:1"),
    "labels-float": (clips_with_labels({"A": 1.7}), CLIPS, "{d}/labels.json"),
    "labels-bool": (clips_with_labels({"B": True}), CLIPS, "{d}/labels.json"),
    "labels-string": (clips_with_labels({"C": "2"}), CLIPS, "{d}/labels.json"),
    "rules-not-utf8": ({"rules.json": b"[\xff]"}, RULES, "{d}/rules.json"),
    "rules-not-objects": ({"rules.json": rules(1)}, RULES, "{d}/rules.json"),
    "rule-match-list": ({"rules.json": rules({"id": "r", "priority": 0, "action": "drop",
                                              "match": ["tag"]})}, RULES, "{d}/rules.json"),
    "rule-priority-float": ({"rules.json": rules(drop_rule(priority=1.7))}, RULES,
                            "{d}/rules.json"),
    "rule-priority-string": ({"rules.json": rules(drop_rule(priority="3"))}, RULES,
                             "{d}/rules.json"),
    "rule-index-bool": ({"rules.json": rules(drop_rule(match={"index": True}))}, RULES,
                        "{d}/rules.json"),
    "rule-index-float": ({"rules.json": rules(drop_rule(match={"index": 2.0}))}, RULES,
                         "{d}/rules.json"),
    "rule-tag-list": ({"rules.json": rules(drop_rule(match={"tag": ["NEG"]}))}, RULES,
                      "{d}/rules.json: rule #0"),
    "rule-id-list": ({"rules.json": rules(drop_rule(), drop_rule(id=["x"]))}, RULES,
                     "{d}/rules.json: rule #1"),
    "rule-action-number": ({"rules.json": rules(drop_rule(action=3))}, RULES,
                           "{d}/rules.json: rule #0"),
    "rule-action-unknown": ({"rules.json": rules(drop_rule(action="teleport"))}, RULES,
                            "{d}/rules.json: rule #0"),
    "rule-index-negative": ({"rules.json": rules(drop_rule(match={"index": -1}))}, RULES,
                            "{d}/rules.json: rule #0"),
    "weights-huge-dims": ({"clips.jsonl": manifest_line(),
                           "w.sgnf": weights_with_dims(*[2**32 - 1] * 3),
                           "netspec.json": json.dumps(NetSpec.micro(2).to_dict()).encode()},
                          EVAL, "{d}/w.sgnf"),
    "weights-zero-and-huge-dims": ({"clips.jsonl": manifest_line(),
                                    "w.sgnf": weights_with_dims(0, 2**32 - 1, 2**32 - 1),
                                    "netspec.json": json.dumps(
                                        NetSpec.micro(2).to_dict()).encode()},
                                   EVAL, "{d}/w.sgnf"),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_malformed_artifact_is_one_typed_error(tmp_path, row):
    artifacts, argv, names = ROWS[row]
    for name, content in artifacts.items():
        (tmp_path / name).write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "signflow",
                           *(arg.format(d=tmp_path) for arg in argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith("error: ") and names.format(d=tmp_path) in proc.stderr, \
        proc.stderr


# id: (artifacts, argv with {d} for their directory, the flag given the directory)
DIRECTORY_ROWS = {
    "lexicon": ({}, (*TRANSLATE, "{d}"), "--lexicon"),
    "rules": ({}, (*TRANSLATE, LEXICON, "--rules", "{d}"), "--rules"),
    "config": ({}, (*TRANSLATE, LEXICON, "--config", "{d}"), "--config"),
    "manifest": ({}, ("eval", "--manifest", "{d}", "--weights", "{d}/w.sgnf"), "--manifest"),
    "weights": ({"clips.jsonl": manifest_line()},
                ("eval", "--manifest", "{d}/clips.jsonl", "--weights", "{d}"), "--weights"),
    "netspec": ({"clips.jsonl": manifest_line(), "w.sgnf": b""}, (*EVAL[:5], "--netspec", "{d}"),
                "--netspec"),
}


@pytest.mark.parametrize("row", list(DIRECTORY_ROWS))
def test_directory_for_file_flag_is_usage_error(tmp_path, row):
    artifacts, argv, flag = DIRECTORY_ROWS[row]
    for name, content in artifacts.items():
        (tmp_path / name).write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "signflow",
                           *(arg.format(d=tmp_path) for arg in argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stderr.startswith(f"usage error: {flag}: {tmp_path} "), proc.stderr


def saved(write, *args) -> bytes:
    """The bytes ``write(path, *args)`` puts in a file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        write(path, *args)
        return path.read_bytes()


def compact(obj) -> bytes:
    """JSON without spaces: a one-byte change cannot add a digit to a number."""
    return json.dumps(obj, separators=(",", ":")).encode()


FRAME = np.linspace(0, 1, 3 * 4 * 5).reshape(3, 4, 5)
MICRO = NetSpec.micro(2)
MICRO_WEIGHTS = saved(Model(MICRO).save)
KNOWN_TAGS = load_lexicon(LEXICON).known_tags


def load_netspec(path: Path) -> None:
    """Model.load on the netspec at ``path`` and valid micro weights beside it."""
    weights = path.with_name("w.sgnf")
    weights.write_bytes(MICRO_WEIGHTS)
    Model.load(weights, path)


def load_config(path: Path) -> None:
    """translate with ``path`` as --config: main returns an exit code or raises."""
    cli.main([*TRANSLATE, LEXICON, "--no-timestamp", "--config", str(path)])


def load_manifest_beside(path: Path) -> None:
    """load_manifest of a valid manifest whose sibling labels.json is ``path``."""
    manifest = path.with_name("clips.jsonl")
    manifest.write_bytes(manifest_line())
    load_manifest(manifest)


# file name, loader of the text artifact at a path of that name
TEXT_LOADERS = {
    "manifest": ("labels.json", load_manifest_beside),
    "labels": ("labels.json", load_labels),
    "lexicon": ("lex.tsv", load_lexicon),
    "rules": ("rules.json", lambda path: load_rules(path, known_tags=KNOWN_TAGS)),
    "netspec": ("netspec.json", load_netspec),
}


@pytest.mark.parametrize("bad", ["directory", "not_utf8"])
@pytest.mark.parametrize("loader", list(TEXT_LOADERS))
def test_unreadable_text_artifact_is_parse_error(tmp_path, loader, bad):
    """A text artifact that is a directory, or whose bytes are not UTF-8, is
    a ParseError that names it."""
    name, load = TEXT_LOADERS[loader]
    path = tmp_path / name
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe[]\n")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        load(path)


# loader, a valid file it reads, the file's suffix
LOADERS = {
    "weights": (load_weights, saved(save_weights, {"a.w": np.ones((2, 3)), "b": np.zeros(1)}),
                ".sgnf"),
    "pgm": (read_frame, saved(write_frame, FRAME[:1]), ".pgm"),
    "ppm": (read_frame, saved(write_frame, FRAME), ".ppm"),
    "manifest": (load_manifest, manifest_line() + manifest_line(video_id="v1", label=1),
                 ".jsonl"),
    "labels": (load_labels, compact({"A": 0, "B": 1}), ".json"),
    "lexicon": (load_lexicon, Path(LEXICON).read_bytes(), ".tsv"),
    "rules": (lambda path: load_rules(path, known_tags=KNOWN_TAGS),
              compact([{"id": "neg", "priority": 1, "match": {"tag": "NEG"},
                        "action": "move-to-end"},
                       {"id": "first", "priority": 0, "match": {"index": 1},
                        "action": "swap-adjacent"}]), ".json"),
    "netspec": (load_netspec, compact(MICRO.to_dict()), ".json"),
    "config": (load_config, compact({"policy": "hold-last-frame:2", "fps": 25.0,
                                     "fallback": "skip", "pretty": True, "seed": 3}), ".json"),
}


@pytest.mark.parametrize("loader", list(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_returns_or_raises_typed(loader, data):
    """Arbitrary bytes after a prefix of a valid file, or the valid file with
    one byte changed: the loader returns or raises a SignflowError."""
    load, valid, suffix = LOADERS[loader]
    if data.draw(st.booleans(), label="mutate"):
        i = data.draw(st.integers(0, len(valid) - 1), label="at")
        raw = valid[:i] + bytes([data.draw(st.integers(0, 255), label="byte")]) + valid[i + 1:]
    else:
        raw = (valid[:data.draw(st.integers(0, len(valid)), label="prefix")]
               + data.draw(st.binary(max_size=48), label="tail"))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / f"f{suffix}"
        path.write_bytes(raw)
        try:
            load(path)
        except SignflowError:
            pass
