import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from signflow.dataset import write_frame

DEMO = Path(__file__).resolve().parent.parent / "src" / "signflow" / "demo"


def run_cli(*args, check=True):
    proc = subprocess.run([sys.executable, "-m", "signflow", *args],
                          capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\nstdout: {proc.stdout}\n"
                             f"stderr: {proc.stderr}")
    return proc


def json_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def assert_one_line_error(proc, code, *needles):
    """Exit ``code`` with a single stderr line containing every needle."""
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr
    for needle in needles:
        assert needle in proc.stderr


def tree_sha256(root: Path) -> dict:
    """The sha256 of every file under root, by relative path."""
    return {p.relative_to(root): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def run_main(capsys, *args):
    """``cli.main`` in-process: an object with the exit code and stderr, as run_cli gives."""
    from types import SimpleNamespace
    from signflow import cli
    code = cli.main([str(arg) for arg in args])
    return SimpleNamespace(returncode=code, stderr=capsys.readouterr().err)


def main_json(capsys, *args) -> dict:
    """``cli.main`` in-process, which must succeed: its last stdout line as JSON."""
    from signflow import cli
    code = cli.main([str(arg) for arg in args])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json_lines(captured.out)[-1]


def _with_stage(spec: dict, **changes) -> dict:
    """A netspec dict whose first stage has ``changes`` applied."""
    return {**spec, "stages": [{**spec["stages"][0], **changes}, *spec["stages"][1:]]}


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    run_cli("synth", "--out", str(out), "--classes", "4", "--t", "8",
            "--train-per-class", "4", "--test-per-class", "2", "--seed", "5",
            "--no-timestamp")
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("model")
    run_cli("train", "--manifest", str(synth_dir / "manifest.jsonl"),
            "--out", str(out), "--epochs", "2", "--seed", "3", "--no-timestamp")
    return out


class TestSynth:
    def test_emits_manifest_paths(self, synth_dir):
        assert (synth_dir / "manifest.jsonl").exists()
        assert (synth_dir / "labels.json").exists()

    @pytest.mark.parametrize("flags, needle", [
        (("--size", "0"), "frame size"),
        (("--size", "0", "--lexicon", str(DEMO / "lexicon.tsv")), "frame size"),
        (("--t", "0", "--lexicon", str(DEMO / "lexicon.tsv")), "1 frame"),
        (("--size", "2", "--t", "8"), "frame size 2x2 is smaller than the 3x3 cell grid"),
    ])
    def test_empty_frames_rejected_before_writing(self, tmp_path, flags, needle):
        out = tmp_path / "out"
        proc = run_cli("synth", "--out", str(out), *flags, check=False)
        assert_one_line_error(proc, 1, needle)
        assert not out.exists()

    def test_deterministic_generation(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("synth", "--out", str(out), "--classes", "2", "--t", "4",
                    "--train-per-class", "1", "--test-per-class", "0",
                    "--seed", "9", "--no-timestamp")
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_smaller_synth_over_a_larger_one_equals_a_fresh_one(self, tmp_path, capsys):
        flags = ("--classes", "2", "--t", "4", "--train-per-class", "2",
                 "--test-per-class", "1", "--seed", "9", "--no-timestamp")
        main_json(capsys, "synth", "--out", tmp_path / "a", *flags, "--size", "32")
        main_json(capsys, "synth", "--out", tmp_path / "a", *flags, "--size", "8")
        main_json(capsys, "synth", "--out", tmp_path / "b", *flags, "--size", "8")
        assert tree_sha256(tmp_path / "a") == tree_sha256(tmp_path / "b")


class TestTrainEval:
    def test_train_writes_model_and_metrics(self, trained):
        assert (trained / "model.sgnf").exists()
        assert (trained / "netspec.json").exists()

    def test_eval_reports_metrics(self, synth_dir, trained):
        proc = run_cli("eval", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--weights", str(trained / "model.sgnf"),
                       "--split", "test", "--no-timestamp")
        out = json_lines(proc.stdout)[-1]
        assert {"prec1", "prec5", "loss", "split"} <= set(out)
        assert 0.0 <= out["prec1"] <= out["prec5"] <= 100.0

    def test_eval_missing_weights_flag_exit_2(self, synth_dir):
        proc = run_cli("eval", "--manifest", str(synth_dir / "manifest.jsonl"),
                       check=False)
        assert proc.returncode == 2

    def test_eval_nonexistent_weights_exit_2(self, synth_dir):
        proc = run_cli("eval", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--weights", "/nonexistent/w.sgnf", check=False)
        assert proc.returncode == 2
        assert "weights" in proc.stderr

    @pytest.mark.parametrize("make", [
        pytest.param(lambda spec: b"{not json", id="invalid_json"),
        pytest.param(lambda spec: b'{"num_classes": "\xff"}', id="not_utf8"),
        pytest.param(lambda spec: b"[3]", id="not_an_object"),
        pytest.param(lambda spec: b'{"num_classes": 3}', id="missing_keys"),
        pytest.param(lambda spec: {**spec, "extra": 1}, id="unknown_key"),
        pytest.param(lambda spec: {**spec, "stages": 3}, id="stages_not_a_list"),
        pytest.param(lambda spec: {**spec, "t": 8.5}, id="t_not_an_int"),
        pytest.param(lambda spec: {**spec, "frame_size": [32]}, id="frame_size_one_value"),
        pytest.param(lambda spec: {**spec, "num_classes": 1}, id="rejected_by_netspec"),
        pytest.param(lambda spec: {**spec, "stem_stride": 0}, id="stem_stride_zero"),
        pytest.param(lambda spec: {**spec, "stem_stride": -1}, id="stem_stride_negative"),
        pytest.param(lambda spec: {**spec, "in_channels": 0}, id="in_channels_zero"),
        pytest.param(lambda spec: {**spec, "stem_channels": 0}, id="stem_channels_zero"),
        pytest.param(lambda spec: {**spec, "frame_size": [0, 0]}, id="frame_size_zero"),
        pytest.param(lambda spec: _with_stage(spec, channels=0), id="stage_channels_zero"),
        pytest.param(lambda spec: _with_stage(spec, stride=0), id="stage_stride_zero"),
        pytest.param(lambda spec: _with_stage(spec, blocks=-1), id="stage_blocks_negative"),
        pytest.param(lambda spec: {**spec, "fold_fraction": 0.05}, id="fold_floors_to_zero"),
        pytest.param(lambda spec: {**spec, "action_ratio": 0}, id="shift_action_ratio_zero"),
        pytest.param(lambda spec: {**spec, "action_temporal_kernel": 2},
                     id="shift_action_kernel_even"),
        pytest.param(lambda spec: {**spec, "temporal": "none", "fold_fraction": 0.9},
                     id="none_fold_fraction_above_half"),
        pytest.param(lambda spec: {**spec, "temporal": "none", "direction": "sideways"},
                     id="none_direction_unknown"),
    ])
    def test_malformed_netspec_is_parse_error(self, synth_dir, trained, tmp_path, make):
        content = make(json.loads((trained / "netspec.json").read_text(encoding="utf-8")))
        netspec = tmp_path / "netspec.json"
        netspec.write_bytes(content if isinstance(content, bytes) else
                            json.dumps(content).encode())
        proc = run_cli("eval", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--weights", str(trained / "model.sgnf"), "--netspec", str(netspec),
                       check=False)
        assert_one_line_error(proc, 1, str(netspec))

    def test_train_without_labels_counts_classes_from_entries(self, synth_dir, tmp_path,
                                                              capsys):
        manifest = tmp_path / "manifest.jsonl"  # no labels.json beside it
        manifest.write_text("".join(
            json.dumps({**entry, "frame_dir": str(synth_dir / entry["frame_dir"])}) + "\n"
            for entry in json_lines((synth_dir / "manifest.jsonl").read_text())))
        out = main_json(capsys, "train", "--manifest", manifest, "--out", tmp_path / "m",
                        "--epochs", "0", "--no-timestamp")
        assert out["epochs"] == 0
        assert json.loads((tmp_path / "m" / "netspec.json").read_text())["num_classes"] == 4

    def test_fold_flooring_to_zero_channels_is_config_error(self, synth_dir, tmp_path):
        # micro's first block has 8 channels: 8 * 0.05 floors to a fold of 0
        proc = run_cli("train", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--out", str(tmp_path / "m"), "--fold", "0.05", check=False)
        assert_one_line_error(proc, 1, "fold_fraction 0.05 of 8 channels floors to a fold of 0")
        assert not (tmp_path / "m").exists()

    def test_train_determinism_byte_identical(self, synth_dir, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            proc = run_cli("train", "--manifest", str(synth_dir / "manifest.jsonl"),
                           "--out", str(out), "--epochs", "2", "--seed", "7",
                           "--no-timestamp")
            # paths differ between runs; compare the metric lines only
            records = [l for l in proc.stdout.splitlines() if l.startswith('{"epoch"')]
            outs.append((records, (out / "model.sgnf").read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_epoch_timing_on_stderr_only(self, synth_dir, tmp_path):
        proc = run_cli("train", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--out", str(tmp_path / "m"), "--epochs", "3", "--seed", "7",
                       "--no-timestamp")
        timing = json_lines(proc.stderr)
        assert [t["epoch"] for t in timing] == [0, 1, 2]
        for t in timing:
            assert set(t) == {"epoch", "seconds", "clips_per_s", "minor_faults"}
            assert t["seconds"] > 0 and t["clips_per_s"] > 0 and t["minor_faults"] >= 0
        for line in json_lines(proc.stdout):
            assert not {"seconds", "clips_per_s", "minor_faults"} & set(line)

    def test_stderr_json_lines_have_sorted_keys(self, synth_dir, tmp_path):
        proc = run_cli("train", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--out", str(tmp_path / "m"), "--epochs", "2", "--no-timestamp")
        lines = proc.stderr.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert line == json.dumps(json.loads(line), ensure_ascii=False, sort_keys=True)


class TestGradcheckCommand:
    def test_all_pass(self):
        proc = run_cli("gradcheck", "--no-timestamp")
        out = json_lines(proc.stdout)[-1]
        assert out["all_pass"] is True
        assert all(c["pass"] for c in out["checks"])
        ops = {c["op"] for c in out["checks"]}
        assert {"matmul", "conv2d", "conv2d_weight", "softmax_cross_entropy",
                "backbone_input"} <= ops


class TestTranslate:
    def test_empty_text_empty_manifest(self, tmp_path):
        clips = tmp_path / "clips"
        run_cli("synth", "--lexicon", str(DEMO / "lexicon.tsv"),
                "--out", str(clips), "--no-timestamp")
        proc = run_cli("translate", "--text", "", "--lexicon", str(DEMO / "lexicon.tsv"),
                       "--clips", str(clips / "manifest.jsonl"), "--no-timestamp")
        out = json_lines(proc.stdout)[-1]
        assert out["glosses"] == []
        assert out["manifest"]["total_frames"] == 0

    def test_demo_sentence_reordered(self):
        proc = run_cli("translate", "--text", "我今天不吃苹果",
                       "--lexicon", str(DEMO / "lexicon.tsv"),
                       "--rules", str(DEMO / "rules.json"), "--no-timestamp")
        out = json_lines(proc.stdout)[-1]
        assert out["segmented"] == ["我", "今天", "不", "吃", "苹果"]
        assert out["glosses"] == ["G_JINTIAN", "G_WO", "G_CHI", "G_PINGGUO", "G_BU"]

    def test_materialize_without_clips_exit_2(self, tmp_path, capsys):
        proc = run_main(capsys, "translate", "--text", "我", "--lexicon", DEMO / "lexicon.tsv",
                        "--out", tmp_path / "video")
        assert_one_line_error(proc, 2, "--out requires --clips")

    def test_materialize_writes_the_planned_frames(self, tmp_path):
        clips = tmp_path / "clips"
        run_cli("synth", "--lexicon", str(DEMO / "lexicon.tsv"),
                "--out", str(clips), "--no-timestamp")
        out_dir = tmp_path / "video"
        proc = run_cli("translate", "--text", "我今天不吃苹果",
                       "--lexicon", str(DEMO / "lexicon.tsv"),
                       "--rules", str(DEMO / "rules.json"),
                       "--clips", str(clips / "manifest.jsonl"), "--policy", "hold-last-frame:2",
                       "--out", str(out_dir), "--no-timestamp")
        out = json_lines(proc.stdout)[-1]
        frames = sorted((out_dir / "frames").glob("frame_*.p?m"))
        assert out["frames_dir"] == str(out_dir / "frames")
        assert out["materialized_frames"] == out["manifest"]["total_frames"] == len(frames)
        assert len(frames) == 5 * 8 + 4 * 2  # five 8-frame clips, four holds of 2

    def test_shorter_materialize_over_a_longer_one_equals_a_fresh_one(self, tmp_path, capsys):
        clips = tmp_path / "clips"
        main_json(capsys, "synth", "--lexicon", DEMO / "lexicon.tsv",
                  "--out", clips, "--no-timestamp")

        def materialize(out_dir, text):
            main_json(capsys, "translate", "--text", text, "--lexicon", DEMO / "lexicon.tsv",
                      "--rules", DEMO / "rules.json", "--clips", clips / "manifest.jsonl",
                      "--policy", "hold-last-frame:2", "--out", out_dir, "--no-timestamp")

        materialize(tmp_path / "a" / "v", "我今天不吃苹果")
        materialize(tmp_path / "a" / "v", "我")
        materialize(tmp_path / "b" / "v", "我")
        assert tree_sha256(tmp_path / "a") == tree_sha256(tmp_path / "b")
        assert len(list((tmp_path / "a" / "v" / "frames").iterdir())) == 8

    def test_materialize_with_no_clip_writes_no_video(self, tmp_path, capsys):
        clips, out_dir = tmp_path / "clips", tmp_path / "video"
        main_json(capsys, "synth", "--lexicon", DEMO / "lexicon.tsv",
                  "--out", clips, "--no-timestamp")
        out = main_json(capsys, "translate", "--text", "犬猫",  # neither is in the lexicon
                        "--lexicon", DEMO / "lexicon.tsv", "--clips", clips / "manifest.jsonl",
                        "--out", out_dir, "--no-timestamp")
        assert out["frames_dir"] is None and out["materialized_frames"] == 0
        assert out["manifest"]["entries"] == [] and out["manifest"]["total_frames"] == 0
        assert list((out_dir / "frames").iterdir()) == []
        assert json.loads((out_dir / "video.plan.json").read_text()) == out["manifest"]
        assert not (out_dir / "video.jsonl").exists()

    def test_missing_clip_warning_on_stderr(self, tmp_path):
        clips = tmp_path / "clips"
        run_cli("synth", "--lexicon", str(DEMO / "lexicon.tsv"),
                "--out", str(clips), "--no-timestamp")
        proc = run_cli("translate", "--text", "我犬",  # 犬 not in the demo lexicon
                       "--lexicon", str(DEMO / "lexicon.tsv"),
                       "--clips", str(clips / "manifest.jsonl"), "--no-timestamp")
        warning = json.loads(proc.stderr.splitlines()[-1])
        assert warning["kind"] == "missing-clip"
        assert warning["gloss"] == "#犬"
        out = json_lines(proc.stdout)[-1]
        assert out["manifest"]["total_frames"] == 8  # only 我 planned

    def test_unparsable_policy_is_config_error(self, tmp_path):
        clips = tmp_path / "clips"
        run_cli("synth", "--lexicon", str(DEMO / "lexicon.tsv"),
                "--out", str(clips), "--no-timestamp")
        proc = run_cli("translate", "--text", "我", "--lexicon", str(DEMO / "lexicon.tsv"),
                       "--clips", str(clips / "manifest.jsonl"),
                       "--policy", "hold-last-frame:x", check=False)
        assert_one_line_error(proc, 1, "'hold-last-frame:x'")


class TestStream:
    def test_stream_matches_offline_recognition(self, tmp_path):
        # unidirectional model; every frame processed -> rolling consensus equals
        # the offline forward on the same frames
        synth = tmp_path / "synth"
        run_cli("synth", "--out", str(synth), "--classes", "2", "--t", "8",
                "--train-per-class", "1", "--test-per-class", "1", "--seed", "2",
                "--no-timestamp")
        model_dir = tmp_path / "model"
        run_cli("train", "--manifest", str(synth / "manifest.jsonl"),
                "--out", str(model_dir), "--epochs", "1",
                "--direction", "unidirectional", "--seed", "1", "--no-timestamp")
        entries = [json.loads(l) for l in
                   (synth / "manifest.jsonl").read_text().splitlines()]
        test_entry = next(e for e in entries if e["split"] == "test")
        frames_dir = synth / test_entry["frame_dir"]
        proc = run_cli("stream", "--weights", str(model_dir / "model.sgnf"),
                       "--frames", str(frames_dir))
        lines = json_lines(proc.stdout)
        assert len(lines) == 8
        assert [l["frame"] for l in lines] == list(range(8))

        from signflow.backbone import Model
        from signflow.dataset import ManifestEntry, read_clip
        model = Model.load(model_dir / "model.sgnf", model_dir / "netspec.json")
        entry = ManifestEntry(test_entry["video_id"], str(frames_dir), 8, 0, "test")
        clip = read_clip(entry, list(range(8)), base=".")[None].astype(np.float32)
        offline = model.per_frame_logits(clip).numpy()[0].mean(axis=0)
        rolling = np.array(lines[-1]["rolling_logits"])
        assert np.abs(offline - rolling).max() <= 1e-4
        assert int(np.argmax(offline)) == lines[-1]["prediction"]

    def test_step_timings_go_to_stderr_as_one_line(self, synth_dir, trained, flag_inputs,
                                                    capsys):
        from signflow import cli
        entry = json.loads((synth_dir / "manifest.jsonl").read_text().splitlines()[0])
        argv = ["stream", "--weights", str(trained / "model.sgnf"), "--netspec",
                str(flag_inputs / "netspec.json"), "--frames", str(synth_dir / entry["frame_dir"])]
        outs = []
        for _ in range(2):
            assert cli.main(argv) == 0
            captured = capsys.readouterr()
            outs.append(captured.out)
            [line] = captured.err.splitlines()
            timing = json.loads(line)
            assert set(timing) == {"frames", "step_ms_p50", "step_ms_p99"}
            assert timing["frames"] == entry["num_frames"] == len(json_lines(captured.out))
            assert 0 < timing["step_ms_p50"] <= timing["step_ms_p99"]
        assert outs[0] == outs[1]  # stdout carries no timing

    def test_stream_requires_unidirectional(self, tmp_path, synth_dir, trained=None):
        model_dir = tmp_path / "bidi"
        run_cli("train", "--manifest", str(synth_dir / "manifest.jsonl"),
                "--out", str(model_dir), "--epochs", "0", "--seed", "1",
                "--no-timestamp")
        entries = [json.loads(l) for l in
                   (synth_dir / "manifest.jsonl").read_text().splitlines()]
        frames_dir = synth_dir / entries[0]["frame_dir"]
        proc = run_cli("stream", "--weights", str(model_dir / "model.sgnf"),
                       "--frames", str(frames_dir), check=False)
        assert proc.returncode == 2
        assert "unidirectional" in proc.stderr


# id: (labels.json content or None, recognize flags with {frames}, {labels}, {manifest},
# {sibling}, {video_id} and {d}, exit code, what stderr must hold). The labels.json goes to
# --labels, except in a row that reads {sibling}: a manifest whose sibling labels.json it is.
LABELS = {f"ORDER{k}": k for k in range(4)}
RECOGNIZE_ERRORS = {
    "no-label-map": (None, ("--frames", "{frames}"), 1,
                     "recognize requires a label map (gloss -> class index): pass --labels"),
    "label-class-out-of-range": ({**LABELS, "ORDER3": 7}, ("--frames", "{frames}"), 1,
                                 "{labels}: label map class 7 out of range for 4-way model"),
    "label-two-glosses-one-class": ({**LABELS, "ORDER1": 0}, ("--frames", "{frames}"), 1,
                                    "{labels}: label map maps two glosses to class 0"),
    "label-partial-coverage": ({"ORDER0": 0, "ORDER1": 1}, ("--frames", "{frames}"), 1,
                               "{labels}: label map covers 2 of 4 classes"),
    "label-gloss-not-in-lexicon": ({"ORDER0": 0, "ORDER1": 1, "ORDER2": 2, "NOPE": 3},
                                   ("--frames", "{frames}"), 1,
                                   "{labels}: label map glosses not in lexicon: ['NOPE']"),
    "sibling-labels-two-glosses-one-class": ({**LABELS, "ORDER1": 0},
                                             ("--manifest", "{sibling}", "--video-id",
                                              "{video_id}"), 1,
                                             "{d}/labels.json: label map maps two glosses "
                                             "to class 0"),
    "window-zero": (LABELS, ("--frames", "{frames}", "--window", "0"), 1,
                    "window must be >= 1, got 0"),
    "stride-zero": (LABELS, ("--frames", "{frames}", "--window", "4", "--stride", "0"), 1,
                    "stride must be >= 1, got 0"),
    "stride-without-window": (LABELS, ("--frames", "{frames}", "--stride", "4"), 1,
                              "stride 4 given without a window"),
    "unknown-video-id": (LABELS, ("--manifest", "{manifest}", "--video-id", "nope"), 2,
                         "--video-id: 'nope' not in"),
    "frames-not-a-directory": (LABELS, ("--frames", "{d}/lex.tsv"), 2,
                               "--frames: {d}/lex.tsv is not a directory"),
    "frames-empty": (LABELS, ("--frames", "{d}"), 2, "--frames: no frame_*.pgm/.ppm files in {d}"),
    "frames-with-manifest": (LABELS, ("--frames", "{frames}", "--manifest", "{manifest}"), 2,
                             "--frames and --manifest exclude each other"),
    "frames-with-video-id": (LABELS, ("--frames", "{frames}", "--video-id", "{video_id}"), 2,
                             "--frames and --video-id exclude each other"),
    "frames-differ-in-shape": (LABELS, ("--frames", "{mixed}"), 1,
                               "{mixed}: frame 1 has shape (3, 32, 32), frame 0 has (1, 32, 32)"),
}


class TestRecognizeCommand:
    def test_recognize_trained_model(self, synth_dir, trained, tmp_path):
        # lexicon mapping the synthetic ORDER classes to fake words
        lex = tmp_path / "lex.tsv"
        lex.write_text("".join(f"w{k}\tORDER{k}\tORDER{k}\t\n" for k in range(4)),
                       encoding="utf-8")
        entries = [json.loads(l) for l in
                   (synth_dir / "manifest.jsonl").read_text().splitlines()]
        target = next(e for e in entries if e["split"] == "test")
        proc = run_cli("recognize", "--weights", str(trained / "model.sgnf"),
                       "--lexicon", str(lex),
                       "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--video-id", target["video_id"], "--no-timestamp")
        out = json_lines(proc.stdout)[-1]
        assert len(out["glosses"]) == 1
        assert out["glosses"][0].startswith("ORDER")
        assert out["text"].startswith("w")

    def test_malformed_labels_is_parse_error(self, synth_dir, trained, tmp_path):
        labels = tmp_path / "labels.json"
        labels.write_text("{not json", encoding="utf-8")
        entry = json.loads((synth_dir / "manifest.jsonl").read_text().splitlines()[0])
        proc = run_cli("recognize", "--weights", str(trained / "model.sgnf"),
                       "--lexicon", str(DEMO / "lexicon.tsv"), "--labels", str(labels),
                       "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--video-id", entry["video_id"], check=False)
        assert_one_line_error(proc, 1, str(labels))

    def test_truncated_frame_is_frame_error(self, synth_dir, trained, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "frame_00000.pgm").write_bytes(b"P5\n32")
        lex = tmp_path / "lex.tsv"
        lex.write_text("".join(f"w{k}\tORDER{k}\tORDER{k}\t\n" for k in range(4)),
                       encoding="utf-8")
        proc = run_cli("recognize", "--weights", str(trained / "model.sgnf"),
                       "--lexicon", str(lex), "--labels", str(synth_dir / "labels.json"),
                       "--frames", str(frames), check=False)
        assert_one_line_error(proc, 1, str(frames / "frame_00000.pgm"))

    def test_drop_rule_warning_is_one_json_line(self, synth_dir, trained, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        lex.write_text("".join(f"w{k}\tORDER{k}\tORDER{k}\t\n" for k in range(4)),
                       encoding="utf-8")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps([{"id": "d", "priority": 0, "match": {"index": 1},
                                      "action": "drop"}]), encoding="utf-8")
        entry = json.loads((synth_dir / "manifest.jsonl").read_text().splitlines()[0])
        proc = run_main(capsys, "recognize", "--weights", trained / "model.sgnf",
                        "--lexicon", lex, "--rules", rules,
                        "--manifest", synth_dir / "manifest.jsonl",
                        "--video-id", entry["video_id"], "--no-timestamp")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr
        record = json.loads(proc.stderr)
        assert record["kind"] == "warning" and record["category"] == "UserWarning"
        assert record["message"].startswith("rule set contains drop actions")

    @pytest.mark.parametrize("row", list(RECOGNIZE_ERRORS))
    def test_typed_error(self, synth_dir, trained, tmp_path, capsys, row):
        labels, flags, code, needle = RECOGNIZE_ERRORS[row]
        lex = tmp_path / "lex.tsv"
        lex.write_text("".join(f"w{k}\tORDER{k}\tORDER{k}\t\n" for k in range(4)),
                       encoding="utf-8")
        entry = json.loads((synth_dir / "manifest.jsonl").read_text().splitlines()[0])
        paths = {"frames": synth_dir / entry["frame_dir"], "labels": tmp_path / "labels.json",
                 "manifest": synth_dir / "manifest.jsonl", "d": tmp_path,
                 "sibling": tmp_path / "manifest.jsonl", "video_id": entry["video_id"],
                 "mixed": tmp_path / "mixed"}
        paths["sibling"].write_bytes(paths["manifest"].read_bytes())
        paths["mixed"].mkdir()  # a gray frame, then an RGB one
        write_frame(paths["mixed"] / "frame_00000.pgm", np.zeros((1, 4, 4)))
        write_frame(paths["mixed"] / "frame_00001.ppm", np.zeros((3, 4, 4)))
        if labels is not None:
            paths["labels"].write_text(json.dumps(labels), encoding="utf-8")
            if "{sibling}" not in flags:
                flags = (*flags, "--labels", "{labels}")
        proc = run_main(capsys, "recognize", "--weights", trained / "model.sgnf",
                        "--lexicon", lex, *(flag.format(**paths) for flag in flags))
        assert_one_line_error(proc, code, needle.format(**paths))


def _netspec(**changes):
    """netspec.json bytes: the trained model's netspec with ``changes``."""
    return lambda spec: json.dumps({**spec, **changes}).encode()


def _action_weights(spec: dict) -> bytes:
    """Weight-file bytes of an untrained action model shaped like the trained one."""
    from signflow.backbone import Model, NetSpec
    with tempfile.TemporaryDirectory() as d:
        Model(NetSpec.from_dict({**spec, "temporal": "action"})).save(Path(d) / "w.sgnf")
        return (Path(d) / "w.sgnf").read_bytes()


GRAY_2X2 = b"P5\n2 2\n255\n\0\0\0\0"
# one manifest line: the demo lexicon's clip for 我, one frame in G_WO/
CLIP_LINE = json.dumps({"video_id": "G_WO", "frame_dir": "G_WO", "num_frames": 1, "label": 0,
                        "split": "train"}).encode() + b"\n"
TRAIN = ("train", "--manifest", "{synth}/manifest.jsonl", "--out", "{d}/m")
EVAL_NETSPEC = ("eval", "--manifest", "{synth}/manifest.jsonl", "--weights",
                "{model}/model.sgnf", "--netspec", "{d}/netspec.json")
TRANSLATE = ("translate", "--text", "我", "--lexicon", str(DEMO / "lexicon.tsv"))
TRANSLATE_RULES = (*TRANSLATE, "--rules", "{d}/rules.json")
BENCH = ("bench", "--manifest", "{synth}/manifest.jsonl", "--reps", "1")
# id: (files written into {d}: name -> bytes, or a function of the trained model's netspec
# dict; argv with {d}, {synth}, {model} and {frames}; exit code; what stderr must hold)
CLI_ERRORS = {
    "train-epochs-negative": ({}, (*TRAIN, "--epochs", "-1"), 1, "epochs must be >= 0, got -1"),
    "train-batch-size-zero": ({}, (*TRAIN, "--batch-size", "0"), 1,
                              "batch_size must be >= 1, got 0"),
    "train-lr-nan": ({}, (*TRAIN, "--lr", "nan", "--epochs", "1"), 1,
                     "lr must be finite and >= 0, got nan"),
    "train-lr-inf": ({}, (*TRAIN, "--lr", "inf"), 1, "lr must be finite and >= 0, got inf"),
    "train-momentum-negative": ({}, (*TRAIN, "--momentum", "-3"), 1,
                                "momentum must be in [0, 1), got -3.0"),
    "train-momentum-one": ({}, (*TRAIN, "--momentum", "1"), 1,
                           "momentum must be in [0, 1), got 1.0"),
    "train-momentum-nan": ({}, (*TRAIN, "--momentum", "nan"), 1,
                           "momentum must be in [0, 1), got nan"),
    "train-weight-decay-negative": ({}, (*TRAIN, "--weight-decay", "-0.1"), 1,
                                    "weight_decay must be finite and >= 0, got -0.1"),
    "train-weight-decay-inf": ({}, (*TRAIN, "--weight-decay", "inf"), 1,
                               "weight_decay must be finite and >= 0, got inf"),
    "eval-action-netspec-on-shift-weights": ({"netspec.json": _netspec(temporal="action")},
                                             EVAL_NETSPEC, 1,
                                             "{model}/model.sgnf: weight mismatch: missing "
                                             "['stage0.block0.action."),
    "eval-weight-of-another-shape": ({"netspec.json": _netspec(num_classes=5)}, EVAL_NETSPEC,
                                     1, "{model}/model.sgnf: weight head.w: file shape"),
    "eval-netspec-t-zero": ({"netspec.json": _netspec(t=0)}, EVAL_NETSPEC, 1,
                            "{d}/netspec.json: t must be >= 1, got 0"),
    "eval-netspec-action-ratio-zero": ({"netspec.json": _netspec(temporal="action",
                                                                 action_ratio=0)},
                                       EVAL_NETSPEC, 1,
                                       "{d}/netspec.json: reduce_ratio must be positive, got 0"),
    "eval-entry-claims-more-frames": ({"clips.jsonl": json.dumps(
                                          {"video_id": "v0", "frame_dir": "v0", "num_frames": 9,
                                           "label": 0, "split": "test"}).encode() + b"\n",
                                       "v0/frame_00000.pgm": GRAY_2X2,
                                       "v0/frame_00001.pgm": GRAY_2X2},
                                      ("eval", "--manifest", "{d}/clips.jsonl",
                                       "--weights", "{model}/model.sgnf"), 1,
                                      "{d}/v0: no frame_"),
    "stream-action-model": ({"model.sgnf": _action_weights,
                             "netspec.json": _netspec(temporal="action")},
                            ("stream", "--weights", "{d}/model.sgnf", "--frames", "{frames}"), 2,
                            "streaming inference is only defined for shift or none"),
    "synth-t-one": ({}, ("synth", "--out", "{d}/s", "--t", "1"), 1,
                    "synthetic clips need t >= 2"),
    "synth-one-class": ({}, ("synth", "--out", "{d}/s", "--classes", "1"), 1,
                        "need at least 2 classes"),
    "translate-rules-object": ({"rules.json": b"{}"}, TRANSLATE_RULES, 1,
                               "{d}/rules.json: rules file must be a JSON list"),
    "translate-rules-one-id-twice": ({"rules.json": json.dumps(
                                         [{"id": "r", "priority": p, "match": {"index": 0},
                                           "action": "drop"} for p in (0, 1)]).encode()},
                                     TRANSLATE_RULES, 1, "{d}/rules.json: duplicate rule ids"),
    "train-labels-json-is-a-directory": ({"clips.jsonl": CLIP_LINE, "labels.json/keep": b""},
                                         ("train", "--manifest", "{d}/clips.jsonl", "--out",
                                          "{d}/m"), 1, "{d}/labels.json: Is a directory"),
    # an output path the OS refuses: one line that names it, not a traceback
    "train-out-is-a-file": ({"F": b""}, (*TRAIN, "--out", "{d}/F"), 1, "{d}/F: File exists"),
    # one OS fault reads one way: the path, then the OS's reason, once
    "synth-out-is-a-file": ({"F": b""}, ("synth", "--out", "{d}/F"), 1,
                            "error: {d}/F: File exists\n"),
    "synth-isolated-out-is-a-file": ({"F": b""}, ("synth", "--lexicon",
                                                  str(DEMO / "lexicon.tsv"), "--out", "{d}/F"),
                                     1, "error: {d}/F: File exists\n"),
    # a preset takes the first clip's channel count: a clip with another is one line
    "train-tiny-gray-then-rgb-clip": ({"clips.jsonl": b"".join(
                                          json.dumps({"video_id": v, "frame_dir": v,
                                                      "num_frames": 1, "label": label,
                                                      "split": "train"}).encode() + b"\n"
                                          for label, v in enumerate(("g", "c"))),
                                       "g/frame_00000.pgm": GRAY_2X2,
                                       "c/frame_00000.ppm": b"P6\n2 2\n255\n" + bytes(12)},
                                      ("train", "--manifest", "{d}/clips.jsonl", "--out",
                                       "{d}/m", "--preset", "tiny"), 1,
                                      "error: {d}/clips.jsonl: a clip of 3 channels after one "
                                      "of 1: --preset tiny takes one channel count\n"),
    "translate-materialize-frames-is-a-file": ({"clips.jsonl": CLIP_LINE,
                                                "G_WO/frame_00000.pgm": GRAY_2X2,
                                                "v/frames": b""},
                                               ("translate", "--text", "我", "--lexicon",
                                                str(DEMO / "lexicon.tsv"), "--clips",
                                                "{d}/clips.jsonl", "--out", "{d}/v"), 1,
                                               "{d}/v/frames: File exists"),
    "translate-plan-json-is-a-directory": ({"clips.jsonl": CLIP_LINE,
                                            "G_WO/frame_00000.pgm": GRAY_2X2,
                                            "v/v.plan.json/keep": b""},
                                           ("translate", "--text", "我", "--lexicon",
                                            str(DEMO / "lexicon.tsv"), "--clips",
                                            "{d}/clips.jsonl", "--out", "{d}/v"), 1,
                                           "error: {d}/v/v.plan.json: Is a directory\n"),
    "recognize-manifest-without-video-id": ({}, ("recognize", "--weights", "{model}/model.sgnf",
                                                 "--lexicon", str(DEMO / "lexicon.tsv"),
                                                 "--manifest", "{synth}/manifest.jsonl"), 2,
                                            "usage error: --video-id is required with "
                                            "--manifest\n"),
    # argparse's own errors are one line too, and name the subcommand
    "eval-split-without-value": ({}, ("eval", "--manifest", "x", "--weights", "y", "--split"),
                                 2, "usage error: signflow eval: argument --split: expected "
                                    "one argument\n"),
    "stream-pretty": ({}, ("stream", "--weights", "{model}/model.sgnf", "--frames", "{frames}",
                           "--pretty"), 2, "unrecognized arguments: --pretty\n"),
    # the inputs choose these modes: a switch for one is not a flag
    "synth-isolated-switch": ({}, ("synth", "--out", "{d}/s", "--lexicon",
                                   str(DEMO / "lexicon.tsv"), "--isolated"), 2,
                              "unrecognized arguments: --isolated\n"),
    "translate-materialize-switch": ({}, ("translate", "--text", "我", "--lexicon",
                                          str(DEMO / "lexicon.tsv"), "--materialize"), 2,
                                     "unrecognized arguments: --materialize\n"),
    "train-classes": ({}, (*TRAIN, "--classes", "3"), 2, "unrecognized arguments: --classes 3\n"),
    # --lexicon writes one clip per gloss: a temporal set's flag beside it is a usage error,
    # also at the flag's default value (--classes 4, --test-per-class 13)
    **{f"synth-lexicon{flag}": ({}, ("synth", "--out", "{d}/s", "--lexicon",
                                     str(DEMO / "lexicon.tsv"), flag, value), 2,
                                f"usage error: {flag} requires a temporal synth (no --lexicon)\n")
       for flag, value in (("--classes", "4"), ("--train-per-class", "3"),
                           ("--val-per-class", "1"), ("--test-per-class", "13"),
                           ("--noise", "0.9"))},
    "synth-lexicon-abbreviated-flag": ({}, ("synth", "--out", "{d}/s", "--noi", "0.1",
                                            "--lexicon", str(DEMO / "lexicon.tsv")), 2,
                                       "usage error: --noise requires a temporal synth "
                                       "(no --lexicon)\n"),
    # likewise translate's planning flags without --clips (--fps at its default too) ...
    **{f"translate{flag}-without-clips": ({}, (*TRANSLATE, flag, value), 2,
                                          f"usage error: {flag} requires --clips\n")
       for flag, value in (("--policy", "hold-last-frame:2"), ("--fallback", "error"),
                           ("--fps", "25"))},
    # ... and bench's training flags at --epochs 0, and its fold without a shift variant
    "bench-lr-at-epochs-0": ({}, (*BENCH, "--lr", "0.1"), 2,
                             "usage error: --lr requires --epochs above 0\n"),
    "bench-batch-size-at-epochs-0": ({}, (*BENCH, "--batch-size", "4"), 2,
                                     "usage error: --batch-size requires --epochs above 0 or "
                                     "--profile\n"),
    "bench-fold-without-shift": ({}, (*BENCH, "--variants", "none,action", "--fold", "0.25"), 2,
                                 "usage error: --fold requires a shift entry in --variants\n"),
    # train's shift flags on a model in which nothing shifts
    "train-fold-without-shift": ({}, (*TRAIN, "--temporal", "none", "--fold", "0.25"), 2,
                                 "usage error: --fold requires --temporal shift\n"),
    "train-direction-without-shift": ({}, (*TRAIN, "--temporal", "action", "--direction",
                                           "unidirectional"), 2,
                                      "usage error: --direction requires --temporal shift\n"),
}


@pytest.mark.parametrize("row", list(CLI_ERRORS))
def test_typed_error_row(synth_dir, trained, tmp_path, capsys, row):
    files, argv, code, needle = CLI_ERRORS[row]
    spec = json.loads((trained / "netspec.json").read_text(encoding="utf-8"))
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(content(spec) if callable(content) else content)
    entry = json.loads((synth_dir / "manifest.jsonl").read_text().splitlines()[0])
    paths = {"d": tmp_path, "synth": synth_dir, "model": trained,
             "frames": synth_dir / entry["frame_dir"]}
    proc = run_main(capsys, *(arg.format(**paths) for arg in argv))
    assert_one_line_error(proc, code, needle.format(**paths))


class TestBench:
    def test_report_schema_and_latency(self, synth_dir):
        proc = run_cli("bench", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--variants", "shift,action,none", "--epochs", "0",
                       "--reps", "5", "--no-timestamp")
        out = json_lines(proc.stdout)[-1]
        rows = {r["variant"]: r for r in out["rows"]}
        assert set(rows) == {"shift", "action", "none"}
        for row in rows.values():
            assert {"variant", "prec1", "prec5", "loss", "ms_per_clip",
                    "ms_per_frame_online"} <= set(row)
            # the model keeps its plan and each conv its buffers, so a warm infer
            # frees no buffer that glibc could trim and fault back in
            assert 0 <= row["infer_minor_faults"] < 5, row
        assert rows["action"]["ms_per_frame_online"] is None
        for variant in ("shift", "none"):
            assert rows[variant]["online_offline_ratio"] < 1.0

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_reps_below_one_is_usage_error(self, synth_dir, reps):
        proc = run_cli("bench", "--manifest", str(synth_dir / "manifest.jsonl"),
                       "--reps", reps, check=False)
        assert_one_line_error(proc, 2, "--reps")

    def test_epochs_train_before_the_metrics(self, synth_dir, monkeypatch, capsys):
        from signflow import cli
        monkeypatch.setattr(cli, "_median_ms", lambda fn, reps: (1.0, 0.0))  # timings
        rows = []
        for epochs in ("0", "2"):
            assert cli.main(["bench", "--manifest", str(synth_dir / "manifest.jsonl"),
                             "--variants", "none", "--epochs", epochs, "--reps", "1",
                             "--no-timestamp"]) == 0
            rows.append(json_lines(capsys.readouterr().out)[-1]["rows"][0])
        untrained, trained = rows
        assert trained["loss"] != untrained["loss"]

    def test_reads_each_split_once_and_reports_the_split_it_scored(self, synth_dir,
                                                                     monkeypatch, capsys):
        from signflow import cli
        monkeypatch.setattr(cli, "_median_ms", lambda fn, reps: (1.0, 0.0))  # timings
        loads, original = [], cli.load_clip_dataset

        def load(manifest, split, *args, **kwargs):
            loads.append(split)
            return original(manifest, split, *args, **kwargs)

        monkeypatch.setattr(cli, "load_clip_dataset", load)
        # the synthetic manifest has no val entries, so --split val scores train
        for split, scored, read in (("test", "test", ["train", "test"]),
                                    ("val", "train", ["train"])):
            loads.clear()
            assert cli.main(["bench", "--manifest", str(synth_dir / "manifest.jsonl"),
                             "--variants", "shift,action,none", "--split", split,
                             "--reps", "1", "--no-timestamp"]) == 0
            assert json_lines(capsys.readouterr().out)[-1]["split"] == scored
            assert loads == read

    def test_profile_goes_to_stderr_only(self, synth_dir, monkeypatch, capsys):
        from signflow import cli
        monkeypatch.setattr(cli, "_median_ms", lambda fn, reps: (1.0, 0.0))  # timings
        args = ["bench", "--manifest", str(synth_dir / "manifest.jsonl"), "--variants",
                "shift,none", "--epochs", "0", "--reps", "1", "--no-timestamp"]
        assert cli.main(args) == 0
        plain = capsys.readouterr()
        # at --epochs 0 only the profiled step reads --batch-size
        assert cli.main(args + ["--batch-size", "2", "--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out and plain.err == ""
        rows = [json.loads(line) for line in profiled.err.splitlines()]
        assert [r["variant"] for r in rows] == ["shift", "none"]
        for row in rows:
            assert row["backward_ms"]["conv2d"] >= 0 and row["op_nodes"] > 0
            assert row["batch_size"] == 2


class TestTinyPreset:
    """--preset tiny on signflow's own grayscale data: the net takes the data's
    channel count and keeps the preset's other fields."""

    def test_train_one_epoch(self, synth_dir, tmp_path, capsys):
        out = main_json(capsys, "train", "--manifest", synth_dir / "manifest.jsonl", "--out",
                        tmp_path / "m", "--preset", "tiny", "--epochs", "1", "--t", "2",
                        "--no-timestamp")
        assert out["epochs"] == 1
        spec = json.loads((tmp_path / "m" / "netspec.json").read_text(encoding="utf-8"))
        assert (spec["in_channels"], spec["stem_channels"], spec["stem_stride"]) == (1, 16, 1)
        assert [stage["channels"] for stage in spec["stages"]] == [16, 32, 64]

    def test_bench(self, synth_dir, capsys):
        out = main_json(capsys, "bench", "--manifest", synth_dir / "manifest.jsonl",
                        "--preset", "tiny", "--variants", "shift", "--t", "2", "--reps", "1",
                        "--no-timestamp")
        [row] = out["rows"]
        assert row["variant"] == "shift" and row["ms_per_frame_online"] > 0


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": 2, "t": 4, "train-per-class": 1,
                                   "test-per-class": 0, "seed": 4}))
        for flag in ("--classes", "--cla"):  # argparse accepts an unambiguous abbreviation
            out = tmp_path / flag.strip("-")
            run_cli("synth", "--out", str(out), "--config", str(cfg), flag, "3",
                    "--no-timestamp")
            labels = json.loads((out / "labels.json").read_text())
            assert len(labels) == 3  # flag wins over config's 2

    def test_temporal_keys_do_not_reject_a_lexicon_synth(self, tmp_path, capsys):
        """One config file serves several subcommands and modes: its temporal
        synth keys are left unread by synth --lexicon, as a default is."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": 2, "train-per-class": 1, "val-per-class": 1,
                                   "test-per-class": 0, "noise": 0.5}))
        lexicon = ("synth", "--lexicon", LEXICON, "--t", "2", "--size", "8", "--no-timestamp")
        assert main_json(capsys, *lexicon, "--out", tmp_path / "a", "--config", cfg)["entries"] \
            == main_json(capsys, *lexicon, "--out", tmp_path / "b")["entries"]
        assert tree_sha256(tmp_path / "a") == tree_sha256(tmp_path / "b")

    def test_missing_config_is_usage_error(self, tmp_path):
        missing = tmp_path / "nonexistent.json"
        proc = run_cli("translate", "--text", "x", "--lexicon", str(DEMO / "lexicon.tsv"),
                       "--config", str(missing), check=False)
        assert_one_line_error(proc, 2, str(missing))

    @pytest.mark.parametrize("content", ["{\"seed\": ", "[1, 2]", "{\"\xff\": 1}"])
    def test_malformed_config_is_usage_error(self, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        # latin-1 writes the last case's \xff as one byte, which is not UTF-8
        cfg.write_text(content, encoding="latin-1")
        proc = run_cli("translate", "--text", "x", "--lexicon", str(DEMO / "lexicon.tsv"),
                       "--config", str(cfg), check=False)
        assert_one_line_error(proc, 2, str(cfg))

    @pytest.mark.parametrize("content,key", [
        ({"classes": "2"}, "classes"),         # int flag given a string
        ({"noise": "0.1"}, "noise"),           # float flag given a string
        ({"isolated": True}, "isolated"),      # a deleted flag names no flag of any subcommand
        ({"test-per-class": 1.5}, "test-per-class"),
        ({"temporal": "lstm"}, "temporal"),    # outside the flag's choices
        ({"pretty": 1}, "pretty"),             # switch given a number
        ({"epochz": 5}, "epochz"),             # a misspelt flag, likewise
    ])
    def test_mistyped_config_value_is_usage_error(self, tmp_path, content, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        command = ("train", "--manifest", "m.jsonl") if key == "temporal" else ("synth",)
        proc = run_cli(*command, "--out", str(tmp_path / "ds"), "--config", str(cfg),
                       check=False)
        assert_one_line_error(proc, 2, str(cfg), repr(key))
        assert not (tmp_path / "ds").exists()

    def test_mode_keys_do_not_reject_the_other_modes(self, tmp_path, synth_dir, monkeypatch,
                                                     capsys):
        """Likewise translate's planning keys without --clips, and bench's training
        keys at --epochs 0 and its fold key without a shift variant."""
        from signflow import cli
        monkeypatch.setattr(cli, "_median_ms", lambda fn, reps: (1.0, 0.0))  # timings
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": "hold-last-frame:2", "fallback": "error",
                                   "fps": 10, "lr": 0.1, "batch-size": 4, "fold": 0.25}))
        translate = ("translate", "--text", "我", "--lexicon", LEXICON, "--no-timestamp")
        bench = ("bench", "--manifest", synth_dir / "manifest.jsonl", "--variants", "none",
                 "--reps", "1", "--no-timestamp")
        for argv in (translate, bench):
            assert main_json(capsys, *argv, "--config", cfg) == main_json(capsys, *argv)

    def test_shift_keys_do_not_reach_a_model_that_does_not_shift(self, tmp_path, synth_dir,
                                                                capsys):
        """train's --fold and --direction keys are left unread by a model in which
        nothing shifts: its netspec.json records neither."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fold": 0.25, "direction": "unidirectional"}))
        train = ("train", "--manifest", synth_dir / "manifest.jsonl", "--epochs", "0",
                 "--temporal", "none", "--no-timestamp")
        main_json(capsys, *train, "--out", tmp_path / "a", "--config", cfg)
        main_json(capsys, *train, "--out", tmp_path / "b")
        assert tree_sha256(tmp_path / "a") == tree_sha256(tmp_path / "b")

    def test_key_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 5, "classes": 2}))  # train's and synth's keys
        translate = ("translate", "--text", "我", "--lexicon", DEMO / "lexicon.tsv")
        assert main_json(capsys, *translate, "--no-timestamp", "--config", cfg) == \
            main_json(capsys, *translate, "--no-timestamp")

    def test_env_seed_default(self, tmp_path):
        import os
        env = {**os.environ, "SIGNFLOW_SEED": "77"}
        a = subprocess.run([sys.executable, "-m", "signflow", "synth", "--out",
                            str(tmp_path / "a"), "--classes", "2", "--t", "4",
                            "--train-per-class", "1", "--test-per-class", "0",
                            "--no-timestamp"], capture_output=True, text=True, env=env)
        assert a.returncode == 0
        b = subprocess.run([sys.executable, "-m", "signflow", "synth", "--out",
                            str(tmp_path / "b"), "--classes", "2", "--t", "4",
                            "--train-per-class", "1", "--test-per-class", "0",
                            "--seed", "77", "--no-timestamp"],
                           capture_output=True, text=True)
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


    def test_bad_env_seed_is_usage_error(self):
        env = {**os.environ, "SIGNFLOW_SEED": "abc"}
        proc = subprocess.run([sys.executable, "-m", "signflow", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "SIGNFLOW_SEED" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestTimestamps:
    def test_timestamp_present_by_default(self):
        proc = run_cli("translate", "--text", "", "--lexicon", str(DEMO / "lexicon.tsv"))
        out = json_lines(proc.stdout)[-1]
        assert "timestamp" in out

    def test_no_timestamp_byte_stable(self):
        a = run_cli("translate", "--text", "我", "--lexicon", str(DEMO / "lexicon.tsv"),
                    "--no-timestamp").stdout
        b = run_cli("translate", "--text", "我", "--lexicon", str(DEMO / "lexicon.tsv"),
                    "--no-timestamp").stdout
        assert a == b


# -- every flag is read ------------------------------------------------------------------

LEXICON = str(DEMO / "lexicon.tsv")
# mode: a valid argv of one subcommand, with {d} (the run's directory, emptied before each
# run), {synth}, {model}, {frames} and {inputs} (the flag_inputs fixture)
FLAG_MODES = {
    "synth": ("synth", "--out", "{d}/s", "--classes", "2", "--t", "4", "--size", "8",
              "--train-per-class", "1", "--test-per-class", "0"),
    # --lexicon writes one clip per gloss
    "synth-isolated": ("synth", "--out", "{d}/s", "--lexicon", LEXICON, "--t", "2",
                       "--size", "8"),
    # two SGD steps: the first step's update does not depend on --momentum; nothing shifts,
    # so --fold and --direction are usage errors
    "train": ("train", "--manifest", "{synth}/manifest.jsonl", "--out", "{d}/m",
              "--epochs", "1", "--t", "2", "--batch-size", "8", "--temporal", "none"),
    # the shift reads --fold and --direction
    "train-shift": ("train", "--manifest", "{synth}/manifest.jsonl", "--out", "{d}/m",
                    "--epochs", "1", "--t", "2", "--batch-size", "8", "--temporal", "shift"),
    "eval": ("eval", "--manifest", "{synth}/manifest.jsonl", "--weights", "{model}/model.sgnf"),
    "recognize": ("recognize", "--weights", "{model}/model.sgnf", "--lexicon", "{inputs}/lex.tsv",
                  "--labels", "{synth}/labels.json", "--frames", "{frames}", "--window", "4"),
    "stream": ("stream", "--weights", "{model}/model.sgnf", "--netspec", "{inputs}/netspec.json",
               "--frames", "{frames}"),
    "translate": ("translate", "--text", "我今天不吃苹果", "--lexicon", LEXICON),
    # 犬 is not in the demo lexicon, so --fallback decides; --out writes the frames
    "translate-clips": ("translate", "--text", "我不吃犬", "--lexicon", LEXICON,
                        "--clips", "{inputs}/clips/manifest.jsonl", "--out", "{d}/video"),
    "bench": ("bench", "--manifest", "{synth}/manifest.jsonl", "--variants", "shift",
              "--reps", "1"),
    # one SGD epoch: --lr and --batch-size are read
    "bench-train": ("bench", "--manifest", "{synth}/manifest.jsonl", "--variants", "shift",
                    "--reps", "1", "--epochs", "1", "--t", "2"),
    "gradcheck": ("gradcheck",),
}
# flag: a valid value unlike its default and unlike its value in any mode's argv
FLAG_VALUES = {
    "--seed": "1", "--classes": "3", "--t": "6", "--size": "12", "--train-per-class": "2",
    "--val-per-class": "1", "--test-per-class": "1", "--noise": "0.5", "--preset": "tiny",
    "--temporal": "action", "--direction": "unidirectional", "--fold": "0.25", "--epochs": "2",
    "--batch-size": "4", "--lr": "0.1", "--momentum": "0.5", "--weight-decay": "0.01",
    "--sample-mode": "random", "--split": "train", "--video-id": "test_c0_0000",
    "--window": "6", "--stride": "2", "--text": "我", "--policy": "hold-last-frame:2",
    "--fallback": "error", "--fps": "10", "--variants": "none",
}
PATH_FLAGS = ("--out", "--manifest", "--weights", "--netspec", "--lexicon", "--rules",
              "--labels", "--frames", "--clips")
# (mode, or None for every mode; flag): why the flag changes neither stdout nor a file
FLAG_EXEMPT = {
    **{(None, flag): "a path: what it changes is up to the file it names"
       for flag in PATH_FLAGS},
    (None, "--config"): "supplies other flags' defaults (TestConfigFile)",
    (None, "--profile"): "writes to stderr by design (test_profile_goes_to_stderr_only)",
    (None, "--reps"): "changes bench's timings only, besides echoing itself",
}
SHARED_FLAGS = ("--seed", "--config", "--no-timestamp", "--pretty")


def subcommand_flags() -> dict[str, dict[str, argparse.Action]]:
    """subcommand -> {long flag: its argparse action}, from the parser as built."""
    from signflow import cli
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {opt: action for action in p._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, p in sub.choices.items()}


def _flag_rows() -> list[tuple[str, str]]:
    """(mode, flag) for every flag of the mode's subcommand and every shared flag, less
    the exempt ones and a switch the mode's argv already gives."""
    flags = subcommand_flags()
    rows = []
    for mode, argv in FLAG_MODES.items():
        own = flags[argv[0]]
        for flag in dict.fromkeys([*own, *SHARED_FLAGS]):
            switch = flag in own and own[flag].nargs == 0
            if not ({(None, flag), (mode, flag)} & FLAG_EXEMPT.keys()
                    or switch and flag in argv):
                rows.append((mode, flag))
    return rows


@pytest.fixture(scope="module")
def flag_inputs(tmp_path_factory, trained):
    """A lexicon of the synthetic glosses, the trained netspec made unidirectional (the
    same weights, which stream accepts) and isolated clips of the demo lexicon."""
    d = tmp_path_factory.mktemp("flag_inputs")
    (d / "lex.tsv").write_text("".join(f"w{k}\tORDER{k}\tORDER{k}\t\n" for k in range(4)),
                               encoding="utf-8")
    spec = json.loads((trained / "netspec.json").read_text(encoding="utf-8"))
    (d / "netspec.json").write_text(json.dumps({**spec, "direction": "unidirectional"}),
                                    encoding="utf-8")
    run_cli("synth", "--lexicon", LEXICON, "--out", str(d / "clips"),
            "--t", "2", "--size", "8", "--no-timestamp")
    return d


@pytest.fixture(scope="module")
def flag_baselines():
    """mode -> the outcome of its argv alone, shared by the mode's rows."""
    return {}


def _flag_run(capsys, argv: list[str], d: Path) -> tuple[tuple, str]:
    """``cli.main`` in-process in an emptied ``d``: ((exit code, stdout, {file: bytes}
    under d), stderr)."""
    from signflow import cli
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err, captured.err
    files = {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}
    return (code, captured.out, files), captured.err


@pytest.mark.parametrize("mode, flag", _flag_rows(), ids=lambda v: v.lstrip("-"))
def test_every_flag_is_read(synth_dir, trained, flag_inputs, flag_baselines, tmp_path_factory,
                            monkeypatch, capsys, mode, flag):
    """A flag at a non-default value changes the exit code, stdout (under --no-timestamp
    where the subcommand takes it) or the files written, or argparse rejects it."""
    from signflow import cli
    monkeypatch.delenv("SIGNFLOW_SEED", raising=False)
    monkeypatch.setattr(cli, "_median_ms", lambda fn, reps: (1.0, 0.0))  # timings
    # one real gradcheck takes seconds: a stand-in that is a function of its inputs
    monkeypatch.setattr(cli, "grad_check", lambda fn, x: 1e-9 * abs(float(np.sum(x))))
    entry = json.loads((synth_dir / "manifest.jsonl").read_text().splitlines()[0])
    d = tmp_path_factory.getbasetemp() / "flag_runs" / mode
    paths = {"d": d, "synth": synth_dir, "model": trained, "inputs": flag_inputs,
             "frames": synth_dir / entry["frame_dir"]}
    base = [arg.format(**paths) for arg in FLAG_MODES[mode]]
    own = subcommand_flags()[base[0]]
    action = own.get(flag)
    if action is not None and action.nargs != 0:
        assert flag in FLAG_VALUES, f"give {flag} a value in FLAG_VALUES"
    given = [flag, FLAG_VALUES[flag]] if flag in FLAG_VALUES else [flag]
    stamp = ["--no-timestamp"] if "--no-timestamp" in own else []
    if flag == "--no-timestamp":
        without, _ = _flag_run(capsys, base, d)
    else:
        if mode not in flag_baselines:
            flag_baselines[mode], _ = _flag_run(capsys, [*base, *stamp], d)
        without = flag_baselines[mode]
        given = [*stamp, *given]
    assert without[0] == 0, f"{mode}'s argv exits {without[0]}"
    with_flag, err = _flag_run(capsys, [*base, *given], d)
    # argparse's errors exit 2 and name the program: "usage error: signflow <command>: ..."
    rejected = with_flag[0] == 2 and err.startswith("usage error: signflow")
    if action is None:  # a shared flag this subcommand does not take
        assert rejected and "unrecognized arguments" in err, f"{base[0]} accepts {flag}"
    else:
        assert not rejected, f"argparse rejects {given}: fix FLAG_VALUES"
    assert with_flag != without, f"{' '.join(base)} {' '.join(given)} changes nothing"


def test_flag_exemptions_name_flags_of_their_modes():
    flags = subcommand_flags()
    for (mode, flag), reason in FLAG_EXEMPT.items():
        modes = FLAG_MODES if mode is None else [mode]
        assert reason and any(flag in flags[FLAG_MODES[m][0]] for m in modes), (mode, flag)
