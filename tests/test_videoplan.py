import errno
import hashlib
import os
import re

import numpy as np
import numpy.testing as npt
import pytest

from signflow import videoplan
from signflow.backbone import NetSpec, StageSpec, build
from signflow.dataset import (ManifestEntry, load_manifest, make_isolated_clips, read_clip,
                              save_manifest, write_frame)
from signflow.errors import ConfigError, FrameIOError, GlossLookupError, InputError
from signflow.gloss import (GlossSequence, LexEntry, Lexicon, ReorderRule, Token,
                            reorder, segment)
from signflow.sampler import SampleSpec, segment_sample
from signflow.videoplan import (ClipIndex, RecognizeConfig, TransitionPolicy,
                                concat_frames, plan, recognize, _cut_windows)


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo")
    lex = Lexicon({
        "我": LexEntry("我", "G_WO", "G_WO", ("PRON",)),
        "不": LexEntry("不", "G_BU", "G_BU", ("NEG",)),
        "吃": LexEntry("吃", "G_CHI", "G_CHI", ("V",)),
        "苹果": LexEntry("苹果", "G_PINGGUO", "G_PINGGUO", ("N",)),
    })
    glosses = {e.gloss_id: i for i, e in
               enumerate(sorted(lex.entries.values(), key=lambda e: e.gloss_id))}
    manifest = make_isolated_clips(glosses, root, num_frames=5, seed=0)
    return {"lex": lex, "glosses": glosses, "manifest": manifest,
            "index": ClipIndex(manifest)}


def gseq(*gloss_ids, lex):
    tokens = []
    for gid in gloss_ids:
        e = lex.lookup_gloss(gid)
        tokens.append(Token(e.word, e.gloss_id, e.tags))
    return GlossSequence(tokens)


class TestPlan:
    def test_two_resolvable_glosses(self, demo):
        manifest = plan(gseq("G_WO", "G_CHI", lex=demo["lex"]), demo["lex"], demo["index"])
        assert [e.gloss_id for e in manifest.entries] == ["G_WO", "G_CHI"]
        assert manifest.total_frames == 10
        assert manifest.warnings == []

    def test_empty_sequence(self, demo):
        manifest = plan(GlossSequence([]), demo["lex"], demo["index"])
        assert manifest.entries == [] and manifest.total_frames == 0

    def test_missing_clip_skip_warns(self, demo):
        seq = GlossSequence([Token("我", "G_WO"), Token("瓜", None, ("OOV",))])
        manifest = plan(seq, demo["lex"], demo["index"], fallback="skip")
        assert len(manifest.entries) == 1
        assert manifest.warnings[0]["gloss"] == "#瓜"

    def test_missing_clip_error_lists_all(self, demo):
        seq = GlossSequence([Token("瓜", None, ("OOV",)), Token("梨", None, ("OOV",))])
        with pytest.raises(GlossLookupError, match="#瓜.*#梨"):
            plan(seq, demo["lex"], demo["index"], fallback="error")

    def test_order_preserved(self, demo):
        seq = gseq("G_PINGGUO", "G_BU", "G_WO", lex=demo["lex"])
        manifest = plan(seq, demo["lex"], demo["index"])
        assert [e.gloss_id for e in manifest.entries] == ["G_PINGGUO", "G_BU", "G_WO"]

    def test_hold_policy_counts_transitions(self, demo):
        seq = gseq("G_WO", "G_CHI", lex=demo["lex"])
        policy = TransitionPolicy("hold-last-frame", 2)
        manifest = plan(seq, demo["lex"], demo["index"], policy=policy)
        assert manifest.total_frames == 5 + 2 + 5


class TestTransitionPolicy:
    def test_parse(self):
        assert TransitionPolicy.parse("hard-cut") == TransitionPolicy()
        assert TransitionPolicy.parse("hold-last-frame:3").hold_frames == 3
        with pytest.raises(ConfigError):
            TransitionPolicy.parse("crossfade")

    def test_validation(self):
        with pytest.raises(ConfigError):
            TransitionPolicy("hard-cut", 2)
        with pytest.raises(ConfigError):
            TransitionPolicy("hold-last-frame", -1)


class TestConcatFrames:
    def test_single_clip_byte_identical(self, demo, tmp_path):
        manifest = plan(gseq("G_WO", lex=demo["lex"]), demo["lex"], demo["index"])
        entry = concat_frames(manifest, demo["index"], tmp_path / "out", video_id="v")
        assert entry.num_frames == 5
        src_dir = demo["index"].base / demo["index"].get("G_WO").frame_dir
        for i in range(5):
            src = (src_dir / f"frame_{i:05d}.pgm").read_bytes()
            dst = (tmp_path / "out" / f"frame_{i:05d}.pgm").read_bytes()
            assert src == dst

    def test_hold_last_frame_arithmetic(self, demo, tmp_path):
        seq = gseq("G_WO", "G_CHI", lex=demo["lex"])
        policy = TransitionPolicy("hold-last-frame", 2)
        manifest = plan(seq, demo["lex"], demo["index"], policy=policy)
        entry = concat_frames(manifest, demo["index"], tmp_path / "out", video_id="v")
        assert entry.num_frames == 12
        frames = sorted((tmp_path / "out").glob("frame_*.pgm"))
        assert len(frames) == 12
        # the two inserted frames equal the first clip's last frame
        last_of_first = frames[4].read_bytes()
        assert frames[5].read_bytes() == last_of_first
        assert frames[6].read_bytes() == last_of_first

    def test_recount_matches_totals_random(self, demo, tmp_path):
        rng = np.random.default_rng(4)
        ids = list(demo["glosses"])
        for trial in range(8):
            chosen = [ids[i] for i in rng.integers(0, len(ids), rng.integers(1, 5))]
            hold = int(rng.integers(0, 4))
            policy = TransitionPolicy("hold-last-frame", hold) if hold else TransitionPolicy()
            manifest = plan(gseq(*chosen, lex=demo["lex"]), demo["lex"], demo["index"],
                            policy=policy)
            out = tmp_path / f"t{trial}"
            entry = concat_frames(manifest, demo["index"], out, video_id=f"v{trial}")
            on_disk = len(list(out.glob("frame_*.pgm")))
            assert on_disk == manifest.total_frames == entry.num_frames

    def test_empty_plan_returns_none(self, demo, tmp_path):
        manifest = plan(GlossSequence([]), demo["lex"], demo["index"])
        assert concat_frames(manifest, demo["index"], tmp_path / "e") is None

    def test_output_readable_by_read_clip(self, demo, tmp_path):
        manifest = plan(gseq("G_BU", lex=demo["lex"]), demo["lex"], demo["index"])
        entry = concat_frames(manifest, demo["index"], tmp_path / "out", video_id="v")
        clip = read_clip(entry, [0, 2, 4], base=tmp_path)
        assert clip.shape == (3, 1, 32, 32)

    def test_frames_are_links_to_their_sources(self, demo, tmp_path):
        seq = gseq("G_WO", "G_CHI", lex=demo["lex"])
        manifest = plan(seq, demo["lex"], demo["index"],
                        policy=TransitionPolicy("hold-last-frame", 2))
        concat_frames(manifest, demo["index"], tmp_path / "out", video_id="v")
        for k, (clip, i) in enumerate(manifest.frames):  # a held frame links its source too
            assert os.path.samefile(tmp_path / "out" / f"frame_{k:05d}.pgm",
                                    source_frame(demo["index"], clip, i))

    def test_reassembly_writes_nothing_into_the_clip_store(self, demo, tmp_path):
        before = store_digests(demo["index"])
        manifest = plan(gseq("G_WO", "G_BU", "G_WO", lex=demo["lex"]), demo["lex"],
                        demo["index"], policy=TransitionPolicy("hold-last-frame", 1))
        for _ in range(2):
            concat_frames(manifest, demo["index"], tmp_path / "out", video_id="v")
        assert store_digests(demo["index"]) == before
        for k, (clip, i) in enumerate(manifest.frames):
            assert os.path.samefile(tmp_path / "out" / f"frame_{k:05d}.pgm",
                                    source_frame(demo["index"], clip, i))

    @pytest.mark.parametrize("code", [pytest.param(errno.EXDEV, id="EXDEV"),
                                      pytest.param(errno.EMLINK, id="EMLINK")])
    def test_frames_are_copies_where_links_fail(self, demo, tmp_path, monkeypatch, code):
        def refuse(src, dst):
            raise OSError(code, os.strerror(code), src)

        monkeypatch.setattr(videoplan.os, "link", refuse)
        manifest = plan(gseq("G_CHI", "G_CHI", lex=demo["lex"]), demo["lex"], demo["index"],
                        policy=TransitionPolicy("hold-last-frame", 1))
        for _ in range(2):  # the second run replaces copies, it does not write into them
            entry = concat_frames(manifest, demo["index"], tmp_path / "out", video_id="v")
        assert entry.num_frames == 11
        for k, (clip, i) in enumerate(manifest.frames):
            out = tmp_path / "out" / f"frame_{k:05d}.pgm"
            src = source_frame(demo["index"], clip, i)
            assert out.read_bytes() == src.read_bytes()
            assert not os.path.samefile(out, src)

    def test_missing_source_frame_names_the_clip_directory(self, demo, tmp_path):
        clip = demo["index"].get("G_WO")
        src_dir = demo["index"].base / clip.frame_dir
        index = clip_index(tmp_path, [ManifestEntry("G_WO", str(src_dir), clip.num_frames + 1,
                                                    0, "train")])
        manifest = plan(gseq("G_WO", lex=demo["lex"]), demo["lex"], index)
        with pytest.raises(FrameIOError, match=re.escape(f"{src_dir}: no frame_00005.pgm/.ppm")):
            concat_frames(manifest, index, tmp_path / "out")

    def test_longer_then_shorter_leaves_only_the_plan_frames(self, demo, tmp_path):
        before = store_digests(demo["index"])
        out = tmp_path / "v" / "frames"
        (out / "notes.txt").parent.mkdir(parents=True)
        (out / "notes.txt").write_text("kept")
        for glosses, count in ((("G_BU", "G_WO", "G_CHI", "G_PINGGUO"), 20), (("G_WO",), 5)):
            manifest = plan(gseq(*glosses, lex=demo["lex"]), demo["lex"], demo["index"])
            entry = concat_frames(manifest, demo["index"], out, video_id="v")
            assert entry.num_frames == count
            assert sorted(p.name for p in out.glob("frame_*")) == \
                [f"frame_{k:05d}.pgm" for k in range(count)]
        assert (out / "notes.txt").read_text() == "kept"
        assert store_digests(demo["index"]) == before  # G_BU's frames were replaced, not written

    def test_ppm_then_pgm_leaves_only_the_plan_frames(self, demo, tmp_path):
        rgb = tmp_path / "rgb"
        (rgb / "G_WO").mkdir(parents=True)
        for i in range(3):
            write_frame(rgb / "G_WO" / f"frame_{i:05d}.ppm", np.full((3, 4, 4), 0.5))
        index = clip_index(rgb, [ManifestEntry("G_WO", "G_WO", 3, 0, "train")])
        out = tmp_path / "v" / "frames"
        ppm = concat_frames(plan(gseq("G_WO", lex=demo["lex"]), demo["lex"], index), index, out)
        assert sorted(p.name for p in out.iterdir()) == [f"frame_{k:05d}.ppm" for k in range(3)]
        assert read_clip(ppm, [0], base=out.parent).shape == (1, 3, 4, 4)
        manifest = plan(gseq("G_BU", lex=demo["lex"]), demo["lex"], demo["index"])
        pgm = concat_frames(manifest, demo["index"], out)
        assert sorted(p.name for p in out.iterdir()) == [f"frame_{k:05d}.pgm" for k in range(5)]
        assert read_clip(pgm, [0], base=out.parent).shape == (1, 1, 32, 32)

    def test_assembly_into_a_clip_directory_is_refused(self, demo, tmp_path):
        before = store_digests(demo["index"])
        clip = demo["index"].get("G_BU")
        manifest = plan(gseq("G_BU", lex=demo["lex"]), demo["lex"], demo["index"])
        with pytest.raises(FrameIOError, match="is the frame directory of clip 'G_BU'"):
            concat_frames(manifest, demo["index"], demo["index"].base / clip.frame_dir)
        assert store_digests(demo["index"]) == before


def source_frame(index, clip, i):
    return index.base / clip.frame_dir / f"frame_{i:05d}.pgm"


def store_digests(index) -> dict:
    """sha256 of every file under the clip store, by path."""
    return {p: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(index.base.rglob("*")) if p.is_file()}


def clip_index(root, entries) -> ClipIndex:
    root.mkdir(parents=True, exist_ok=True)
    save_manifest(root / "clips.jsonl", entries)
    return ClipIndex(root / "clips.jsonl")


class OracleModel:
    """Decodes the isolated-clip intensity signature; infer protocol only."""

    def __init__(self, k):
        class _Spec:
            pass

        self.spec = _Spec()
        self.spec.num_classes = k
        self.spec.t = 5
        self.k = k
        self.dtype = np.float32

    def infer(self, clips):
        clips = np.asarray(clips)
        logits = np.zeros((clips.shape[0], self.k), dtype=np.float32)
        for i, clip in enumerate(clips):
            h, w = clip.shape[-2:]
            patch = clip[:, 0, h // 4: 3 * h // 4, w // 4: 3 * w // 4]
            label = int(round(float(np.median(patch)) * (self.k + 1))) - 1
            logits[i, max(0, min(self.k - 1, label))] = 10.0
        return logits


class TestRecognize:
    def test_oracle_on_isolated_clip(self, demo):
        entries, labels = load_manifest(demo["manifest"])
        model = OracleModel(len(labels))
        spec = SampleSpec(num_segments=5, mode="eval-center")
        for entry in entries:
            out = recognize(entry, model, demo["lex"], [], spec,
                            base=demo["manifest"].parent, label_map=labels)
            assert out["glosses"] == [entry.video_id]
        # text of a single known gloss is its surface word
        out = recognize(entries[0], model, demo["lex"], [], spec,
                        base=demo["manifest"].parent, label_map=labels)
        assert set(out) == {"text", "glosses", "windows"}
        assert out["text"] == demo["lex"].lookup_gloss(entries[0].video_id).word

    def test_deterministic(self, demo):
        entries, labels = load_manifest(demo["manifest"])
        model = OracleModel(len(labels))
        spec = SampleSpec(num_segments=5, mode="eval-center")
        a = recognize(entries[0], model, demo["lex"], [], spec,
                      base=demo["manifest"].parent, label_map=labels)
        b = recognize(entries[0], model, demo["lex"], [], spec,
                      base=demo["manifest"].parent, label_map=labels)
        assert a == b

    def test_label_map_mismatch_rejected(self, demo):
        entries, labels = load_manifest(demo["manifest"])
        model = OracleModel(len(labels))
        spec = SampleSpec(num_segments=5)
        bad = dict(labels)
        bad["G_NOPE"] = bad.pop("G_WO")
        with pytest.raises(ConfigError, match="G_NOPE"):
            recognize(entries[0], model, demo["lex"], [], spec,
                      base=demo["manifest"].parent, label_map=bad)

    def test_windows(self):
        assert _cut_windows(10, RecognizeConfig()) == [(0, 10)]
        assert _cut_windows(10, RecognizeConfig(window=5)) == [(0, 5), (5, 5)]
        assert _cut_windows(12, RecognizeConfig(window=5, stride=5)) == \
            [(0, 5), (5, 5), (10, 2)]
        with pytest.raises(InputError):
            _cut_windows(0, RecognizeConfig())

    def test_end_to_end_translate_then_recognize(self, demo, tmp_path):
        # text -> statute glosses -> frames -> recognized glosses (exact)
        lex = demo["lex"]
        rules = [ReorderRule("neg", 10, "move-to-end", tag="NEG")]
        text = "我不吃苹果"
        seq = reorder(segment(text, lex), rules)
        assert seq.gloss_ids == ["G_WO", "G_CHI", "G_PINGGUO", "G_BU"]
        manifest = plan(seq, lex, demo["index"])
        entry = concat_frames(manifest, demo["index"], tmp_path / "video", video_id="e2e")
        entries, labels = load_manifest(demo["manifest"])
        model = OracleModel(len(labels))
        out = recognize(entry, model, lex, rules,
                        SampleSpec(num_segments=5, mode="eval-center"),
                        base=tmp_path, label_map=labels,
                        cfg=RecognizeConfig(window=5, stride=5))
        assert out["glosses"] == ["G_WO", "G_CHI", "G_PINGGUO", "G_BU"]

    @pytest.mark.parametrize("temporal,seed", [("shift", 3), ("action", 0)])
    def test_batched_matches_per_window(self, demo, tmp_path, temporal, seed):
        # 20 frames, window 5, stride 2: 9 windows, the last one 4 frames long;
        # T = 4, so infer sees chunks of 4, 4 and 1 windows
        lex = demo["lex"]
        manifest = plan(gseq("G_WO", "G_CHI", "G_PINGGUO", "G_BU", lex=lex), lex, demo["index"])
        entry = concat_frames(manifest, demo["index"], tmp_path / "video", video_id="v")
        _, labels = load_manifest(demo["manifest"])
        model = build(NetSpec.micro(len(labels), temporal=temporal, t=4), seed=seed)
        rng = np.random.default_rng(seed + 10)
        for p in model.parameters():  # nonzero biases, so windows differ in class
            p.data = p.data + rng.normal(0, 1.0, p.shape).astype(p.data.dtype)
        spec = SampleSpec(num_segments=4, mode="eval-center")
        cfg = RecognizeConfig(window=5, stride=2)
        out = recognize(entry, model, lex, [], spec, base=tmp_path, label_map=labels, cfg=cfg)
        inv = {cls: gid for gid, cls in labels.items()}
        expected = []
        for start, length in _cut_windows(entry.num_frames, cfg):
            clip = read_clip(entry, [start + i for i in segment_sample(length, spec)],
                             base=tmp_path)
            cls = int(np.argmax(model.infer(clip[None])[0]))
            expected.append({"start": start, "length": length, "class": cls,
                             "gloss": inv[cls]})
        assert len(expected) == 9 and expected[-1]["length"] == 4
        assert len({w["class"] for w in expected}) > 1
        assert out["windows"] == expected


LEX_WO = Lexicon({"我": LexEntry("我", "G_WO", "G_WO")})
# safety checks of planning and assembly: id -> (call of a directory whose clips.jsonl lists
# clip G_WO, whose frame directory is not there; error type; what the message holds, with
# {d} for the directory)
VIDEOPLAN_ERRORS = {
    "policy-unknown-kind": (lambda d: TransitionPolicy("crossfade"), ConfigError,
                            "unknown transition policy 'crossfade'"),
    "plan-unknown-fallback": (lambda d: plan(gseq("G_WO", lex=LEX_WO), LEX_WO,
                                             ClipIndex(d / "clips.jsonl"), fallback="guess"),
                              ConfigError, "unknown fallback 'guess'"),
    "concat-missing-clip-dir": (lambda d: concat_frames(
                                    plan(gseq("G_WO", lex=LEX_WO), LEX_WO,
                                         ClipIndex(d / "clips.jsonl")),
                                    ClipIndex(d / "clips.jsonl"), d / "video"),
                                FrameIOError, "{d}/G_WO: no frame_00000.pgm/.ppm"),
}


@pytest.mark.parametrize("row", list(VIDEOPLAN_ERRORS))
def test_typed_error(tmp_path, row):
    call, error, needle = VIDEOPLAN_ERRORS[row]
    save_manifest(tmp_path / "clips.jsonl", [ManifestEntry("G_WO", "G_WO", 1, 0, "train")])
    with pytest.raises(error) as info:
        call(tmp_path)
    assert needle.format(d=tmp_path) in str(info.value)
