import hashlib
import json
import os
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from signflow.dataset import (ManifestEntry, SynthSpec, base_frames, class_orders,
                              load_clip_dataset, load_manifest, make_isolated_clips, read_clip,
                              read_frame, read_json, save_manifest, synth_temporal, write_frame)
from signflow.errors import ConfigError, FrameIOError, InputError, ParseError
from signflow.gloss import GlossSequence, LexEntry, Lexicon, Token
from signflow.sampler import SampleSpec
from signflow.tensor import load_weights, save_weights
from signflow.videoplan import ClipIndex, concat_frames, plan


class TestFrameIO:
    def test_roundtrip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.uniform(0, 1, (1, 6, 9))
        p = tmp_path / "frame_00000.pgm"
        write_frame(p, frame)
        back = read_frame(p)
        assert back.shape == (1, 6, 9)
        assert np.abs(back - frame).max() <= 1 / 255

    def test_rgb_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        frame = rng.uniform(0, 1, (3, 4, 5))
        p = tmp_path / "frame_00000.ppm"
        write_frame(p, frame)
        back = read_frame(p)
        assert back.shape == (3, 4, 5)
        assert np.abs(back - frame).max() <= 1 / 255

    def test_black_frame_reads_zero(self, tmp_path):
        p = tmp_path / "frame_00000.pgm"
        write_frame(p, np.zeros((1, 4, 4)))
        npt.assert_array_equal(read_frame(p), np.zeros((1, 4, 4)))

    def test_write_is_deterministic(self, tmp_path):
        frame = np.random.default_rng(2).uniform(0, 1, (1, 8, 8))
        write_frame(tmp_path / "a.pgm", frame)
        write_frame(tmp_path / "b.pgm", frame)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_hw_frame_is_written_as_one_channel(self, tmp_path):
        frame = np.random.default_rng(3).uniform(0, 1, (4, 6))
        write_frame(tmp_path / "hw.pgm", frame)
        write_frame(tmp_path / "chw.pgm", frame[None])
        assert (tmp_path / "hw.pgm").read_bytes() == (tmp_path / "chw.pgm").read_bytes()
        assert read_frame(tmp_path / "hw.pgm").shape == (1, 4, 6)

    def test_unreadable_frame_carries_path(self, tmp_path):
        with pytest.raises(FrameIOError, match="nope"):
            read_frame(tmp_path / "nope.pgm")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"GIF89a....")
        with pytest.raises(FrameIOError, match="magic"):
            read_frame(p)

    @pytest.mark.parametrize("raw,match", [
        (b"P5\n32", "header field b''"),
        (b"P5\n4 x\n255\n", "header field b'x'"),
        (b"P5\n4 4\n255\nab", "truncated raster \\(2 of 16"),
        (b"P5\n4 4\n255", "truncated raster \\(0 of 16"),
        (b"P5\n0 4\n255\n", "empty raster"),
        (b"P5\n# c", "unterminated comment"),
    ])
    def test_malformed_header_or_raster_names_file(self, tmp_path, raw, match):
        p = tmp_path / "frame_00000.pgm"
        p.write_bytes(raw)
        with pytest.raises(FrameIOError, match=match) as info:
            read_frame(p)
        assert str(p) in str(info.value)

    def test_header_comment_line_is_skipped(self, tmp_path):
        p = tmp_path / "frame_00000.pgm"
        p.write_bytes(b"P5\n# written by hand\n2 1\n255\n" + bytes([0, 255]))
        npt.assert_array_equal(read_frame(p), [[[0.0, 1.0]]])

    def test_header_field_too_long_for_int(self, tmp_path):
        p = tmp_path / "frame_00000.pgm"
        p.write_bytes(b"P5\n" + b"1" * 5000 + b" 4\n255\n")
        with pytest.raises(FrameIOError, match="header field of 5000 digits") as info:
            read_frame(p)
        assert str(p) in str(info.value)


def parser_decode(raw: bytes, path) -> np.ndarray:
    """The full header parser's decode: each level as float64, divided by 255."""
    from signflow.dataset import _parse_header
    channels, w, h, pos = _parse_header(raw, path)
    pixels = np.frombuffer(raw, dtype=np.uint8, count=w * h * channels, offset=pos)
    if channels == 1:
        return pixels.reshape(1, h, w).astype(np.float64) / 255.0
    return np.moveaxis(pixels.reshape(h, w, 3), 2, 0).astype(np.float64) / 255.0


def header_parses(monkeypatch) -> list:
    """Record each call of the full header parser (the fallback of the plain one)."""
    from signflow import dataset
    calls, parse = [], dataset._parse_header
    monkeypatch.setattr(dataset, "_parse_header",
                        lambda raw, path: calls.append(path) or parse(raw, path))
    return calls


class TestPlainHeader:
    @settings(max_examples=60, deadline=None)
    @given(channels=st.sampled_from([1, 3]), h=st.integers(1, 12), w=st.integers(1, 12),
           ws=st.lists(st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c"]),
                       min_size=4, max_size=4),
           tail=st.binary(max_size=3), seed=st.integers(0, 2**16))
    def test_plain_header_decodes_as_the_parser_does(self, tmp_path_factory, channels, h, w,
                                                      ws, tail, seed):
        from signflow import dataset
        pixels = np.random.default_rng(seed).integers(0, 256, w * h * channels, dtype=np.uint8)
        raw = (b"P5" if channels == 1 else b"P6") + ws[0] + b"%d" % w + ws[1] + b"%d" % h + \
            ws[2] + b"255" + ws[3] + pixels.tobytes() + tail
        d = tmp_path_factory.mktemp("v")
        path = d / f"frame_00000.{'pgm' if channels == 1 else 'ppm'}"
        path.write_bytes(raw)
        assert dataset._PLAIN_HEADER.match(raw)  # the fast path, not the fallback
        want = parser_decode(raw, path)
        got = read_frame(path)
        assert got.dtype == np.float64 and got.shape == (channels, h, w)
        npt.assert_array_equal(got, want)
        entry = ManifestEntry("v", str(d), 1, 0, "train")
        for dtype in (np.float64, np.float32):
            clip = read_clip(entry, [0, 0], dtype=dtype)
            assert clip.dtype == dtype and clip.shape == (2, channels, h, w)
            npt.assert_array_equal(clip, np.stack([want, want]).astype(dtype))

    def test_plain_header_does_not_reach_the_parser(self, tmp_path, monkeypatch):
        p = tmp_path / "frame_00000.pgm"
        write_frame(p, np.full((1, 3, 2), 0.5))
        calls = header_parses(monkeypatch)
        read_frame(p)
        assert calls == []

    @pytest.mark.parametrize("raw,match", [
        (b"P5\n# by hand\n2 1\n255\n\x00\xff", None),
        (b"P5  2 1\n255\n\x00\xff", None),
        (b"P5 2 1 \n255\n\x00\xff", None),
        (b"P5 02 1 255\n\x00\xff", None),
        (b"P6 1 01 255\n\x01\x02\x03", None),
        (b"P5 2 1 0255\n\x00\xff", None),
        (b"P5 2 1 254\n\x00\xff", "only 8-bit rasters supported, maxval 254"),
        (b"P5 2 1 65535\n\x00\xff\x00\xff", "only 8-bit rasters supported, maxval 65535"),
        (b"P5 1234567890 1 255\n\x00", "truncated raster (1 of 1234567890 bytes)"),
        (b"P5 1 0000000001 255\n\x07", None),
        (b"P5 2 2 255\n\x00\x01\x02", "truncated raster (3 of 4 bytes)"),
        (b"P6 2 1 255\n\x00\x01\x02", "truncated raster (3 of 6 bytes)"),
        (b"P5 0 1 255\n", "empty raster (0x1)"),
    ], ids=["comment", "two-spaces", "space-before-newline", "leading-zero", "leading-zero-p6",
            "maxval-leading-zero", "maxval-254", "maxval-16-bit", "field-of-10-digits",
            "ten-digit-one", "truncated-p5", "truncated-p6", "zero-width"])
    def test_other_headers_reach_the_parser(self, tmp_path, monkeypatch, raw, match):
        p = tmp_path / "frame_00000.pgm"
        p.write_bytes(raw)
        want = parser_decode(raw, p) if match is None else None
        calls = header_parses(monkeypatch)
        if match is None:
            npt.assert_array_equal(read_frame(p), want)
        else:
            with pytest.raises(FrameIOError) as info:
                read_frame(p)
            assert str(info.value) == f"{p}: {match}"
        assert calls == [p]

    def test_a_directory_named_as_a_frame_is_a_directory(self, tmp_path):
        d = tmp_path / "v"
        (d / "frame_00000.pgm").mkdir(parents=True)
        with pytest.raises(FrameIOError) as info:
            read_frame(d / "frame_00000.pgm")
        assert str(info.value) == f"{d / 'frame_00000.pgm'}: Is a directory"
        with pytest.raises(FrameIOError) as info:
            read_clip(ManifestEntry("v", "v", 1, 0, "train"), [0], base=tmp_path)
        assert str(info.value) == f"{d / 'frame_00000.pgm'}: Is a directory"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failing_reads_leak_no_fd(self, tmp_path):
        d = tmp_path / "v"
        (d / "frame_00000.pgm").mkdir(parents=True)        # os.read fails
        (d / "frame_00001.pgm").write_bytes(b"P5 2 2 255\n")  # read, then rejected
        entry = ManifestEntry("v", "v", 3, 0, "train")       # frame 2 is missing
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            for index in range(3):
                with pytest.raises(FrameIOError):
                    read_clip(entry, [index], base=tmp_path)
            with pytest.raises(FrameIOError):
                read_frame(d / "frame_00000.pgm")
        assert len(os.listdir("/proc/self/fd")) == before

    def test_large_frame_is_read_to_the_end(self, tmp_path):
        p = tmp_path / "frame_00000.ppm"
        frame = np.random.default_rng(4).uniform(0, 1, (3, 200, 150))  # over one read chunk
        write_frame(p, frame)
        npt.assert_array_equal(read_frame(p), parser_decode(p.read_bytes(), p))

    def test_empty_index_list_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match="no frame indices"):
            read_clip(ManifestEntry("v", "v", 1, 0, "train"), [], base=tmp_path)


class TestManifest:
    def entry(self, vid="v1", **kw):
        defaults = dict(video_id=vid, frame_dir=f"vids/{vid}", num_frames=8,
                        label=0, split="train")
        defaults.update(kw)
        return ManifestEntry(**defaults)

    def test_empty_file_empty_list(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        entries, labels = load_manifest(p)
        assert entries == [] and labels is None

    def test_single_line_roundtrip(self, tmp_path):
        p = tmp_path / "m.jsonl"
        save_manifest(p, [self.entry()], {"HELLO": 0})
        entries, labels = load_manifest(p)
        assert entries == [self.entry()]
        assert labels == {"HELLO": 0}

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "m.jsonl"
        lines = [self.entry(f"v{i}").to_json() for i in range(6)]
        lines[6 - 4] = self.entry("dup").to_json()
        lines.append(self.entry("dup").to_json())
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"line 3.*") as exc:
            load_manifest(p)
        assert ":7:" in str(exc.value) or "line 7" in str(exc.value) or "7" in str(exc.value)

    def test_malformed_line_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text(self.entry().to_json() + "\n{not json}\n")
        with pytest.raises(ParseError, match=":2:"):
            load_manifest(p)

    @pytest.mark.parametrize("labels", ["{not json", "[0, 1]", '{"HELLO": "zero"}',
                                        '{"\xff": 0}'])
    def test_malformed_labels_names_file(self, tmp_path, labels):
        p = tmp_path / "m.jsonl"
        save_manifest(p, [self.entry()])
        # latin-1 writes the last case's \xff as one byte, which is not UTF-8
        (tmp_path / "labels.json").write_text(labels, encoding="latin-1")
        with pytest.raises(ParseError) as exc:
            load_manifest(p)
        assert str(tmp_path / "labels.json") in str(exc.value)

    def test_lossless_roundtrip(self, tmp_path):
        entries = [self.entry(f"v{i}", label=i % 3, split=s)
                   for i, s in enumerate(["train", "val", "test", "train"])]
        p = tmp_path / "m.jsonl"
        save_manifest(p, entries)
        loaded, _ = load_manifest(p)
        assert loaded == entries


class TestReadClip:
    def test_repeated_indices_identical_frames(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        rng = np.random.default_rng(3)
        for i in range(4):
            write_frame(d / f"frame_{i:05d}.pgm", rng.uniform(0, 1, (1, 6, 6)))
        entry = ManifestEntry("v", "v", 4, 0, "train")
        clip = read_clip(entry, [0, 0, 0], base=tmp_path)
        assert clip.shape == (3, 1, 6, 6)
        npt.assert_array_equal(clip[0], clip[1])
        npt.assert_array_equal(clip[0], clip[2])

    def test_each_index_is_decoded(self, tmp_path, monkeypatch):
        from signflow import dataset
        d = tmp_path / "v"
        d.mkdir()
        for i in range(2):
            write_frame(d / f"frame_{i:05d}.pgm", np.full((1, 4, 4), 0.2 * (i + 1)))
        decoded = []
        read_indexed = dataset._read_indexed
        monkeypatch.setattr(dataset, "_read_indexed",
                            lambda stem, frame_dir, index: decoded.append(index) or
                            read_indexed(stem, frame_dir, index))
        clip = read_clip(ManifestEntry("v", "v", 2, 0, "train"), [1, 0, 1, 1], base=tmp_path)
        assert decoded == [1, 0, 1, 1]
        npt.assert_array_equal(clip[[0, 2, 3]], np.broadcast_to(clip[0], (3, 1, 4, 4)))

    def test_out_of_range_index(self, tmp_path):
        entry = ManifestEntry("v", "v", 4, 0, "train")
        with pytest.raises(InputError):
            read_clip(entry, [4], base=tmp_path)

    def test_resize_nearest(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        write_frame(d / "frame_00000.pgm", np.ones((1, 16, 16)) * 0.5)
        entry = ManifestEntry("v", "v", 1, 0, "train")
        clip = read_clip(entry, [0], base=tmp_path, size=(8, 8))
        assert clip.shape == (1, 1, 8, 8)
        npt.assert_allclose(clip, 0.5, atol=1 / 255)


    @pytest.mark.parametrize("second, size", [
        ((3, 6, 6), (4, 4)),   # gray then RGB, resized to one size
        ((1, 5, 6), None),     # two sizes, read as they are
    ])
    def test_frames_of_two_shapes_name_the_directory(self, tmp_path, second, size):
        d = tmp_path / "v"
        d.mkdir()
        write_frame(d / "frame_00000.pgm", np.zeros((1, 6, 6)))
        write_frame(d / f"frame_00001.{'ppm' if second[0] == 3 else 'pgm'}", np.zeros(second))
        entry = ManifestEntry("v", "v", 2, 0, "train")
        first = (1, *(size or (6, 6)))
        other = (second[0], *(size or second[1:]))
        with pytest.raises(FrameIOError, match=re.escape(
                f"{d}: frame 1 has shape {other}, frame 0 has {first}")):
            read_clip(entry, [0, 1], base=tmp_path, size=size)

    def test_each_index_tries_pgm_then_ppm(self, tmp_path):
        d = tmp_path / "v"
        d.mkdir()
        write_frame(d / "frame_00000.ppm", np.full((3, 4, 4), 0.2))
        write_frame(d / "frame_00000.pgm", np.full((1, 4, 4), 0.4))  # wins over the .ppm
        write_frame(d / "frame_00001.ppm", np.full((3, 4, 4), 0.6))
        entry = ManifestEntry("v", "v", 2, 0, "train")
        assert read_clip(entry, [0], base=tmp_path).shape == (1, 1, 4, 4)
        npt.assert_allclose(read_clip(entry, [1], base=tmp_path), 0.6, atol=1 / 255)

    @pytest.mark.parametrize("make_dir", [
        pytest.param(lambda d: d.mkdir(), id="frame_missing"),
        pytest.param(lambda d: None, id="dir_missing"),
        pytest.param(lambda d: d.write_bytes(b""), id="dir_is_a_file"),
    ])
    def test_missing_frame_names_the_directory(self, tmp_path, make_dir):
        d = tmp_path / "v"
        make_dir(d)
        entry = ManifestEntry("v", "v", 2, 0, "train")
        with pytest.raises(FrameIOError, match=re.escape(f"{d}: no frame_00001.pgm/.ppm")):
            read_clip(entry, [1], base=tmp_path)

    def test_unreadable_frame_names_the_file(self, tmp_path):
        d = tmp_path / "v"
        (d / "frame_00000.pgm").mkdir(parents=True)  # found, but not a file
        entry = ManifestEntry("v", "v", 1, 0, "train")
        with pytest.raises(FrameIOError, match=re.escape(f"{d / 'frame_00000.pgm'}: ")):
            read_clip(entry, [0], base=tmp_path)

    @pytest.mark.parametrize("base,frame_dir,named", [
        (".", "v", "v"), (".", "./v/", "v"), ("./", "v//", "v"), ("", "v", "v"),
        ("data", "./v", "data/v"), ("data/", "v", "data/v"), ("elsewhere", "{abs}", "{abs}"),
    ])
    def test_messages_name_the_directory_as_pathlib_does(self, tmp_path, monkeypatch, base,
                                                         frame_dir, named):
        monkeypatch.chdir(tmp_path)
        for d in ("v", "data/v"):
            (tmp_path / d).mkdir(parents=True)
            (tmp_path / d / "frame_00000.pgm").write_bytes(b"xx")
        frame_dir, named = (s.format(abs=tmp_path / "v") for s in (frame_dir, named))
        entry = ManifestEntry("v", frame_dir, 2, 0, "train")
        for _ in range(2):  # the second read reuses the first one's path
            with pytest.raises(FrameIOError) as info:
                read_clip(entry, [1], base=base)
            assert str(info.value) == f"{named}: no frame_00001.pgm/.ppm"
            with pytest.raises(FrameIOError) as info:
                read_clip(entry, [0], base=base)
            assert str(info.value) == (f"{named}/frame_00000.pgm: not a binary PGM/PPM file "
                                       f"(magic b'xx')")


class TestSynthTemporal:
    def test_class_frame_multisets_match(self, tmp_path):
        spec = SynthSpec(num_classes=3, t=4, frame_size=(16, 16),
                         clips_per_class={"train": 1}, noise=0.0, seed=5)
        manifest = synth_temporal(spec, tmp_path / "ds")
        entries, labels = load_manifest(manifest)
        assert len(entries) == 3
        base = manifest.parent
        clips = [read_clip(e, list(range(4)), base=base) for e in entries]
        # noiseless clips of different classes are frame-wise permutations
        sorted_frames = [sorted(f.tobytes() for f in clip) for clip in clips]
        assert sorted_frames[0] == sorted_frames[1] == sorted_frames[2]
        # but the clips themselves differ (different order)
        assert clips[0].tobytes() != clips[1].tobytes()

    def test_histogram_equality_zero_noise(self, tmp_path):
        spec = SynthSpec(num_classes=2, t=4, frame_size=(16, 16),
                         clips_per_class={"train": 1}, noise=0.0, seed=6)
        manifest = synth_temporal(spec, tmp_path / "ds")
        entries, _ = load_manifest(manifest)
        clips = [read_clip(e, list(range(4)), base=manifest.parent) for e in entries]
        h0 = np.histogram(clips[0], bins=16, range=(0, 1))[0]
        h1 = np.histogram(clips[1], bins=16, range=(0, 1))[0]
        npt.assert_array_equal(h0, h1)

    def test_regeneration_byte_identical(self, tmp_path):
        spec = SynthSpec(num_classes=2, t=4, frame_size=(8, 8),
                         clips_per_class={"train": 2, "test": 1}, noise=0.05, seed=7)
        m1 = synth_temporal(spec, tmp_path / "a")
        m2 = synth_temporal(spec, tmp_path / "b")
        files1 = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                        if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                        if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_class_balance_exact(self, tmp_path):
        spec = SynthSpec(num_classes=4, t=8, clips_per_class={"train": 3, "test": 2},
                         noise=0.01, seed=8)
        manifest = synth_temporal(spec, tmp_path / "ds")
        entries, _ = load_manifest(manifest)
        for split, per_class in (("train", 3), ("test", 2)):
            for label in range(4):
                got = sum(1 for e in entries if e.split == split and e.label == label)
                assert got == per_class

    def test_distinct_orders_enforced(self):
        with pytest.raises(ConfigError):
            SynthSpec(num_classes=3, t=2)  # only 2 orderings of 2 cells
        orders = class_orders(SynthSpec(num_classes=4, t=8, seed=1))
        assert len({tuple(o) for o in orders}) == 4
        assert orders[0] == list(range(8))

    def test_base_frames_share_multiset(self):
        frames = base_frames(SynthSpec(num_classes=2, t=4, frame_size=(16, 16)))
        # every frame lights exactly one cell with the same area
        areas = [(f > 0).sum() for f in frames]
        assert len(set(areas)) == 1


class TestIsolatedClips:
    def test_clips_decodable_by_intensity(self, tmp_path):
        glosses = {"G_A": 0, "G_B": 1, "G_C": 2}
        manifest = make_isolated_clips(glosses, tmp_path, num_frames=4, seed=0)
        entries, labels = load_manifest(manifest)
        assert labels == glosses
        for entry in entries:
            clip = read_clip(entry, [0], base=manifest.parent)
            patch = clip[0, 0, 8:24, 8:24]
            level = round(float(np.median(patch)) * 4) - 1
            assert level == entry.label


class TestLoadClipDataset:
    def test_split_selection_and_shapes(self, tmp_path):
        spec = SynthSpec(num_classes=2, t=4, frame_size=(16, 16),
                         clips_per_class={"train": 2, "test": 1}, noise=0.0, seed=9)
        manifest = synth_temporal(spec, tmp_path / "ds")
        ss = SampleSpec(num_segments=4, mode="eval-center")
        train_ds = load_clip_dataset(manifest, "train", ss)
        test_ds = load_clip_dataset(manifest, "test", ss)
        assert len(train_ds) == 4 and len(test_ds) == 2
        clip, label = train_ds[0]
        assert clip.shape == (4, 1, 16, 16) and label in (0, 1)

    def test_float32_load_equals_float64_load_cast(self, tmp_path):
        spec = SynthSpec(num_classes=2, t=4, frame_size=(16, 16), clips_per_class={"train": 2},
                         noise=0.1, seed=3)
        manifest = synth_temporal(spec, tmp_path / "ds")
        ss = SampleSpec(num_segments=4, mode="eval-center")
        wide = load_clip_dataset(manifest, "train", ss)
        narrow = load_clip_dataset(manifest, "train", ss, dtype=np.float32)
        assert [label for _, label in narrow] == [label for _, label in wide]
        for (clip32, _), (clip64, _) in zip(narrow, wide):
            assert clip64.dtype == np.float64 and clip32.dtype == np.float32
            npt.assert_array_equal(clip32, clip64.astype(np.float32))

    def test_missing_split_rejected(self, tmp_path):
        spec = SynthSpec(num_classes=2, t=4, clips_per_class={"train": 1}, seed=10)
        manifest = synth_temporal(spec, tmp_path / "ds")
        with pytest.raises(InputError):
            load_clip_dataset(manifest, "val", SampleSpec(num_segments=4))


# safety checks of frame writing and synthesis: id -> (call of a directory, error type, what
# the message holds, with {d} for the directory)
DATASET_ERRORS = {
    "write-frame-4d": (lambda d: write_frame(d / "f.pgm", np.zeros((1, 1, 4, 4))), FrameIOError,
                       "{d}/f.pgm: frame must be [H,W] or [C,H,W] with 1 or 3 channels"),
    "write-frame-two-channels": (lambda d: write_frame(d / "f.pgm", np.zeros((2, 4, 4))),
                                 FrameIOError, "{d}/f.pgm: frame must be [H,W] or [C,H,W]"),
    "write-frame-unwritable": (lambda d: write_frame(d / "no" / "f.pgm", np.zeros((4, 4))),
                               FrameIOError, "{d}/no/f.pgm: No such file or directory"),
    "synth-unknown-split": (lambda d: SynthSpec(num_classes=2, t=4, frame_size=(8, 8),
                                                clips_per_class={"dev": 1}),
                            ConfigError, "unknown split 'dev'"),
}


@pytest.mark.parametrize("row", list(DATASET_ERRORS))
def test_typed_error(tmp_path, row):
    call, error, needle = DATASET_ERRORS[row]
    with pytest.raises(error) as info:
        call(tmp_path)
    assert needle.format(d=tmp_path) in str(info.value)


def _assemble(d, copies: int) -> None:
    """Assemble ``copies`` repeats of one 2-frame clip into d/v/frames, so the
    plan d/v/v.plan.json shrinks with ``copies``."""
    clips = d / "clips"
    if not clips.exists():
        make_isolated_clips({"G_A": 0}, clips, num_frames=2)
    index = ClipIndex(clips / "manifest.jsonl")
    lex = Lexicon({"a": LexEntry("a", "G_A", "G_A")})
    manifest = plan(GlossSequence([Token("a", "G_A")] * copies), lex, index)
    concat_frames(manifest, index, d / "v" / "frames", video_id="v")


def _entries(count: int) -> list[ManifestEntry]:
    return [ManifestEntry(f"v{i}", f"v{i}", 8, 0, "train") for i in range(count)]


# an artifact rewritten with fewer bytes: id -> (path under a directory, a long write and a
# short write of that directory, a reader of the path whose result is compared)
REWRITES = {
    "frame": ("f.pgm",
              lambda d: write_frame(d / "f.pgm", np.full((32, 32), 0.5)),
              lambda d: write_frame(d / "f.pgm", np.full((8, 8), 0.25)),
              lambda p: read_frame(p).tolist()),
    "manifest": ("m.jsonl",
                 lambda d: save_manifest(d / "m.jsonl", _entries(5), {"A": 0, "B": 1}),
                 lambda d: save_manifest(d / "m.jsonl", _entries(1), {"A": 0}),
                 load_manifest),
    "plan": ("v/v.plan.json", lambda d: _assemble(d, 4), lambda d: _assemble(d, 1), read_json),
    "weights": ("w.sgnf",
                lambda d: save_weights(d / "w.sgnf", {"a": np.ones((4, 4)), "b": np.zeros(3)}),
                lambda d: save_weights(d / "w.sgnf", {"a": np.ones(2)}),
                lambda p: {k: v.tolist() for k, v in load_weights(p).items()}),
}


@pytest.mark.parametrize("row", list(REWRITES))
def test_rewrite_is_in_place_and_cut_to_length(tmp_path, row):
    """A shorter rewrite keeps the inode and leaves the bytes of a fresh write:
    nothing of the longer file is left after them (the plain-header reader
    would accept such bytes after a raster, so only the bytes show it)."""
    name, write_long, write_short, read = REWRITES[row]
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    write_long(old)
    before = os.stat(old / name)
    write_short(old)
    write_short(new)
    after = os.stat(old / name)
    assert after.st_ino == before.st_ino and after.st_size < before.st_size
    tree = {p.relative_to(new): p.read_bytes() for p in new.rglob("*") if p.is_file()}
    assert {p.relative_to(old): p.read_bytes() for p in old.rglob("*") if p.is_file()} == tree
    assert read(old / name) == read(new / name)


def tree_digest(root) -> str:
    """sha256 over each file's path relative to root and the sha256 of its
    bytes, in sorted path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


# Golden bytes: the sha256 of what the generators write and of what read_clip decodes,
# computed once and fixed here. test_c10_determinism and test_regeneration_byte_identical
# compare two runs of one build; these tie every build to the same bytes.
# id -> (SynthSpec keywords, tree_digest of the generated tree)
GOLDEN_SYNTH = {
    "noise": (dict(num_classes=3, t=5, frame_size=(7, 11), noise=0.1, seed=3,
                   clips_per_class={"train": 2, "val": 1, "test": 1}),
              "bf9fdea400c11c32fb7a117fbd7760d9e0a4bd98e611d7cebcff0bf3ec6fb4e7"),
    "noise-zero": (dict(num_classes=2, t=2, frame_size=(8, 8), noise=0.0, seed=0,
                        clips_per_class={"train": 1, "test": 1}),
                   "d621c648c5a7995f3902263ebcae5482c245caf0579fe70ec5ace14130a921ad"),
    "default-frames": (dict(num_classes=4, t=8, seed=1, clips_per_class={"train": 2, "test": 1}),
                       "07dbbf0f61a46a686504e017589fedba7547648bd277ea85572df6f925a98c9f"),
    "t48": (dict(num_classes=2, t=48, frame_size=(8, 8), noise=0.3, seed=2,
                 clips_per_class={"test": 1}),
            "0eb7196cf754590aa19486738333d8a9de5a13c50674c18779d3db0d26c61a98"),
}
# id -> (make_isolated_clips arguments, tree_digest); a 3-row frame puts the patch on row 0,
# where the jitter overwrites it
GOLDEN_ISOLATED = {
    "3x5": (({"G_A": 0, "G_B": 1}, 2, (3, 5), 4),
            "d138dff19ceb09421254435292be147bc74218eba01395bddf058252c4a20293"),
    "default": (({"G_A": 0, "G_B": 1, "G_C": 2}, 8, (32, 32), 0),
                "536ad3e71f0fe191f8ee18566bd342b44e0bafa00a10ba9aeee6d47d4ec045e7"),
}
# size -> (shape, sha256 of the float32 read_clip of GOLDEN_SYNTH["noise"]'s train_c1_0000
# at frames [4, 0, 2, 2])
GOLDEN_READ = {
    None: ((4, 1, 7, 11), "fd00a6718d33d25e20f871858e53f9a0d779190800c5ea975dc98f4b774c7dab"),
    (4, 6): ((4, 1, 4, 6), "997a2a824d8214e898a9c5f340c27c88e00c2e29b697acd4a7ef7c6ff2a814a7"),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("row", list(GOLDEN_SYNTH))
    def test_synth_temporal_tree(self, tmp_path, row):
        kw, want = GOLDEN_SYNTH[row]
        synth_temporal(SynthSpec(**kw), tmp_path / "ds")
        assert tree_digest(tmp_path / "ds") == want

    @pytest.mark.parametrize("row", list(GOLDEN_ISOLATED))
    def test_make_isolated_clips_tree(self, tmp_path, row):
        (glosses, num_frames, frame_size, seed), want = GOLDEN_ISOLATED[row]
        make_isolated_clips(glosses, tmp_path / "clips", num_frames=num_frames,
                            frame_size=frame_size, seed=seed)
        assert tree_digest(tmp_path / "clips") == want

    @pytest.mark.parametrize("size", list(GOLDEN_READ), ids=str)
    def test_float32_read_clip(self, tmp_path, size):
        manifest = synth_temporal(SynthSpec(**GOLDEN_SYNTH["noise"][0]), tmp_path / "ds")
        [entry] = [e for e in load_manifest(manifest)[0] if e.video_id == "train_c1_0000"]
        clip = read_clip(entry, [4, 0, 2, 2], base=manifest.parent, size=size,
                         dtype=np.float32)
        shape, want = GOLDEN_READ[size]
        assert clip.dtype == np.float32 and clip.shape == shape
        assert hashlib.sha256(clip.tobytes()).hexdigest() == want


def _pgm(w: int, h: int, seed: int, header: bytes = b"P5\n%d %d\n255\n",
         tail: bytes = b"") -> bytes:
    pixels = np.random.default_rng(seed).integers(0, 256, w * h, dtype=np.uint8)
    return header % (w, h) + pixels.tobytes() + tail


def _ppm(w: int, h: int, seed: int, header: bytes = b"P6\n%d %d\n255\n") -> bytes:
    pixels = np.random.default_rng(seed).integers(0, 256, w * h * 3, dtype=np.uint8)
    return header % (w, h) + pixels.tobytes()


# id -> the bytes of frames 0, 1, 2, ... of one clip (a bytes of P6 magic is a .ppm)
CLIP_FRAMES = {
    "plain": [_pgm(6, 4, s) for s in range(4)],
    "comment-line": [_pgm(6, 4, 0), _pgm(6, 4, 1),
                     _pgm(6, 4, 2, header=b"P5\n# by hand\n%d %d\n255\n"), _pgm(6, 4, 3)],
    "trailing-bytes": [_pgm(6, 4, 0), _pgm(6, 4, 1, tail=b"xyz"), _pgm(6, 4, 2),
                       _pgm(6, 4, 3, tail=b"abc")],
    # the length of frame 0, other header bytes
    "tab-after-maxval": [_pgm(6, 4, 0), _pgm(6, 4, 1, header=b"P5\n%d %d\n255\t"),
                         _pgm(6, 4, 2), _pgm(6, 4, 3)],
    "p6": [_ppm(6, 4, s) for s in range(4)],
    "p6-spaced-header": [_ppm(6, 4, 0), _ppm(6, 4, 1, header=b"P6 %d %d 255 "),
                         _ppm(6, 4, 2), _ppm(6, 4, 3)],
    "gray-then-rgb": [_pgm(6, 4, 0), _pgm(6, 4, 1), _ppm(6, 4, 2), _ppm(6, 4, 3)],
    "two-sizes": [_pgm(6, 4, 0), _pgm(12, 8, 1), _pgm(6, 4, 2), _pgm(12, 8, 3)],
    # files of one length whose rasters are laid out differently
    "transposed": [_pgm(6, 4, 0), _pgm(4, 6, 1), _pgm(6, 4, 2), _pgm(4, 6, 3)],
}


def _write_clip_frames(d, frames: list[bytes]) -> ManifestEntry:
    d.mkdir()
    for i, raw in enumerate(frames):
        (d / f"frame_{i:05d}.{'ppm' if raw.startswith(b'P6') else 'pgm'}").write_bytes(raw)
    return ManifestEntry("v", str(d), len(frames), 0, "train")


def _per_frame(d, indices, size, dtype) -> np.ndarray:
    """Each frame decoded on its own by read_frame, resized by nearest neighbour, cast."""
    frames = []
    for idx in indices:
        [path] = d.glob(f"frame_{idx:05d}.p?m")
        frame = read_frame(path)
        if size is not None:
            h, w = frame.shape[1:]
            rows, cols = np.arange(size[0]) * h // size[0], np.arange(size[1]) * w // size[1]
            frame = frame[:, rows[:, None], cols[None, :]]
        frames.append(frame)
    return np.stack(frames).astype(dtype)


class TestClipDecode:
    """read_clip decodes the frames laid out as its first frame together and
    any other frame on its own; either way it equals per-frame decoding."""

    @pytest.mark.parametrize("row", list(CLIP_FRAMES))
    @pytest.mark.parametrize("indices", [[0, 1, 2, 3], [2, 0, 3, 1, 2], [1, 3, 3]], ids=str)
    @pytest.mark.parametrize("size", [None, (3, 5), (8, 12)], ids=str)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda t: t.__name__)
    def test_clip_equals_per_frame_decode(self, tmp_path, row, indices, size, dtype):
        frames = CLIP_FRAMES[row]
        entry = _write_clip_frames(tmp_path / "v", frames)
        shapes = {_per_frame(tmp_path / "v", [i], size, dtype).shape for i in indices}
        if len(shapes) > 1:
            with pytest.raises(FrameIOError, match="has shape"):
                read_clip(entry, indices, size=size, dtype=dtype)
            return
        clip = read_clip(entry, indices, size=size, dtype=dtype)
        assert clip.dtype == dtype
        npt.assert_array_equal(clip, _per_frame(tmp_path / "v", indices, size, dtype))

    def test_a_later_frame_of_another_size_names_both(self, tmp_path):
        entry = _write_clip_frames(tmp_path / "v", [_pgm(6, 4, 0), _pgm(6, 4, 1),
                                                    _pgm(6, 5, 2)])
        with pytest.raises(FrameIOError, match=re.escape(
                f"{tmp_path / 'v'}: frame 2 has shape (1, 5, 6), frame 0 has (1, 4, 6)")):
            read_clip(entry, [0, 1, 2])

    @pytest.mark.parametrize("indices, match", [
        ([0, 1, 2, 3], "frame_00001.pgm: not a binary PGM/PPM file"),
        ([0, 3, 1], "no frame_00003.pgm/.ppm"),
    ], ids=str)
    def test_the_first_failing_frame_gives_the_error(self, tmp_path, indices, match):
        entry = _write_clip_frames(tmp_path / "v", [_pgm(6, 4, 0), b"P7\n6 4\n255\n" + bytes(24),
                                                    _pgm(6, 4, 2)])
        entry = ManifestEntry("v", entry.frame_dir, 4, 0, "train")  # frame 3 is missing
        with pytest.raises(FrameIOError, match=re.escape(match)):
            read_clip(entry, indices)
