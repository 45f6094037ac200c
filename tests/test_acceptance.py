"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The training criterion (04) dominates the runtime.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from signflow.actionnet import ActionBlock
from signflow.backbone import Model, NetSpec, StageSpec, TrainConfig, build, evaluate, train
from signflow.dataset import SynthSpec, load_clip_dataset, load_manifest, synth_temporal
from signflow.gloss import ReorderRule, Token, inverse_reorder, reorder, segment
from signflow.sampler import MODE_EVAL_CENTER, SampleSpec, segment_sample
from signflow.tensor import Tensor, conv2d, grad_check, load_weights, matmul, save_weights, \
    sigmoid, softmax_cross_entropy, tmean, tsum
from signflow.tsm import BIDIRECTIONAL, UNIDIRECTIONAL, fold_channels, shift

DEMO = Path(__file__).resolve().parent.parent / "src" / "signflow" / "demo"


def report(num: int, name: str, detail: str = ""):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def synth_dataset(tmp_path_factory):
    """The order-permutation dataset of criterion 4: 4 classes, 50/13 clips
    per class per split (200 train / 52 test), T=8, 32x32."""
    root = tmp_path_factory.mktemp("accept") / "synth"
    spec = SynthSpec(num_classes=4, t=8, frame_size=(32, 32),
                     clips_per_class={"train": 50, "test": 13}, noise=0.05, seed=7)
    manifest = synth_temporal(spec, root)
    sample = SampleSpec(num_segments=8, mode=MODE_EVAL_CENTER)
    return {
        "manifest": manifest,
        "train": load_clip_dataset(manifest, "train", sample),
        "test": load_clip_dataset(manifest, "test", sample),
    }


def test_c01_gradient_suite():
    """Every differentiable op and the full toy backbone vs central
    differences: max relative error <= 1e-4 at 64-bit, >= 5 seeds."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x4 = rng.uniform(-1, 1, (2, 2, 5, 5))
        w4 = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        x5 = rng.uniform(-1, 1, (1, 3, 4, 4, 4))
        gate = ActionBlock(4, 4, 3, rng, "act", dtype=np.float64)
        gate.ste_b.data = rng.uniform(-1, 1, 1)
        wm = Tensor(rng.uniform(-1, 1, (4, 2)))
        xs = rng.uniform(0.1, 1, (3, 4)) * rng.choice([-1.0, 1.0], (3, 4))
        shift_w = Tensor(rng.uniform(-1, 1, (1, 4, 8, 2, 2)))
        fold = fold_channels(8, 0.125, BIDIRECTIONAL)
        errs = [
            grad_check(lambda t: conv2d(t, Tensor(w4), Tensor(b), stride=2, pad=1).sum(), x4),
            grad_check(lambda t: conv2d(Tensor(x4), t, stride=2, pad=1).sum(), w4),
            grad_check(lambda t: tsum(gate.ste(t)), x5),
            grad_check(lambda t: tmean(t, axis=(2, 3)).sum(), x4),
            grad_check(lambda t: matmul(t, wm).sum(), rng.uniform(-1, 1, (3, 4))),
            grad_check(lambda t: tsum(sigmoid(t)), xs),
            grad_check(lambda t: softmax_cross_entropy(t, [2, 0]),
                       rng.uniform(-1, 1, (2, 4))),
            grad_check(lambda t: tsum(shift(t, fold, BIDIRECTIONAL) * shift_w),
                       rng.uniform(-1, 1, (1, 4, 8, 2, 2))),
        ]
        worst = max(worst, max(errs))

        # full toy backbone: loss wrt the input clip
        spec = NetSpec(num_classes=3, t=4, in_channels=2, frame_size=(8, 8),
                       stem_channels=8, stem_stride=1, stages=(StageSpec(1, 8),),
                       temporal="shift")
        model = build(spec, seed=seed, dtype=np.float64)
        clip = rng.uniform(0.05, 1.0, (1, *spec.clip_shape))
        labels = np.array([seed % 3])
        err = grad_check(lambda t: softmax_cross_entropy(model.forward(t), labels), clip)
        worst = max(worst, err)

    # and wrt every parameter of one build (spot-checked coordinates).
    # Finite differences require smoothness: relu inputs must sit >= 10*eps
    # from the kink under a +-eps parameter nudge, so pick the first seed
    # whose activations keep that margin.
    import signflow.backbone as bb

    spec = NetSpec(num_classes=3, t=4, in_channels=2, frame_size=(8, 8),
                   stem_channels=8, stem_stride=1, stages=(StageSpec(1, 8),),
                   temporal="shift")
    model = clip = None
    orig_relu = bb.relu
    for seed in range(11, 64):
        margins = []

        def spy(x):
            margins.append(float(np.abs(x.data).min()))
            return orig_relu(x)

        candidate = build(spec, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(seed)
        cand_clip = Tensor(rng.uniform(0.05, 1.0, (1, *spec.clip_shape)))
        bb.relu = spy
        try:
            candidate.forward(cand_clip)
        finally:
            bb.relu = orig_relu
        if min(margins) >= 1e-4:
            model, clip = candidate, cand_clip
            break
    assert model is not None, "no seed with relu margin >= 10*eps found"
    labels = np.array([1])
    loss = softmax_cross_entropy(model.forward(clip), labels)
    loss.backward()
    eps = 1e-5
    for p in model.parameters():
        flat = p.data.reshape(-1)
        analytic = p.grad.reshape(-1)
        for i in range(0, flat.size, max(1, flat.size // 6)):
            orig = flat[i]
            flat[i] = orig + eps
            hi = softmax_cross_entropy(model.forward(clip), labels).item()
            flat[i] = orig - eps
            lo = softmax_cross_entropy(model.forward(clip), labels).item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * eps)
            denom = max(1.0, abs(analytic[i]), abs(numeric))
            worst = max(worst, abs(analytic[i] - numeric) / denom)

    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4, f"worst relative error {worst}"
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s (budget 120s)"
    report(1, "gradient-suite", f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_c02_shift_oracles():
    """Both shift directions equal an index-arithmetic oracle exactly on all
    T in {1,2,3,8} x C in {4,8,16}."""
    def oracle(x, cf, direction):
        n, t, c, h, w = x.shape
        out = np.zeros_like(x)
        for ti in range(t):
            for ci in range(c):
                if ci < cf:
                    src = ti + 1 if direction == BIDIRECTIONAL else ti - 1
                elif direction == BIDIRECTIONAL and ci < 2 * cf:
                    src = ti - 1
                else:
                    src = ti
                if 0 <= src < t:
                    out[:, ti, ci] = x[:, src, ci]
        return out

    cases = 0
    for direction in (BIDIRECTIONAL, UNIDIRECTIONAL):
        for t in (1, 2, 3, 8):
            for c in (4, 8, 16):
                rng = np.random.default_rng(1000 + 10 * t + c)
                x = rng.uniform(-1, 1, (2, t, c, 3, 2))
                cf = int(c * 0.125)
                got = shift(Tensor(x), cf, direction).numpy()
                npt.assert_array_equal(got, oracle(x, cf, direction))
                cases += 1
    report(2, "shift-oracles", f"({cases} shape cases, exact)")


def test_c03_online_equals_offline():
    """Streaming cached inference equals the offline one-way pass: max abs
    diff <= 1e-5 at float32 over 10 random weight draws, T=16."""
    worst = 0.0
    for draw in range(10):
        spec = NetSpec(num_classes=5, t=16, in_channels=16, frame_size=(4, 4),
                       stem_channels=16, stem_stride=1,
                       stages=(StageSpec(1, 16), StageSpec(1, 16)),
                       temporal="shift", direction=UNIDIRECTIONAL)
        model = build(spec, seed=draw, dtype=np.float32)
        rng = np.random.default_rng(500 + draw)
        clip = rng.uniform(-1, 1, (1, 16, 16, 4, 4)).astype(np.float32)
        offline = model.per_frame_logits(clip).numpy()[0]
        stream = model.open_stream()
        online = np.stack([stream.step(clip[:, t])["frame_logits"][0] for t in range(16)])
        worst = max(worst, float(np.abs(offline - online).max()))
    assert worst <= 1e-5, f"max abs diff {worst}"
    report(3, "online-equals-offline", f"(max abs diff {worst:.2e} over 10 draws)")


def test_c04_temporal_signal_reproduction(synth_dataset):
    """The temporal module has to earn its keep: on data where classes
    differ only in frame order, the shift net reaches >= 90% test Prec@1
    within 30 epochs while the identical no-shift net stays <= 40%
    (chance 25%), in under 10 CPU minutes."""
    t0 = time.perf_counter()
    results = {}
    for temporal in ("shift", "none"):
        model = build(NetSpec.micro(num_classes=4, temporal=temporal), seed=3)
        cfg = TrainConfig(epochs=30, batch_size=16, lr=0.02, momentum=0.9,
                          weight_decay=1e-4, seed=11)
        train(model, synth_dataset["train"], cfg)
        results[temporal] = evaluate(model, synth_dataset["test"])
    elapsed = time.perf_counter() - t0
    assert results["shift"].prec1 >= 90.0, f"shift net reached {results['shift'].prec1}"
    assert results["none"].prec1 <= 40.0, f"no-shift net reached {results['none'].prec1}"
    assert elapsed < 600, f"training took {elapsed:.0f}s (budget 600s)"
    report(4, "temporal-signal",
           f"(shift {results['shift'].prec1:.1f}% vs none {results['none'].prec1:.1f}%, "
           f"{elapsed:.0f}s)")


def test_c05_action_block(synth_dataset):
    """Action block: shape preservation, gate bounds, gradients; the bench
    harness emits a comparison row per temporal variant."""
    from signflow.actionnet import ActionBlock

    rng = np.random.default_rng(21)
    block = ActionBlock(8, 4, 3, np.random.default_rng(2), "a", dtype=np.float64)
    x = rng.uniform(-1, 1, (1, 4, 8, 4, 4))
    for branch in (block.ste, block.ce, block.me):
        out = x * branch(Tensor(x)).numpy()
        assert out.shape == x.shape
        assert (np.abs(out) <= np.abs(x) + 1e-12).all()
    err = grad_check(lambda t: tsum(block.forward(t)), x)
    assert err <= 1e-4

    proc = subprocess.run(
        [sys.executable, "-m", "signflow", "bench",
         "--manifest", str(synth_dataset["manifest"]),
         "--variants", "shift,action,none", "--epochs", "0", "--reps", "30",
         "--no-timestamp"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    variants = [r["variant"] for r in out["rows"]]
    assert variants == ["shift", "action", "none"]
    for row in out["rows"]:
        for key in ("variant", "prec1", "prec5", "loss", "ms_per_clip",
                    "ms_per_frame_online"):
            assert key in row, f"bench row missing {key}"
    report(5, "action-block", f"(grad err {err:.2e}; bench rows {variants})")
    globals()["_bench_rows"] = out["rows"]  # reused by criterion 9


def test_c06_sampler_exhaustive():
    """All sampler invariants for num_frames 1..64, T in {4,8,16}; center
    values equal the enumeration oracle exactly."""
    def oracle(num_frames, t):
        out = []
        for i in range(t):
            lo, hi = i * num_frames // t, (i + 1) * num_frames // t
            out.append(min(lo, num_frames - 1) if hi <= lo else (lo + hi - 1) // 2)
        return out

    checked = 0
    for t in (4, 8, 16):
        center = SampleSpec(num_segments=t, mode="eval-center")
        rand = SampleSpec(num_segments=t, mode="train-random", seed=5)
        for num_frames in range(1, 65):
            got = segment_sample(num_frames, center)
            assert got == oracle(num_frames, t)
            assert got == segment_sample(num_frames, center)  # deterministic
            r = segment_sample(num_frames, rand)
            assert len(r) == t and all(0 <= i < num_frames for i in r)
            assert all(a <= b for a, b in zip(r, r[1:]))
            checked += 1
    report(6, "sampler-exhaustive", f"({checked} (num_frames, T) cases)")


def test_c07_gloss_roundtrip():
    """1000 random drop-free rule sets round-trip to identity; segmentation
    concatenation invariant holds on a 500-sentence fuzz corpus."""
    rng = random.Random(2024)
    tags = ["NEG", "WH", "TIME", "ADJ", "V"]
    actions = ["move-to-end", "move-to-front", "swap-adjacent"]
    for trial in range(1000):
        tokens = [Token(f"w{i}", f"G{i}",
                        tuple(rng.sample(tags, rng.randrange(0, 3))))
                  for i in range(rng.randrange(0, 9))]
        rules = []
        for ri in range(rng.randrange(0, 5)):
            kw = {"tag": rng.choice(tags)} if rng.random() < 0.5 else \
                 {"index": rng.randrange(0, 10)}
            rules.append(ReorderRule(f"r{ri}", rng.randrange(0, 4),
                                     rng.choice(actions), **kw))
        seq = reorder(tokens, rules)
        assert inverse_reorder(seq, rules) == tokens, f"trial {trial}"

    from signflow.gloss import load_lexicon
    lex = load_lexicon(DEMO / "lexicon.tsv")
    alphabet = "我你不吃喝苹果水今天什么好爱中国手语谢谢xyzq!? 。，"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 40)))
        tokens = segment(text, lex)
        assert "".join(t.surface for t in tokens) == text
    report(7, "gloss-roundtrip", "(1000 rule sets, 500-sentence fuzz)")


def test_c08_end_to_end_translate(tmp_path):
    """translate -> materialize -> oracle recognize reproduces the gloss
    sequence exactly; frame recount matches the manifest totals."""
    from signflow.dataset import make_isolated_clips, read_clip
    from signflow.gloss import load_lexicon, load_rules
    from signflow.sampler import SampleSpec
    from signflow.videoplan import (ClipIndex, RecognizeConfig, TransitionPolicy,
                                    concat_frames, plan, recognize)

    lex = load_lexicon(DEMO / "lexicon.tsv")
    rules = load_rules(DEMO / "rules.json", known_tags=lex.known_tags)
    glosses = {e.gloss_id: i for i, e in
               enumerate(sorted(lex.entries.values(), key=lambda e: e.gloss_id))}
    clip_manifest = make_isolated_clips(glosses, tmp_path / "clips", num_frames=6, seed=1)
    index = ClipIndex(clip_manifest)
    _, labels = load_manifest(clip_manifest)

    class Oracle:
        class _S:
            num_classes = len(glosses)
            t = 6

        spec = _S()
        dtype = np.float32

        def infer(self, clips):
            clips = np.asarray(clips)
            logits = np.zeros((clips.shape[0], len(glosses)), dtype=np.float32)
            for i, clip in enumerate(clips):
                h, w = clip.shape[-2:]
                patch = clip[:, 0, h // 4:3 * h // 4, w // 4:3 * w // 4]
                label = int(round(float(np.median(patch)) * (len(glosses) + 1))) - 1
                logits[i, max(0, min(len(glosses) - 1, label))] = 10.0
            return logits

    sentences = ["我今天不吃苹果", "你好", "我爱中国手语", "谢谢你", "今天喝水"]
    for si, text in enumerate(sentences):
        seq = reorder(segment(text, lex), rules)
        manifest = plan(seq, lex, index, policy=TransitionPolicy())
        out_dir = tmp_path / f"video{si}"
        entry = concat_frames(manifest, index, out_dir, video_id=f"v{si}")
        frames_on_disk = len(list(out_dir.glob("frame_*.pgm")))
        assert frames_on_disk == manifest.total_frames == entry.num_frames
        result = recognize(entry, Oracle(), lex, rules,
                           SampleSpec(num_segments=6, mode="eval-center"),
                           base=tmp_path, label_map=labels,
                           cfg=RecognizeConfig(window=6, stride=6))
        assert result["glosses"] == seq.gloss_ids, f"sentence {text!r}"
    report(8, "end-to-end-translate", f"({len(sentences)} sentences, exact gloss recovery)")


def test_c09_latency_property(synth_dataset):
    """Online per-frame cost / offline full-clip recompute per new frame < 1
    for T >= 8, medians of >= 30 reps (reuses the bench rows)."""
    rows = globals().get("_bench_rows")
    if rows is None:  # criterion 5 did not run first; measure directly
        proc = subprocess.run(
            [sys.executable, "-m", "signflow", "bench",
             "--manifest", str(synth_dataset["manifest"]),
             "--variants", "shift", "--epochs", "0", "--reps", "30",
             "--no-timestamp"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(proc.stdout.splitlines()[-1])["rows"]
    shift_row = next(r for r in rows if r["variant"] == "shift")
    ratio = shift_row["online_offline_ratio"]
    assert ratio is not None and ratio < 1.0, f"ratio {ratio}"
    report(9, "latency-property",
           f"(online/offline ratio {ratio:.3f} at T=8, median of 30 reps)")


def test_c10_determinism(tmp_path):
    """cmd_train with a fixed seed twice gives identical metrics JSON; the
    weight file round-trips bit-exactly."""
    synth = tmp_path / "ds"
    subprocess.run([sys.executable, "-m", "signflow", "synth", "--out", str(synth),
                    "--classes", "2", "--t", "4", "--train-per-class", "2",
                    "--test-per-class", "1", "--seed", "3", "--no-timestamp"],
                   capture_output=True, text=True, check=True)
    outputs = []
    for name in ("r1", "r2"):
        proc = subprocess.run(
            [sys.executable, "-m", "signflow", "train",
             "--manifest", str(synth / "manifest.jsonl"), "--out", str(tmp_path / name),
             "--epochs", "3", "--seed", "9", "--no-timestamp"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        metrics = [l for l in proc.stdout.splitlines() if l.startswith('{"epoch"')]
        outputs.append((metrics, (tmp_path / name / "model.sgnf").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "metrics JSON differs between seeded runs"
    assert outputs[0][1] == outputs[1][1], "weight files differ between seeded runs"

    # weight file round-trip: load then save is byte-identical
    w1 = tmp_path / "r1" / "model.sgnf"
    w2 = tmp_path / "roundtrip.sgnf"
    save_weights(w2, load_weights(w1))
    assert w1.read_bytes() == w2.read_bytes()
    report(10, "determinism", "(metrics JSON and weight bytes identical; round-trip exact)")
