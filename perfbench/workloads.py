"""The three benchmark workloads: train, stream and roundtrip.

Each workload is a closed loop with one client: an operation starts after
the previous one returns. A workload builds its inputs from the seed in
``setup``, runs whole rounds until the time is up, and checks every output.
Rounds are fixed units of work (all three temporal modules; one frame
directory; one pass over the corpus), so a run is a whole number of rounds
and per-round counts repeat exactly for a given seed.

Every signflow call is looked up through its module (``backbone.train``,
``videoplan.recognize`` ...) so that the traced run sees it. Right after
each timed operation the workload runs the host-speed probe (hostspeed.py),
outside the timed interval, and records the sample both raw and at
reference speed.
"""

from __future__ import annotations

import math
import multiprocessing
import shutil
import time
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed
from signflow import backbone, dataset, gloss, sampler, videoplan

# Checks call these captured originals, so that they are never traced.
from signflow.gloss import glosses_to_text as _glosses_to_text
from signflow.gloss import tokens_from_gloss_ids as _tokens_from_gloss_ids

CLASSES = 4
T = 8
BATCH = 16
EPOCHS = 12            # per module per round
TRAIN_PER_CLASS = 8    # 32 clips: two batch-16 steps per epoch
TEST_PER_CLASS = 8
EVAL_CALLS = 16        # the test split is evaluated in this many calls of 2 clips
MODULES = ("shift", "action", "none")

STREAM_DIRS = 6
STREAM_FRAMES = 48     # tens of frames, and at least the longest offline window
OFFLINE_T = (8, 16, 32)
LOGIT_TOL = 1e-5

SENTENCE_LENGTHS = (2, 3, 4, 5, 6)
SENTENCES_PER_LENGTH = 20
OOV_EVERY = 4          # one sentence in four carries an out-of-lexicon character
OOV_CHARS = "的很们他她也"
FIT_EPOCHS = 20        # recognizer fit on the 14 isolated clips before the checks
FIT_LR = 0.1

DEMO = Path(__file__).resolve().parent.parent / "src" / "signflow" / "demo"


class Outcome:
    """Latency samples of the timed operations plus the check tally.

    Series: ``main`` (the main operation), ``infer`` (offline inference) and
    ``translate`` (roundtrip: the translate half alone). ``raw`` holds the
    samples as timed, ``ref`` the same samples at reference speed.
    """

    SERIES = ("main", "infer", "translate")

    def __init__(self):
        self.raw: dict[str, list[float]] = {s: [] for s in self.SERIES}
        self.ref: dict[str, list[float]] = {s: [] for s in self.SERIES}
        self.main_items = 0                # train: clips trained, for train_clips_per_s
        self.main_seconds = 0.0
        self.infer_items = 0               # train: clips evaluated, for eval_clips_per_s
        self.infer_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, series: str, ms: float, factor: float) -> None:
        """Record one sample; ``factor`` takes it to reference speed."""
        self.raw[series].append(ms)
        self.ref[series].append(ms * factor)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)


def _no_tamper(kind: str, obj) -> None:
    """Default output hook; the self-test replaces it to plant wrong outputs."""


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: Path, tracer=None, tamper=None):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.tamper = tamper or _no_tamper
        self.warming = False
        self.speed = HostSpeed()

    def begin_op(self, kind: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_op("warmup" if self.warming else kind)

    def input_dir(self, stem: str) -> Path:
        """A fixed directory under the work dir; every set-up rewrites the same
        files in place (see run.py for why nothing is deleted between runs)."""
        d = self.work_dir / stem
        d.mkdir(parents=True, exist_ok=True)
        return d

    def setup(self) -> None:
        """Generate the inputs and build the models (timed as setup_s)."""
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Expected outputs for the checks; neither timed nor counted as measured.

        Work that takes more memory than the measured loop runs through
        ``in_child``, so that peak_rss_mb is the peak of set-up and the
        measured loop alone."""

    def warmup(self) -> None:
        """One untimed pass through every code path, outputs discarded."""
        self.warming, tamper, self.tamper = True, self.tamper, _no_tamper
        self.begin_op("warmup")
        try:
            self.warmup_ops()
        finally:
            self.warming, self.tamper = False, tamper

    def warmup_ops(self) -> None:
        raise NotImplementedError

    def run_round(self, out: Outcome) -> None:
        raise NotImplementedError

    def guarded(self, out: Outcome, what: str, fn, *args):
        """Run one operation; an exception counts it as failed."""
        try:
            return fn(*args)
        except Exception as exc:  # the loop must go on and report the failure
            out.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None


# -- train ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """SGD epochs of backbone.train for each temporal module, then evaluate."""

    name = "train"

    def setup(self) -> None:
        d = self.input_dir("synth")
        spec = dataset.SynthSpec(num_classes=CLASSES, t=T, seed=self.seed,
                                 clips_per_class={"train": TRAIN_PER_CLASS,
                                                  "test": TEST_PER_CLASS})
        manifest = dataset.synth_temporal(spec, d)
        sample = sampler.SampleSpec(num_segments=T, mode=sampler.MODE_EVAL_CENTER)
        self.train_set = dataset.load_clip_dataset(manifest, "train", sample)
        self.test_set = dataset.load_clip_dataset(manifest, "test", sample)
        self.models = {m: backbone.build(backbone.NetSpec.micro(CLASSES, temporal=m, t=T),
                                         seed=self.seed + i)
                       for i, m in enumerate(MODULES)}
        self.initial = {m: {k: v.copy() for k, v in model.state_dict().items()}
                        for m, model in self.models.items()}
        self.cfg = backbone.TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=self.seed)

    def warmup_ops(self) -> None:
        cfg = backbone.TrainConfig(epochs=1, batch_size=BATCH, seed=self.seed)
        for m, model in self.models.items():
            backbone.train(model, self.train_set[:BATCH], cfg)
            backbone.evaluate(model, self.test_set[:2])
            model.load_state_dict(self.initial[m])

    def run_round(self, out: Outcome) -> None:
        epochs, evals = [], []
        for m in MODULES:
            model = self.models[m]
            model.load_state_dict(self.initial[m])
            epochs.append(self._train(out, m, model))
            # one pass over the test split, in EVAL_CALLS calls for more latency samples
            evals.append([self._evaluate(out, m, model, self.test_set[k::EVAL_CALLS])
                          for k in range(EVAL_CALLS)])
        # One latency sample per slice of work pooled over the three modules
        # (epoch e of each, evaluate call k of each), so that a change to any
        # one module moves every sample and no percentile is one module's.
        _add_pooled(out, "main", epochs, len(self.train_set))
        _add_pooled(out, "infer", evals, len(self.test_set) // EVAL_CALLS)

    def _train(self, out: Outcome, module: str, model) -> list[tuple[float, float] | None]:
        """Run backbone.train; returns (seconds, speed factor) of each epoch.

        The probe runs in the epoch callback, between one epoch's end and the
        next one's start, so no epoch's time includes it."""
        epochs: list[tuple[float, float]] = []
        starts = [0.0]

        def on_epoch(record) -> None:
            end = time.perf_counter()
            epochs.append((end - starts[-1], self.speed.probe()))
            starts.append(time.perf_counter())

        out.attempted += 1
        self.begin_op(f"train:{module}")
        starts[0] = time.perf_counter()
        history = self.guarded(out, f"train {module}", backbone.train, model,
                               self.train_set, self.cfg, None, on_epoch)
        if history is None:
            return [None] * EPOCHS
        out.main_seconds += sum(seconds for seconds, _ in epochs)
        out.main_items += len(self.train_set) * len(epochs)
        self.tamper("train-history", history)
        losses = [record["loss"] for record in history]
        if not all(math.isfinite(v) for v in losses):
            out.fail(f"train {module}: non-finite loss in {losses}")
        elif not losses[-1] < losses[0]:
            out.fail(f"train {module}: last-epoch loss {losses[-1]} not below "
                     f"first-epoch loss {losses[0]}")
        return epochs

    def _evaluate(self, out: Outcome, module: str, model,
                  clips_and_labels) -> tuple[float, float] | None:
        """Run backbone.evaluate; returns (seconds, speed factor)."""
        out.attempted += 1
        self.begin_op(f"eval:{module}")
        t0 = time.perf_counter()
        metrics = self.guarded(out, f"evaluate {module}", backbone.evaluate, model,
                               clips_and_labels)
        dt = time.perf_counter() - t0
        factor = self.speed.probe()
        if metrics is None:
            return None
        out.infer_items += len(clips_and_labels)
        out.infer_seconds += dt
        self.tamper("eval-metrics", metrics)
        values = (metrics.prec1, metrics.prec5, metrics.loss)
        if not (all(math.isfinite(v) for v in values) and 0 <= metrics.prec1 <= 100
                and metrics.prec1 <= metrics.prec5 <= 100):
            out.fail(f"evaluate {module}: implausible metrics {metrics}")
        return dt, factor


def _add_pooled(out: Outcome, series: str,
                per_module: list[list[tuple[float, float] | None]], clips: int) -> None:
    """Add one ms-per-clip sample per slice of work, summed over the modules
    that did it; ``per_module[m][i]`` is module m's (seconds, speed factor)
    for slice i of ``clips`` clips."""
    for slice_ in zip(*per_module):
        done = [s for s in slice_ if s is not None]
        if done:
            raw = sum(seconds for seconds, _ in done)
            ref = sum(seconds * factor for seconds, factor in done)
            out.add(series, raw * 1e3 / (len(done) * clips), ref / raw)


# -- stream --------------------------------------------------------------------------


class StreamWorkload(Workload):
    """Frame-by-frame streaming from disk, plus offline forwards at T = 8/16/32."""

    name = "stream"

    def setup(self) -> None:
        d = self.input_dir("frames")
        spec = dataset.SynthSpec(num_classes=2, t=STREAM_FRAMES, seed=self.seed,
                                 clips_per_class={"test": STREAM_DIRS // 2})
        manifest = dataset.synth_temporal(spec, d)
        entries, _ = dataset.load_manifest(manifest)
        self.base = manifest.parent
        self.entries = entries
        net = dict(num_classes=CLASSES, temporal="shift", direction="unidirectional")
        self.model = backbone.build(backbone.NetSpec.micro(t=T, **net), seed=self.seed)
        self.offline = {t: backbone.build(backbone.NetSpec.micro(t=t, **net), seed=self.seed)
                        for t in OFFLINE_T}
        self.frame_size = self.model.spec.frame_size
        self._next = 0

    def prepare_checks(self) -> None:
        # The clips the offline forwards read, and the offline reference:
        # per-frame logits of each whole directory, from the same decoded frames.
        # The reference is a T = 48 graph, larger than anything measured.
        self.clips = [dataset.read_clip(entry, list(range(entry.num_frames)), base=self.base,
                                        size=self.frame_size).astype(np.float32)
                      for entry in self.entries]
        self.reference = in_child(self._reference_logits)

    def _reference_logits(self) -> list[np.ndarray]:
        return [self.model.per_frame_logits(clip[None]).numpy()[0] for clip in self.clips]

    def warmup_ops(self) -> None:
        self._stream(Outcome(), 0)
        for t in OFFLINE_T:
            self._offline(Outcome(), 0, t)

    def run_round(self, out: Outcome) -> None:
        k = self._next
        self._next = (k + 1) % len(self.entries)
        self._stream(out, k)
        for t in OFFLINE_T:
            self._offline(out, k, t)

    def _stream(self, out: Outcome, k: int) -> None:
        entry = self.entries[k]
        n = entry.num_frames
        logits = []
        frame_ms = []
        out.attempted += n
        self.begin_op("frame")
        t0 = time.perf_counter()
        try:
            state = self.model.open_stream(stream_id=entry.video_id)
            for i in range(n):
                clip = dataset.read_clip(entry, [i], base=self.base, size=self.frame_size)
                step = state.step(clip[0][None].astype(np.float32))
                t1 = time.perf_counter()
                frame_ms.append((t1 - t0) * 1e3)
                t0 = t1
                logits.append(step["frame_logits"][0])
        except Exception as exc:  # count the frames that never produced logits
            out.fail(f"stream {entry.video_id}: {type(exc).__name__}: {exc}", n - len(logits))
        factor = self.speed.probe()
        for ms in frame_ms:
            out.add("main", ms, factor)
        if not logits:
            return
        got = np.stack(logits)
        self.tamper("stream-logits", got)
        diff = np.abs(got - self.reference[k][:len(logits)]).max(axis=1)
        bad = int((diff > LOGIT_TOL).sum())
        if bad:
            out.fail(f"stream {entry.video_id}: {bad} frames differ from offline "
                     f"per_frame_logits (max abs diff {diff.max():.3g})", bad)

    def _offline(self, out: Outcome, k: int, t: int) -> None:
        out.attempted += 1
        clip = self.clips[k][None, :t]
        self.begin_op(f"offline:t{t}")
        t0 = time.perf_counter()
        result = self.guarded(out, f"offline forward T={t}", self.offline[t].forward, clip)
        dt = time.perf_counter() - t0
        factor = self.speed.probe()
        if result is None:
            return
        out.add("infer", dt * 1e3 / t, factor)
        logits = result.numpy()[0]
        self.tamper("offline-logits", logits)
        # consensus then linear head == mean of the per-frame logits
        expected = self.reference[k][:t].mean(axis=0)
        if np.abs(logits - expected).max() > LOGIT_TOL:
            out.fail(f"offline forward T={t}: logits differ from the per-frame mean")


# -- roundtrip -----------------------------------------------------------------------


class RoundtripWorkload(Workload):
    """Text -> sign-order glosses -> frames on disk -> recognized text."""

    name = "roundtrip"

    def setup(self) -> None:
        d = self.input_dir("clips")
        self.lex = gloss.load_lexicon(DEMO / "lexicon.tsv")
        self.rules = gloss.load_rules(DEMO / "rules.json", known_tags=self.lex.known_tags)
        glosses = {e.gloss_id: i for i, e in
                   enumerate(sorted(self.lex.entries.values(), key=lambda e: e.gloss_id))}
        manifest = dataset.make_isolated_clips(glosses, d, num_frames=T, seed=self.seed)
        self.index = videoplan.ClipIndex(manifest)
        _, self.labels = dataset.load_manifest(manifest)
        self.model = backbone.build(backbone.NetSpec.micro(len(glosses), t=T), seed=self.seed)
        self.sample = sampler.SampleSpec(num_segments=T, mode=sampler.MODE_EVAL_CENTER)
        self.recognize_cfg = videoplan.RecognizeConfig(window=T, stride=T)
        self.corpus = _corpus(self.lex, self.seed)
        self.out_root = self.work_dir / "videos"

    def prepare_checks(self) -> None:
        state, self.predicted = in_child(self._fit_and_predict)
        self.model.load_state_dict(state)

    def _fit_and_predict(self):
        # With zero biases the untrained net is positively homogeneous, so every
        # isolated clip (one patch, a different intensity per class) gets the
        # same class and the check below would compare constant sequences. A
        # short fit makes the predictions differ between clips; they are still
        # far from exact, so recognized glosses are checked against the model's
        # own prediction for each source clip, not against the translation.
        clips = {}
        for gid, entry in self.index.by_id.items():
            indices = sampler.segment_sample(entry.num_frames, self.sample)
            clips[gid] = dataset.read_clip(entry, indices, base=self.index.base,
                                           size=self.model.spec.frame_size)
        fit = backbone.TrainConfig(epochs=FIT_EPOCHS, batch_size=BATCH, lr=FIT_LR,
                                   seed=self.seed)
        backbone.train(self.model, [(c, self.labels[g]) for g, c in clips.items()], fit)
        inv = {cls: gid for gid, cls in self.labels.items()}
        predicted = {}
        for gid, clip in clips.items():
            logits = self.model.forward(clip[None].astype(np.float32)).numpy()[0]
            predicted[gid] = inv[int(np.argmax(logits))]
        return self.model.state_dict(), predicted

    def warmup_ops(self) -> None:
        # Sentence k is materialized into videos/sNNNN on every pass, so after
        # this first pass the measured passes overwrite files of the same size.
        # Deleting thousands of small files while timing slows later writes
        # for seconds, so the only deletion (last run's videos) happens here.
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.run_round(Outcome())

    def run_round(self, out: Outcome) -> None:
        for k, text in enumerate(self.corpus):
            self._sentence(out, k, text)

    def _sentence(self, out: Outcome, k: int, text: str) -> None:
        out.attempted += 1
        video = self.out_root / f"s{k:04d}"
        try:
            self.begin_op("translate")
            t0 = time.perf_counter()
            seq = gloss.reorder(gloss.segment(text, self.lex), self.rules)
            manifest = videoplan.plan(seq, self.lex, self.index)
            entry = videoplan.concat_frames(manifest, self.index, video / "frames",
                                            video_id=f"s{k:04d}")
            t1 = time.perf_counter()
            self.begin_op("recognize")
            t2 = time.perf_counter()
            result = videoplan.recognize(entry, self.model, self.lex, self.rules,
                                         self.sample, base=video, label_map=self.labels,
                                         cfg=self.recognize_cfg,
                                         size=self.model.spec.frame_size)
            t3 = time.perf_counter()
        except Exception as exc:  # the loop must go on and report the failure
            out.fail(f"sentence {text!r}: {type(exc).__name__}: {exc}")
            return
        factor = self.speed.probe()
        # main = the whole round trip; the translate half alone writes ~30 small
        # files and on its own varied too much from run to run to gate on
        out.add("main", (t1 - t0 + t3 - t2) * 1e3, factor)
        out.add("translate", (t1 - t0) * 1e3, factor)
        out.add("infer", (t3 - t2) * 1e3, factor)
        self.tamper("materialized-dir", video / "frames")
        self.tamper("recognize-result", result)
        problem = self._check(manifest, entry, result, video / "frames")
        if problem:
            out.fail(f"sentence {text!r}: {problem}")

    def _check(self, manifest, entry, result, frames_dir: Path) -> str:
        on_disk = sum(1 for _ in frames_dir.glob("frame_*.pgm"))
        if not on_disk == manifest.total_frames == entry.num_frames:
            return (f"{on_disk} frames on disk, plan counted {manifest.total_frames}, "
                    f"entry says {entry.num_frames}")
        predicted = [self.predicted[e.gloss_id] for e in manifest.entries]
        expected = [g for i, g in enumerate(predicted) if i == 0 or g != predicted[i - 1]]
        if result["glosses"] != expected:
            return f"recognized {result['glosses']}, source clips predict {expected}"
        text = _glosses_to_text(_tokens_from_gloss_ids(expected, self.lex), self.lex,
                                self.rules)
        if result["text"] != text:
            return f"recognized text {result['text']!r}, expected {text!r}"
        return ""


def in_child(fn):
    """Return ``fn()`` computed in a forked child process, so that the memory
    it takes does not count in this process's peak resident memory."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_result, args=(send, fn))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    finally:
        child.join()
    if not ok:
        raise RuntimeError(f"expected outputs failed in the child process: {value}")
    return value


def _send_result(conn, fn) -> None:
    try:
        conn.send((True, fn()))
    except Exception as exc:  # reported by the parent
        conn.send((False, f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _corpus(lex, seed: int) -> list[str]:
    """Seeded sentences with a fixed length mix: SENTENCES_PER_LENGTH of each
    length in SENTENCE_LENGTHS words, and an out-of-lexicon character in one
    sentence of every OOV_EVERY. Only the words and their order vary."""
    rng = np.random.default_rng(seed)
    words = sorted(lex.entries)
    oov = [ch for ch in OOV_CHARS if ch not in lex.entries]
    sentences = []
    for n in SENTENCE_LENGTHS:
        for _ in range(SENTENCES_PER_LENGTH):
            parts = [words[i] for i in rng.integers(0, len(words), size=n)]
            if len(sentences) % OOV_EVERY == 0:
                parts.insert(int(rng.integers(0, n + 1)), oov[int(rng.integers(0, len(oov)))])
            sentences.append("".join(parts))
    order = rng.permutation(len(sentences))
    return [sentences[i] for i in order]


WORKLOADS = {w.name: w for w in (TrainWorkload, StreamWorkload, RoundtripWorkload)}
