import gc
import hashlib
import math
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st

from signflow import actionnet, backbone
from signflow.backbone import (Metrics, Model, NetSpec, StageSpec, TrainConfig, build,
                               evaluate, parameter_count, topk_hits, train)
from signflow.errors import ConfigError, DimensionError, InputError, NumericError
from signflow.tensor import (Tensor, _channel_major, _conv2d_out_hw, _im2col, conv2d,
                             conv2d_array, softmax_cross_entropy)


def tiny_spec(**kw):
    defaults = dict(num_classes=3, t=4, in_channels=2, frame_size=(8, 8),
                    stem_channels=8, stem_stride=1, stages=(StageSpec(1, 8),),
                    temporal="shift")
    defaults.update(kw)
    return NetSpec(**defaults)


def random_dataset(spec, n, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0, 1, spec.clip_shape).astype(np.float32),
             int(rng.integers(0, spec.num_classes))) for _ in range(n)]


def expected_param_count(spec: NetSpec) -> int:
    """Closed-form count: convs (Co*Ci*k*k + Co), affines (2C), head (D*K + K)."""
    def conv(ci, co, k):
        return co * ci * k * k + co

    def affine(c):
        return 2 * c

    total = conv(spec.in_channels, spec.stem_channels, 3) + affine(spec.stem_channels)
    cin = spec.stem_channels
    for stage in spec.stages:
        for bi in range(stage.blocks):
            stride = stage.stride if bi == 0 else 1
            cout = stage.channels
            total += conv(cin, cout, 3) + affine(cout)
            total += conv(cout, cout, 3) + affine(cout)
            if cin != cout or stride != 1:
                total += conv(cin, cout, 1) + affine(cout)
            cin = cout
    total += cin * spec.num_classes + spec.num_classes
    return total


class TestBuild:
    def test_deterministic_from_seed(self):
        a = build(tiny_spec(), seed=5)
        b = build(tiny_spec(), seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            npt.assert_array_equal(pa.data, pb.data)
        c = build(tiny_spec(), seed=6)
        assert any(not np.array_equal(pa.data, pc.data)
                   for pa, pc in zip(a.parameters(), c.parameters()))

    def test_parameter_count_matches_closed_form(self):
        for spec in (tiny_spec(), NetSpec.micro(4), NetSpec.tiny(10)):
            assert parameter_count(build(spec, seed=0)) == expected_param_count(spec)

    def test_shift_adds_no_parameters(self):
        with_shift = parameter_count(build(tiny_spec(temporal="shift"), seed=0))
        without = parameter_count(build(tiny_spec(temporal="none"), seed=0))
        assert with_shift == without

    def test_action_adds_parameters(self):
        with_action = parameter_count(build(tiny_spec(temporal="action"), seed=0))
        without = parameter_count(build(tiny_spec(temporal="none"), seed=0))
        assert with_action > without

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(num_classes=1)
        with pytest.raises(ConfigError):
            tiny_spec(temporal="wavelet")
        with pytest.raises(ConfigError):
            # stem 6 channels not divisible by action ratio 4
            tiny_spec(temporal="action", stem_channels=6, stages=(StageSpec(1, 8),))

    def test_dtype_other_than_float32_or_float64_rejected(self):
        assert build(tiny_spec(), dtype="float64").dtype is np.float64
        with pytest.raises(ConfigError, match="float16"):
            Model(tiny_spec(), dtype=np.float16)

    def test_zero_blocks_and_no_stages_build(self):
        # sizes must be >= 1 (tests/test_cli.py), but a stage may have no blocks
        for stages in ((StageSpec(0, 8),), ()):
            model = build(tiny_spec(stages=stages), seed=0)
            assert model.infer(np.zeros((1, 4, 2, 8, 8), dtype=np.float32)).shape == (1, 3)


class TestForward:
    def test_logit_shape(self):
        model = build(tiny_spec(), seed=0)
        rng = np.random.default_rng(0)
        out = model.forward(rng.uniform(0, 1, (3, 4, 2, 8, 8)).astype(np.float32))
        assert out.shape == (3, 3)

    def test_batch_independence(self):
        model = build(tiny_spec(), seed=1, dtype=np.float64)
        rng = np.random.default_rng(1)
        clip = rng.uniform(0, 1, (1, 4, 2, 8, 8))
        single = model.forward(clip).numpy()
        stacked = model.forward(np.concatenate([clip, clip], axis=0)).numpy()
        npt.assert_allclose(stacked[0], stacked[1], rtol=1e-12)
        npt.assert_allclose(stacked[0], single[0], rtol=1e-9)

    def test_wrong_shape_rejected(self):
        model = build(tiny_spec(), seed=0)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((1, 5, 2, 8, 8), dtype=np.float32))
        # wrong frame size, wrong channels, unbatched wrong frame size
        for shape in [(1, 4, 2, 16, 16), (1, 4, 3, 8, 8), (4, 2, 16, 16)]:
            for fn in (model.forward, model.per_frame_logits):
                with pytest.raises(DimensionError):
                    fn(np.zeros(shape, dtype=np.float32))
        # per-frame logits take any T, batched or not
        for shape in [(1, 6, 2, 8, 8), (6, 2, 8, 8)]:
            assert model.per_frame_logits(np.zeros(shape, dtype=np.float32)).shape == (1, 6, 3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("temporal", ["shift", "action", "none"])
    def test_forward_is_mean_of_per_frame_logits(self, temporal, dtype):
        # TSN/TSM consensus: the head runs on each frame, then class scores are averaged
        spec = tiny_spec(temporal=temporal, stages=(StageSpec(1, 8), StageSpec(1, 16, 2)))
        model = build(spec, seed=4, dtype=dtype)
        clips = np.random.default_rng(5).uniform(0, 1, (3, *spec.clip_shape)).astype(dtype)
        npt.assert_array_equal(model.forward(clips).numpy(),
                               model.per_frame_logits(clips).numpy().mean(axis=1))

    @pytest.mark.parametrize("temporal", ["shift", "action", "none"])
    def test_convs_after_the_stem_read_conv_order(self, monkeypatch, temporal):
        # each conv returns [N,C,H,W] held as [C,H,W,N]; the trunk and the
        # action block keep that order, so no conv but the stem transposes its input
        inputs = []

        def recording(x, w, *args, **kw):
            inputs.append(x.data)
            return conv2d(x, w, *args, **kw)

        monkeypatch.setattr(backbone, "conv2d", recording)
        monkeypatch.setattr(actionnet, "conv2d", recording)
        model = build(NetSpec.micro(4, temporal=temporal), seed=2)
        model.forward(np.random.default_rng(6).uniform(0, 1, (2, 8, 1, 32, 32)).astype(np.float32))
        assert len(inputs) > 1
        for i, x in enumerate(inputs[1:], 1):
            assert x.transpose(1, 2, 3, 0).flags.c_contiguous, (i, x.shape, x.strides)

    def test_shift_net_is_order_sensitive_none_net_is_not(self):
        rng = np.random.default_rng(3)
        clip = rng.uniform(0, 1, (1, 4, 2, 8, 8))
        permuted = clip[:, [2, 0, 3, 1]]
        shift_model = build(tiny_spec(temporal="shift"), seed=7, dtype=np.float64)
        none_model = build(tiny_spec(temporal="none"), seed=7, dtype=np.float64)
        shift_a = shift_model.forward(clip).numpy()
        shift_b = shift_model.forward(permuted).numpy()
        assert np.abs(shift_a - shift_b).max() > 1e-6
        none_a = none_model.forward(clip).numpy()
        none_b = none_model.forward(permuted).numpy()
        npt.assert_allclose(none_a, none_b, atol=1e-12)


class TestGradients:
    @pytest.mark.parametrize("stages,random_gamma", [
        pytest.param((StageSpec(1, 8),), False, id="unit_gamma"),
        # gamma != 1 so a gradient that drops the fold's scale shows; the
        # stride-2 stage adds a projection; biases stay 0, away from relu kinks
        pytest.param((StageSpec(1, 8), StageSpec(1, 16, 2)), True, id="random_gamma_proj"),
    ])
    def test_full_net_parameter_gradients(self, stages, random_gamma):
        # analytic grads of every parameter vs central differences
        spec = tiny_spec(stages=stages)
        model = build(spec, seed=2, dtype=np.float64)
        rng = np.random.default_rng(2)
        if random_gamma:
            for p in model.parameters():
                if p.name.endswith(".gamma"):
                    p.data = rng.uniform(0.5, 1.5, p.data.shape)
        clip = Tensor(rng.uniform(0.05, 1, (1, *spec.clip_shape)))
        labels = np.array([1])

        loss = softmax_cross_entropy(model.forward(clip), labels)
        loss.backward()
        grads = {p.name: p.grad.copy() for p in model.parameters()}

        eps = 1e-5
        worst = 0.0
        for p in model.parameters():
            flat = p.data.reshape(-1)
            analytic = grads[p.name].reshape(-1)
            stride = max(1, flat.size // 8)  # spot-check a spread of coordinates
            for i in range(0, flat.size, stride):
                orig = flat[i]
                flat[i] = orig + eps
                hi = softmax_cross_entropy(model.forward(clip), labels).item()
                flat[i] = orig - eps
                lo = softmax_cross_entropy(model.forward(clip), labels).item()
                flat[i] = orig
                numeric = (hi - lo) / (2 * eps)
                denom = max(1.0, abs(analytic[i]), abs(numeric))
                worst = max(worst, abs(analytic[i] - numeric) / denom)
        assert worst <= 1e-4


class TestEvaluate:
    class OracleModel:
        """Perfect classifier stub implementing the infer protocol."""

        def __init__(self, labels_by_clip, k):
            self.labels = labels_by_clip
            self.k = k
            self.dtype = np.float32

        def infer(self, clips):
            logits = np.zeros((len(clips), self.k), dtype=np.float32)
            for i, clip in enumerate(np.asarray(clips)):
                logits[i, self.labels[round(float(clip.sum()))]] = 10.0
            return logits

    def test_oracle_model_scores_100(self):
        k = 6
        items, labels = [], {}
        for i in range(12):
            clip = np.full((2, 1, 2, 2), i / 8.0, dtype=np.float32)
            label = i % k
            items.append((clip, label))
            labels[round(float(clip.sum()))] = label
        m = evaluate(self.OracleModel(labels, k), items)
        assert m.prec1 == 100.0 and m.prec5 == 100.0
        assert m.loss <= 1e-3

    def test_k5_prec5_always_100(self):
        spec = tiny_spec(num_classes=3)  # K <= 5: pigeonhole
        model = build(spec, seed=0)
        ds = random_dataset(spec, 10, seed=4)
        assert evaluate(model, ds).prec5 == 100.0

    def test_uniform_random_logits_monte_carlo(self):
        rng = np.random.default_rng(8)
        n, k = 10_000, 4
        logits = rng.uniform(-1, 1, (n, k))
        labels = rng.integers(0, k, n)
        prec1 = 100.0 * topk_hits(logits, labels, 1) / n
        assert abs(prec1 - 25.0) <= 2.0

    def test_order_independent(self):
        spec = tiny_spec()
        model = build(spec, seed=3)
        ds = random_dataset(spec, 9, seed=5)
        a = evaluate(model, ds)
        b = evaluate(model, list(reversed(ds)))
        assert a == b

    def test_tie_break_prefers_lower_class(self):
        logits = np.zeros((1, 6))
        assert topk_hits(logits, np.array([0]), 1) == 1
        assert topk_hits(logits, np.array([5]), 1) == 0
        assert topk_hits(logits, np.array([4]), 5) == 1
        assert topk_hits(logits, np.array([5]), 5) == 0

    def test_prec1_le_prec5(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            logits = rng.uniform(-1, 1, (30, 8))
            labels = rng.integers(0, 8, 30)
            assert topk_hits(logits, labels, 1) <= topk_hits(logits, labels, 5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            evaluate(build(tiny_spec(), seed=0), [])

    @pytest.mark.parametrize("odd_at", [0, 1, 4, 8])
    @pytest.mark.parametrize("odd_shape", [(5, 2, 8, 8), (4, 2, 8, 6), (4, 2, 8)])
    def test_mixed_shapes_rejected(self, odd_at, odd_shape):
        # tiny_spec has T = 4, so chunks of 4 clips; the odd clip lands in the
        # first chunk, inside the second, or alone in the third
        spec = tiny_spec()
        ds = random_dataset(spec, 9, seed=1)
        ds[odd_at] = (np.zeros(odd_shape, dtype=np.float32), ds[odd_at][1])
        with pytest.raises(DimensionError):
            evaluate(build(spec, seed=0), ds)

    def test_label_out_of_range_rejected(self):
        spec = tiny_spec()  # 3 classes
        ds = random_dataset(spec, 5, seed=2)
        ds[4] = (ds[4][0], 3)  # in the second chunk
        with pytest.raises(InputError, match="label 3 out of range"):
            evaluate(build(spec, seed=0), ds)

    @pytest.mark.parametrize("t,chunk", [(1, 16), (4, 4), (8, 2), (16, 1), (32, 1)])
    def test_chunks_in_dataset_order(self, monkeypatch, t, chunk):
        spec = tiny_spec(t=t)
        ds = random_dataset(spec, 5, seed=t)
        plans, frames = [], []
        frame_logits = backbone.InferencePlan.frame_logits

        def spy(plan, x, branch):
            plans.append(plan)
            frames.append(x.copy())
            return frame_logits(plan, x, branch)

        monkeypatch.setattr(backbone.InferencePlan, "frame_logits", spy)
        evaluate(build(spec, seed=0), ds)
        assert len({id(plan) for plan in plans}) == 1  # the weights are folded once
        assert [len(x) for x in frames] == [min(chunk, 5 - s) * t for s in range(0, 5, chunk)]
        npt.assert_array_equal(np.concatenate(frames), np.concatenate([c for c, _ in ds]))

    @pytest.mark.parametrize("temporal", ["shift", "action", "none"])
    def test_chunked_matches_one_at_a_time(self, temporal):
        spec = NetSpec.micro(6, temporal=temporal)
        model = perturbed(build(spec, seed=2), seed=3)
        ds = random_dataset(spec, 5, seed=4)  # T = 8: chunks of 2, 2 and 1 clips
        got = evaluate(model, ds)
        logits = np.concatenate([model.infer(clip[None]) for clip, _ in ds])
        labels = np.array([label for _, label in ds])
        assert got.prec1 == 100.0 * topk_hits(logits, labels, 1) / len(ds)
        assert got.prec5 == 100.0 * topk_hits(logits, labels, 5) / len(ds)
        loss = math.fsum(softmax_cross_entropy(Tensor(logits[i:i + 1]), labels[i:i + 1]).item()
                         for i in range(len(ds))) / len(ds)
        assert got.loss == pytest.approx(loss, rel=1e-6)


class TestTrain:
    def test_lr_zero_keeps_weights(self):
        spec = tiny_spec()
        model = build(spec, seed=4)
        before = {p.name: p.data.copy() for p in model.parameters()}
        ds = random_dataset(spec, 4, seed=6)
        history = train(model, ds, TrainConfig(epochs=3, batch_size=2, lr=0.0, seed=1))
        for p in model.parameters():
            npt.assert_array_equal(p.data, before[p.name])
        assert len({h["loss"] for h in history}) == 1  # constant metrics

    def test_single_sample_overfits(self):
        spec = tiny_spec()
        model = build(spec, seed=5)
        ds = random_dataset(spec, 1, seed=7)
        history = train(model, ds, TrainConfig(epochs=120, batch_size=1, lr=0.05,
                                               weight_decay=0.0, seed=2))
        assert history[-1]["loss"] < 1e-3

    def test_two_sample_overfit_within_200_epochs(self):
        spec = tiny_spec()
        model = build(spec, seed=6)
        # distinguishable pair (iid noise washes out under global pooling)
        a = np.zeros(spec.clip_shape, dtype=np.float32)
        a[:, :, :4, :] = 1.0
        b = np.zeros(spec.clip_shape, dtype=np.float32)
        b[:, :, 4:, :] = 1.0
        history = train(model, [(a, 0), (b, 2)],
                        TrainConfig(epochs=200, batch_size=2, lr=0.05,
                                    weight_decay=0.0, seed=3))
        assert min(h["loss"] for h in history) < 0.01

    def test_reproducible_history_at_float64(self):
        spec = tiny_spec()
        ds = random_dataset(spec, 6, seed=9)
        cfg = TrainConfig(epochs=3, batch_size=2, lr=0.02, seed=4)
        h1 = train(build(spec, seed=7, dtype=np.float64), ds, cfg)
        h2 = train(build(spec, seed=7, dtype=np.float64), ds, cfg)
        assert h1 == h2

    def test_shuffle_order_differs_but_both_converge(self):
        spec = tiny_spec()
        ds = random_dataset(spec, 8, seed=10)
        cfg_a = TrainConfig(epochs=12, batch_size=4, lr=0.03, seed=5)
        cfg_b = TrainConfig(epochs=12, batch_size=4, lr=0.03, seed=99)
        h_a = train(build(spec, seed=8), ds, cfg_a)
        h_b = train(build(spec, seed=8), ds, cfg_b)
        assert h_a != h_b
        assert h_a[-1]["loss"] < h_a[0]["loss"]
        assert h_b[-1]["loss"] < h_b[0]["loss"]

    def test_nan_loss_aborts(self):
        spec = tiny_spec()
        model = build(spec, seed=9)
        model.head_w.data = np.full_like(model.head_w.data, np.nan)
        ds = random_dataset(spec, 2, seed=11)
        with pytest.raises(NumericError, match="epoch 0"):
            train(model, ds, TrainConfig(epochs=1, batch_size=2, seed=0))

    def test_action_net_trains_at_t1(self):
        # with one frame the motion map is all zeros, but every parameter,
        # the motion transform included, still gets a gradient
        spec = tiny_spec(temporal="action", t=1)
        history = train(build(spec, seed=2), random_dataset(spec, 2, seed=3),
                        TrainConfig(epochs=1, batch_size=2, seed=0))
        assert len(history) == 1

    def test_label_out_of_range_rejected(self):
        spec = tiny_spec()
        ds = [(np.zeros(spec.clip_shape, dtype=np.float32), 3)]
        with pytest.raises(InputError):
            train(build(spec, seed=0), ds, TrainConfig(epochs=1, batch_size=1))

    def test_mixed_shapes_rejected(self):
        spec = tiny_spec()
        ds = random_dataset(spec, 4, seed=3)
        ds[1] = (np.zeros((5, 2, 8, 8), dtype=np.float32), ds[1][1])
        with pytest.raises(DimensionError):
            train(build(spec, seed=0), ds, TrainConfig(epochs=1, batch_size=4))


class TestSaveLoad:
    def test_roundtrip_preserves_outputs(self, tmp_path):
        spec = tiny_spec()
        model = build(spec, seed=10)
        model.save(tmp_path / "m.sgnf", tmp_path / "netspec.json")
        loaded = Model.load(tmp_path / "m.sgnf", tmp_path / "netspec.json")
        rng = np.random.default_rng(12)
        clip = rng.uniform(0, 1, (1, *spec.clip_shape)).astype(np.float32)
        npt.assert_array_equal(model.forward(clip).numpy(), loaded.forward(clip).numpy())

    def test_weight_names_and_order(self):
        def conv(unit, norm):
            return [f"{unit}.w", f"{unit}.b", f"{norm}.gamma", f"{norm}.beta"]

        spec = tiny_spec(stages=(StageSpec(1, 8), StageSpec(1, 16, 2)))
        block0, block1 = "stage0.block0", "stage1.block0"
        assert list(build(spec, seed=0).state_dict()) == [
            *conv("stem", "stem_norm"),
            *conv(f"{block0}.conv1", f"{block0}.norm1"),
            *conv(f"{block0}.conv2", f"{block0}.norm2"),
            *conv(f"{block1}.conv1", f"{block1}.norm1"),
            *conv(f"{block1}.conv2", f"{block1}.norm2"),
            *conv(f"{block1}.proj", f"{block1}.proj_norm"),
            "head.w", "head.b"]

    def test_weight_file_roundtrips_bit_exact(self, tmp_path):
        from signflow.tensor import load_weights
        model = build(tiny_spec(), seed=11)
        p1, p2 = tmp_path / "a.sgnf", tmp_path / "b.sgnf"
        model.save(p1)
        loaded = build(tiny_spec(), seed=0)
        loaded.load_state_dict(load_weights(p1))
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_float64_model_save_rejected(self, tmp_path):
        model = build(tiny_spec(), seed=0, dtype=np.float64)
        weights = tmp_path / "m.sgnf"
        with pytest.raises(ConfigError, match="float32") as exc:
            model.save(weights, tmp_path / "netspec.json")
        assert str(weights) in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_load_state_dict_copies(self):
        model = build(tiny_spec(), seed=0)
        state = build(tiny_spec(), seed=1).state_dict()
        model.load_state_dict(state)
        state["head.b"][:] = 5
        assert not (model.head_b.data == 5).any()

    def test_mismatched_weights_rejected(self, tmp_path):
        model = build(tiny_spec(), seed=0)
        model.save(tmp_path / "m.sgnf", tmp_path / "netspec.json")
        other = build(tiny_spec(stem_channels=16, stages=(StageSpec(1, 16),)), seed=0)
        from signflow.tensor import load_weights
        with pytest.raises((ConfigError, DimensionError)):
            other.load_state_dict(load_weights(tmp_path / "m.sgnf"))


class TestMetricsInvariants:
    def test_metrics_dict_shape(self):
        d = Metrics(prec1=50.0, prec5=100.0, loss=0.5).to_dict(epoch=3)
        assert list(d) == ["epoch", "prec1", "prec5", "loss"]


# -- graph-free inference ---------------------------------------------------------------

# Folded inference agrees with the graph to rounding: |diff| <= TOL * max(1, max|logit|).
TOL = {np.float32: 1e-5, np.float64: 1e-12}


def perturbed(model, seed=0):
    """Random affine scales/shifts and biases, so that folding has work to do."""
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        if p.name.endswith(".gamma"):
            p.data = rng.uniform(0.5, 1.5, p.shape).astype(model.dtype)
        elif p.name.endswith((".beta", ".b", "_b", "_bias")):
            p.data = rng.uniform(-0.5, 0.5, p.shape).astype(model.dtype)
    return model


def assert_agrees(got, reference, dtype):
    assert got.dtype == dtype
    scale = max(1.0, float(np.abs(reference).max()))
    assert np.abs(got - reference).max() <= TOL[dtype] * scale


def stream_logits(model, clip):
    """[N,T,...] clip -> [N,T,K] frame logits of one stream over it."""
    stream = model.open_stream()
    return np.stack([stream.step(clip[:, t])["frame_logits"] for t in range(clip.shape[1])],
                    axis=1)


class TestInfer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("temporal,direction", [("shift", "bidirectional"),
                                                    ("shift", "unidirectional"),
                                                    ("none", "bidirectional"),
                                                    ("action", "bidirectional")])
    def test_matches_forward(self, temporal, direction, dtype):
        spec = tiny_spec(temporal=temporal, direction=direction, stem_stride=2,
                         stages=(StageSpec(1, 8), StageSpec(1, 16, 2)))
        model = perturbed(build(spec, seed=3, dtype=dtype), seed=4)
        clips = np.random.default_rng(5).uniform(0, 1, (3, *spec.clip_shape)).astype(dtype)
        got = model.infer(clips)
        assert got.shape == (3, spec.num_classes)
        assert_agrees(got, model.forward(clips).numpy(), dtype)

    def test_follows_current_weights(self):
        model = build(tiny_spec(), seed=1)
        other = perturbed(build(tiny_spec(), seed=2), seed=3)
        clip = np.random.default_rng(4).uniform(0, 1, (1, *tiny_spec().clip_shape))
        model.load_state_dict(other.state_dict())
        npt.assert_array_equal(model.infer(clip), other.infer(clip))

    @pytest.mark.parametrize("temporal", ["shift", "none", "action"])
    def test_action_builds_no_graph_and_follows_weights(self, monkeypatch, temporal):
        spec = tiny_spec(temporal=temporal)
        model = perturbed(build(spec, seed=1), seed=2)
        other = perturbed(build(spec, seed=3), seed=4)
        clip = np.random.default_rng(5).uniform(0, 1, (2, *spec.clip_shape)).astype(np.float32)
        made = []
        init = Tensor.__init__

        def spy(tensor, *args, **kw):
            made.append(kw.get("op", ""))
            init(tensor, *args, **kw)

        monkeypatch.setattr(Tensor, "__init__", spy)
        first = model.infer(clip)
        second = model.infer(clip[0])  # one [T,C,H,W] clip: no reshape node either
        assert made == [] and second.shape == (1, spec.num_classes)
        monkeypatch.undo()
        assert all(p.grad is None for p in model.parameters())
        plan = backbone.InferencePlan(model)
        for block, arrays in zip(model.blocks, plan.actions):
            assert (arrays is None) == (temporal != "action")
            if arrays is None:
                continue
            a = block.action
            assert [conv.w for conv in arrays.convs] == [
                getattr(arrays, name) for name in ("ste_w", "me_squeeze", "me_transform")]
            c, d = a.ce_squeeze.shape
            taps = (a.ce_squeeze.data.reshape(c, d, 1) * a.ce_temporal.data).reshape(c, -1)
            npt.assert_array_equal(arrays.squeeze_taps(), taps)
            for p in a.parameters():
                got = getattr(arrays, p.name.rsplit(".", 1)[1])
                assert not np.shares_memory(got, p.data)
                npt.assert_array_equal(got, p.data.reshape(got.shape))
        model.load_state_dict(other.state_dict())
        later = model.infer(clip)
        npt.assert_array_equal(later, other.infer(clip))
        assert not np.array_equal(first, later)

    def test_wrong_shape_rejected(self):
        model = build(tiny_spec(), seed=0)
        for shape in [(1, 5, 2, 8, 8), (1, 4, 3, 8, 8)]:
            with pytest.raises(DimensionError):
                model.infer(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_list_equals_stacked_array(self, dtype):
        spec = NetSpec.micro(5, temporal="action")
        model = perturbed(build(spec, seed=1, dtype=dtype), seed=2)
        clips = [c for c, _ in random_dataset(spec, 5, seed=3)]  # T = 8: chunks of 2, 2, 1
        npt.assert_array_equal(model.infer(clips), model.infer(np.stack(clips)))

    @pytest.mark.parametrize("temporal", ["shift", "action", "none"])
    def test_five_clips_run_in_chunks_of_16_16_and_8_frames(self, monkeypatch, temporal):
        spec = NetSpec.micro(4, temporal=temporal)
        model = perturbed(build(spec, seed=1), seed=2)
        clips = np.random.default_rng(3).uniform(0, 1, (5, *spec.clip_shape)).astype(np.float32)
        chunks = []
        frame_logits = backbone.InferencePlan.frame_logits

        def spy(plan, x, branch):
            chunks.append(len(x))
            return frame_logits(plan, x, branch)

        monkeypatch.setattr(backbone.InferencePlan, "frame_logits", spy)
        got = model.infer(clips)
        assert chunks == [16, 16, 8]  # each conv keeps a lowering for the last chunk's shape
        assert_agrees(got, model.forward(clips).numpy(), np.float32)

    def test_mixed_clip_shapes_rejected(self):
        model = build(tiny_spec(), seed=0)
        clips = [np.zeros((4, 2, 8, 8)), np.zeros((4, 2, 8, 6))]
        with pytest.raises(DimensionError, match="share one"):
            model.infer(clips)

    @pytest.mark.parametrize("clips", [[], np.zeros((0, 4, 2, 8, 8), dtype=np.float32)],
                             ids=["list", "array"])
    def test_empty_batch_rejected(self, clips):
        with pytest.raises(DimensionError):
            build(tiny_spec(), seed=0).infer(clips)


class TestStream:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stem_stride", [1, 2])
    def test_matches_per_frame_logits(self, stem_stride, dtype):
        # odd frame sizes and a strided stage: the cache shapes follow the convs
        spec = tiny_spec(direction="unidirectional", frame_size=(9, 7), stem_stride=stem_stride,
                         stages=(StageSpec(1, 8), StageSpec(1, 16, 2)), t=5)
        model = perturbed(build(spec, seed=6, dtype=dtype), seed=7)
        clip = np.random.default_rng(8).uniform(0, 1, (2, 5, 2, 9, 7)).astype(dtype)
        assert_agrees(stream_logits(model, clip), model.per_frame_logits(clip).numpy(), dtype)

    def test_none_model_streams(self):
        spec = tiny_spec(temporal="none")
        model = perturbed(build(spec, seed=1, dtype=np.float64), seed=2)
        clip = np.random.default_rng(3).uniform(0, 1, (1, *spec.clip_shape))
        assert_agrees(stream_logits(model, clip), model.per_frame_logits(clip).numpy(),
                      np.float64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_none_stream_hands_each_block_input_on_and_holds_nothing(self, n, dtype,
                                                                     monkeypatch):
        spec = NetSpec.micro(4, temporal="none")
        model = perturbed(build(spec, seed=1, dtype=dtype), seed=2)
        clip = np.random.default_rng(3).uniform(0, 1, (n, *spec.clip_shape)).astype(dtype)
        want = model.per_frame_logits(clip).numpy()

        def no_shift(*args):
            raise AssertionError("a none stream ran the online shift")

        monkeypatch.setattr(backbone, "online_step", no_shift)
        stream = model.open_stream()
        seen = []
        branch = stream._branch
        monkeypatch.setattr(stream, "_branch",
                            lambda i, x: seen.append(branch(i, x) is x) or x)
        got = np.stack([stream.step(clip[:, t])["frame_logits"] for t in range(spec.t)], axis=1)
        assert seen == [True] * (spec.t * len(model.blocks))
        assert stream.prev == [None] * len(model.blocks)
        assert_agrees(got, want, dtype)

    def test_stream_keeps_weights_it_was_opened_with(self):
        spec = tiny_spec(direction="unidirectional")
        model = build(spec, seed=1, dtype=np.float64)
        clip = np.random.default_rng(2).uniform(0, 1, (1, *spec.clip_shape))
        expected = model.per_frame_logits(clip).numpy()[0]
        stream = model.open_stream()
        model.load_state_dict(perturbed(build(spec, seed=3, dtype=np.float64)).state_dict())
        got = np.stack([stream.step(clip[:, t])["frame_logits"][0] for t in range(spec.t)])
        assert_agrees(got, expected, np.float64)

    @pytest.mark.parametrize("temporal", ["shift", "none"])
    @pytest.mark.parametrize("shape", [(1, 2, 20, 24), (1, 3, 8, 8), (2, 8, 8, 1),
                                       (8, 8), (1, 1, 2, 8, 8), (0, 2, 8, 8)])
    def test_bad_frame_shape_names_stream(self, temporal, shape):
        model = build(tiny_spec(temporal=temporal, direction="unidirectional"), seed=0)
        stream = model.open_stream(stream_id="cam7")
        with pytest.raises(InputError, match="cam7"):
            stream.step(np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("temporal", ["shift", "none"])
    @pytest.mark.parametrize("first,then", [(1, 2), (2, 3), (2, 1)])
    def test_batch_change_names_stream(self, temporal, first, then):
        model = build(tiny_spec(temporal=temporal, direction="unidirectional"), seed=0)
        stream = model.open_stream(stream_id="cam7")
        stream.step(np.zeros((first, 2, 8, 8), dtype=np.float32))
        with pytest.raises(InputError, match="cam7"):
            stream.step(np.zeros((then, 2, 8, 8), dtype=np.float32))
        # the bad frame left the stream as it was
        out = stream.step(np.zeros((first, 2, 8, 8), dtype=np.float32))
        assert out["rolling_logits"].shape == (first, 3)

    @pytest.mark.parametrize("temporal", ["shift", "none"])
    def test_plan_gives_the_stream_its_folds_and_frame_shape(self, temporal):
        model = perturbed(build(tiny_spec(temporal=temporal, direction="unidirectional"),
                                seed=1, dtype=np.float64), seed=2)
        plan = backbone.InferencePlan(model)
        assert plan.folds == [block.fold for block in model.blocks]
        assert plan.frame_shape == (2, 8, 8)
        clip = np.random.default_rng(3).uniform(0, 1, (1, 4, 2, 8, 8))
        stream, opened = backbone.StreamState(plan, "s"), model.open_stream()
        for t in range(4):
            npt.assert_array_equal(stream.step(clip[:, t])["frame_logits"],
                                   opened.step(clip[:, t])["frame_logits"])

    def test_step_builds_no_tensor(self, monkeypatch):
        model = build(tiny_spec(direction="unidirectional"), seed=0)
        stream = model.open_stream()

        def no_tensor(self, *args, **kwargs):
            raise AssertionError("stream step built a Tensor")

        monkeypatch.setattr(Tensor, "__init__", no_tensor)
        stream.step(np.zeros((2, 8, 8), dtype=np.float32))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_stream_equals_offline_over_random_specs(self, data):
        draw = data.draw
        stages = tuple(StageSpec(1, draw(st.sampled_from([8, 16])), draw(st.integers(1, 2)))
                       for _ in range(draw(st.integers(1, 2))))
        spec = NetSpec(num_classes=3, t=draw(st.integers(1, 5)),
                       in_channels=draw(st.integers(1, 3)),
                       frame_size=(draw(st.integers(3, 10)), draw(st.integers(3, 10))),
                       stem_channels=draw(st.sampled_from([8, 16])),
                       stem_stride=draw(st.integers(1, 2)), stages=stages, temporal="shift",
                       fold_fraction=draw(st.sampled_from([0.125, 0.25, 0.5])),
                       direction="unidirectional")
        seed = draw(st.integers(0, 2**16))
        model = perturbed(build(spec, seed=seed, dtype=np.float64), seed=seed + 1)
        clip = np.random.default_rng(seed).uniform(0, 1, (1, *spec.clip_shape))
        assert_agrees(stream_logits(model, clip), model.per_frame_logits(clip).numpy(),
                      np.float64)


class TestStreamConv:
    @settings(max_examples=80, deadline=None)
    @given(c=st.integers(1, 4), h=st.integers(1, 7), w=st.integers(1, 7), n=st.integers(1, 3),
           k=st.sampled_from([1, 3]), stride=st.sampled_from([1, 2]), pad=st.sampled_from([0, 1]),
           seed=st.integers(0, 2**16))
    def test_gather_equals_im2col(self, c, h, w, n, k, stride, pad, seed):
        assume(h + 2 * pad >= k and w + 2 * pad >= k)
        x = np.random.default_rng(seed).uniform(-1, 1, (n, c, h, w)).astype(np.float32)
        index = backbone.gather_index(c, h, w, n, k, k, stride, pad)
        buf = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
        buf[:, :, pad:pad + h, pad:pad + w] = x
        oh, ow = _conv2d_out_hw(h, w, k, k, stride, pad)
        cols = _im2col(_channel_major(x, pad), k, k, stride, oh, ow)
        npt.assert_array_equal(buf.reshape(-1)[index], cols)
        assert not index.flags.writeable
        assert backbone.gather_index(c, h, w, n, k, k, stride, pad) is index  # one per geometry

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 2, 0), (1, 1, 0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_stream_conv_is_conv2d_array_bit_for_bit(self, k, stride, pad, n):
        rng = np.random.default_rng(k + stride + n)
        w = rng.uniform(-1, 1, (5, 3, k, k)).astype(np.float32)
        b = rng.uniform(-1, 1, 5).astype(np.float32)
        conv = backbone._PlanConv(stride, pad, backbone._Scratch(np.float32))
        conv.load(w, b)
        for _ in range(3):  # the buffer is reused from call to call
            x = rng.uniform(-1, 1, (n, 3, 7, 6)).astype(np.float32)
            npt.assert_array_equal(conv(x), conv2d_array(x, w, b, stride, pad))
        assert lowerings(conv) == {n: "gather"}

    def test_a_new_shape_picks_again(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(-1, 1, (5, 3, 3, 3)).astype(np.float32)
        b = rng.uniform(-1, 1, 5).astype(np.float32)
        conv = backbone._PlanConv(1, 1, backbone._Scratch(np.float32))
        conv.load(w, b)
        # two rows gather, three run conv2d_array, one row gathers, and two rows gather
        # again through the lowering kept from the first call
        first = {}
        for n, kind in ((2, "gather"), (3, "array"), (1, "gather"), (2, "gather")):
            x = rng.uniform(-1, 1, (n, 3, 7, 6)).astype(np.float32)
            npt.assert_array_equal(conv(x), conv2d_array(x, w, b, 1, 1))
            assert lowerings(conv)[n] == kind
            first.setdefault(x.shape, conv.lowered[x.shape])
        assert lowerings(conv) == {2: "gather", 3: "array", 1: "gather"}
        assert all(conv.lowered[shape] is lowering for shape, lowering in first.items())


class TestKeptViews:
    """A plan conv keeps, per input shape, every view its call needs."""

    @pytest.mark.parametrize("lowering", ["gather", "array"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_a_warmed_conv_returns_its_kept_output(self, k, stride, pad, n, lowering,
                                                   monkeypatch):
        gather = lowering == "gather"
        monkeypatch.setattr(backbone, "GATHER_MAX_ROWS", n if gather else 0)
        monkeypatch.setattr(backbone, "GATHER_MAX_COLS", 1 << 30 if gather else 0)
        rng = np.random.default_rng(k * 100 + stride * 10 + pad + n)
        w = rng.uniform(-1, 1, (5, 3, k, k)).astype(np.float32)
        b = rng.uniform(-1, 1, 5).astype(np.float32)
        conv = backbone._PlanConv(stride, pad, backbone._Scratch(np.float32))
        conv.load(w, b)
        results = []
        for _ in range(3):
            x = rng.uniform(-1, 1, (n, 3, 7, 6)).astype(np.float32)
            results.append(conv(x))
            npt.assert_array_equal(results[-1], conv2d_array(x, w, b, stride, pad))
        assert lowerings(conv) == {n: lowering}
        kept = conv.lowered[x.shape]
        out = kept[-2]
        assert all(r is kept[-1] for r in results)
        assert results[0].base is not None and np.shares_memory(results[0], out)

    def test_a_conv_lowered_before_the_shared_cols_grew_uses_the_new_ones(self, monkeypatch):
        monkeypatch.setattr(backbone, "GATHER_MAX_ROWS", 0)
        rng = np.random.default_rng(11)
        scratch = backbone._Scratch(np.float32)
        convs = []
        for k, c in ((1, 2), (3, 4)):
            w = rng.uniform(-1, 1, (5, c, k, k)).astype(np.float32)
            b = rng.uniform(-1, 1, 5).astype(np.float32)
            convs.append((backbone._PlanConv(1, k // 2, scratch), w, b))
            convs[-1][0].load(w, b)
        inputs = [rng.uniform(-1, 1, (4, c, 6, 6)).astype(np.float32) for c in (2, 4)]
        small, big = convs[0][0], convs[1][0]
        small(inputs[0])
        first = scratch.shared
        big(inputs[1])  # 36 rows of cols where the small conv has 2: they grow
        assert scratch.shared.size > first.size
        for _ in range(2):
            for (conv, w, b), x in zip(convs, inputs):
                npt.assert_array_equal(conv(x), conv2d_array(x, w, b, 1, conv.pad))
        for conv in (small, big):
            _, _, cols_6d, cols, *_ = conv.lowered[next(iter(conv.lowered))]
            assert np.shares_memory(cols, scratch.shared)
            assert np.shares_memory(cols_6d, cols)
            assert not np.shares_memory(cols, first)


def plan_convs(plan):
    """Every conv of a plan: the stem, then each block's conv1, conv2 and proj,
    then each excitation block's ste, me squeeze and me transform."""
    return [plan.stem, *(conv for block in plan.blocks for conv in block if conv is not None),
            *(conv for arrays in plan.actions if arrays is not None for conv in arrays.convs)]


def lowerings(conv):
    """The lowering a plan conv keeps for each row count N of the inputs it has
    seen: "gather" (a 5-tuple), or "array" (a 6-list in the plan's _Scratch)."""
    return {shape[0]: "gather" if len(lowering) == 5 else "array"
            for shape, lowering in conv.lowered.items()}


def kept_buffers(plan):
    """Every array a plan's convs keep: each lowering's, and the shared cols."""
    return [a for conv in plan_convs(plan) for lowering in conv.lowered.values()
            for a in lowering if isinstance(a, np.ndarray)] + [plan.stem.scratch.shared]


def stream_buffers(stream):
    """(conv, input shape, copy) of every array a stream's convs keep, in order
    (none before its first frame)."""
    return [(i, shape, a.copy()) for i, conv in enumerate(plan_convs(stream.plan))
            for shape, lowering in conv.lowered.items()
            for a in lowering if isinstance(a, np.ndarray)]


def assert_same_buffers(got, want):
    assert [key for *key, _ in got] == [key for *key, _ in want]
    for (*_, a), (*_, b) in zip(got, want):
        npt.assert_array_equal(a, b)


class TestStreamBuffers:
    @pytest.mark.parametrize("temporal", ["shift", "none"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_alternated_streams_equal_streams_run_alone(self, temporal, n):
        spec = NetSpec.micro(4, temporal=temporal, direction="unidirectional")
        model = perturbed(build(spec, seed=1), seed=2)
        rng = np.random.default_rng(3)
        clips = [rng.uniform(0, 1, (n, 6, 1, 32, 32)).astype(np.float32) for _ in range(2)]
        alone = [stream_logits(model, clip) for clip in clips]
        streams = [model.open_stream(stream_id=f"s{i}") for i in range(2)]
        got = [[], []]
        for t in range(6):
            for i, stream in enumerate(streams):
                got[i].append(stream.step(clips[i][:, t])["frame_logits"])
        for i in range(2):
            npt.assert_array_equal(np.stack(got[i], axis=1), alone[i])

    @pytest.mark.parametrize("temporal", ["shift", "none"])
    def test_two_streams_of_different_n_keep_their_lowerings(self, temporal, monkeypatch):
        spec = NetSpec.micro(4, temporal=temporal, direction="unidirectional")
        model = perturbed(build(spec, seed=1), seed=2)
        rng = np.random.default_rng(3)
        clips = [rng.uniform(0, 1, (n, 6, 1, 32, 32)).astype(np.float32) for n in (1, 2)]
        alone = [stream_logits(model, clip) for clip in clips]
        plan = backbone.InferencePlan(model)
        streams = [backbone.StreamState(plan, f"s{i}") for i in range(2)]
        got = [[stream.step(clip[:, 0])["frame_logits"]] for stream, clip in zip(streams, clips)]
        assert all(lowerings(conv) == {1: "gather", 2: "gather"} for conv in plan_convs(plan))
        kept = [{shape: id(lowering) for shape, lowering in conv.lowered.items()}
                for conv in plan_convs(plan)]

        def no_buffer(*args):
            raise AssertionError("a plan conv made a new buffer")

        monkeypatch.setattr(backbone._Scratch, "take", no_buffer)
        monkeypatch.setattr(backbone, "_mapped", no_buffer)
        for t in range(1, 6):  # after each stream's first step, alternating makes nothing
            for i, stream in enumerate(streams):
                got[i].append(stream.step(clips[i][:, t])["frame_logits"])
        assert [{shape: id(lowering) for shape, lowering in conv.lowered.items()}
                for conv in plan_convs(plan)] == kept
        for i in range(2):
            npt.assert_array_equal(np.stack(got[i], axis=1), alone[i])

    @pytest.mark.parametrize("temporal", ["shift", "none"])
    def test_two_streams_of_different_n_share_one_plan(self, temporal):
        spec = NetSpec.micro(4, temporal=temporal, direction="unidirectional")
        model = perturbed(build(spec, seed=1), seed=2)
        rng = np.random.default_rng(3)
        clips = [rng.uniform(0, 1, (n, 6, 1, 32, 32)).astype(np.float32) for n in (1, 2)]
        alone = [stream_logits(model, clip) for clip in clips]
        plan = backbone.InferencePlan(model)
        streams = [backbone.StreamState(plan, f"s{i}") for i in range(2)]
        got = [[], []]
        for t in range(6):  # each conv picks again whenever the other stream stepped last
            for i, stream in enumerate(streams):
                got[i].append(stream.step(clips[i][:, t])["frame_logits"])
        for i, clip in enumerate(clips):
            npt.assert_array_equal(np.stack(got[i], axis=1), alone[i])
            assert_agrees(alone[i], model.per_frame_logits(clip).numpy(), np.float32)

    def test_kept_results_are_new_arrays_that_later_steps_leave_alone(self):
        spec = NetSpec.micro(4, direction="unidirectional")
        model = perturbed(build(spec, seed=1), seed=2)
        clip = np.random.default_rng(4).uniform(0, 1, (1, 6, 1, 32, 32)).astype(np.float32)
        stream = model.open_stream()
        kept, copies = [], []
        for t in range(6):
            kept.append(stream.step(clip[:, t]))
            copies.append({key: np.copy(value) for key, value in kept[-1].items()})
        for out, copy in zip(kept, copies):  # later steps ran after each was returned
            for key, value in copy.items():
                npt.assert_array_equal(out[key], value)
        buffers = kept_buffers(stream.plan)
        arrays = [out[key] for out in kept for key in ("frame_logits", "rolling_logits")]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, buf) for buf in buffers)
            assert not any(np.shares_memory(a, other) for other in arrays[i + 1:])

    @pytest.mark.parametrize("temporal", ["shift", "none"])
    def test_rejected_frame_leaves_the_buffers_as_they_were(self, temporal):
        spec = NetSpec.micro(4, temporal=temporal, direction="unidirectional")
        model = perturbed(build(spec, seed=1), seed=2)
        clip = np.random.default_rng(5).uniform(0, 1, (1, 4, 1, 32, 32)).astype(np.float32)
        stream = model.open_stream(stream_id="cam7")
        assert stream_buffers(stream) == []
        with pytest.raises(InputError, match="cam7"):  # before any frame: nothing is made
            stream.step(np.zeros((1, 1, 8, 8), dtype=np.float32))
        assert stream_buffers(stream) == []
        for t in range(2):
            stream.step(clip[:, t])
        before = stream_buffers(stream)
        for shape in ((2, 1, 32, 32), (1, 1, 16, 32), (1, 1, 1, 32)):
            bad = np.full(shape, 7, dtype=np.float32)
            with pytest.raises(InputError, match="cam7"):
                stream.step(bad)
            assert_same_buffers(stream_buffers(stream), before)
        rest = np.stack([stream.step(clip[:, t])["frame_logits"] for t in range(2, 4)], axis=1)
        npt.assert_array_equal(rest, stream_logits(model, clip)[:, 2:])


class TestStreamConvChoice:
    @pytest.mark.parametrize("n", [1, 2])
    def test_micro_gathers_every_conv(self, n):
        stream = build(NetSpec.micro(4, direction="unidirectional"), seed=0).open_stream()
        stream.step(np.zeros((n, 1, 32, 32), dtype=np.float32))
        assert all(lowerings(conv) == {n: "gather"} for conv in plan_convs(stream.plan))

    def test_micro_streams_gather_and_infer_runs_conv2d_array(self, monkeypatch):
        spec = NetSpec.micro(4, direction="unidirectional")
        model = perturbed(build(spec, seed=1), seed=2)
        rng = np.random.default_rng(3)
        for n in (1, 2):
            clip = rng.uniform(0, 1, (n, 4, 1, 32, 32)).astype(np.float32)
            stream = model.open_stream()
            got = np.stack([stream.step(clip[:, t])["frame_logits"] for t in range(4)], axis=1)
            assert all(lowerings(conv) == {n: "gather"} for conv in plan_convs(stream.plan))
            assert_agrees(got, model.per_frame_logits(clip).numpy(), np.float32)
        picked = []
        frame_logits = backbone.InferencePlan.frame_logits

        def spy(plan, x, branch):
            out = frame_logits(plan, x, branch)
            picked.append((len(x), [lowerings(conv)[len(x)] for conv in plan_convs(plan)]))
            return out

        monkeypatch.setattr(backbone.InferencePlan, "frame_logits", spy)
        clips = rng.uniform(0, 1, (5, *spec.clip_shape)).astype(np.float32)
        assert_agrees(model.infer(clips), model.forward(clips).numpy(), np.float32)
        assert picked == [(n, ["array"] * 7) for n in (16, 16, 8)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_runs_its_stem_as_an_array_conv_and_gathers_its_projections(self, n):
        model = perturbed(build(NetSpec.tiny(4, direction="unidirectional"), seed=1), seed=2)
        clip = np.random.default_rng(3).uniform(0, 1, (n, 3, 3, 32, 32)).astype(np.float32)
        got = stream_logits(model, clip)
        stream = model.open_stream()
        stream.step(clip[:, 0])
        projections = [proj for _, _, proj in stream.plan.blocks if proj is not None]
        assert lowerings(stream.plan.stem) == {n: "array"} and len(projections) == 2
        assert [conv for conv in plan_convs(stream.plan)
                if lowerings(conv) == {n: "gather"}] == projections
        assert_agrees(got, model.per_frame_logits(clip).numpy(), np.float32)

    @pytest.mark.parametrize("preset,channels", [("micro", 1), ("tiny", 3)])
    def test_a_stream_is_freed_without_the_cyclic_collector(self, preset, channels):
        model = build(getattr(NetSpec, preset)(4, direction="unidirectional"), seed=0)
        stream = model.open_stream()
        stream.step(np.zeros((1, channels, 32, 32), dtype=np.float32))
        refs = [weakref.ref(conv) for conv in plan_convs(stream.plan)]
        gc.disable()
        try:
            del stream
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


# The first 16 hex digits of the sha256 of float32 infer logits: (preset, temporal) ->
# {clips: digest}, for perturbed(build(spec, seed=1), seed=2) on uniform clips of
# default_rng(3). They pin the bytes for one numpy and BLAS build; a GEMM kernel of
# another build may round differently.
INFER_SHA256 = {
    ("micro", "shift"): {1: "61de7e27409b76ed", 3: "73cddfc690a933ae", 5: "e04c96526f0bbd41"},
    ("micro", "none"): {1: "94c9ff5b0de3d3e9", 3: "c5d6c6451f63901f", 5: "c257e1e01e2ae3bb"},
    ("micro", "action"): {1: "5664eda2bea8c7ae", 3: "b56a7033b92b0637", 5: "7e44d25214091e36"},
    ("tiny", "shift"): {1: "b0ecc964f457541c", 3: "3e1ea318c803d3f7", 5: "7d95ae7dc57fe8fc"},
    ("tiny", "none"): {1: "82886af4f46cde82", 3: "ff0766bb5e8b1916", 5: "d6ec9ab5d0d2d6b0"},
    ("tiny", "action"): {1: "93cdb28b7fa4a4e6", 3: "4faa8bfd9d8ba232", 5: "b0f874111c8f74fd"},
}


class TestKeptBuffers:
    """Model.infer keeps one InferencePlan and folds the current weights into
    it on every call; each plan conv keeps its buffers per input shape."""

    @pytest.mark.parametrize("preset", ["micro", "tiny"])
    @pytest.mark.parametrize("temporal", ["shift", "none", "action"])
    def test_infer_logits_are_the_golden_bytes(self, preset, temporal):
        spec = getattr(NetSpec, preset)(4, temporal=temporal)
        model = perturbed(build(spec, seed=1), seed=2)
        for n, digest in INFER_SHA256[preset, temporal].items():
            clips = np.random.default_rng(3).uniform(0, 1, (n, *spec.clip_shape))
            for _ in range(2):  # the first call of a shape, then one on its kept buffers
                got = model.infer(clips.astype(np.float32))
                assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("change", ["rebind", "in-place", "load_state_dict"])
    def test_infer_follows_every_weight_change(self, change):
        spec = NetSpec.micro(4, temporal="action")
        model = perturbed(build(spec, seed=1), seed=2)
        clips = np.random.default_rng(3).uniform(0, 1, (3, *spec.clip_shape)).astype(np.float32)
        before = model.infer(clips)
        if change == "rebind":
            for p in model.parameters():
                p.data = p.data * np.float32(0.5)
        elif change == "in-place":
            for p in model.parameters():
                p.data *= 0.5
        else:
            model.load_state_dict(perturbed(build(spec, seed=4), seed=5).state_dict())
        got = model.infer(clips)
        assert not np.array_equal(got, before)
        assert_agrees(got, model.forward(clips).numpy(), np.float32)
        fresh = build(spec, seed=0)
        fresh.load_state_dict(model.state_dict())
        npt.assert_array_equal(got, fresh.infer(clips))  # a new plan: the same bytes

    @pytest.mark.parametrize("temporal", ["shift", "action"])
    def test_a_second_call_of_a_shape_makes_no_buffer(self, monkeypatch, temporal):
        spec = NetSpec.micro(4, temporal=temporal)
        model = perturbed(build(spec, seed=1), seed=2)
        clips = np.random.default_rng(3).uniform(0, 1, (5, *spec.clip_shape)).astype(np.float32)
        first = model.infer(clips)  # chunks of 16, 16 and 8 frames
        plan = model._plan
        kept = [{shape: id(lowering) for shape, lowering in conv.lowered.items()}
                for conv in plan_convs(plan)]

        def no_buffer(*args):
            raise AssertionError("infer made a new buffer")

        monkeypatch.setattr(backbone._Scratch, "take", no_buffer)
        monkeypatch.setattr(backbone, "_mapped", no_buffer)
        npt.assert_array_equal(model.infer(clips), first)
        assert model._plan is plan
        assert [{shape: id(lowering) for shape, lowering in conv.lowered.items()}
                for conv in plan_convs(plan)] == kept

    @pytest.mark.parametrize("temporal", ["shift", "action"])
    def test_nothing_returned_or_held_shares_a_kept_buffer(self, temporal):
        # the tiny stream runs its stem as conv2d_array at N = 1: a kept output
        spec = NetSpec.tiny(4, temporal=temporal, direction="unidirectional")
        model = perturbed(build(spec, seed=1), seed=2)
        rng = np.random.default_rng(3)
        clips = rng.uniform(0, 1, (3, *spec.clip_shape)).astype(np.float32)
        returned = [model.infer(clips), model.infer(clips[:1])]
        metrics = evaluate(model, [(clip, 0) for clip in clips])
        assert not any(isinstance(value, np.ndarray) for value in vars(metrics).values())
        held, kept = [], kept_buffers(model._plan)
        if temporal == "shift":  # an excitation block does not stream
            stream = model.open_stream()
            for t in range(3):
                returned += stream.step(clips[:1, t]).values()
            assert lowerings(stream.plan.stem) == {1: "array"}
            held = [prev for prev in stream.prev if prev is not None]
            kept += kept_buffers(stream.plan)
        for a in returned + held:
            assert not any(np.shares_memory(a, buf) for buf in kept)

    def test_streams_and_infer_interleaved_equal_each_run_alone(self):
        models, clips, batches = [], [], []
        for preset, n in (("tiny", 1), ("micro", 2)):
            spec = getattr(NetSpec, preset)(4, direction="unidirectional")
            rng = np.random.default_rng(n)
            models.append(perturbed(build(spec, seed=1), seed=2))
            clips.append(rng.uniform(0, 1, (n, 4, *spec.clip_shape[1:])).astype(np.float32))
            batches.append(rng.uniform(0, 1, (3, *spec.clip_shape)).astype(np.float32))
        alone = [stream_logits(model, clip) for model, clip in zip(models, clips)]
        inferred = [model.infer(batch) for model, batch in zip(models, batches)]
        streams = [model.open_stream() for model in models]
        got = [[], []]
        for t in range(4):
            for i, (model, stream) in enumerate(zip(models, streams)):
                got[i].append(stream.step(clips[i][:, t])["frame_logits"])
                npt.assert_array_equal(model.infer(batches[i]), inferred[i])
        for i in range(2):
            npt.assert_array_equal(np.stack(got[i], axis=1), alone[i])


# safety checks of the model's entry points: id -> (call, error type, what the message holds)
BACKBONE_ERRORS = {
    "train-empty-dataset": (lambda: train(build(tiny_spec(), seed=0), [], TrainConfig(epochs=1)),
                            InputError, "train requires a nonempty dataset"),
}


@pytest.mark.parametrize("row", list(BACKBONE_ERRORS))
def test_typed_error(row):
    call, error, needle = BACKBONE_ERRORS[row]
    with pytest.raises(error) as info:
        call()
    assert needle in str(info.value)
