import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from signflow.errors import ConfigError, InputError
from signflow.sampler import MODE_EVAL_CENTER, MODE_TRAIN_RANDOM, SampleSpec, segment_sample
from signflow.tensor import Tensor, tmean


def enumerate_center(num_frames, t):
    """Independent oracle: explicit segment bounds, center rule, clamping."""
    out = []
    for i in range(t):
        lo = (i * num_frames) // t
        hi = ((i + 1) * num_frames) // t
        if hi <= lo:
            out.append(min(lo, num_frames - 1))
        else:
            out.append((lo + hi - 1) // 2)
    return out


def assert_bounds(got, num_frames, t):
    """T non-decreasing indices in [0, n), each inside its own segment, or on the
    clamped index when that segment is empty."""
    assert len(got) == t
    assert all(0 <= i < num_frames for i in got)
    assert all(a <= b for a, b in zip(got, got[1:]))
    for i, idx in enumerate(got):
        lo, hi = i * num_frames // t, (i + 1) * num_frames // t
        assert lo <= idx < hi if hi > lo else idx == min(lo, num_frames - 1)


class TestSegmentSample:
    def test_one_frame_per_segment(self):
        spec = SampleSpec(num_segments=8, mode=MODE_EVAL_CENTER)
        assert segment_sample(8, spec) == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_sixteen_frames_eight_segments(self):
        spec = SampleSpec(num_segments=8, mode=MODE_EVAL_CENTER)
        assert segment_sample(16, spec) == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_short_video_clamps(self):
        spec = SampleSpec(num_segments=8, mode=MODE_EVAL_CENTER)
        assert segment_sample(5, spec) == [0, 0, 1, 1, 2, 3, 3, 4]

    def test_zero_frames_rejected(self):
        with pytest.raises(InputError):
            segment_sample(0, SampleSpec(num_segments=4))

    @pytest.mark.parametrize("t", [4, 8, 16])
    def test_exhaustive_center_matches_oracle(self, t):
        spec = SampleSpec(num_segments=t, mode=MODE_EVAL_CENTER)
        for num_frames in range(1, 65):
            got = segment_sample(num_frames, spec)
            assert got == enumerate_center(num_frames, t)

    @pytest.mark.parametrize("t", [4, 8, 16])
    def test_exhaustive_invariants_both_modes(self, t):
        for mode in (MODE_EVAL_CENTER, MODE_TRAIN_RANDOM):
            spec = SampleSpec(num_segments=t, mode=mode, seed=3)
            for num_frames in range(1, 301):
                assert_bounds(segment_sample(num_frames, spec), num_frames, t)

    @settings(max_examples=300, deadline=None)
    @given(num_frames=st.integers(1, 300), t=st.integers(1, 64),
           mode=st.sampled_from([MODE_EVAL_CENTER, MODE_TRAIN_RANDOM]),
           seed=st.integers(0, 2**32 - 1))
    def test_bounds_hold_for_any_length_segments_and_seed(self, num_frames, t, mode, seed):
        spec = SampleSpec(num_segments=t, mode=mode, seed=seed)
        assert_bounds(segment_sample(num_frames, spec), num_frames, t)

    def test_center_deterministic(self):
        spec = SampleSpec(num_segments=8, mode=MODE_EVAL_CENTER)
        assert segment_sample(37, spec) == segment_sample(37, spec)

    def test_random_reproducible_from_seed(self):
        a = SampleSpec(num_segments=8, mode=MODE_TRAIN_RANDOM, seed=42)
        b = SampleSpec(num_segments=8, mode=MODE_TRAIN_RANDOM, seed=42)
        seq_a = [segment_sample(37, a) for _ in range(20)]
        seq_b = [segment_sample(37, b) for _ in range(20)]
        assert seq_a == seq_b

    def test_random_in_segment_bounds(self):
        spec = SampleSpec(num_segments=4, mode=MODE_TRAIN_RANDOM, seed=0)
        for _ in range(200):
            got = segment_sample(16, spec)
            for i, idx in enumerate(got):
                assert i * 4 <= idx < (i + 1) * 4

    def test_random_covers_every_index(self):
        # num_frames=16, T=4: each segment has 4 candidates; 1e4 draws hit all
        spec = SampleSpec(num_segments=4, mode=MODE_TRAIN_RANDOM, seed=7)
        seen = [set() for _ in range(4)]
        for _ in range(10_000):
            for i, idx in enumerate(segment_sample(16, spec)):
                seen[i].add(idx)
        for i, s in enumerate(seen):
            assert s == set(range(i * 4, (i + 1) * 4))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            SampleSpec(num_segments=0)
        with pytest.raises(ConfigError):
            SampleSpec(num_segments=4, mode="sometimes")


class TestConsensus:
    """Consensus is the mean over the segment axis: axis 0 of [T,K], 1 of [N,T,K]."""

    def test_single_row_identity(self):
        row = np.array([[0.3, -0.7, 1.2]])
        npt.assert_array_equal(tmean(Tensor(row), axis=0).numpy(), row[0])

    def test_two_rows_symmetric(self):
        out = tmean(Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])), axis=0).numpy()
        npt.assert_array_equal(out, [0.5, 0.5])

    def test_repeated_rows_idempotent(self):
        r = np.array([0.2, -1.0, 0.5])
        out = tmean(Tensor(np.tile(r, (6, 1))), axis=0).numpy()
        npt.assert_allclose(out, r, rtol=1e-15)

    def test_argmax_invariant_under_constant_shift(self):
        rng = np.random.default_rng(5)
        logits = rng.uniform(-2, 2, (8, 5))
        base = np.argmax(tmean(Tensor(logits), axis=0).numpy())
        shifted = logits + rng.uniform(-10, 10, (8, 1))
        assert np.argmax(tmean(Tensor(shifted), axis=0).numpy()) == base

    def test_batched_form(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (3, 4, 5))
        out = tmean(Tensor(x), axis=1).numpy()
        npt.assert_allclose(out, x.mean(axis=1), rtol=1e-15)
