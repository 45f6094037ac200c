from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from signflow.errors import ConfigError
from signflow.tensor import Tensor, grad_check, tsum
from signflow.tsm import BIDIRECTIONAL, UNIDIRECTIONAL, fold_channels, online_step, shift


def shift_oracle(x, cf, direction):
    """Index-arithmetic brute force over every element."""
    n, t, c, h, w = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for ti in range(t):
            for ci in range(c):
                if ci < cf:
                    if direction == BIDIRECTIONAL:
                        src = ti + 1          # first fold reads the future
                    else:
                        src = ti - 1          # one-way reads the past
                elif direction == BIDIRECTIONAL and ci < 2 * cf:
                    src = ti - 1              # second fold reads the past
                else:
                    src = ti
                if 0 <= src < t:
                    out[ni, ti, ci] = x[ni, src, ci]
    return out


class TestShiftBidirectional:
    def test_channel_displacement_rule(self):
        # C=8 at fold 1/8 gives c_f=1: channel 0 reads the future, channel 1
        # the past, channels 2..7 stay put
        x = np.zeros((1, 3, 8, 1, 1))
        x[0, :, 0, 0, 0] = [1.0, 2.0, 3.0]   # (a, b, c)
        x[0, :, 1, 0, 0] = [4.0, 5.0, 6.0]   # (d, e, f)
        for c in range(2, 8):
            x[0, :, c, 0, 0] = [7.0 + c, 8.0 + c, 9.0 + c]
        out = shift(Tensor(x), fold_channels(8, 0.125, BIDIRECTIONAL), BIDIRECTIONAL).numpy()
        npt.assert_array_equal(out[0, :, 0, 0, 0], [2.0, 3.0, 0.0])
        npt.assert_array_equal(out[0, :, 1, 0, 0], [0.0, 4.0, 5.0])
        npt.assert_array_equal(out[0, :, 2:], x[0, :, 2:])

    def test_t_equals_one_zeroes_folds(self):
        x = np.random.default_rng(0).uniform(-1, 1, (2, 1, 16, 2, 2))
        out = shift(Tensor(x), fold_channels(16, 0.125, BIDIRECTIONAL), BIDIRECTIONAL).numpy()
        npt.assert_array_equal(out[:, :, :4], np.zeros((2, 1, 4, 2, 2)))
        npt.assert_array_equal(out[:, :, 4:], x[:, :, 4:])

    def test_degenerate_fold_is_identity(self):
        x = np.random.default_rng(1).uniform(-1, 1, (1, 3, 4, 2, 2))
        out = shift(Tensor(x), int(4 * 0.125), BIDIRECTIONAL).numpy()
        npt.assert_array_equal(out, x)
        with pytest.raises(ConfigError, match="floors to a fold of 0"):
            fold_channels(4, 0.125, BIDIRECTIONAL)

    def test_fold_too_large_rejected(self):
        # fraction <= 1/2 keeps 2*c_f <= C; anything larger is refused up front
        assert fold_channels(8, 0.5, BIDIRECTIONAL) == 4
        with pytest.raises(ConfigError):
            fold_channels(8, 0.6, BIDIRECTIONAL)
        with pytest.raises(ConfigError):
            fold_channels(8, -0.1, BIDIRECTIONAL)


class TestShiftUnidirectional:
    def test_channel_rule(self):
        x = np.zeros((1, 3, 8, 1, 1))
        x[0, :, 0, 0, 0] = [1.0, 2.0, 3.0]
        out = shift(Tensor(x), fold_channels(8, 0.125, UNIDIRECTIONAL), UNIDIRECTIONAL).numpy()
        npt.assert_array_equal(out[0, :, 0, 0, 0], [0.0, 1.0, 2.0])
        npt.assert_array_equal(out[0, :, 1:], x[0, :, 1:])

    def test_first_timestep_fold_zero(self):
        x = np.random.default_rng(2).uniform(-1, 1, (2, 4, 8, 2, 2))
        out = shift(Tensor(x), fold_channels(8, 0.125, UNIDIRECTIONAL), UNIDIRECTIONAL).numpy()
        npt.assert_array_equal(out[:, 0, :1], np.zeros((2, 1, 2, 2)))


@pytest.mark.parametrize("direction", [BIDIRECTIONAL, UNIDIRECTIONAL])
@pytest.mark.parametrize("t", [1, 2, 3, 8])
@pytest.mark.parametrize("c", [4, 8, 16])
def test_shift_matches_index_oracle(direction, t, c):
    rng = np.random.default_rng(t * 100 + c)
    cf = int(c * 0.125)
    for n in (1, 2):
        x = rng.uniform(-1, 1, (n, t, c, 2, 2))
        out = shift(Tensor(x), cf, direction).numpy()
        npt.assert_array_equal(out, shift_oracle(x, cf, direction))


class TestShiftProperties:
    def test_zero_flop_permutation(self):
        # per channel, the multiset of nonzero values is preserved modulo
        # boundary drops; unshifted channels are untouched
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 1.5, (1, 8, 16, 2, 2))  # strictly nonzero values
        out = shift(Tensor(x), fold_channels(16, 0.125, BIDIRECTIONAL), BIDIRECTIONAL).numpy()
        cf = 2
        for ci in range(16):
            vals_in = sorted(x[0, :, ci].ravel())
            vals_out = sorted(v for v in out[0, :, ci].ravel() if v != 0.0)
            if ci < cf:          # dropped x[t=0], zero-filled at t=T-1
                assert vals_out == sorted(x[0, 1:, ci].ravel())
            elif ci < 2 * cf:    # dropped x[t=T-1]
                assert vals_out == sorted(x[0, :-1, ci].ravel())
            else:
                assert vals_out == vals_in

    def test_double_unidirectional_shifts_fold_by_two(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.5, 1.5, (1, 6, 16, 1, 1))
        fold = fold_channels(16, 0.125, UNIDIRECTIONAL)
        once = shift(Tensor(x), fold, UNIDIRECTIONAL)
        twice = shift(once, fold, UNIDIRECTIONAL).numpy()
        cf = 2
        for ti in range(6):
            for ci in range(cf):
                expected = x[0, ti - 2, ci] if ti >= 2 else np.zeros((1, 1))
                npt.assert_array_equal(twice[0, ti, ci], expected)
        npt.assert_array_equal(twice[0, :, cf:], x[0, :, cf:])

    def test_shape_preserved(self):
        x = np.zeros((3, 5, 8, 4, 6))
        for direction in (BIDIRECTIONAL, UNIDIRECTIONAL):
            assert shift(Tensor(x), fold_channels(8, 0.125, direction), direction).shape == x.shape


class TestShiftBackward:
    def test_identity_channels_pass_through(self):
        x = Tensor(np.random.default_rng(5).uniform(-1, 1, (1, 3, 8, 2, 2)),
                   requires_grad=True)
        tsum(shift(x, fold_channels(8, 0.125, BIDIRECTIONAL), BIDIRECTIONAL)).backward()
        npt.assert_array_equal(x.grad[:, :, 2:], np.ones((1, 3, 6, 2, 2)))

    def test_boundary_grad_zero(self):
        # forward-shifted fold never reads x[t=0], so x[t=0] fold grad is 0
        x = Tensor(np.random.default_rng(6).uniform(-1, 1, (1, 4, 8, 2, 2)),
                   requires_grad=True)
        tsum(shift(x, fold_channels(8, 0.125, BIDIRECTIONAL), BIDIRECTIONAL)).backward()
        npt.assert_array_equal(x.grad[:, 0, 0], np.zeros((1, 2, 2)))      # fwd fold at t=0
        npt.assert_array_equal(x.grad[:, -1, 1], np.zeros((1, 2, 2)))     # bwd fold at t=T-1

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (1, 4, 8, 2, 2))
        fold = fold_channels(8, 0.125, BIDIRECTIONAL)
        w = rng.uniform(-1, 1, x.shape)  # weighted sum makes the loss non-degenerate

        def loss(t):
            return tsum(shift(t, fold, BIDIRECTIONAL) * Tensor(w))

        assert grad_check(loss, x) <= 1e-6


class TestOnlineStep:
    def test_first_step_uses_zero_cache(self):
        f1 = np.random.default_rng(8).uniform(-1, 1, (1, 8, 2, 2)).astype(np.float32)
        out = online_step(f1, None, 1)
        npt.assert_array_equal(out[:, :1], np.zeros((1, 1, 2, 2)))
        npt.assert_array_equal(out[:, 1:], f1[:, 1:])

    def test_second_step_sees_first_fold(self):
        rng = np.random.default_rng(9)
        f1 = rng.uniform(-1, 1, (1, 8, 2, 2)).astype(np.float32)
        f2 = rng.uniform(-1, 1, (1, 8, 2, 2)).astype(np.float32)
        out = online_step(f2, f1, 2)
        npt.assert_array_equal(out[:, :2], f1[:, :2])
        npt.assert_array_equal(out[:, 2:], f2[:, 2:])

    def test_inputs_not_modified(self):
        rng = np.random.default_rng(10)
        prev, x = rng.uniform(-1, 1, (2, 2, 8, 3, 3))
        prev_before, x_before = prev.copy(), x.copy()
        out = online_step(x, prev, 4)
        out[:] = 0.0
        npt.assert_array_equal(prev, prev_before)
        npt.assert_array_equal(x, x_before)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_stream_equals_offline_shift(self, dtype, tol):
        rng = np.random.default_rng(10)
        t = 8
        x = rng.uniform(-1, 1, (1, t, 16, 3, 3)).astype(dtype)
        fold, prev = fold_channels(16, 0.125, UNIDIRECTIONAL), None
        offline = shift(Tensor(x), fold, UNIDIRECTIONAL).numpy()
        for ti in range(t):
            out = online_step(x[:, ti], prev, fold)
            assert np.abs(out - offline[:, ti]).max() <= tol
            prev = x[:, ti]

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2]), t=st.integers(1, 6), c=st.sampled_from([4, 8, 16]),
           frac=st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_stream_equals_offline_shift_any_shape(self, n, t, c, frac, dtype, seed):
        x = np.random.default_rng(seed).uniform(-1, 1, (n, t, c, 3, 2)).astype(dtype)
        fold, prev = int(c * frac), None
        offline = shift(Tensor(x), fold, UNIDIRECTIONAL).numpy()
        for ti in range(t):
            npt.assert_array_equal(online_step(x[:, ti], prev, fold), offline[:, ti])
            prev = x[:, ti]


# safety checks of the shift: id -> (call, error type, what the message holds)
TSM_ERRORS = {
    "shift-not-5d": (lambda: shift(Tensor(np.zeros((2, 4, 3, 3))), 1, BIDIRECTIONAL),
                     ConfigError, "shift expects [N,T,C,H,W], got shape (2, 4, 3, 3)"),
}


@pytest.mark.parametrize("row", list(TSM_ERRORS))
def test_typed_error(row):
    call, error, needle = TSM_ERRORS[row]
    with pytest.raises(error) as info:
        call()
    assert needle in str(info.value)
