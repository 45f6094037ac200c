import contextlib
import math
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from signflow.errors import DimensionError, InputError, ParseError, UsageError
from signflow.tensor import (Parameter, Tensor, add, conv2d, conv2d_array, grad_check,
                             load_weights, matmul, mul, relu, reshape, roll_time,
                             save_weights, sigmoid, softmax_cross_entropy, tmean, tsum)


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


@contextlib.contextmanager
def no_tensor_made():
    """Fail if the block makes a Tensor: every op node goes through
    Tensor.__init__, which a spy records."""
    made = []
    init = Tensor.__init__

    def spy(tensor, *args, **kw):
        made.append(kw.get("op", ""))
        init(tensor, *args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tensor, "__init__", spy)
        yield
    assert made == []


def naive_conv2d(x, w, stride=1, pad=0, bias=None):
    """Six-loop reference; taps accumulate in (c, kh, kw) order."""
    n, c, h, wd = x.shape
    co, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for o in range(co):
            for a in range(oh):
                for b in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[ni, ci, a * stride + i, b * stride + j] * w[o, ci, i, j]
                    out[ni, o, a, b] = acc
    if bias is not None:
        out = out + bias.reshape(1, co, 1, 1)
    return out


class TestMatmul:
    def test_identity(self):
        a = np.arange(9, dtype=np.float64).reshape(3, 3)
        npt.assert_array_equal(matmul(Tensor(np.eye(3)), Tensor(a)).numpy(), a)

    def test_zero(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4)))).numpy()
        npt.assert_array_equal(out, np.zeros((2, 4)))

    def test_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        expected = naive_matmul(a, b)
        npt.assert_array_equal(expected, [[17.0], [39.0]])
        npt.assert_allclose(matmul(Tensor(a), Tensor(b)).numpy(), expected, rtol=1e-15)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_arrays_give_an_array_in_the_left_operands_order(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (3, 5))
        for left in (a, np.asfortranarray(a)):
            with no_tensor_made():
                got = matmul(left, b)
            assert type(got) is np.ndarray
            assert got.flags.f_contiguous == left.flags.f_contiguous
            assert got.flags.c_contiguous == left.flags.c_contiguous
            npt.assert_allclose(got, naive_matmul(a, b), rtol=1e-15)


class TestConv2d:
    def test_one_by_one_identity(self):
        x = np.random.default_rng(0).uniform(-1, 1, (2, 3, 5, 5))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        npt.assert_array_equal(conv2d(Tensor(x), Tensor(w)).numpy(), x)

    def test_zero_input(self):
        w = np.random.default_rng(1).uniform(-1, 1, (4, 2, 3, 3))
        out = conv2d(Tensor(np.zeros((1, 2, 6, 6))), Tensor(w), pad=1).numpy()
        npt.assert_array_equal(out, np.zeros((1, 4, 6, 6)))

    def test_constant_input_interior_9c(self):
        c_val = 0.7
        x = np.full((1, 1, 6, 6), c_val)
        w = np.ones((1, 1, 3, 3))
        got = conv2d(Tensor(x), Tensor(w), pad=1).numpy()
        expected = naive_conv2d(x, w, pad=1)
        npt.assert_array_equal(got, expected)
        npt.assert_allclose(got[0, 0, 1:-1, 1:-1], 9 * c_val, rtol=1e-12)

    @pytest.mark.parametrize("shape,co,k,stride,pad", [
        ((1, 1, 4, 4), 2, 3, 1, 1),
        ((2, 3, 8, 8), 4, 3, 1, 1),
        ((2, 3, 8, 8), 4, 3, 2, 1),
        ((2, 2, 7, 5), 3, 3, 2, 0),
        ((1, 3, 8, 8), 2, 1, 1, 0),
    ])
    def test_exact_mode_matches_naive_bitwise(self, shape, co, k, stride, pad):
        rng = np.random.default_rng(hash((shape, co, k, stride, pad)) % 2**32)
        x = rng.uniform(-1, 1, shape)
        w = rng.uniform(-1, 1, (co, shape[1], k, k))
        b = rng.uniform(-1, 1, co)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad).numpy()
        npt.assert_array_equal(got, naive_conv2d(x, w, stride, pad, b))

    def test_fast_mode_close_to_exact(self):
        # float32 runs the GEMM, float64 the exact tap loop
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32)
        w = rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)
        fast = conv2d(Tensor(x), Tensor(w), stride=1, pad=1).numpy()
        exact = conv2d(Tensor(x.astype(np.float64)), Tensor(w.astype(np.float64)),
                       stride=1, pad=1).numpy()
        npt.assert_allclose(fast, exact, atol=1e-5)

    def test_auto_mode_picks_exact_for_float64(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (1, 2, 5, 5))
        w = rng.uniform(-1, 1, (2, 2, 3, 3))
        auto = conv2d(Tensor(x), Tensor(w), pad=1).numpy()
        npt.assert_array_equal(auto, naive_conv2d(x, w, 1, 1))

    def test_empty_output_rejected(self):
        with pytest.raises(DimensionError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_array_bias_equals_tensor_bias(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, (2, 3, 5, 5)).astype(np.float32)
        w = rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)
        b = rng.uniform(-1, 1, 4)
        from_array = conv2d(Tensor(x), Tensor(w), b, pad=1).numpy()
        from_tensor = conv2d(Tensor(x), Tensor(w), Tensor(b.astype(np.float32)), pad=1).numpy()
        assert from_array.dtype == np.float32
        npt.assert_array_equal(from_array, from_tensor)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0)])
    def test_batch_one_array_forward_equals_graph(self, dtype, k, stride, pad):
        rng = np.random.default_rng([k, stride, pad])
        x = rng.uniform(-1, 1, (1, 3, 7, 6)).astype(dtype)
        w = rng.uniform(-1, 1, (4, 3, k, k)).astype(dtype)
        b = rng.uniform(-1, 1, 4).astype(dtype)
        got = conv2d_array(x, w, b, stride, pad)
        assert got.dtype == dtype and got.flags.c_contiguous
        npt.assert_array_equal(got, conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                                           pad=pad).numpy())


def naive_conv2d_backward(x, w, g, stride, pad):
    """Loop oracle for conv2d's (dX, dW, db, covered) under upstream grad g.

    ``covered`` marks the input pixels some window reads; the rest must get
    exactly zero gradient.
    """
    n, c, h, wd = x.shape
    co, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    covered = np.zeros(xp.shape, dtype=bool)
    dw = np.zeros_like(w)
    db = np.zeros(co)
    for ni in range(n):
        for o in range(co):
            for a in range(oh):
                for b in range(ow):
                    rows = slice(a * stride, a * stride + kh)
                    cols = slice(b * stride, b * stride + kw)
                    gv = g[ni, o, a, b]
                    dw[o] += gv * xp[ni, :, rows, cols]
                    dxp[ni, :, rows, cols] += gv * w[o]
                    covered[ni, :, rows, cols] = True
                    db[o] += gv
    inner = (slice(None), slice(None), slice(pad, pad + h), slice(pad, pad + wd))
    return dxp[inner], dw, db, covered[inner]


def conv2d_grads(x, w, b, g, stride, pad):
    """(dX, dW, db) of sum(conv2d(x, w, b) * g) through the autodiff graph."""
    xt, wt, bt = Parameter(x), Parameter(w), Parameter(b)
    tsum(mul(conv2d(xt, wt, bt, stride=stride, pad=pad), Tensor(g))).backward()
    return xt.grad, wt.grad, bt.grad


CONV_BACKWARD_CASES = [  # (x shape, out channels, kernel, stride, pad)
    ((1, 1, 4, 4), 2, 3, 1, 1),
    ((2, 3, 8, 8), 4, 3, 2, 1),
    ((2, 2, 7, 5), 3, 3, 2, 0),
    ((2, 2, 8, 6), 3, 3, 2, 0),  # no window reads the last row or column
    ((1, 3, 8, 8), 2, 1, 1, 0),
    ((2, 3, 5, 6), 3, 1, 2, 0),  # odd rows/columns and the last column unread
    ((2, 2, 4, 5), 3, 1, 1, 1),  # pad > k - 1: border windows read only padding
    ((3, 2, 7, 6), 2, 2, 2, 0),  # even kernel at stride 2
    ((2, 3, 9, 8), 2, 3, 3, 1),  # stride 3
]


class TestConv2dBackward:
    @staticmethod
    def _case(shape, co, k, stride, pad):
        rng = np.random.default_rng([*shape, co, k, stride, pad])
        x = rng.uniform(-1, 1, shape)
        w = rng.uniform(-1, 1, (co, shape[1], k, k))
        b = rng.uniform(-1, 1, co)
        oh = (shape[2] + 2 * pad - k) // stride + 1
        ow = (shape[3] + 2 * pad - k) // stride + 1
        g = rng.uniform(-1, 1, (shape[0], co, oh, ow))
        return x, w, b, g

    @pytest.mark.parametrize("forward", ["exact"])  # the float64 forward is the tap loop
    @pytest.mark.parametrize("shape,co,k,stride,pad", CONV_BACKWARD_CASES)
    def test_float64_matches_loop_oracle(self, shape, co, k, stride, pad, forward):
        x, w, b, g = self._case(shape, co, k, stride, pad)
        dx, dw, db = conv2d_grads(x, w, b, g, stride, pad)
        ex, ew, eb, covered = naive_conv2d_backward(x, w, g, stride, pad)
        npt.assert_allclose(dx, ex, rtol=0, atol=1e-12)
        npt.assert_allclose(dw, ew, rtol=0, atol=1e-12)
        npt.assert_allclose(db, eb, rtol=0, atol=1e-12)
        assert not dx[~covered].any()

    @pytest.mark.parametrize("shape,co,k,stride,pad", CONV_BACKWARD_CASES)
    def test_float32_fast_close_to_float64_oracle(self, shape, co, k, stride, pad):
        x, w, b, g = (a.astype(np.float32) for a in self._case(shape, co, k, stride, pad))
        got = conv2d_grads(x, w, b, g, stride, pad)
        ex, ew, eb, covered = naive_conv2d_backward(*(a.astype(np.float64) for a in (x, w, g)),
                                                    stride, pad)
        for grad, oracle in zip(got, (ex, ew, eb)):
            assert grad.dtype == np.float32
            tol = 1e-5 * max(1.0, float(np.abs(oracle).max()))
            npt.assert_allclose(grad, oracle, rtol=0, atol=tol)
        assert not got[0][~covered].any()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_float64_matches_loop_oracle_any_shape(self, data):
        n, c, co = (data.draw(st.integers(1, hi)) for hi in (3, 4, 4))
        h, wd = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
        k = data.draw(st.sampled_from([1, 2, 3]))
        stride, pad = data.draw(st.integers(1, 3)), data.draw(st.integers(0, k))
        assume(h + 2 * pad >= k and wd + 2 * pad >= k)
        x, w, b, g = self._case((n, c, h, wd), co, k, stride, pad)
        ex, ew, eb, covered = naive_conv2d_backward(x, w, g, stride, pad)
        dx, dw, db = conv2d_grads(x, w, b, g, stride, pad)
        npt.assert_allclose(dx, ex, rtol=0, atol=1e-12)
        npt.assert_allclose(dw, ew, rtol=0, atol=1e-12)
        npt.assert_allclose(db, eb, rtol=0, atol=1e-12)
        assert not dx[~covered].any()


def conv_order(x):
    """The values of [N,C,H,W] x held in conv order, as [C,H,W,N] in memory."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


class TestConvOrder:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_row_major_and_conv_order_inputs_give_identical_results(self, data):
        n, c, co = (data.draw(st.integers(1, hi)) for hi in (3, 4, 4))
        h, wd = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        k = data.draw(st.sampled_from([1, 2, 3]))
        stride, pad = data.draw(st.integers(1, 2)), data.draw(st.integers(0, k - 1))
        assume(h + 2 * pad >= k and wd + 2 * pad >= k)
        case = TestConv2dBackward._case((n, c, h, wd), co, k, stride, pad)
        for dtype in (np.float64, np.float32):
            x, w, b, g = (a.astype(dtype) for a in case)
            results = []
            for held in (x, conv_order(x)):
                leaves = [Tensor(a, requires_grad=True) for a in (held, w, b)]
                out = conv2d(*leaves, stride=stride, pad=pad)
                assert out.numpy().transpose(1, 2, 3, 0).flags.c_contiguous
                tsum(mul(out, Tensor(g))).backward()
                results.append([out.numpy(), conv2d_array(held, w, b, stride, pad),
                                *(leaf.grad for leaf in leaves)])
            npt.assert_array_equal(results[0][0], results[0][1])
            for got, want in zip(*results):
                npt.assert_array_equal(got, want)


class TestGlobalAvgPool:
    """Global average pooling is the mean over the spatial axes."""

    def test_constant(self):
        out = tmean(Tensor(np.full((2, 3, 4, 4), 0.25)), axis=(2, 3)).numpy()
        npt.assert_allclose(out, 0.25)

    def test_1x1_identity(self):
        x = np.random.default_rng(2).uniform(-1, 1, (3, 5, 1, 1))
        npt.assert_array_equal(tmean(Tensor(x), axis=(2, 3)).numpy(), x[:, :, 0, 0])

    def test_mean_oracle(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[1, 2], [3, 4]]
        assert tmean(Tensor(x), axis=(2, 3)).numpy()[0, 0] == pytest.approx(2.5)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_ln_k(self):
        for k in (2, 5, 10):
            loss = softmax_cross_entropy(Tensor(np.zeros((3, k))), [0, 1, k - 1])
            assert loss.item() == pytest.approx(math.log(k), rel=1e-12)

    def test_saturated_logit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1000.0
        assert softmax_cross_entropy(Tensor(logits), [2]).item() <= 1e-6

    def test_closed_form(self):
        loss = softmax_cross_entropy(Tensor(np.array([[1.0, 2.0]])), [1])
        assert loss.item() == pytest.approx(math.log(1 + math.exp(-1)), rel=1e-12)
        assert loss.item() == pytest.approx(0.31326168751822286, rel=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            softmax_cross_entropy(Tensor(np.zeros((1, 3))), [3])

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.uniform(-2, 2, (6, 5)), requires_grad=True)
        # route through an op so logits is a graph node
        doubled = mul(logits, 1.0)
        loss = softmax_cross_entropy(doubled, rng.integers(0, 5, 6))
        loss.backward()
        npt.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-10)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 4)), requires_grad=True)
        tsum(x).backward()
        npt.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_dead_relu_gives_zeros(self):
        x = Tensor(-np.abs(np.random.default_rng(1).uniform(0.1, 1, (3, 4))),
                   requires_grad=True)
        tsum(relu(x)).backward()
        npt.assert_array_equal(x.grad, np.zeros((3, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_zero_at_zero_and_below(self, dtype):
        x = Tensor(np.array([0.0, -0.0, -2.0, -1e-30, 1e-30, 3.0], dtype=dtype),
                   requires_grad=True)
        out = relu(x)
        assert out.numpy().dtype == dtype
        npt.assert_array_equal(out.numpy(), [0, 0, 0, 0, dtype(1e-30), 3])
        tsum(mul(out, 2.0)).backward()
        assert x.grad.dtype == dtype
        npt.assert_array_equal(x.grad, [0, 0, 0, 0, 2, 2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_finite(self, dtype):
        d = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0], dtype=dtype)
        with no_tensor_made():
            array_out = sigmoid(d)
        assert type(array_out) is np.ndarray
        for out in (sigmoid(Tensor(d)).numpy(), array_out):
            assert out.dtype == dtype
            assert np.isfinite(out).all() and (out >= 0).all() and (out <= 1).all()
            npt.assert_allclose(out, [0.0, 1 / (1 + math.e), 0.5, 1 / (1 + 1 / math.e), 1.0],
                                rtol=1e-6)

    def test_profile_times_each_op_and_keeps_grads(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, (2, 2, 5, 5))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        grads = []
        for profile in (None, {}):
            xt, wt = Parameter(x), Parameter(w)
            tsum(relu(conv2d(xt, wt, pad=1))).backward(profile)
            grads.append((xt.grad, wt.grad))
        npt.assert_array_equal(grads[0][0], grads[1][0])
        npt.assert_array_equal(grads[0][1], grads[1][1])
        assert set(profile) == {"conv2d", "relu", "sum"}
        assert all(calls == 1 and sec >= 0 for calls, sec in profile.values())

    def test_grad_zeroed_per_pass(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tsum(x).backward()
        tsum(mul(x, 3.0)).backward()
        npt.assert_array_equal(x.grad, np.full((2, 2), 3.0))

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = tsum(x)
        loss.backward()
        with pytest.raises(UsageError):
            loss.backward()

    def test_backward_on_untracked_rejected(self):
        with pytest.raises(UsageError):
            Tensor(np.ones(1)).backward()

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            mul(x, 2.0).backward()


class TestGradCheck:
    def test_linear_exact(self):
        err = grad_check(lambda t: tsum(mul(t, 3.0)), np.ones((2, 3)))
        assert err <= 1e-9

    def test_quadratic(self):
        err = grad_check(lambda t: tsum(mul(t, t)), np.ones(4), eps=1e-5)
        assert err <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_all_ops_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (2, 2, 5, 5))
        w = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        wm = Tensor(rng.uniform(-1, 1, (4, 2)))
        checks = [
            grad_check(lambda t: conv2d(t, Tensor(w), Tensor(b), stride=2, pad=1).sum(), x),
            grad_check(lambda t: conv2d(Tensor(x), t, stride=2, pad=1).sum(), w),
            grad_check(lambda t: tmean(t, axis=(2, 3)).sum(), x),
            grad_check(lambda t: sigmoid(t).sum(), rng.uniform(-1, 1, (3, 4))),
            grad_check(lambda t: matmul(t, wm).sum(), rng.uniform(-1, 1, (3, 4))),
            grad_check(lambda t: softmax_cross_entropy(t, [1, 0]),
                       rng.uniform(-1, 1, (2, 4))),
        ]
        assert max(checks) <= 1e-4


class TestShapeOps:
    def test_reshape_conserves_elements(self):
        x = Tensor(np.arange(24.0))
        y = reshape(x, 2, 3, 4)
        assert y.size == 24
        with pytest.raises(Exception):
            reshape(x, 5, 5)

    def test_reshape_to_another_count_is_dimension_error(self):
        with pytest.raises(DimensionError, match=r"cannot reshape \(6,\) to \(4,\)"):
            reshape(Tensor(np.zeros(6)), 4)

    def test_broadcast_add_backward(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        tsum(add(x, b)).backward()
        npt.assert_array_equal(b.grad, [2.0, 2.0, 2.0])
        npt.assert_array_equal(x.grad, np.ones((2, 3)))



def roll_time_oracle(x, offsets, fold):
    """Index arithmetic over every element: out[:, t, c] = x[:, t - offset, c]."""
    out = np.zeros_like(x)
    t, c = x.shape[1], x.shape[2]
    for ti in range(t):
        for ci in range(c):
            block = ci // fold if fold else len(offsets)
            src = ti - offsets[block] if block < len(offsets) else ti
            if 0 <= src < t:
                out[:, ti, ci] = x[:, src, ci]
    return out


class TestRollTime:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_index_oracle_both_ways(self, data):
        n = data.draw(st.integers(1, 3))
        t = data.draw(st.integers(1, 6))
        c = data.draw(st.integers(1, 8))
        fold = data.draw(st.integers(0, c))
        blocks = data.draw(st.integers(0, c // fold if fold else 2))
        offsets = data.draw(st.lists(st.integers(-t - 1, t + 1),
                                     min_size=blocks, max_size=blocks))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = rng.uniform(-1, 1, (n, t, c, 2))
        g = rng.uniform(-1, 1, (n, t, c, 2))
        leaf = Tensor(x, requires_grad=True)
        out = roll_time(leaf, offsets, fold)
        npt.assert_array_equal(out.numpy(), roll_time_oracle(x, offsets, fold))
        with no_tensor_made():
            array_out = roll_time(x, offsets, fold)
        assert type(array_out) is np.ndarray
        npt.assert_array_equal(array_out, roll_time_oracle(x, offsets, fold))
        tsum(mul(out, Tensor(g))).backward()
        # the backward pass is the opposite move
        npt.assert_array_equal(leaf.grad, roll_time_oracle(g, [-o for o in offsets], fold))

    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (2, 4, 7, 3))
        w = Tensor(rng.uniform(-1, 1, x.shape))
        assert grad_check(lambda t: tsum(mul(roll_time(t, (-1, 2, 5), 2), w)), x) <= 1e-6

    def test_blocks_must_fit_channels(self):
        with pytest.raises(DimensionError):
            roll_time(Tensor(np.zeros((1, 3, 4))), (1, -1, 1), 2)
        with pytest.raises(DimensionError):
            roll_time(Tensor(np.zeros((3, 4))), (1,), 1)

class TestWeightStore:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        tensors = {
            "stem.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
            "head.b": rng.standard_normal(10).astype(np.float32),
            "名字": rng.standard_normal((2, 2)).astype(np.float32),  # UTF-8 names
            "scalar": np.float32(3.25).reshape(()),
        }
        path = tmp_path / "w.sgnf"
        save_weights(path, tensors)
        loaded = load_weights(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            npt.assert_array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == np.float32
        # second save of the loaded dict is byte-identical
        path2 = tmp_path / "w2.sgnf"
        save_weights(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.text(st.characters(exclude_categories=("Cs",)), max_size=6),  # encodable as UTF-8
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3),
                   elements=st.floats(width=32, allow_nan=False, allow_infinity=False))),
        max_size=4, unique_by=lambda item: item[0]))
    def test_roundtrip_any_names_and_shapes(self, tensors):
        """Rank 0-4, zero dims included: the same names in the same order, the
        same shapes and the same bytes."""
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "w.sgnf"
            save_weights(path, tensors)
            loaded = load_weights(path)
        assert list(loaded) == [name for name, _ in tensors]
        for name, arr in tensors:
            assert loaded[name].dtype == np.float32 and loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("case, match", [
        pytest.param("magic", "bad magic", id="magic"),
        pytest.param("truncated_header", "truncated dims", id="truncated_header"),
        pytest.param("trailing_bytes", "trailing bytes", id="trailing_bytes"),
        pytest.param("duplicate_name", "duplicate tensor name 'w'", id="duplicate_name"),
        pytest.param("name_not_utf8", "not UTF-8", id="name_not_utf8"),
        pytest.param("non_finite", "non-finite values in tensor 'w'", id="non_finite"),
    ])
    def test_bad_file_rejected(self, tmp_path, case, match):
        w = np.zeros((2, 3), dtype=np.float32)
        good = tmp_path / "good.sgnf"
        save_weights(good, {"w": w})
        raw = good.read_bytes()       # magic 5, count 4, name length 4, name 1, rank 4, ...
        bad = tmp_path / "bad.sgnf"
        if case == "magic":
            bad.write_bytes(b"NOPE!" + b"\x00" * 16)
        elif case == "truncated_header":
            bad.write_bytes(raw[:20])  # inside the dims
        elif case == "trailing_bytes":
            bad.write_bytes(raw + b"\x00")
        elif case == "duplicate_name":
            save_weights(bad, [("w", w), ("w", w + 1)])
        elif case == "non_finite":
            save_weights(bad, {"w": np.array([[0.0, np.nan, 1.0], [np.inf, 0.0, -np.inf]])})
        else:
            bad.write_bytes(raw[:13] + b"\xff" + raw[14:])
        with pytest.raises(ParseError, match=match) as exc:
            load_weights(bad)
        assert str(bad) in str(exc.value)

    def test_float64_saved_as_float32(self, tmp_path):
        path = tmp_path / "w.sgnf"
        save_weights(path, {"x": np.array([1.0, 2.5], dtype=np.float64)})
        out = load_weights(path)["x"]
        assert out.dtype == np.float32
        npt.assert_array_equal(out, np.array([1.0, 2.5], dtype=np.float32))


class TestParameter:
    def test_named_and_requires_grad(self):
        p = Parameter(np.zeros((2, 2)), "w")
        assert p.requires_grad and p.name == "w"
        assert p.grad is None


# safety checks of the ops: id -> (call, error type, what the message holds)
TENSOR_ERRORS = {
    "conv2d-x-not-4d": (lambda: conv2d_array(np.zeros((2, 4, 4)), np.zeros((1, 2, 3, 3)), None,
                                             1, 0),
                        DimensionError, "conv2d expects 4D x and w, got (2, 4, 4)"),
    "conv2d-channels-differ": (lambda: conv2d_array(np.zeros((1, 2, 4, 4)),
                                                    np.zeros((1, 3, 3, 3)), None, 1, 0),
                               DimensionError, "conv2d channel mismatch"),
    "matmul-not-2d": (lambda: matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 2)))),
                      DimensionError, "matmul expects 2D operands, got (2, 3, 4) and (4, 2)"),
    "softmax-ce-logits-not-2d": (lambda: softmax_cross_entropy(Tensor(np.zeros((2, 3, 4))),
                                                               [0, 1]),
                                 DimensionError, "expects [N,K] logits, got (2, 3, 4)"),
    "softmax-ce-labels-shape": (lambda: softmax_cross_entropy(Tensor(np.zeros((2, 3))),
                                                              [0, 1, 2]),
                                DimensionError, "labels shape (3,) does not match logits rows 2"),
}


@pytest.mark.parametrize("row", list(TENSOR_ERRORS))
def test_typed_error(row):
    call, error, needle = TENSOR_ERRORS[row]
    with pytest.raises(error) as info:
        call()
    assert needle in str(info.value)
