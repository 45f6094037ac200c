import itertools

import numpy as np
import numpy.testing as npt
import pytest

from signflow import backbone
from signflow.actionnet import ActionBlock, ArrayBlock, squeezed
from signflow.errors import ConfigError
from signflow.tensor import Tensor, grad_check, tsum


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def ce_oracle(block, x):
    """Channel gate by loops: pool, squeeze, zero-padded temporal conv, expand."""
    n, t = x.shape[:2]
    s = x.mean(axis=(3, 4)) @ block.ce_squeeze.data           # [N, T, C/r]
    w = block.ce_temporal.data                                # [C/r, k]
    half = w.shape[1] // 2
    conv = np.zeros_like(s)
    for ni in range(n):
        for ti in range(t):
            for d in range(s.shape[2]):
                for tap in range(w.shape[1]):
                    src = ti + tap - half
                    if 0 <= src < t:
                        conv[ni, ti, d] += w[d, tap] * s[ni, src, d]
    g = sigmoid(conv @ block.ce_expand.data + block.ce_bias.data)
    return x * g[..., None, None]


def ste_oracle(block, x):
    """Spatial-temporal gate by loops: channel mean, 3x3x3 conv zero padded in T, H, W."""
    n, t, c, h, w = x.shape
    cmap = x.mean(axis=2)                                     # [N, T, H, W]
    k = block.ste_w.data[0, 0]                                # [3, 3, 3] over (T, H, W)
    z = np.full((n, t, h, w), block.ste_b.data[0])
    for ni in range(n):
        for ti in range(t):
            for i in range(h):
                for j in range(w):
                    for a in range(3):
                        for b in range(3):
                            for d in range(3):
                                src, row, col = ti + a - 1, i + b - 1, j + d - 1
                                if 0 <= src < t and 0 <= row < h and 0 <= col < w:
                                    z[ni, ti, i, j] += k[a, b, d] * cmap[ni, src, row, col]
    return x * sigmoid(z)[:, :, None]


def me_oracle(block, x):
    """Motion gate by loops: m[t] = transform(s[t+1]) - s[t], m[T-1] = 0."""
    n, t, c, h, w = x.shape
    s = np.einsum("rc,ntchw->ntrhw", block.me_squeeze.data[:, :, 0, 0], x)
    cr = s.shape[2]
    sp = np.pad(s, ((0, 0), (0, 0), (0, 0), (1, 1), (1, 1)))
    tw = block.me_transform.data                              # [C/r, C/r, 3, 3]
    motion = np.zeros_like(s)
    for ni in range(n):
        for ti in range(t - 1):
            for o in range(cr):
                for i in range(h):
                    for j in range(w):
                        acc = 0.0
                        for ci in range(cr):
                            for a in range(3):
                                for b in range(3):
                                    acc += tw[o, ci, a, b] * sp[ni, ti + 1, ci, i + a, j + b]
                        motion[ni, ti, o, i, j] = acc - s[ni, ti, o, i, j]
    g = sigmoid(motion.mean(axis=(3, 4)) @ block.me_expand.data + block.me_bias.data)
    return x * g[..., None, None]


def make_block(channels=8, seed=0, dtype=np.float64, reduce_ratio=4, temporal_kernel=3):
    return ActionBlock(channels, reduce_ratio, temporal_kernel, np.random.default_rng(seed),
                       "act", dtype=dtype)


def gated(block, branch, x):
    """x times one branch's gate: that branch's term of the block output."""
    return x * getattr(block, branch)(Tensor(x)).numpy()


class TestConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            squeezed(6, reduce_ratio=4, temporal_kernel=3)
        assert squeezed(8, reduce_ratio=4, temporal_kernel=3) == 2

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            make_block(temporal_kernel=4)


class TestBranches:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.x = self.rng.uniform(-1, 1, (2, 4, 8, 4, 4))
        self.block = make_block()

    @pytest.mark.parametrize("branch", ["ste", "ce", "me"])
    def test_zero_input_zero_output(self, branch):
        out = gated(self.block, branch, np.zeros((1, 3, 8, 4, 4)))
        npt.assert_array_equal(out, np.zeros((1, 3, 8, 4, 4)))

    @pytest.mark.parametrize("branch", ["ste", "ce", "me"])
    def test_gate_bounded_by_input(self, branch):
        out = gated(self.block, branch, self.x)
        assert (np.abs(out) <= np.abs(self.x) + 1e-12).all()

    @pytest.mark.parametrize("branch", ["ste", "ce", "me"])
    def test_shape_preserved(self, branch):
        for shape in [(1, 2, 8, 3, 3), (2, 4, 8, 4, 4), (1, 1, 8, 2, 2)]:
            x = self.rng.uniform(-1, 1, shape)
            assert gated(self.block, branch, x).shape == shape

    def test_me_static_scene_motion_zero(self):
        # temporally constant input: the motion map itself need not vanish for
        # arbitrary transform weights, but with the transform zeroed the gate
        # reduces to sigmoid(bias) exactly
        block = make_block()
        block.me_transform.data = np.zeros_like(block.me_transform.data)
        block.me_squeeze.data = np.zeros_like(block.me_squeeze.data)
        x = np.tile(self.rng.uniform(-1, 1, (1, 1, 8, 4, 4)), (1, 4, 1, 1, 1))
        out = gated(block, "me", x)
        npt.assert_allclose(out, x * 0.5, rtol=1e-12)  # sigmoid(0) = 0.5

    def test_me_t1_motion_zero(self):
        x = self.rng.uniform(-1, 1, (2, 1, 8, 4, 4))
        out = gated(self.block, "me", x)
        gate = 1.0 / (1.0 + np.exp(-self.block.me_bias.data))
        npt.assert_allclose(out, x * gate.reshape(1, 1, 8, 1, 1), rtol=1e-10)

    def test_ce_t1_uses_single_frame(self):
        x = self.rng.uniform(-1, 1, (2, 1, 8, 4, 4))
        out = gated(self.block, "ce", x)
        assert out.shape == x.shape
        assert (np.abs(out) <= np.abs(x) + 1e-12).all()

    @pytest.mark.parametrize("t", [1, 2, 5])
    @pytest.mark.parametrize("k", [3, 5])
    def test_ce_matches_loop_oracle(self, t, k):
        block = make_block(seed=7, temporal_kernel=k)
        block.ce_bias.data = self.rng.uniform(-1, 1, 8)
        x = self.rng.uniform(-1, 1, (2, t, 8, 3, 3))
        npt.assert_allclose(gated(block, "ce", x), ce_oracle(block, x),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_me_matches_loop_oracle(self, t):
        block = make_block(seed=8)
        block.me_bias.data = self.rng.uniform(-1, 1, 8)
        x = self.rng.uniform(-1, 1, (2, t, 8, 3, 3))
        npt.assert_allclose(gated(block, "me", x), me_oracle(block, x),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 4, 5])
    def test_ste_matches_loop_oracle(self, t):
        block = make_block(seed=6)
        block.ste_b.data = np.array([0.3])
        x = self.rng.uniform(-1, 1, (2, t, 8, 4, 5))
        npt.assert_allclose(gated(block, "ste", x), ste_oracle(block, x),
                            rtol=0, atol=1e-12)

    def test_ste_gradients(self):
        block = make_block(channels=4, seed=9)
        x = self.rng.uniform(-1, 1, (1, 3, 4, 4, 5))
        w = block.ste_w.data.copy()
        b = np.array([0.3])

        def ste_sum(xt, wt, bt):
            block.ste_w, block.ste_b = wt, bt
            return tsum(xt * block.ste(xt))

        assert grad_check(lambda t: ste_sum(t, Tensor(w), Tensor(b)), x) <= 1e-6
        assert grad_check(lambda t: ste_sum(Tensor(x), t, Tensor(b)), w) <= 1e-6
        assert grad_check(lambda t: ste_sum(Tensor(x), Tensor(w), t), b) <= 1e-6

    def test_ste_gate_floor(self):
        block = make_block()
        block.ste_b.data = np.array([-200.0])
        block.ste_w.data = np.zeros_like(block.ste_w.data)
        out = gated(block, "ste", self.x)
        npt.assert_allclose(out, 0.0, atol=1e-12)


class TestActionBlock:
    def test_zero_input(self):
        block = make_block()
        out = block.forward(Tensor(np.zeros((1, 4, 8, 4, 4)))).numpy()
        npt.assert_array_equal(out, np.zeros((1, 4, 8, 4, 4)))

    @pytest.mark.parametrize("t", [1, 2, 4])
    @pytest.mark.parametrize("k", [3, 5])
    def test_block_matches_sum_of_loop_oracles(self, t, k):
        rng = np.random.default_rng(10)
        block = make_block(seed=12, temporal_kernel=k)
        block.ste_b.data = np.array([0.3])
        block.ce_bias.data = rng.uniform(-1, 1, 8)
        block.me_bias.data = rng.uniform(-1, 1, 8)
        x = rng.uniform(-1, 1, (2, t, 8, 3, 4))
        want = ste_oracle(block, x) + ce_oracle(block, x) + me_oracle(block, x)
        npt.assert_allclose(block.forward(Tensor(x)).numpy(), want, rtol=0, atol=1e-12)

    def test_sum_bounded_by_three_gates(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, (2, 4, 8, 4, 4))
        out = make_block(seed=5).forward(Tensor(x)).numpy()
        assert (np.abs(out) <= 3 * np.abs(x) + 1e-12).all()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (1, 4, 8, 4, 4))
        a = make_block(seed=9).forward(Tensor(x)).numpy()
        b = make_block(seed=9).forward(Tensor(x)).numpy()
        npt.assert_array_equal(a, b)

    def test_gradients_input(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (1, 4, 8, 4, 4))
        block = make_block(seed=11)
        assert grad_check(lambda t: tsum(block.forward(t)), x) <= 1e-4

    def test_gradients_parameters(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (1, 3, 8, 3, 3)))
        block = make_block(seed=13)
        # check a parameter from each branch by substitution
        for pname in ("ste_w", "ce_temporal", "me_expand"):
            param = getattr(block, pname)
            original = param.data.copy()
            out = tsum(block.forward(x))
            out.backward()
            analytic = param.grad.copy()

            eps = 1e-6
            flat = param.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = tsum(block.forward(x)).item()
                flat[i] = orig - eps
                lo = tsum(block.forward(x)).item()
                flat[i] = orig
                numeric[i] = (hi - lo) / (2 * eps)
            denom = np.maximum(1.0, np.maximum(np.abs(analytic.reshape(-1)), np.abs(numeric)))
            err = (np.abs(analytic.reshape(-1) - numeric) / denom).max()
            assert err <= 1e-4, f"{pname}: {err}"
            param.data = original


class TestArrayBlock:
    """ArrayBlock is ActionBlock.forward on arrays, on an inference plan's convs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("temporal_kernel", [1, 3, 5])
    @pytest.mark.parametrize("reduce_ratio", [2, 4])
    @pytest.mark.parametrize("channels", [8, 16])
    def test_equals_forward(self, channels, reduce_ratio, temporal_kernel, dtype):
        seed = channels * 100 + reduce_ratio * 10 + temporal_kernel
        rng = np.random.default_rng(seed)
        block = make_block(channels, seed=seed, dtype=dtype, reduce_ratio=reduce_ratio,
                           temporal_kernel=temporal_kernel)
        for name in ("ste_b", "ce_bias", "me_bias"):  # zero when built
            getattr(block, name).data = rng.uniform(-1, 1, getattr(block, name).shape).astype(dtype)
        scratch = backbone._Scratch(dtype)
        arrays = ArrayBlock(tuple(backbone._PlanConv(1, pad, scratch) for pad in (1, 0, 1)))
        arrays.load(block)
        for t, n, hw in itertools.product((1, 2, 8), (1, 3), (4, 16)):
            for call in range(2):  # the second on the buffers the convs kept for the shape
                x = rng.uniform(-1, 1, (n * t, channels, hw, hw)).astype(dtype)
                if call:  # conv order, as a plan conv returns it
                    x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
                x = x.reshape(n, t, channels, hw, hw)
                want = block.forward(Tensor(x)).data
                got = arrays(x)
                if dtype == np.float32:
                    npt.assert_array_equal(got, want)
                else:
                    npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_load_takes_a_snapshot(self):
        block = make_block(seed=3)
        scratch = backbone._Scratch(np.float64)
        arrays = ArrayBlock(tuple(backbone._PlanConv(1, pad, scratch) for pad in (1, 0, 1)))
        arrays.load(block)
        x = np.random.default_rng(4).uniform(-1, 1, (2, 4, 8, 4, 4))
        before = arrays(x)
        for p in block.parameters():
            p.data *= 2
        npt.assert_array_equal(arrays(x), before)
