"""Layer kernels: forward semantics and finite-difference gradient checks.

Conv and linear outputs are linear in their parameters, so central
differences at step 1e-3 in float64 are exact to rounding; kinked layers
(ReLU, maxpool) are checked on inputs with a safe margin around the kink.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from murmurkit.errors import ConfigError, LabelError, ShapeError, StateError
from murmurkit.nn import layers as L
from murmurkit.nn.layers import cross_entropy, global_avg_pool, softmax

FD_STEP = 1e-3
FD_TOL = 1e-4


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def conv2d(x, w, b):
    """Eval forward of a float64 Conv3x3 holding the given weights."""
    out_ch, in_ch = w.shape[:2]
    layer = L.Conv3x3(in_ch, out_ch, rng=np.random.default_rng(0), dtype=np.float64)
    layer.w.value[...] = w
    layer.b.value[...] = b
    return layer.forward(x, False)


def maxpool2x2(x):
    return L.MaxPool2x2().forward(x, False)


def linear(x, w, b):
    """Eval forward of a float64 Linear holding the given weights."""
    layer = L.Linear(w.shape[1], w.shape[0], rng=np.random.default_rng(0), dtype=np.float64)
    layer.w.value[...] = w
    layer.b.value[...] = b
    return layer.forward(x, False)


# (train, active) of Network's "train", "eval" and "mcd" modes
DROPOUT_MODES = {"train": (True, True), "eval": (False, False), "mcd": (False, True)}


def dropout(x, p, mode, rng=None):
    train, active = DROPOUT_MODES[mode]
    return L.Dropout(p).forward(x, train, active=active, rng=rng)


def _check_input_grad(layer, x, n_coords=20, seed=0):
    """Compare layer.backward against central differences on the input."""
    probe = np.random.default_rng(1).standard_normal(layer.forward(x.copy(), True).shape)

    def loss(xv):
        return float((layer.forward(xv, True) * probe).sum())

    layer.forward(x.copy(), True)
    dx = layer.backward(probe).reshape(-1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in rng.choice(x.size, size=min(n_coords, x.size), replace=False):
        xp = x.copy().reshape(-1)
        xm = x.copy().reshape(-1)
        xp[i] += FD_STEP
        xm[i] -= FD_STEP
        fd = (loss(xp.reshape(x.shape)) - loss(xm.reshape(x.shape))) / (2 * FD_STEP)
        worst = max(worst, _rel_err(fd, dx[i]))
    assert worst < FD_TOL


def _check_param_grads(layer, x, n_coords=12, seed=0):
    probe = np.random.default_rng(1).standard_normal(layer.forward(x.copy(), True).shape)

    def loss():
        return float((layer.forward(x.copy(), True) * probe).sum())

    for p in layer.params():
        p.grad[...] = 0
    layer.forward(x.copy(), True)
    layer.backward(probe)
    rng = np.random.default_rng(seed)
    for p in layer.params():
        flat = p.value.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            lp = loss()
            flat[i] = orig - FD_STEP
            lm = loss()
            flat[i] = orig
            fd = (lp - lm) / (2 * FD_STEP)
            assert _rel_err(fd, gflat[i]) < FD_TOL, p.name


class TestConv2d:
    def test_all_ones_kernel_sums_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.ones((1, 1, 3, 3))
        out = conv2d(x, w, np.zeros(1))
        np.testing.assert_allclose(out[0, 0], [[10.0, 10.0], [10.0, 10.0]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 5, 7))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        np.testing.assert_allclose(conv2d(x, w, np.zeros(3)), x, atol=1e-12)

    def test_against_sixfold_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = conv2d(x, w, b)
        expected = np.zeros((1, 4, 5, 5))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for o in range(4):
            for i in range(5):
                for j in range(5):
                    acc = b[o]
                    for c in range(3):
                        for u in range(3):
                            for v in range(3):
                                acc += xp[0, c, i + u, j + v] * w[o, c, u, v]
                    expected[0, o, i, j] = acc
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 2, 4, 4)), np.zeros((3, 1, 3, 3)), np.zeros(3))

    def test_gradients(self):
        rng = np.random.default_rng(2)
        layer = L.Conv3x3(3, 4, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 3, 6, 8))
        _check_input_grad(layer, x)
        _check_param_grads(layer, x)

    def test_backward_without_forward(self):
        layer = L.Conv3x3(1, 1, rng=np.random.default_rng(0))
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 1, 2, 2)))

    def test_parameter_gradients_without_input_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 6, 8))
        grad = rng.standard_normal((2, 4, 6, 8))
        full = L.Conv3x3(3, 4, rng=np.random.default_rng(0), dtype=np.float64)
        params_only = L.Conv3x3(3, 4, rng=np.random.default_rng(0), dtype=np.float64)
        for layer in (full, params_only):
            layer.forward(x, True)
        full.backward(grad)
        assert params_only.backward(grad, input_grad=False) is None
        for a, b in zip(full.params(), params_only.params()):
            assert a.grad.tobytes() == b.grad.tobytes()


class TestMaxPool:
    def test_single_block(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert maxpool2x2(x)[0, 0, 0, 0] == 4.0

    def test_odd_dims_floored(self):
        x = np.random.default_rng(0).standard_normal((1, 2, 33, 124))
        assert maxpool2x2(x).shape == (1, 2, 16, 62)

    def test_constant_input(self):
        x = np.full((1, 1, 4, 6), 7.0)
        out = maxpool2x2(x)
        assert out.shape == (1, 1, 2, 3)
        assert np.all(out == 7.0)

    def test_too_small(self):
        with pytest.raises(ShapeError):
            maxpool2x2(np.zeros((1, 1, 1, 4)))

    def test_gradients_with_margin(self):
        # Distinct block entries separated well beyond the FD step.
        rng = np.random.default_rng(3)
        x = rng.permutation(2 * 2 * 6 * 8).astype(np.float64).reshape(2, 2, 6, 8) * 0.1
        _check_input_grad(L.MaxPool2x2(), x)

    def test_grad_routes_to_argmax_only(self):
        layer = L.MaxPool2x2()
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        layer.forward(x, True)
        dx = layer.backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(dx[0, 0], [[0.0, 0.0], [0.0, 1.0]])


class TestGlobalAvgPool:
    def test_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert global_avg_pool(x)[0, 0, 0, 0] == 2.5

    def test_constant(self):
        x = np.full((2, 3, 4, 5), 1.5)
        out = global_avg_pool(x)
        assert out.shape == (2, 3, 1, 1)
        assert np.all(out == 1.5)

    def test_against_sum_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 8, 31))
        out = global_avg_pool(x)
        for c in range(2):
            total = 0.0
            for i in range(8):
                for j in range(31):
                    total += x[0, c, i, j]
            assert abs(out[0, c, 0, 0] - total / (8 * 31)) < 1e-7

    def test_gradients(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 5))
        _check_input_grad(L.GlobalAvgPool(), x)


class TestDropout:
    def test_p_zero_identity(self):
        x = np.ones((3, 4))
        for mode in ("train", "eval", "mcd"):
            assert dropout(x, p=0.0, mode=mode, rng=np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = np.ones((3, 4))
        assert dropout(x, p=0.1, mode="eval") is x

    def test_expectation_preserved(self):
        rng = np.random.default_rng(6)
        x = np.ones(10**6)
        out = dropout(x, p=0.1, mode="train", rng=rng)
        assert 0.99 <= out.mean() <= 1.01

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            dropout(np.ones(3), p=1.0, mode="train", rng=np.random.default_rng(0))

    def test_mask_reused_in_backward(self):
        layer = L.Dropout(0.5)
        x = np.ones((4, 4))
        out = layer.forward(x, True, active=True, rng=np.random.default_rng(7))
        dx = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(dx, np.where(out > 0, 2.0, 0.0))


def _read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


def _signed_zeros(shape, dtype, seed):
    """Exact zeros of both signs among negative and positive values."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[:, 0] = np.where(rng.random(x[:, 0].shape) < 0.5, -0.0, 0.0)
    return x.astype(dtype)


class TestDropoutInPlace:
    """In training Dropout writes its output over a writable input, as ReLU
    does, and a read-only input gets a buffer of the layer's own."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_forward_overwrites_a_writable_input(self, dtype):
        x = _signed_zeros((2, 3, 5, 7), dtype, 0)
        fresh = dropout(_read_only(x), p=0.3, mode="train", rng=np.random.default_rng(1))
        got = dropout(x, p=0.3, mode="train", rng=np.random.default_rng(1))
        assert got is x
        assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("mode", ["train", "mcd"])
    def test_read_only_broadcast_input_is_never_written(self, mode):
        row = _signed_zeros((1, 4, 6, 5), np.float32, 2)
        x = np.broadcast_to(row, (10, *row.shape[1:]))
        before = row.tobytes()
        out = dropout(x, p=0.3, mode=mode, rng=np.random.default_rng(3))
        assert out is not x and not np.shares_memory(out, row)
        assert row.tobytes() == before

    def test_mcd_forward_leaves_a_writable_input_alone(self):
        x = np.ones((3, 4), dtype=np.float32)
        out = dropout(x, p=0.5, mode="mcd", rng=np.random.default_rng(4))
        assert not np.shares_memory(out, x) and (x == 1).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_relu_dropout_chain_backward_matches_a_fresh_buffer_forward(self, p, dtype):
        """After an in-place forward the ReLU's cached output holds the
        dropout output, which is > 0 on fewer elements; the dropout gradient
        is a signed zero on exactly those, so the chain gives the same bytes."""
        x = _signed_zeros((2, 3, 6, 5), dtype, 5)
        grad = np.random.default_rng(6).standard_normal(x.shape).astype(dtype)
        grads = []
        for in_place in (True, False):
            relu, drop = L.ReLU(), L.Dropout(p)
            h = relu.forward(x.copy(), True)
            if not in_place:
                h.flags.writeable = False
            out = drop.forward(h, True, active=True, rng=np.random.default_rng(7))
            assert (out is h) == in_place
            grads.append(relu.backward(drop.backward(grad)).tobytes())
        assert grads[0] == grads[1]


class TestLinearSoftmaxCrossEntropy:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_softmax_stability(self):
        out = softmax(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0])
        assert np.all(np.isfinite(out))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((50, 2)) * 10
        probs = softmax(z)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_cross_entropy_uniform(self):
        assert cross_entropy(np.array([0.5, 0.5]), 0) == pytest.approx(np.log(2), abs=1e-9)
        assert cross_entropy(np.array([0.5, 0.5]), 1) == pytest.approx(np.log(2), abs=1e-9)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(LabelError):
            cross_entropy(np.array([[0.5, 0.5]]), 2)

    def test_linear_values(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[3.0, 4.0], [5.0, 6.0]])
        b = np.array([0.5, -0.5])
        np.testing.assert_allclose(linear(x, w, b), [[11.5, 16.5]])

    def test_linear_flattens(self):
        x = np.ones((2, 3, 1, 1))
        w = np.zeros((2, 3))
        out = linear(x, w, np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [[1.0, 2.0], [1.0, 2.0]])

    def test_linear_gradients(self):
        rng = np.random.default_rng(9)
        layer = L.Linear(6, 4, rng=rng, dtype=np.float64)
        x = rng.standard_normal((3, 6))
        _check_input_grad(layer, x)
        _check_param_grads(layer, x)


class TestScratch:
    @staticmethod
    def _address(a):
        return a.__array_interface__["data"][0]

    def test_smaller_request_reuses_the_memory(self):
        s = L._Scratch()
        a = s.get("x", (4, 8), np.float32)
        b = s.get("x", (2, 3), np.float32)
        assert b.shape == (2, 3) and self._address(b) == self._address(a)

    def test_larger_request_grows_and_frees_the_old_buffer_first(self):
        s = L._Scratch()
        tracemalloc.start()
        try:
            s.get("x", (2**20,), np.uint8)
            tracemalloc.reset_peak()
            big = s.get("x", (2, 2**20), np.uint8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert big.shape == (2, 2**20)
        assert peak < 2.5 * 2**20, peak  # the 1 MiB buffer was gone before the 2 MiB one came
        assert self._address(s.get("x", (2**20,), np.uint8)) == self._address(big)

    def test_two_names_never_alias(self):
        s = L._Scratch()
        a = s.get("a", (64,), np.float64)
        b = s.get("b", (64,), np.float64)
        assert not np.shares_memory(a, b)

    def test_dtype_change_views_the_same_bytes(self):
        s = L._Scratch()
        f = s.get("x", (4,), np.float32)
        f[...] = [1.0, -2.0, 0.5, 3.0]
        u = s.get("x", (16,), np.uint8)
        assert self._address(u) == self._address(f)
        assert u.tobytes() == f.tobytes()

    def test_threads_get_separate_buffers(self):
        s = L._Scratch()
        mine = s.get("x", (32,), np.float32)
        theirs = []
        t = threading.Thread(target=lambda: theirs.append(s.get("x", (32,), np.float32)))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        assert not np.shares_memory(mine, theirs[0])
        assert self._address(s.get("x", (32,), np.float32)) == self._address(mine)


class TestReLU:
    def test_gradients_with_margin(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 5))
        x = np.where(np.abs(x) < 0.05, 0.5, x)  # keep inputs away from the kink
        _check_input_grad(L.ReLU(), x)
