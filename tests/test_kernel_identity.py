"""Byte identity of the conv forward and the maxpool, dropout and ReLU
layers against oracle kernels.

The oracles below are the straightforward kernels: the conv forward builds
the whole batch's zero-padded im2col and runs one batched ``np.matmul``,
maxpool copies each 2x2 window into a (..., 4) block and uses argmax with
take/put_along_axis, dropout multiplies by a freshly allocated mask, and
ReLU writes a separate output and keeps an input mask. The layer classes
must reproduce their outputs, gradients and generator consumption bit for
bit, in float32 and float64, on random, tie-heavy and odd-sized inputs and
across repeated calls on one layer object (which share workspaces).
"""

import numpy as np
import pytest

from murmurkit.errors import StateError
from murmurkit.nn import TrainConfig, build_model, fit
from murmurkit.nn import layers as L

DTYPES = (np.float32, np.float64)


# --- oracles -------------------------------------------------------------------


def oracle_conv_forward(conv, x):
    """All of the batch's columns at once, then one batched GEMM."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    taps = [xp[:, :, u : u + h, v : v + w] for u in range(3) for v in range(3)]
    cols = np.stack(taps, axis=2).reshape(n, c * 9, h * w)
    out = np.matmul(conv.w.value.reshape(conv.out_ch, c * 9), cols) + conv.b.value[None, :, None]
    return out.reshape(n, conv.out_ch, h, w)


class OracleMaxPool2x2:
    def __init__(self):
        self._cache = None

    def params(self):
        return []

    def forward(self, x, train):
        n, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        blocks = (
            x[:, :, : h2 * 2, : w2 * 2]
            .reshape(n, c, h2, 2, w2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h2, w2, 4)
        )
        idx = np.argmax(blocks, axis=4)
        out = np.take_along_axis(blocks, idx[..., None], axis=4)[..., 0]
        if train:
            self._cache = (idx, x.shape)
        return out

    def backward(self, grad):
        if self._cache is None:
            raise StateError("maxpool backward without cached forward")
        idx, (n, c, h, w) = self._cache
        h2, w2 = h // 2, w // 2
        dblocks = np.zeros((n, c, h2, w2, 4), dtype=grad.dtype)
        np.put_along_axis(dblocks, idx[..., None], grad[..., None], axis=4)
        dx = np.zeros((n, c, h, w), dtype=grad.dtype)
        dx[:, :, : h2 * 2, : w2 * 2] = (
            dblocks.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2 * 2, w2 * 2)
        )
        return dx


class OracleDropout:
    def __init__(self, p=0.1):
        self.p = p
        self._mask = None

    def params(self):
        return []

    def forward(self, x, train, *, active, rng):
        if not active or self.p == 0.0:
            if train:
                self._mask = None
            return x
        draw_dtype = np.float64 if x.dtype == np.float64 else np.float32
        draw = np.empty(x.shape, dtype=draw_dtype)
        rng.random(out=draw.reshape(-1), dtype=draw_dtype)
        gate = draw >= self.p
        mask = np.multiply(gate, np.array(1.0 / (1.0 - self.p), dtype=x.dtype))
        if train:
            self._mask = mask
        return x * mask

    def backward(self, grad):
        return grad if self._mask is None else grad * self._mask


class OracleReLU:
    def __init__(self):
        self._mask = None

    def params(self):
        return []

    def forward(self, x, train):
        if train:
            self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad):
        return grad * self._mask


# --- inputs --------------------------------------------------------------------


def _random(shape, dtype, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _tie_heavy(shape, dtype, seed):
    """Post-ReLU zeros, small-integer repeats, constant windows and +0/-0 pairs."""
    rng = np.random.default_rng(seed)
    x = np.maximum(rng.standard_normal(shape), 0)
    x[:, 0] = rng.integers(0, 3, size=x[:, 0].shape)
    x[:, -1] = 2.5
    if shape[1] > 2:
        x[:, 1] = np.where(rng.random(x[:, 1].shape) < 0.5, -0.0, 0.0)
    return x.astype(dtype)


INPUTS = {
    "random": (_random, (2, 3, 8, 10)),
    "tie_heavy": (_tie_heavy, (2, 4, 6, 8)),
    "odd_h": (_random, (2, 3, 7, 10)),
    "odd_hw": (_tie_heavy, (1, 4, 33, 17)),
}


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _pool_grad(x, dtype, seed):
    n, c, h, w = x.shape
    return _random((n, c, h // 2, w // 2), dtype, seed)


# --- conv forward ------------------------------------------------------------------

# (batch, in_ch, out_ch, H, W): batch 1, 10 and 32, odd H and W, H = 1, and
# light's second conv at batch 32.
CONV_SHAPES = {
    "b1": (1, 3, 4, 8, 10),
    "b1-h1": (1, 2, 3, 1, 5),
    "b10-odd": (10, 2, 5, 7, 9),
    "b10-h1": (10, 3, 4, 1, 9),
    "b32": (32, 3, 8, 6, 10),
    "b32-odd": (32, 4, 6, 9, 13),
    "b32-light-conv2": (32, 16, 32, 16, 62),
}


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", list(CONV_SHAPES))
def test_conv_forward_matches_oracle(shape, dtype, train):
    n, c_in, c_out, h, w = CONV_SHAPES[shape]
    conv = L.Conv3x3(c_in, c_out, rng=np.random.default_rng(0), dtype=dtype)
    conv.b.value[...] = _random((c_out,), dtype, 1)
    for seed in (2, 3):  # the second call reuses the layer's workspaces
        x = _random((n, c_in, h, w), dtype, seed)
        _same_bytes(conv.forward(x, train), oracle_conv_forward(conv, x))


# --- maxpool ---------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", list(INPUTS))
def test_maxpool_matches_oracle(kind, dtype):
    make, shape = INPUTS[kind]
    x = make(shape, dtype, 0)
    grad = _pool_grad(x, dtype, 1)
    layer, oracle = L.MaxPool2x2(), OracleMaxPool2x2()
    for train in (False, True):
        _same_bytes(layer.forward(x.copy(), train), oracle.forward(x.copy(), train))
    _same_bytes(layer.backward(grad), oracle.backward(grad))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", list(INPUTS))
def test_maxpool_second_call_with_new_data(kind, dtype):
    make, shape = INPUTS[kind]
    layer, oracle = L.MaxPool2x2(), OracleMaxPool2x2()
    for seed in (2, 3):
        x = make(shape, dtype, seed)
        grad = _pool_grad(x, dtype, seed + 10)
        _same_bytes(layer.forward(x.copy(), True), oracle.forward(x.copy(), True))
        _same_bytes(layer.backward(grad), oracle.backward(grad))


def test_int8_max_pool_matches_block_max():
    # The int8 inference path pools with the same kernel as the float layer.
    q = np.random.default_rng(0).integers(-128, 128, size=(2, 3, 9, 14)).astype(np.int8)
    blocks = q[:, :, :8].reshape(2, 3, 4, 2, 7, 2).transpose(0, 1, 2, 4, 3, 5).reshape(2, 3, 4, 7, 4)
    _same_bytes(L.max_pool_2x2(q), blocks.max(axis=4))


# --- dropout ---------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", list(INPUTS))
@pytest.mark.parametrize("train", [True, False])
def test_dropout_matches_oracle(kind, dtype, train):
    make, shape = INPUTS[kind]
    layer, oracle = L.Dropout(0.1), OracleDropout(0.1)
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    for seed in (0, 1):  # the second call reuses the layer's workspaces
        x = make(shape, dtype, seed)
        grad = _random(shape, dtype, seed + 10)
        _same_bytes(
            layer.forward(x.copy(), train, active=True, rng=rng),
            oracle.forward(x.copy(), train, active=True, rng=twin),
        )
        if train:
            _same_bytes(layer.backward(grad), oracle.backward(grad))
    assert rng.random() == twin.random()


def test_dropout_backward_after_inactive_forward_is_identity():
    layer = L.Dropout(0.1)
    layer.forward(np.ones((2, 3)), True, active=True, rng=np.random.default_rng(0))
    layer.forward(np.ones((2, 3)), True, active=False, rng=None)
    grad = np.ones((2, 3))
    assert layer.backward(grad) is grad


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p", [0.1, 0.5])
def test_dropout_rng_stream_is_pinned(dtype, p):
    """The mask is rng.random(size, dtype) >= p, scaled by 1/(1-p), and the
    generator is left exactly where that one draw leaves it."""
    shape = (3, 4, 5, 7)
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    out = L.Dropout(p).forward(np.ones(shape, dtype), False, active=True, rng=rng)
    draw_dtype = np.float64 if dtype is np.float64 else np.float32
    gate = twin.random(int(np.prod(shape)), dtype=draw_dtype).reshape(shape) >= p
    _same_bytes(out, gate * np.array(1.0 / (1.0 - p), dtype=dtype))
    assert rng.random() == twin.random()


# --- relu ------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kind", list(INPUTS))
def test_relu_matches_oracle(kind, dtype):
    make, shape = INPUTS[kind]
    layer, oracle = L.ReLU(), OracleReLU()
    for seed in (0, 1):
        x = make(shape, dtype, seed)
        grad = _random(shape, dtype, seed + 10)
        _same_bytes(layer.forward(x.copy(), True), oracle.forward(x.copy(), True))
        _same_bytes(layer.backward(grad), oracle.backward(grad))


# --- whole training run ------------------------------------------------------------


def _train_light(seed):
    rng = np.random.default_rng(seed)
    train_x = rng.standard_normal((72, 1, 33, 124)).astype(np.float32)
    val_x = rng.standard_normal((24, 1, 33, 124)).astype(np.float32)
    train_y, val_y = rng.integers(0, 2, 72), rng.integers(0, 2, 24)
    net = build_model("light", seed=seed)
    history = fit(net, train_x, train_y, val_x, val_y, TrainConfig(epochs=2, seed=seed))
    kinds = {type(layer) for layer in net.layers}
    return kinds, net.get_weights(), [e.train_loss for e in history.epochs]


def test_two_epoch_light_training_matches_oracle_kernels(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(L, "MaxPool2x2", OracleMaxPool2x2)
        m.setattr(L, "Dropout", OracleDropout)
        m.setattr(L, "ReLU", OracleReLU)
        want_kinds, want_weights, want_losses = _train_light(21)
    got_kinds, got_weights, got_losses = _train_light(21)
    assert {OracleMaxPool2x2, OracleDropout, OracleReLU} <= want_kinds
    assert {L.MaxPool2x2, L.Dropout, L.ReLU} <= got_kinds
    assert got_losses == want_losses
    assert len(got_weights) == len(want_weights)
    for got, want in zip(got_weights, want_weights):
        _same_bytes(got, want)
