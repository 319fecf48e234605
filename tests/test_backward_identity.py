"""Byte identity of the conv, block-tail and pooled-block backward kernels
(and of the int8 twin's ``_im2col3x3``) against oracles.

The oracles below are the allocate-per-call formulation of the training
backward: the conv rebuilds its columns from its cached input with a
zero-padded im2col of its own, its weight gradient sums a batched
``(N, out, 9 * in)`` GEMM over the batch, its input-gradient columns go to
a separate array that a padded col2im folds back, and the block tail writes
its input gradient to a fresh array. The kernels must reproduce their input
and parameter gradients bit for bit, in float32 and float64, at batch 1 and
32, on odd H and W, on H = 1 and W = 2 (where col2im's in-bounds tap ranges
are empty or one wide), behind a pool (the tail inside the PooledConvBlock
that trains a pooled block) and without one, with the dropout active and
inactive, and across repeated calls on one layer object (which share
workspaces). The oracles write nothing the forward pass left behind, so
each case runs its oracle first and the kernel second on the same forward
caches.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from murmurkit.errors import StateError
from murmurkit.nn import TrainConfig, build_model, fit
from murmurkit.nn import layers as L

DTYPES = (np.float32, np.float64)


# --- oracles -------------------------------------------------------------------


def oracle_im2col3x3(x):
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    cols = np.empty((n, c, 9, h, w), dtype=x.dtype)
    k = 0
    for u in range(3):
        for v in range(3):
            cols[:, :, k] = xp[:, :, u : u + h, v : v + w]
            k += 1
    return cols.reshape(n, c * 9, h * w)


def oracle_col2im3x3(dcols, shape):
    n, c, h, w = shape
    dxp = np.zeros((n, c, h + 2, w + 2), dtype=dcols.dtype)
    d = dcols.reshape(n, c, 9, h, w)
    k = 0
    for u in range(3):
        for v in range(3):
            dxp[:, :, u : u + h, v : v + w] += d[:, :, k]
            k += 1
    return dxp[:, :, 1 : h + 1, 1 : w + 1]


def oracle_conv_backward(self, grad, input_grad=True):
    if self._cache is None:
        raise StateError("conv backward without cached forward")
    x = self._cache
    x_shape = x.shape
    n, _, h, w = x_shape
    cols = oracle_im2col3x3(x)
    g = grad.reshape(n, self.out_ch, h * w)
    dw_n = np.matmul(g, cols.transpose(0, 2, 1))
    self.w.grad += dw_n.sum(axis=0).reshape(self.w.value.shape)
    self.b.grad += g.sum(axis=(0, 2))
    if not input_grad:
        return None
    wm = self.w.value.reshape(self.out_ch, self.in_ch * 9)
    return oracle_col2im3x3(np.matmul(wm.T, g), x_shape)


def oracle_tail_backward(self, grad):
    """ReLU -> Dropout, followed by ``self.pool`` when it is set."""
    pool = getattr(self, "pool", None)
    if self.relu._out is None or (pool is not None and pool._cache is None):
        raise StateError("block tail backward without cached forward")
    if self.dropout._cache is None:
        out, scale = self.relu._out, None
    else:
        _, scale, out = self.dropout._cache
    if pool is not None:
        code, out, shape = pool._cache
    g = grad * (out > 0)
    if scale is not None:
        g *= scale
    if pool is None:
        return g
    dx = np.empty(shape, dtype=grad.dtype)
    L._route_to_winners(g, code, dx, np.empty(code.shape, dtype=np.bool_))
    return dx


# --- inputs --------------------------------------------------------------------


def _random(shape, dtype, seed):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def _tie_heavy(shape, dtype, seed):
    """Exact zeros, +0/-0 pairs and constant windows, as a conv output can hold."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    x[:, 0] = rng.integers(-1, 2, size=x[:, 0].shape)
    x[:, -1] = np.where(rng.random(x[:, -1].shape) < 0.5, -0.0, 0.0)
    return x.astype(dtype)


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# (batch, in_ch, out_ch, H, W): batch 1 and 32, even and odd H and W, H = 1
# (the outer row taps reach no image row) and W = 2 (each outer column tap
# reaches one image column).
CONV_SHAPES = {
    "b1": (1, 3, 4, 8, 10),
    "b1-odd": (1, 2, 5, 7, 9),
    "b32": (32, 3, 8, 6, 10),
    "b32-odd": (32, 4, 6, 9, 13),
    "h1": (4, 3, 4, 1, 9),
    "w2": (4, 3, 4, 7, 2),
    "b32-h1-w2": (32, 2, 5, 1, 2),
}


def _conv_case(name, dtype, seed):
    n, c_in, c_out, h, w = CONV_SHAPES[name]
    conv = L.Conv3x3(c_in, c_out, rng=np.random.default_rng(seed), dtype=dtype)
    conv.b.value[...] = np.random.default_rng(seed + 1).uniform(-0.2, 0.2, c_out)
    return conv, (n, c_in, h, w), (n, c_out, h, w)


def _conv_grads(conv, backward, grad, input_grad):
    for p in conv.params():
        p.grad[...] = 0
    dx = backward(conv, grad, input_grad)
    dx = None if dx is None else np.array(dx)  # a workspace view: the next call overwrites it
    return dx, [p.grad.copy() for p in conv.params()]


# --- conv --------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", list(CONV_SHAPES))
@pytest.mark.parametrize("input_grad", [True, False], ids=["dx", "no-dx"])
def test_conv_backward_matches_oracle(shape, dtype, input_grad):
    conv, x_shape, out_shape = _conv_case(shape, dtype, 0)
    for seed in (1, 2):  # the second round reuses the layer's workspaces
        conv.forward(_random(x_shape, dtype, seed), True)
        grad = _random(out_shape, dtype, seed + 10)
        want_dx, want = _conv_grads(conv, oracle_conv_backward, grad, input_grad)
        got_dx, got = _conv_grads(conv, L.Conv3x3.backward, grad, input_grad)
        if input_grad:
            _same_bytes(got_dx, want_dx)
        else:
            assert got_dx is None and want_dx is None
        for g, w in zip(got, want):
            _same_bytes(g, w)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", list(CONV_SHAPES))
def test_im2col_matches_oracle(shape, dtype):
    """The int8 twin's column builder, which shares the conv's tap view."""
    n, c_in, _, h, w = CONV_SHAPES[shape]
    x = _random((n, c_in, h, w), dtype, 7)
    _same_bytes(L._im2col3x3(x), oracle_im2col3x3(x))


@pytest.mark.parametrize("dtype", DTYPES)
def test_conv_backward_accumulates_into_existing_gradients(dtype):
    conv, x_shape, out_shape = _conv_case("b32-odd", dtype, 3)
    conv.forward(_random(x_shape, dtype, 4), True)
    grad = _random(out_shape, dtype, 5)
    start = [_random(p.value.shape, dtype, 6 + i) for i, p in enumerate(conv.params())]
    grads = []
    for backward in (oracle_conv_backward, L.Conv3x3.backward):
        for p, s in zip(conv.params(), start):
            p.grad[...] = s
        backward(conv, grad, True)
        grads.append([p.grad.copy() for p in conv.params()])
    for g, w in zip(grads[1], grads[0]):
        _same_bytes(g, w)


# --- block tail --------------------------------------------------------------------

# (batch, channels, H, W), odd sizes leave a row and a column the pool drops.
TAIL_SHAPES = {"b1": (1, 3, 8, 10), "b1-odd": (1, 2, 7, 9), "b32": (32, 4, 6, 8), "b32-odd": (32, 3, 9, 13)}



def _pooled_block(channels, make, active, dtype):
    """The layers of a Conv3x3 -> ReLU -> Dropout -> MaxPool2x2 block and
    the PooledConvBlock over them. For tie-heavy inputs the conv copies its
    input (a centre tap of 1), so its output keeps their ties; an inactive
    dropout has p = 0."""
    conv = L.Conv3x3(channels, channels, rng=np.random.default_rng(0), dtype=dtype)
    if make is _tie_heavy:
        conv.w.value[...] = 0
        conv.w.value[range(channels), range(channels), 1, 1] = 1
    chain = SimpleNamespace(conv=conv, relu=L.ReLU(), dropout=L.Dropout(0.1 if active else 0.0), pool=L.MaxPool2x2())
    return chain, L.PooledConvBlock(conv, chain.relu, chain.dropout, chain.pool)


def _check_pooled_tail(active, make, shape, dtype):
    """The block's output, input and parameter gradients against the
    per-layer forward with the oracle tail and conv backward."""
    chain, block = _pooled_block(shape[1], make, active, dtype)
    for seed in (1, 2):  # the second round reuses the layers' workspaces
        x = make(shape, dtype, seed)
        h = chain.relu.forward(chain.conv.forward(x, True), True)
        h = chain.dropout.forward(h, True, active=True, rng=np.random.default_rng(seed))
        want_out = chain.pool.forward(h, True).copy()
        grad = _random(want_out.shape, dtype, seed + 10)
        want_dx, want = _conv_grads(chain.conv, oracle_conv_backward, oracle_tail_backward(chain, grad), True)
        _same_bytes(block.forward(x, np.random.default_rng(seed)), want_out)
        got_dx, got = _conv_grads(chain.conv, lambda _, *args: block.backward(*args), grad, True)
        _same_bytes(got_dx, want_dx)
        for g, w in zip(got, want):
            _same_bytes(g, w)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", list(TAIL_SHAPES))
@pytest.mark.parametrize("make", [_random, _tie_heavy], ids=["random", "tie_heavy"])
@pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no-pool"])
@pytest.mark.parametrize("active", [True, False], ids=["dropout", "no-dropout"])
def test_tail_backward_matches_oracle(active, pooled, make, shape, dtype):
    if pooled:
        _check_pooled_tail(active, make, TAIL_SHAPES[shape], dtype)
        return
    tail = L.ActivationTail(L.ReLU(), L.Dropout(0.1))
    for seed in (1, 2):  # the second round reuses the layers' workspaces
        h = tail.relu.forward(make(TAIL_SHAPES[shape], dtype, seed), True)
        out = tail.dropout.forward(h, True, active=active, rng=np.random.default_rng(seed))
        grad = _random(out.shape, dtype, seed + 10)
        want = oracle_tail_backward(tail, grad)
        _same_bytes(tail.backward(grad), want)


# --- one backward per forward ---------------------------------------------------
# A backward leaves gradients in the buffers its forward cache names, so the
# cache serves one backward.


def test_second_conv_backward_without_forward_raises():
    conv = L.Conv3x3(2, 3, rng=np.random.default_rng(0))
    conv.forward(np.ones((1, 2, 5, 6), dtype=np.float32), True)
    grad = np.ones((1, 3, 5, 6), dtype=np.float32)
    conv.backward(grad)
    with pytest.raises(StateError):
        conv.backward(grad)


def test_second_tail_backward_without_forward_raises():
    tail = L.ActivationTail(L.ReLU(), L.Dropout(0.1))
    h = tail.forward(np.ones((1, 2, 4, 6), dtype=np.float32), np.random.default_rng(0))
    tail.backward(np.ones(h.shape, dtype=np.float32))
    with pytest.raises(StateError):
        tail.backward(np.ones(h.shape, dtype=np.float32))


def test_second_network_backward_without_forward_raises():
    net = build_model("light", seed=0)
    x = np.random.default_rng(1).standard_normal((2, 1, 33, 124)).astype(np.float32)
    net.forward(x, mode="train", rng=np.random.default_rng(2))
    net.backward(np.array([0, 1]))
    with pytest.raises(StateError):
        net.backward(np.array([0, 1]))


# --- whole training run ------------------------------------------------------------


def _train_light(seed):
    rng = np.random.default_rng(seed)
    train_x = rng.standard_normal((72, 1, 33, 124)).astype(np.float32)
    val_x = rng.standard_normal((24, 1, 33, 124)).astype(np.float32)
    train_y, val_y = rng.integers(0, 2, 72), rng.integers(0, 2, 24)
    net = build_model("light", seed=seed)
    history = fit(net, train_x, train_y, val_x, val_y, TrainConfig(epochs=2, seed=seed))
    return net.get_weights(), [e.train_loss for e in history.epochs]


def test_two_epoch_light_training_matches_oracle_backward(monkeypatch):
    calls = []

    def counted(oracle):
        return lambda self, *args, **kwargs: calls.append(type(self)) or oracle(self, *args, **kwargs)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a pooled block ran fused in the oracle run")

    with monkeypatch.context() as m:
        # The plan fuses no pooled block here, so every conv runs the oracle
        # backward and every tail the oracle tail, behind the pool's own
        # backward; the second run trains light's pooled blocks fused.
        m.setattr(L, "_FUSED_KINDS", (*L._FUSED_KINDS[:3], type("MaxPool2x2", (L.MaxPool2x2,), {})))
        m.setattr(L.PooledConvBlock, "backward", refuse)
        m.setattr(L.Conv3x3, "backward", counted(oracle_conv_backward))
        m.setattr(L.ActivationTail, "backward", counted(oracle_tail_backward))
        want_weights, want_losses = _train_light(23)
    assert {L.Conv3x3, L.ActivationTail} <= set(calls)
    got_weights, got_losses = _train_light(23)
    assert got_losses == want_losses
    assert len(got_weights) == len(want_weights)
    for got, want in zip(got_weights, want_weights):
        _same_bytes(got, want)
