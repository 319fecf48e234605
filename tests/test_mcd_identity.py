"""Byte identity of MC-dropout inference and dropout gates against oracles.

The oracles are the straightforward formulation: every pass of
``mcd_predict_batch`` runs the whole network from its input, each segment's
deterministic pass over that segment alone and its n stochastic passes over
n copies of the segment, and dropout draws one float per element with
``rng.random`` and keeps the elements whose draw is >= p. The conv, ReLU,
pooling and linear layers are the network's own: only the order of work
and the dropout draw are under test. Results, pass probabilities and the generator state left
behind must match bit for bit, in float32 and float64. The parameter
gradients of a train step, which runs each conv block as one kernel, must
match those of the per-layer forward and backward chain.
"""

import numpy as np
import pytest

from murmurkit.errors import ConfigError
from murmurkit.nn import build_model, predict_labels
from murmurkit.nn import layers as L
from murmurkit.uq import _scores, mcd_predict_batch

INPUT_SHAPE = (1, 33, 124)


# --- oracles -------------------------------------------------------------------


def oracle_dropout(p, x, rng):
    """Active dropout: a float draw per element, kept where draw >= p."""
    if p == 0.0:
        return x
    draw_dtype = np.float64 if x.dtype == np.float64 else np.float32
    draw = np.empty(x.shape, dtype=draw_dtype)
    rng.random(out=draw.reshape(-1), dtype=draw_dtype)
    gate = draw >= p
    scale = np.array(1.0 / (1.0 - p), dtype=x.dtype)
    return np.multiply(x, gate) * scale


def oracle_forward(net, x, mode, rng=None):
    """The whole stack from the input, with ``oracle_dropout`` in "mcd" mode."""
    h = np.ascontiguousarray(x, dtype=net.dtype)
    for layer in net.layers:
        if layer is None:
            h = L.softmax(h).astype(net.dtype)
        elif isinstance(layer, L.Dropout):
            h = h if mode == "eval" else oracle_dropout(layer.p, h, rng)
        else:
            h = layer.forward(h, False)
    return h


def oracle_mcd_predict_batch(net, inputs, n, seed, alpha=0.5, entropy_mode="entropy_of_mean"):
    inputs = np.asarray(inputs, dtype=np.float32)
    out = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(len(inputs))):
        rng = np.random.default_rng(child)
        det = oracle_forward(net, inputs[i : i + 1], "eval")
        batch = np.broadcast_to(inputs[i][None, ...], (n, *inputs[i].shape)).copy()
        out.append(_scores(det[0], oracle_forward(net, batch, "mcd", rng), alpha, entropy_mode))
    return out


# --- helpers -------------------------------------------------------------------


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_bytes(g.deterministic_probs, w.deterministic_probs)
        _same_bytes(g.pass_probs, w.pass_probs)
        _same_bytes(g.pass_preds, w.pass_preds)
        assert (g.entropy, g.coherence, g.confidence, g.n_passes) == (
            w.entropy,
            w.coherence,
            w.confidence,
            w.n_passes,
        )


def _net(variant, dtype, seed=3):
    """A built network with non-zero biases, so ReLU sees both signs."""
    net = build_model(variant, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 100)
    for p in net.parameters():
        if p.name.endswith(".b"):
            p.value[...] = rng.uniform(-0.2, 0.2, p.value.shape)
    return net


def _stack(size, seed):
    return np.random.default_rng(seed).standard_normal((size, *INPUT_SHAPE)).astype(np.float32)


# --- mcd_predict_batch -----------------------------------------------------------

# Each (variant, dtype) pair sees every stack size and every pass count once.
MCD_CASES = [
    ("light", np.float32, 1, 2),
    ("light", np.float32, 5, 10),
    ("light", np.float32, 7, 11),
    ("light", np.float64, 1, 11),
    ("light", np.float64, 5, 2),
    ("light", np.float64, 7, 10),
    ("baseline", np.float32, 1, 10),
    ("baseline", np.float32, 5, 11),
    ("baseline", np.float32, 7, 2),
    ("baseline", np.float64, 1, 2),
    ("baseline", np.float64, 5, 10),
    ("baseline", np.float64, 7, 11),
]


@pytest.mark.parametrize("variant,dtype,segments,n", MCD_CASES)
def test_mcd_predict_batch_matches_oracle(variant, dtype, segments, n):
    net = _net(variant, dtype)
    inputs = _stack(segments, segments + n)
    want = oracle_mcd_predict_batch(net, inputs, n=n, seed=17)
    _same_results(mcd_predict_batch(net, inputs, n=n, seed=17), want)


@pytest.mark.parametrize("entropy_mode", ["entropy_of_mean", "mean_of_entropies"])
def test_mcd_predict_batch_calls_in_a_row_match_oracle(entropy_mode):
    # Stacks of different sizes on one network reuse its buffers, viewed at
    # each stack's shape.
    net = _net("light", np.float32)
    for segments, seed in ((5, 1), (7, 2), (1, 3), (5, 4)):
        inputs = _stack(segments, seed)
        kwargs = dict(n=10, seed=seed, alpha=0.3, entropy_mode=entropy_mode)
        _same_results(
            mcd_predict_batch(net, inputs, **kwargs), oracle_mcd_predict_batch(net, inputs, **kwargs)
        )


@pytest.mark.parametrize("variant", ["light", "baseline"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_deterministic_pass_does_not_depend_on_the_stack(variant, dtype):
    """A segment's deterministic probabilities equal a one-row eval forward
    and its result in a sub-stack, and its label is plain inference's."""
    net = _net(variant, dtype)
    inputs = _stack(7, 5)
    # shift the head's Present bias so the median segment sits at the tie
    probs = net.forward(inputs, mode="eval")
    net.parameters()[-1].value[1] -= np.median(np.log(probs[:, 1] / probs[:, 0]))
    results = mcd_predict_batch(net, inputs, n=2, seed=17)
    for i, r in enumerate(results):
        _same_bytes(r.deterministic_probs, net.forward(inputs[i : i + 1], mode="eval")[0])
    for r, s in zip(results[2:5], mcd_predict_batch(net, inputs[2:5], n=2, seed=17)):
        _same_bytes(r.deterministic_probs, s.deterministic_probs)
    labels = [r.deterministic_pred for r in results]
    assert set(labels) == {0, 1}  # both classes occur, so the label check has teeth
    np.testing.assert_array_equal(labels, predict_labels(net, inputs))


# --- dropout gate draws ----------------------------------------------------------

DTYPES = (np.float32, np.float64)
# Odd and even sizes, and sizes that span many thousands of generator words.
SIZES = (1, 2, 3, 105, 4096, 100_003, 262_145)
# p = 1/3 is not a float32; 1 - 1e-10 rounds to 1.0 in float32; 1e-50 to 0.0.
PS = (0.1, 0.5, 1 / 3, 1 - 1e-10, 1e-12, 1e-50)


def _assert_same_generator(rng, twin):
    assert rng.bit_generator.state == twin.bit_generator.state
    _same_bytes(rng.random(3, dtype=np.float32), twin.random(3, dtype=np.float32))
    _same_bytes(rng.random(3), twin.random(3))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("buffered", [False, True])
def test_dropout_draw_matches_oracle(dtype, size, buffered):
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    if buffered:
        # One float32 draw leaves half of a 64-bit word buffered in PCG64.
        _same_bytes(rng.random(dtype=np.float32), twin.random(dtype=np.float32))
    x = np.random.default_rng(size).standard_normal(size).astype(dtype)
    _same_bytes(
        L.Dropout(0.1).forward(x.copy(), False, active=True, rng=rng), oracle_dropout(0.1, x, twin)
    )
    _assert_same_generator(rng, twin)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("p", PS)
def test_dropout_rate_edges_match_oracle(dtype, p):
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    layer = L.Dropout(p)
    for size in (4097, 4096):  # an odd size, then an even one from the buffered half
        x = np.random.default_rng(size).standard_normal((size,)).astype(dtype)
        _same_bytes(layer.forward(x, False, active=True, rng=rng), oracle_dropout(p, x, twin))
    _assert_same_generator(rng, twin)


@pytest.mark.parametrize(
    "rng",
    [
        np.random.Generator(np.random.MT19937(0)),
        np.random.Generator(np.random.Philox(0)),
        np.random.RandomState(0),
        None,
    ],
    ids=["MT19937", "Philox", "RandomState", "None"],
)
def test_dropout_refuses_generators_other_than_pcg64(rng):
    # Their floats come from other bits, so a raw-word gate would change masks.
    with pytest.raises(ConfigError):
        L.Dropout(0.1).forward(np.ones((2, 3), np.float32), False, active=True, rng=rng)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("train", [False, True])
def test_dropout_on_broadcast_rows_matches_oracle(dtype, train):
    # MC dropout feeds n stochastic passes of one segment as a broadcast view.
    row = np.maximum(np.random.default_rng(2).standard_normal((16, 33, 124)), 0).astype(dtype)
    x = np.broadcast_to(row, (10, *row.shape))
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    layer = L.Dropout(0.1)
    _same_bytes(layer.forward(x, train, active=True, rng=rng), oracle_dropout(0.1, x.copy(), twin))
    if train:
        grad = np.random.default_rng(6).standard_normal(x.shape).astype(dtype)
        draw = np.random.default_rng(4).random(x.size, dtype=dtype).reshape(x.shape)
        want = (grad * (draw >= 0.1)) * np.array(1 / 0.9, dtype=dtype)
        _same_bytes(layer.backward(grad), want)
    _assert_same_generator(rng, twin)


# --- first-layer gradients ---------------------------------------------------------


def _tie_heavy_stack(size, shape, seed):
    """Values rounded to halves, with a constant region, an all-negative band
    and a zero region. Over constant and zero input a conv's output is
    constant, so pooling windows tie, and where that constant is negative
    whole windows die at the ReLU."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((size, *shape)) * 2) / 2
    h, w = shape[1:]
    x[..., : h // 3, : w // 2] = 1.0
    x[..., h // 3 : 2 * h // 3, :] = -np.abs(x[..., h // 3 : 2 * h // 3, :])
    x[..., 2 * h // 3 :, : w // 2] = 0.0
    return x.astype(np.float32)


def _assert_backward_matches_full_backward(net, x):
    labels = np.array([0, 1, 1, 0, 1, 0])
    net.zero_grad()
    probs = net.forward(x, mode="train", rng=np.random.default_rng(1))
    assert net.backward(labels) is None
    got = [p.grad.copy() for p in net.parameters()]

    # The per-layer chain: each layer's own train forward, then each layer's
    # own backward. A train pass of the network runs each conv block as one
    # kernel and leaves no per-layer caches for that chain to read.
    net.zero_grad()
    rng = np.random.default_rng(1)
    h = np.ascontiguousarray(x, dtype=net.dtype)
    for layer in net.layers:
        if layer is None:
            h = L.softmax(h).astype(net.dtype)
        elif isinstance(layer, L.Dropout):
            h = layer.forward(h, True, active=True, rng=rng)
        else:
            h = layer.forward(h, True)
    _same_bytes(h, probs)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1
    grad = (probs - onehot) / len(labels)
    for layer in reversed(net.layers):
        if layer is not None:
            grad = layer.backward(grad)
    want = [p.grad.copy() for p in net.parameters()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_bytes(g, w)


# (variant, input kind, input shape); heavy runs on a small input. Odd H and W
# leave trailing rows and columns that pooling drops.
GRAD_INPUTS = [
    ("light", "random", INPUT_SHAPE),
    ("light", "tie_heavy", (1, 33, 61)),
    ("baseline", "random", INPUT_SHAPE),
    ("baseline", "tie_heavy", (1, 33, 61)),
    ("heavy", "random", (1, 17, 13)),
    ("heavy", "tie_heavy", (1, 17, 13)),
]
# Ids name the variant, then the input kind and dtype where they are not
# random and float32.
GRAD_CASES = [
    pytest.param(
        variant,
        kind,
        shape,
        dtype,
        id="-".join(
            [variant]
            + [kind] * (kind != "random")
            + [np.dtype(dtype).name] * (dtype is not np.float32)
        ),
    )
    for variant, kind, shape in GRAD_INPUTS
    for dtype in (np.float32, np.float64)
]


@pytest.mark.parametrize("variant,kind,shape,dtype", GRAD_CASES)
def test_backward_parameter_gradients_match_full_backward(variant, kind, shape, dtype):
    """Network.backward gives the gradients of backpropagating through every
    layer, the first conv's input gradient included."""
    if kind == "random":
        x = np.random.default_rng(8).standard_normal((6, *shape)).astype(np.float32)
    else:
        x = _tie_heavy_stack(6, shape, 8)
    _assert_backward_matches_full_backward(_net(variant, dtype), x)


def test_backward_with_inactive_dropout_matches_full_backward():
    # A p = 0 dropout passes the ReLU output on and caches nothing, so the
    # block reads its mask from its output and does not scale.
    net = build_model("light", seed=3)
    for layer in net.layers:
        if isinstance(layer, L.Dropout):
            layer.p = 0.0
    _assert_backward_matches_full_backward(net, _stack(6, 8))


@pytest.mark.parametrize(
    "variant,shape",
    [("light", INPUT_SHAPE), ("baseline", INPUT_SHAPE), ("heavy", (1, 17, 13))],
    ids=["light", "baseline", "heavy"],
)
def test_backward_fuses_every_block_tail(variant, shape, monkeypatch):
    """A train step never calls the per-layer ReLU or Dropout backward: every
    ReLU -> Dropout tail runs fused. A plan that fell back to the per-layer
    chain would pass the identity test above and lose the fused kernel."""

    def refuse(self, grad):
        raise AssertionError(f"{type(self).__name__}.backward ran outside a fused tail")

    monkeypatch.setattr(L.ReLU, "backward", refuse)
    monkeypatch.setattr(L.Dropout, "backward", refuse)
    net = _net(variant, np.float32)
    x = np.random.default_rng(8).standard_normal((4, *shape)).astype(np.float32)
    net.forward(x, mode="train", rng=np.random.default_rng(1))
    net.backward(np.array([0, 1, 1, 0]))
    assert all(p.grad.any() for p in net.parameters())  # every parameter got its gradient
