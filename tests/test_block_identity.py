"""Byte identity of the conv block's train kernel against the per-layer
path.

A network's train pass runs each Conv3x3 -> ReLU -> Dropout [-> MaxPool2x2]
run of its specs as one ``ConvBlock``, one sample at a time. The reference
is the same network with its train plan set to its layers
(``net._steps = list(net.layers)``), so that its train step is each layer's
own forward and backward. One train step must give the same
probabilities, loss and parameter gradients, bit for bit, for every
variant in float32 and float64, at batch 1 and 32, on odd H and W, on
tie-heavy inputs and with ``Dropout.p = 0`` set after the build. Which
layers form a block follows the specs alone, not the layer classes.
"""

import numpy as np
import pytest

from murmurkit.errors import StateError
from murmurkit.nn import build_model, cross_entropy
from murmurkit.nn import layers as L


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _build(variant, dtype, p, per_layer=False):
    """A network with non-zero biases, so ReLU sees both signs, and each
    dropout's p set after the build; with ``per_layer``, one whose train
    pass runs its layers one by one."""
    net = build_model(variant, seed=3, dtype=dtype)
    if per_layer:
        net._steps = list(net.layers)
    rng = np.random.default_rng(4)
    for param in net.parameters():
        if param.name.endswith(".b"):
            param.value[...] = rng.uniform(-0.2, 0.2, param.value.shape)
    for layer in net.layers:
        if isinstance(layer, L.Dropout):
            layer.p = p
    return net


def _tie_heavy(batch, shape, seed):
    """Values rounded to halves, a constant region and a zero band: over
    them a conv's output is constant, so pooling windows tie, and where that
    constant is negative whole windows die at the ReLU."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((batch, *shape)) * 2) / 2
    h, w = shape[1:]
    x[..., : h // 2, : w // 2] = 1.0
    x[..., -3:, :] = 0.0
    return x.astype(np.float32)


def _random(batch, shape, seed):
    return np.random.default_rng(seed).standard_normal((batch, *shape)).astype(np.float32)


# (input, batch, input shape, dropout p). Odd H and W leave a row and a
# column that the first pool drops; every variant can pool these sizes
# three times.
CASES = {
    "b1": (_random, 1, (1, 16, 24), 0.1),
    "b32-odd": (_random, 32, (1, 9, 13), 0.1),
    "tie_heavy": (_tie_heavy, 6, (1, 17, 13), 0.1),
    "p0": (_random, 4, (1, 17, 13), 0.0),
}


def _step(net, x, labels):
    net.zero_grad()
    probs = net.forward(x, mode="train", rng=np.random.default_rng(5))
    assert net.backward(labels) is None
    return probs, cross_entropy(probs, labels), [p.grad.copy() for p in net.parameters()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("variant", ["light", "baseline", "heavy"])
def test_train_step_matches_per_layer_path(variant, case, dtype):
    make, batch, shape, p = CASES[case]
    x = make(batch, shape, 6)
    labels = np.arange(batch) % 2
    fused, per_layer = _build(variant, dtype, p), _build(variant, dtype, p, per_layer=True)
    convs = [layer for layer in fused.layers if isinstance(layer, L.Conv3x3)]
    assert [s.conv for s in fused._steps if isinstance(s, L.ConvBlock)] == convs  # one block per conv
    assert not any(isinstance(s, L.ConvBlock) for s in per_layer._steps)
    want_probs, want_loss, want = _step(per_layer, x, labels)
    for _ in range(2):  # the second step reuses the block's buffers
        probs, loss, got = _step(fused, x, labels)
        _same_bytes(probs, want_probs)
        assert loss == want_loss
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_bytes(g, w)


@pytest.mark.parametrize("variant", ["light", "baseline", "heavy"])
def test_blocks_follow_the_specs_not_the_layer_classes(variant):
    """A network built while plain subclasses stand in for ReLU, Dropout
    and MaxPool2x2 still trains one ConvBlock per conv, with the bytes of
    one built from the module's own classes."""
    x, labels = _random(4, (1, 17, 13), 6), np.arange(4) % 2
    with pytest.MonkeyPatch.context() as m:
        for name in ("ReLU", "Dropout", "MaxPool2x2"):
            m.setattr(L, name, type(name, (getattr(L, name),), {}))
        net = _build(variant, np.float32, 0.1)
    blocks = [s for s in net._steps if isinstance(s, L.ConvBlock)]
    assert [b.conv for b in blocks] == [layer for layer in net.layers if isinstance(layer, L.Conv3x3)]
    assert all(type(b.relu) is not L.ReLU and type(b.dropout) is not L.Dropout for b in blocks)
    want_probs, want_loss, want = _step(_build(variant, np.float32, 0.1), x, labels)
    probs, loss, got = _step(net, x, labels)
    _same_bytes(probs, want_probs)
    assert loss == want_loss
    for g, w in zip(got, want, strict=True):
        _same_bytes(g, w)


def _plan(net):
    """Each train step as the spec kinds of the layers it runs."""
    kind = {id(layer): spec.kind.value for layer, spec in zip(net.layers, net.specs)}  # softmax's is None

    def members(step):
        if isinstance(step, L.ConvBlock):
            return [layer for layer in (step.conv, step.relu, step.dropout, step.pool) if layer is not None]
        return [step]

    return [tuple(kind[id(layer)] for layer in members(step)) for step in net._steps]


_LIGHT_PLAN = [
    ("conv3x3", "relu", "dropout", "maxpool2x2"),
    ("conv3x3", "relu", "dropout", "maxpool2x2"),
    ("conv3x3", "relu", "dropout"),
    ("global_avg_pool",),
    ("linear",),
    ("softmax",),
]


@pytest.mark.parametrize("stack", ["light", "p0"])
def test_train_plan_of_edited_stacks(stack):
    """Each Conv3x3 -> ReLU -> Dropout run of specs is one block, whatever
    its dropout's p; the rest train layer by layer."""
    net = build_model("light", seed=0)
    if stack == "p0":
        for layer in net.layers:
            if isinstance(layer, L.Dropout):
                layer.p = 0.0
    assert _plan(net) == _LIGHT_PLAN


def _light_block(pooled=True):
    """A light network, its first pooled block or its unpooled last one,
    and an input for that block."""
    net = build_model("light", seed=0)
    block = next(s for s in net._steps if isinstance(s, L.ConvBlock) and (s.pool is not None) == pooled)
    x = np.random.default_rng(1).standard_normal((2, block.conv.in_ch, 9, 12)).astype(np.float32)
    return net, block, x


@pytest.mark.parametrize("pooled", [True, False], ids=["pool", "no-pool"])
def test_second_block_backward_without_forward_raises(pooled):
    _, block, x = _light_block(pooled)
    out = block.forward(x, np.random.default_rng(0))
    block.backward(np.ones(out.shape, dtype=np.float32))
    with pytest.raises(StateError):
        block.backward(np.ones(out.shape, dtype=np.float32))


def test_block_backward_after_an_eval_pass_raises():
    # The eval pass clears the conv's cached input and overwrites the
    # pooled output and winner code that the block's backward would read.
    net, block, x = _light_block()
    pooled = block.forward(x, np.random.default_rng(0))
    net.forward(x[:1], mode="eval")
    with pytest.raises(StateError):
        block.backward(np.ones(pooled.shape, dtype=np.float32))
