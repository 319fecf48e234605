"""Byte identity of the pooled conv block's train kernel against the
per-layer path.

A network's train plan runs each Conv3x3 -> ReLU -> Dropout -> MaxPool2x2
block as one ``PooledConvBlock``, one sample at a time, and each other
ReLU -> Dropout tail as one ``ActivationTail``. The reference is the same
network built while subclasses of ReLU, Dropout and MaxPool2x2 stand in for
the module's classes: the plan, bound at import, fuses none of them, so
that network's train step is each layer's own forward and backward. One
train step must give the same probabilities, loss and parameter gradients,
bit for bit, for every variant in float32 and float64, at batch 1 and 32,
on odd H and W, on tie-heavy inputs and with ``Dropout.p = 0`` set after the
build.
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
    dropout's p set after the build; with ``per_layer``, built from
    subclasses that the train plan does not fuse."""
    with pytest.MonkeyPatch.context() as m:
        if per_layer:
            for name in ("ReLU", "Dropout", "MaxPool2x2"):
                m.setattr(L, name, type(name, (getattr(L, name),), {}))
        net = build_model(variant, seed=3, dtype=dtype)
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
    return probs, cross_entropy(probs, labels), net.backward(labels)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("variant", ["light", "baseline", "heavy"])
def test_train_step_matches_per_layer_path(variant, case, dtype):
    make, batch, shape, p = CASES[case]
    x = make(batch, shape, 6)
    labels = np.arange(batch) % 2
    fused, per_layer = _build(variant, dtype, p), _build(variant, dtype, p, per_layer=True)
    assert sum(isinstance(s, L.PooledConvBlock) for s in fused._steps) >= 2
    assert not any(isinstance(s, (L.PooledConvBlock, L.ActivationTail)) for s in per_layer._steps)
    want_probs, want_loss, want = _step(per_layer, x, labels)
    for _ in range(2):  # the second step reuses the block's buffers
        probs, loss, got = _step(fused, x, labels)
        _same_bytes(probs, want_probs)
        assert loss == want_loss
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_bytes(g, w)


def _light_block():
    net = build_model("light", seed=0)
    x = np.random.default_rng(1).standard_normal((2, 1, 9, 12)).astype(np.float32)
    return net, next(s for s in net._steps if isinstance(s, L.PooledConvBlock)), x


def test_second_block_backward_without_forward_raises():
    _, block, x = _light_block()
    pooled = block.forward(x, np.random.default_rng(0))
    block.backward(np.ones(pooled.shape, dtype=np.float32))
    with pytest.raises(StateError):
        block.backward(np.ones(pooled.shape, dtype=np.float32))


def test_block_backward_after_an_eval_pass_raises():
    # The eval pass overwrites the pooled output and winner code that the
    # block's backward would read.
    net, block, x = _light_block()
    pooled = block.forward(x, np.random.default_rng(0))
    net.forward(x[:1], mode="eval")
    with pytest.raises(StateError):
        block.backward(np.ones(pooled.shape, dtype=np.float32))
