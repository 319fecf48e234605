"""A train step holds little beyond the activations its backward needs.

A conv caches its input, not its im2col columns. Every conv of the network
shares one scratch, laid out as the padded copy of the conv's batch, one
sample's (C*9, H*W) columns, and the weight- and bias-gradient sums and
per-sample terms. The forward and the backward run their GEMMs one sample
at a time and rebuild that sample's columns from the padded copy, and the
backward writes the sample's input-gradient columns over them; col2im adds
the taps straight into a per-conv (N, C, H, W) gradient, with no padded
buffer. Every block (conv, ReLU, dropout and an optional max-pool) runs one
sample at a time in both directions, so of its activations only its output
(the pooled output and its winner code behind a pool) exist for the whole
batch; the full-resolution conv output, dropout gate and conv-output
gradient exist for one sample. What is left for the backward to allocate is
the per-conv input gradients, the one-sample masks and gradients, and any
growth of the scratch. Every buffer grows to its largest request and stays,
so a smaller batch between two larger ones (an eval between train steps, an
MC location's eval pass between its n-row passes) reallocates nothing.

Each bound below is the traced number measured with numpy 2.4 plus about
10%, rounded up to a whole MiB.
"""

import tracemalloc

import numpy as np
import pytest

from murmurkit.nn import build_model
from murmurkit.nn import layers as L
from murmurkit.uq import mcd_predict_batch

SHAPE = (1, 33, 124)
MiB = 2**20


def _batch(batch, seed=1):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, *SHAPE)).astype(np.float32), rng.integers(0, 2, batch)


def _first_step(variant, batch):
    """Bytes a fresh network's train forward holds, and the peak the
    backward that follows adds on top of them (tracemalloc)."""
    net = build_model(variant, seed=0)
    x, y = _batch(batch)
    tracemalloc.start()
    try:
        net.forward(x, mode="train", rng=np.random.default_rng(2))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        net.backward(y)
        return held, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


# (variant, batch, bound on what the forward holds). With a conv's own xp
# and cols kept from the forward to the backward and a dropout output of its
# own, these forwards held 70.2, 37.7 and 61.3 MiB; with the whole batch's
# columns in the shared scratch, 41.3, 21.6 and 30.3; with one sample's
# columns, 24.4, 14.0 and 21.3; with pooled blocks run one sample at a time,
# 9.4, 6.1 and 19.1 (8.1, 5.1 and 18.0 just before the unpooled blocks were
# run so too); with every block run so, 6.8, 5.0 and 19.4.
@pytest.mark.parametrize(
    "variant, batch, bound_mib", [("light", 32, 27), ("baseline", 8, 16), ("heavy", 2, 24)]
)
def test_forward_holds_little_beyond_its_activations(variant, batch, bound_mib):
    held, _ = _first_step(variant, batch)
    assert held < bound_mib * MiB, held / MiB


# (variant, batch, bound on what the backward adds). Writing into fresh
# buffers instead, the backward adds 51 MiB (light), 41 MiB (baseline) and
# 80 MiB (heavy); with whole-batch tails 7.9, 6.5 and 15.6 MiB; with
# whole-batch unpooled tails 3.6, 4.3 and 14.9 MiB (4.9, 5.2 and 16.0 just
# before the unpooled blocks ran one sample at a time); then 5.3, 5.1 and
# 15.5; with no per-parameter gradient copies returned, 5.3, 3.7 and 6.7.
@pytest.mark.parametrize(
    "variant, batch, bound_mib", [("light", 32, 9), ("baseline", 8, 5), ("heavy", 2, 8)]
)
def test_backward_adds_little_over_the_forward(variant, batch, bound_mib):
    held, added = _first_step(variant, batch)
    assert added < bound_mib * MiB, (held / MiB, added / MiB)


def _two_steps_peak(variant, batch):
    """Traced peak of two train steps of a fresh network."""
    net = build_model(variant, seed=0)
    x, y = _batch(batch)
    tracemalloc.start()
    try:
        for _ in range(2):
            net.forward(x, mode="train", rng=np.random.default_rng(2))
            net.backward(y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# (variant, batch, bound). Running each pooled block one sample at a time
# took these from 32.5 and 71.6 MiB to 13.2 and 26.7 MiB, each unpooled one
# too to 12.3 and 25.8 MiB, and returning no gradient copies to 12.3 and
# 24.6 MiB.
@pytest.mark.parametrize("variant, batch, bound_mib", [("light", 32, 15), ("baseline", 32, 30)])
def test_two_train_steps_peak(variant, batch, bound_mib):
    peak = _two_steps_peak(variant, batch)
    assert peak < bound_mib * MiB, peak / MiB


def test_heavy_train_steps_peak():
    """Two train steps of a fresh ``heavy`` network at batch 8 peak at 59.9
    MiB traced; when the backward returned a copy of every parameter
    gradient they peaked at 68.5 MiB, with whole-batch unpooled blocks too
    at 73.1 MiB, with whole-batch pooled blocks too at 93.5 MiB, and with
    the whole batch's columns in the conv scratch at 156.1 MiB (and at batch
    32, 194.2 against 202.8, 229.5, 319.4 and 597.8 MiB)."""
    peak = _two_steps_peak("heavy", 8)
    assert peak < 66 * MiB, peak / MiB


def test_conv_scratch_grows_with_the_batch_only_by_the_padded_copy():
    """From batch 1 to 32 the shared conv scratch grows by 31 padded
    copies of one sample's input to the conv with the largest one, and not
    by its columns, nine times as large: with the whole batch's columns it
    was 19.7 MiB at batch 32, now 2.8 MiB."""
    sizes, padded = {}, 0
    for batch in (1, 32):
        net = build_model("light", seed=0)
        x, y = _batch(batch)
        net.forward(x, mode="train", rng=np.random.default_rng(2))
        convs = [layer for layer in net.layers if isinstance(layer, L.Conv3x3)]
        inputs = [conv._cache.shape[1:] for conv in convs]
        padded = max(c * (h + 2) * (w + 2) * x.itemsize for c, h, w in inputs)
        net.backward(y)
        (buf,) = net.layers[0]._scratch._tls.bufs.values()
        sizes[batch] = buf.size
    assert 0 < sizes[32] - sizes[1] <= 31 * padded + 64, (sizes, padded)


def _scratch_buffers(net):
    """Every buffer of the network's scratches, keyed by scratch and name:
    the one its convs share, and each layer's and each block's own."""
    owners = [layer for layer in net.layers if layer is not None] + net._steps
    scratches = [getattr(o, attr) for o in owners for attr in ("_ws", "_scratch") if hasattr(o, attr)]
    return {
        (id(s), name): buf
        for s in scratches
        for name, buf in getattr(s._tls, "bufs", {}).items()
    }


def _traced_step(net, x, y):
    tracemalloc.reset_peak()
    net.forward(x, mode="train", rng=np.random.default_rng(2))
    net.backward(y)
    return tracemalloc.get_traced_memory()[1]


def test_small_eval_between_train_steps_keeps_the_scratch():
    """Every buffer grows to its largest request and is viewed at the
    requested shape, so a 1-row eval forward reallocates nothing, and an
    eval forward drops the layers' train caches, so the next train step
    holds no stale activation beside its new one. A fresh network's first
    step peaks lower than a warm one (its backward's own buffers do not
    exist yet during its forward), so a warm step is the reference."""
    net = build_model("light", seed=0)
    x, y = _batch(32)
    convs = [layer for layer in net.layers if isinstance(layer, L.Conv3x3)]
    assert len({id(conv._scratch) for conv in convs}) == 1  # every conv shares one scratch
    tracemalloc.start()
    try:
        _traced_step(net, x, y)
        first = _traced_step(net, x, y)
        buffers = _scratch_buffers(net)
        # the shared conv scratch, conv, pool and block outputs, gates, winner
        # codes, and the blocks' one-sample masks and (behind a pool)
        # pooled-size gradients
        assert {name for _, name in buffers} >= {"", "out", "gate", "code", "hit", "live", "g", "dx"}
        blocks = [step for step in net._steps if isinstance(step, L.ConvBlock)]
        assert [b.pool is not None for b in blocks] == [True, True, False]
        for b in blocks:
            names = {name for key, name in buffers if key == id(b._ws)}
            assert names == ({"live", "g"} if b.pool is not None else {"live", "out"}), names
        net.forward(x[:1], mode="eval")
        assert _scratch_buffers(net).keys() == buffers.keys()
        assert all(buf is buffers[k] for k, buf in _scratch_buffers(net).items())
        held = tracemalloc.get_traced_memory()[0]
        second = _traced_step(net, x, y)
        assert all(buf is buffers[k] for k, buf in _scratch_buffers(net).items())
    finally:
        tracemalloc.stop()
    # Python objects alone move a step's peak by about 1 KiB from step to
    # step; the smallest buffer that an eval could leave doubled is 1 MiB.
    assert second <= first + 64 * 2**10, (first / MiB, second / MiB)
    # Reallocating the layers' buffers after the eval took 18.2 MiB.
    assert second - held < MiB, (second - held) / MiB


def test_warm_mc_location_reallocates_nothing():
    """A location's eval pass over its segments and its n-row MC passes
    view the same buffers, so a warm location allocates only its results.
    Reallocating every buffer after the stem between the two took 3.1 MiB."""
    net = build_model("light", seed=0)
    inputs, _ = _batch(6, seed=3)
    mcd_predict_batch(net, inputs, n=10, seed=1)
    buffers = _scratch_buffers(net)
    tracemalloc.start()
    try:
        mcd_predict_batch(net, inputs, n=10, seed=2)
        added = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _scratch_buffers(net).keys() == buffers.keys()
    assert all(buf is buffers[k] for k, buf in _scratch_buffers(net).items())
    assert added < MiB, added / MiB


def test_cold_heavy_mc_segment_peak():
    """A fresh ``heavy`` network scores one full-size segment with n = 10 MC
    passes in 95.4 MiB traced, its buffers' first growth included; with the
    whole batch's columns in the conv scratch it took 176.3 MiB."""
    net = build_model("heavy", seed=0)
    x, _ = _batch(1, seed=3)
    tracemalloc.start()
    try:
        mcd_predict_batch(net, x, n=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 105 * MiB, peak / MiB


def test_heavy_mc_location_peak_does_not_grow_with_segments():
    """Each segment runs its stem and passes alone, so a warm network scores
    a 16-segment location in what a 4-segment one takes. Running the stem
    and the deterministic pass over the whole location took 21.7 MiB at 16
    segments against 0.3 MiB at 4 on these inputs."""
    net = build_model("heavy", seed=0)
    x = np.random.default_rng(4).standard_normal((16, 1, 16, 24)).astype(np.float32)
    mcd_predict_batch(net, x[:4], n=3, seed=1)
    peaks = []
    for segments in (4, 16):
        tracemalloc.start()
        try:
            mcd_predict_batch(net, x[:segments], n=3, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < MiB / 4, [p / MiB for p in peaks]
