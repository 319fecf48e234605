"""A training backward writes into the forward buffers it has finished
with, so it adds little memory on top of what the forward pass holds.

A conv's weight gradient is summed one sample at a time into one buffer,
its input-gradient columns go into its im2col buffer, and each block tail
writes its input gradient into the block's full-size activation. What is
left for the backward to allocate is col2im's padded buffer per conv, the
tails' pooled-size masks and gradients, and per-layer scratch the size of
the weights.
"""

import tracemalloc

import numpy as np
import pytest

from murmurkit.nn import build_model

SHAPE = (1, 33, 124)
MiB = 2**20


def _first_step(variant, batch):
    """Bytes a fresh network's train forward holds, and the peak the
    backward that follows adds on top of them (tracemalloc)."""
    net = build_model(variant, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((batch, *SHAPE)).astype(np.float32)
    y = rng.integers(0, 2, batch)
    tracemalloc.start()
    try:
        net.forward(x, mode="train", rng=np.random.default_rng(2))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        net.backward(y)
        return held, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


# (variant, batch, bound on what the backward adds). Writing into fresh
# buffers instead, the backward adds 51 MiB (light), 41 MiB (baseline) and
# 80 MiB (heavy) over forwards that hold 70, 38 and 61 MiB.
@pytest.mark.parametrize(
    "variant, batch, bound_mib", [("light", 32, 16), ("baseline", 8, 16), ("heavy", 2, 48)]
)
def test_backward_adds_little_over_the_forward(variant, batch, bound_mib):
    held, added = _first_step(variant, batch)
    assert added < bound_mib * MiB, (held / MiB, added / MiB)
