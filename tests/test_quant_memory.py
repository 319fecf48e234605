"""The int8 twin runs one input at a time, so its memory does not grow with
the number of inputs: neither for ``qforward`` nor for calibration."""

import tracemalloc

import numpy as np

from murmurkit.nn import build_model
from murmurkit.quant import qforward, quantize_network

SHAPE = (1, 33, 124)
MB = 1_000_000


def _inputs(n, seed):
    return np.random.default_rng(seed).standard_normal((n, *SHAPE)).astype(np.float32)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_qforward_peak_does_not_grow_with_rows():
    qnet = quantize_network(build_model("light", seed=0), _inputs(8, seed=1))
    x = _inputs(64, seed=2)
    few = _traced_peak(lambda: qforward(qnet, x[:4]))
    many = _traced_peak(lambda: qforward(qnet, x))
    assert many - few < MB, (few, many)


def test_calibration_peak_does_not_grow_with_rows():
    cal = _inputs(64, seed=3)
    nets = [build_model("light", seed=0) for _ in range(2)]  # fresh: no warm workspaces
    few = _traced_peak(lambda: quantize_network(nets[0], cal[:4]))
    many = _traced_peak(lambda: quantize_network(nets[1], cal))
    assert many - few < MB, (few, many)


def test_empty_stack_gives_no_rows():
    qnet = quantize_network(build_model("light", seed=0), _inputs(4, seed=4))
    probs = qforward(qnet, np.zeros((0, *SHAPE), dtype=np.float32))
    assert probs.shape == (0, 2)
    assert probs.argmax(axis=1).shape == (0,)
