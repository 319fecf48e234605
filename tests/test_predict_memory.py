"""Float eval runs one input at a time, as the int8 twin does, so the memory
of ``predict_labels`` does not grow with the number of inputs and a row's
label does not depend on the rows it is classified with."""

import tracemalloc

import numpy as np
import pytest

from murmurkit.nn import build_model, predict_labels

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


@pytest.mark.parametrize("variant, few, many", [("light", 4, 64), ("heavy", 2, 8)])
def test_predict_labels_peak_does_not_grow_with_rows(variant, few, many):
    x = _inputs(many, seed=1)
    nets = [build_model(variant, seed=0) for _ in range(2)]  # fresh: no warm workspaces
    few_peak = _traced_peak(lambda: predict_labels(nets[0], x[:few]))
    many_peak = _traced_peak(lambda: predict_labels(nets[1], x))
    assert many_peak - few_peak < MB, (few_peak, many_peak)


def test_row_label_alone_equals_label_in_stack():
    net = build_model("light", seed=0)
    x = _inputs(24, seed=3)
    # shift the head's Present bias so the median row sits at the tie
    probs = net.forward(x, mode="eval")
    net.parameters()[-1].value[1] -= np.median(np.log(probs[:, 1] / probs[:, 0]))
    stacked = predict_labels(net, x)
    alone = [predict_labels(net, x[i : i + 1])[0] for i in range(len(x))]
    assert stacked.dtype == np.int64
    assert len(set(stacked.tolist())) == 2  # both classes occur, so the check has teeth
    np.testing.assert_array_equal(stacked, alone)


def test_empty_stack_gives_no_labels():
    labels = predict_labels(build_model("light", seed=0), np.zeros((0, *SHAPE), dtype=np.float32))
    assert labels.shape == (0,)
    assert labels.dtype == np.int64
