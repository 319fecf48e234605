"""Byte identity of the int8 twin against oracles.

The oracles are the straightforward formulation of the integer path: a conv
kernel and a linear kernel that each accumulate in numpy's int32 matmul,
and a quantizer that walks the float layers and builds each op in place.
``quantize_network`` must give the same ``QNetwork`` contents (input
parameters, every op's int8 tensors, scales and output parameters) and
``qforward`` the same probabilities, bit for bit, for every variant, in
float32 and float64 builds, and when activations saturate at -128 and 127
against weights at +/-127. A twin read back from disk must give the bytes
of the twin in memory.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from murmurkit.nn import LayerKind, build_model
from murmurkit.nn.layers import _im2col3x3, max_pool_2x2, softmax
from murmurkit.quant import (
    _act_quant_from_range,
    load_qnetwork,
    qforward,
    quantize_network,
    quantize_tensor,
    save_qnetwork,
)

# --- oracles -------------------------------------------------------------------


@dataclass
class _OracleOp:
    kind: LayerKind
    w: object = None
    b_q: object = None
    out_q: object = None


def oracle_quantize_network(net, calibration):
    calibration = np.asarray(calibration, dtype=np.float32)
    input_q = _act_quant_from_range(float(calibration.min()), float(calibration.max()))
    ops = []
    h = calibration.astype(np.float32)
    for spec, layer in zip(net.specs, net.layers):
        if spec.kind in (LayerKind.DROPOUT, LayerKind.RELU):
            continue
        op = _OracleOp(spec.kind)
        if spec.kind in (LayerKind.CONV3X3, LayerKind.LINEAR):
            op.w, op.b_q = quantize_tensor(layer.w.value), quantize_tensor(layer.b.value)
        if spec.kind is LayerKind.CONV3X3:
            h = np.maximum(layer.forward(h, train=False), 0)
            op.out_q = _act_quant_from_range(float(h.min()), float(h.max()))
        elif spec.kind in (LayerKind.MAXPOOL2X2, LayerKind.GLOBAL_AVG_POOL):
            h = layer.forward(h, train=False)
        ops.append(op)
    return SimpleNamespace(input_q=input_q, ops=ops)


def oracle_qconv_int(xq, in_q, op):
    centered = xq.astype(np.int32) - in_q.zero_point
    cols = _im2col3x3(centered)
    out_ch = op.w.values.shape[0]
    wm = op.w.values.reshape(out_ch, -1).astype(np.int32)
    acc = np.matmul(wm, cols)
    n = acc.shape[0]
    h, w = xq.shape[2], xq.shape[3]
    real = acc.astype(np.float64) * (op.w.scale * in_q.scale)
    real += op.b_q.dequantize().astype(np.float64)[None, :, None]
    return real.reshape(n, out_ch, h, w)


def oracle_qlinear_int(xq, in_q, op):
    flat = xq.reshape(xq.shape[0], -1).astype(np.int32) - in_q.zero_point
    wm = op.w.values.astype(np.int32)
    acc = flat @ wm.T
    real = acc.astype(np.float64) * (op.w.scale * in_q.scale)
    return real + op.b_q.dequantize().astype(np.float64)[None, :]


def oracle_qforward(qnet, x):
    x = np.asarray(x, dtype=np.float32)
    single = x.ndim == 3
    if single:
        x = x[None, ...]
    cur_q = qnet.input_q
    q = cur_q.quantize(x)
    for op in qnet.ops:
        if op.kind is LayerKind.CONV3X3:
            real = np.maximum(oracle_qconv_int(q, cur_q, op), 0)
            cur_q = op.out_q
            q = cur_q.quantize(real)
        elif op.kind is LayerKind.MAXPOOL2X2:
            q = max_pool_2x2(q)
        elif op.kind is LayerKind.GLOBAL_AVG_POOL:
            n, c, h, w = q.shape
            total = q.astype(np.int32).sum(axis=(2, 3), keepdims=True)
            q = np.clip(np.round(total / (h * w)), -128, 127).astype(np.int8)
        elif op.kind is LayerKind.LINEAR:
            probs = softmax(oracle_qlinear_int(q, cur_q, op))
    return probs[0] if single else probs


# --- helpers -------------------------------------------------------------------


def _assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_tensor(got, want):
    if want is None:
        assert got is None
        return
    _assert_same_bytes(got.values, want.values)
    assert (got.scale, got.zero_point) == (want.scale, want.zero_point)


def _assert_same_twin(got, want):
    assert got.input_q == want.input_q
    assert [op.kind for op in got.ops] == [op.kind for op in want.ops]
    for g, w in zip(got.ops, want.ops):
        _assert_same_tensor(g.w, w.w)
        _assert_same_tensor(g.b_q, w.b_q)
        assert g.out_q == w.out_q


def _inputs(n, shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal((n, *shape))).astype(np.float32)


def _with_random_biases(net, seed):
    # Freshly built nets have zero biases; give them some so the bias add
    # and its order are exercised.
    rng = np.random.default_rng(seed)
    net.set_weights(
        [
            p.value if p.name.endswith(".w") else 0.1 * rng.standard_normal(p.value.shape)
            for p in net.parameters()
        ]
    )
    return net


# --- cases ---------------------------------------------------------------------

LIGHT_SHAPE = (1, 33, 124)


@pytest.mark.parametrize("variant", ["light", "baseline"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_twin_and_probabilities_match_oracle(variant, dtype):
    net = _with_random_biases(build_model(variant, seed=3, dtype=dtype), seed=4)
    cal = _inputs(12, LIGHT_SHAPE, seed=5)
    qnet = quantize_network(net, cal)
    _assert_same_twin(qnet, oracle_quantize_network(net, cal))
    x = _inputs(7, LIGHT_SHAPE, seed=6)
    _assert_same_bytes(qforward(qnet, x), oracle_qforward(qnet, x))
    _assert_same_bytes(qforward(qnet, x[2]), oracle_qforward(qnet, x[2]))
    _assert_same_bytes(qforward(qnet, cal), oracle_qforward(qnet, cal))


def test_heavy_small_input_matches_oracle():
    net = _with_random_biases(build_model("heavy", seed=1), seed=2)
    cal = _inputs(3, (1, 16, 16), seed=3)
    qnet = quantize_network(net, cal)
    _assert_same_twin(qnet, oracle_quantize_network(net, cal))
    x = _inputs(2, (1, 16, 16), seed=4)
    _assert_same_bytes(qforward(qnet, x), oracle_qforward(qnet, x))


@pytest.mark.parametrize("variant", ["light", "baseline"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos", "neg"])
def test_saturated_activations_match_oracle(variant, sign):
    # Every weight at the same magnitude quantizes to +/-127. Calibrating on
    # inputs of one sign puts the input zero point at -128 (or 127), so
    # inputs far past the calibrated range quantize to 127 (or -128) and
    # centre at 255 (or -255); the ReLU outputs then saturate at 127 too.
    net = build_model(variant, seed=7)
    rng = np.random.default_rng(8)
    net.set_weights(
        [
            0.05 * np.where(rng.random(p.value.shape) < 0.5, -1.0, 1.0)
            if p.name.endswith(".w")
            else 0.01 * rng.standard_normal(p.value.shape)
            for p in net.parameters()
        ]
    )
    cal = sign * np.abs(_inputs(4, LIGHT_SHAPE, seed=9, scale=0.01))
    qnet = quantize_network(net, cal)
    _assert_same_twin(qnet, oracle_quantize_network(net, cal))
    weights = [op.w.values for op in qnet.ops if op.w is not None]
    assert all(np.abs(w).min() == 127 for w in weights)
    assert qnet.input_q.zero_point == (-128 if sign > 0 else 127)

    x = sign * np.abs(_inputs(3, LIGHT_SHAPE, seed=10, scale=100.0))
    x[0, 0, :4, :4] = -sign * 100.0  # a few values saturate the other way
    q = qnet.input_q.quantize(x)
    assert q.min() == -128 and q.max() == 127
    _assert_same_bytes(qforward(qnet, x), oracle_qforward(qnet, x))


@pytest.mark.parametrize("variant", ["light", "baseline"])
def test_twin_read_back_gives_the_same_bytes(variant, tmp_path):
    net = _with_random_biases(build_model(variant, seed=12), seed=13)
    qnet = quantize_network(net, _inputs(6, LIGHT_SHAPE, seed=14))
    save_qnetwork(qnet, tmp_path / "q")
    loaded = load_qnetwork(tmp_path / "q")
    _assert_same_twin(loaded, qnet)
    assert loaded.specs == qnet.specs
    x = _inputs(5, LIGHT_SHAPE, seed=15)
    _assert_same_bytes(qforward(loaded, x), qforward(qnet, x))
