"""Post-training int8 quantization and the integer inference path.

Weights use symmetric per-tensor int8 (round-half-to-even, scale =
max|w|/127). Activations use affine int8 with min/max ranges observed on a
calibration set. Convolutions and linear layers share one integer GEMM: it
multiplies int8 weights into centered int8 activations through float64 BLAS,
which is exact and equals int32 accumulation, because every product is an
integer and ``_check_accumulator_bound`` keeps every partial sum below 2^31,
far inside float64's exact integer range of 2^53. Pooling runs on int8
directly (max) or as the exact float64 mean (average); softmax stays in real
arithmetic. One rule, ``_int8_layers``, maps a variant's float layers to the
twin: dropout is elided, and each ReLU fuses into the conv before it. Like a
microcontroller, the twin runs one input at a time, both in ``qforward`` and
when calibrating, so its memory does not depend on how many inputs it is
given. Int8 weights use the container of ``nn.network``, adding ``input_q``,
``op`` and ``act_q`` rows and a scale column on each tensor row; loading
checks tensor shapes against ``LayerSpec.param_shapes``, building no network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CalibrationError, ConfigError, NumericError, ParseError, ShapeError
from .nn.layers import _im2col3x3, global_avg_pool, max_pool_2x2, softmax
from .nn.network import (
    LayerKind,
    LayerSpec,
    Network,
    Row,
    Variant,
    check_rows,
    layer_rows,
    malformed_rows,
    read_weights,
    variant_specs,
    write_weights,
)

_QMAX = 127
_ACC_LIMIT = 2**31
# The largest scale at which every int8 value, -128 included, dequantizes
# to a finite float32.
_MAX_SCALE = float(np.finfo(np.float32).max) / 128


@dataclass(frozen=True)
class QTensor:
    """Symmetric per-tensor int8 values: real = scale * (q - zero_point)."""

    values: np.ndarray
    scale: float
    zero_point: int = 0

    def dequantize(self) -> np.ndarray:
        return self.scale * (self.values.astype(np.float32) - self.zero_point)


@dataclass(frozen=True)
class ActQuant:
    """Affine activation quantization parameters."""

    scale: float
    zero_point: int

    def quantize(self, x: np.ndarray) -> np.ndarray:
        q = np.round(x / self.scale) + self.zero_point
        return np.clip(q, -128, 127).astype(np.int8)


def quantize_tensor(w: np.ndarray) -> QTensor:
    """Symmetric per-tensor int8 quantization with round-half-to-even."""
    w = np.asarray(w)
    if not np.all(np.isfinite(w)):
        raise NumericError("cannot quantize non-finite values")
    peak = float(np.max(np.abs(w))) if w.size else 0.0
    if peak == 0.0:
        return QTensor(np.zeros(w.shape, dtype=np.int8), scale=1.0)
    scale = peak / _QMAX
    q = np.clip(np.round(w / scale), -_QMAX, _QMAX).astype(np.int8)
    return QTensor(q, scale=scale)


def _act_quant_from_range(lo: float, hi: float) -> ActQuant:
    lo = min(lo, 0.0)
    hi = max(hi, 0.0)
    if hi - lo <= 0.0:
        return ActQuant(scale=1.0, zero_point=0)
    scale = (hi - lo) / 255.0
    zero_point = int(np.clip(round(-128 - lo / scale), -128, 127))
    return ActQuant(scale=scale, zero_point=zero_point)


@dataclass
class _QOp:
    kind: LayerKind
    w: QTensor | None = None
    b_q: QTensor | None = None
    out_q: ActQuant | None = None  # set for convs only


def _int8_layers(specs: list[LayerSpec]) -> tuple[list[LayerSpec], list[tuple[int, LayerSpec]]]:
    """The int8 rule: dropout is elided, and each ReLU fuses into the conv
    before it. Returns the twin's layer stack (its layer rows keep the ReLUs)
    and its ops as (float layer index, spec) pairs."""
    ops = [(i, s) for i, s in enumerate(specs) if s.kind not in (LayerKind.DROPOUT, LayerKind.RELU)]
    return [s for s in specs if s.kind is not LayerKind.DROPOUT], ops


class QNetwork:
    """Quantized twin of a Network: same topology, dropout elided."""

    def __init__(self, variant: Variant, input_q: ActQuant, ops: list[_QOp]):
        self.variant = variant
        self.specs = _int8_layers(variant_specs(variant))[0]
        self.input_q = input_q
        self.ops = ops

    def weight_payload_bytes(self) -> int:
        return sum(t.values.size for op in self.ops for t in (op.w, op.b_q) if t is not None)


def _check_accumulator_bound(specs: list[LayerSpec]) -> None:
    # int8 activation minus zero point spans [-255, 255]; weights span +/-127.
    for weight in (spec.param_shapes[0] for spec in specs if spec.param_shapes):
        reduce_len = math.prod(weight[1:])
        if reduce_len * 255 * _QMAX >= _ACC_LIMIT:
            raise OverflowError(
                f"int32 accumulator bound violated: {reduce_len} * 255 * 127 >= 2^31"
            )


def _build(variant: Variant, tensors: dict[str, QTensor], act: dict[str, ActQuant]) -> QNetwork:
    """The twin of ``variant`` from its ``op<i>.w``/``op<i>.b`` tensors and
    its activation parameters, keyed ``input_q`` or by conv op index."""
    ops = []
    for i, (_, spec) in enumerate(_int8_layers(variant_specs(variant))[1]):
        op = _QOp(spec.kind)
        if spec.param_shapes:
            op.w, op.b_q = tensors.get(f"op{i}.w"), tensors.get(f"op{i}.b")
        if spec.kind is LayerKind.CONV3X3:
            op.out_q = act.get(str(i))
        ops.append(op)
    return QNetwork(variant, act["input_q"], ops)


def quantize_network(net: Network, calibration: np.ndarray) -> QNetwork:
    """Quantize weights and calibrate activation ranges from sample inputs.

    ``calibration`` is a stack of standardized model inputs, shape
    (n, 1, F, T), and finite; at least 32 spectrograms are recommended.
    Each conv's output range is recorded after its fused ReLU.
    """
    calibration = np.asarray(calibration, dtype=np.float32)
    if calibration.size == 0:
        raise CalibrationError("calibration set is empty")
    if calibration.ndim != 4 or calibration.shape[1] != net.specs[0].in_ch:
        raise ShapeError(f"expected (N, {net.specs[0].in_ch}, F, T), got shape {calibration.shape}")
    in_lo, in_hi = float(calibration.min()), float(calibration.max())
    if not (np.isfinite(in_lo) and np.isfinite(in_hi)):
        raise NumericError("calibration inputs must be finite")
    if net.specs != variant_specs(net.variant):
        raise ConfigError(f"only the {net.variant.value} variant stack can be quantized")
    _check_accumulator_bound(net.specs)

    kept = [(s, net.layers[j]) for j, s in _int8_layers(net.specs)[1]]
    tensors: dict[str, QTensor] = {}
    for i, (spec, layer) in enumerate(kept):
        if spec.param_shapes:
            tensors[f"op{i}.w"] = quantize_tensor(layer.w.value)
            tensors[f"op{i}.b"] = quantize_tensor(layer.b.value)

    # Walk the float layers one input at a time, keeping each conv's running
    # output range; min and max do not depend on the order of the inputs.
    ranges: dict[int, tuple] = {}
    for x in calibration:
        h = x[None]
        for i, (spec, layer) in enumerate(kept):
            if spec.kind is LayerKind.CONV3X3:
                h = np.maximum(layer.forward(h, train=False), 0)
                lo, hi = ranges.get(i, (np.inf, -np.inf))
                ranges[i] = (np.minimum(lo, h.min()), np.maximum(hi, h.max()))
            elif spec.kind in (LayerKind.MAXPOOL2X2, LayerKind.GLOBAL_AVG_POOL):
                h = layer.forward(h, train=False)
    act = {str(i): _act_quant_from_range(float(lo), float(hi)) for i, (lo, hi) in ranges.items()}
    act["input_q"] = _act_quant_from_range(in_lo, in_hi)
    return _build(net.variant, tensors, act)


def _qgemm(op: _QOp, in_q: ActQuant, cols: np.ndarray) -> np.ndarray:
    """Integer GEMM of a conv or linear op: (out, K) int8 weights times one
    input's centered integer columns (K, P), given in float64; returns the
    real-valued (out, P) output before requantization. Accumulation runs
    through float64 BLAS and is exact (module docstring)."""
    wm = op.w.values.reshape(len(op.w.values), -1).astype(np.float64)
    real = wm @ cols
    real *= op.w.scale * in_q.scale
    real += op.b_q.dequantize().astype(np.float64)[:, None]
    return real


def _qforward_one(qnet: QNetwork, x: np.ndarray) -> np.ndarray:
    """Class probabilities of one input of shape (1, F, T)."""
    cur_q = qnet.input_q
    q = cur_q.quantize(x)[None]  # a batch of one for the shared im2col and pool kernels
    for op in qnet.ops:
        if op.kind is LayerKind.CONV3X3:
            cols = _im2col3x3(q.astype(np.float64) - cur_q.zero_point)[0]  # real zero maps to 0
            real = _qgemm(op, cur_q, cols)
            np.maximum(real, 0, out=real)  # fused ReLU
            cur_q = op.out_q
            q = cur_q.quantize(real).reshape(1, -1, *q.shape[2:])
        elif op.kind is LayerKind.MAXPOOL2X2:
            q = max_pool_2x2(q)  # max in int8; qparams unchanged
        elif op.kind is LayerKind.GLOBAL_AVG_POOL:
            # the float64 sum of int8 values is exact, so this is the integer mean
            q = np.clip(np.round(global_avg_pool(q)), -128, 127).astype(np.int8)
        elif op.kind is LayerKind.LINEAR:
            flat = q.reshape(-1, 1).astype(np.float64) - cur_q.zero_point
            probs = softmax(_qgemm(op, cur_q, flat)[:, 0])
    return probs


def qforward(qnet: QNetwork, x: np.ndarray) -> np.ndarray:
    """Quantized inference; returns class probabilities.

    ``x`` is standardized model input like the float path takes, of shape
    (1, F, T) or (N, 1, F, T); inputs run one at a time (module docstring).
    """
    x = np.asarray(x, dtype=np.float32)
    in_ch = qnet.specs[0].in_ch
    if x.ndim not in (3, 4) or x.shape[-3] != in_ch:
        raise ShapeError(f"expected ({in_ch}, F, T) or (N, {in_ch}, F, T), got shape {x.shape}")
    if x.ndim == 3:
        return _qforward_one(qnet, x)
    return np.array([_qforward_one(qnet, xi) for xi in x]).reshape(len(x), qnet.specs[-2].out_ch)


# --- quantized weights files -------------------------------------------------

_QWEIGHTS_FORMAT = "murmurkit-qweights"


def _rows(qnet: QNetwork) -> list[Row]:
    rows: list[Row] = [f"input_q\t{qnet.input_q.scale!r}\t{qnet.input_q.zero_point}"]
    rows += layer_rows(qnet.specs)
    for i, op in enumerate(qnet.ops):
        # The last column flags a fused ReLU, which every conv has.
        rows.append(f"op\t{i}\t{op.kind.value}\t{int(op.kind is LayerKind.CONV3X3)}")
        if op.out_q is not None:
            rows.append(f"act_q\t{i}\t{op.out_q.scale!r}\t{op.out_q.zero_point}")
        for tag, t in (("w", op.w), ("b", op.b_q)):
            if t is not None:
                rows.append((f"op{i}.{tag}", t.values, [repr(t.scale)]))
    return rows


def save_qnetwork(qnet: QNetwork, out_dir: str | Path) -> None:
    write_weights(out_dir, _QWEIGHTS_FORMAT, qnet.variant, "i1", _rows(qnet))


def _scale(text: str) -> float:
    scale = float(text)
    if not 0 < scale <= _MAX_SCALE:  # also rejects nan
        raise ValueError(f"scale {text!r} is not in (0, {_MAX_SCALE:.3g}]")
    return scale


def load_qnetwork(weights_dir: str | Path) -> QNetwork:
    """Load int8 weights; every row must be what ``save_qnetwork`` would
    write for the network read back, with the ``param_shapes`` of the
    variant's layers as tensor shapes. Scales must be positive and at most
    ``_MAX_SCALE``, and zero points int8 values."""
    variant, rows = read_weights(weights_dir, _QWEIGHTS_FORMAT, "i1")
    tensors, act = {}, {}
    with malformed_rows(weights_dir):
        for row in rows:
            if isinstance(row, tuple):
                name, values, (scale,) = row
                tensors[name] = QTensor(values, _scale(scale))
            elif row.startswith(("input_q\t", "act_q\t")):
                *key, scale, zero_point = row.split("\t")
                if not -128 <= int(zero_point) <= 127:
                    raise ValueError(f"zero point {zero_point} is outside int8")
                act[key[-1]] = ActQuant(_scale(scale), int(zero_point))
        qnet = _build(variant, tensors, act)
    check_rows(weights_dir, rows, _rows(qnet))
    shapes = [row[1].shape for row in rows if isinstance(row, tuple)]
    if shapes != [shape for spec in variant_specs(variant) for shape in spec.param_shapes]:
        raise ParseError(f"{weights_dir}: tensor shapes differ from the {variant.value} network")
    return qnet
