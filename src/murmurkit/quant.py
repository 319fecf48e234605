"""Post-training int8 quantization and the integer inference path.

Weights use symmetric per-tensor int8 (round-half-to-even, scale =
max|w|/127). Activations use affine int8 with min/max ranges observed on a
calibration set. Convolutions and linear layers accumulate in int32; pooling
runs on int8 directly (max) or via an int32 sum (average); softmax stays in
real arithmetic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Spectrogram, model_input
from .errors import CalibrationError, NumericError, ParseError, ShapeError
from .nn.layers import _im2col3x3, max_pool_2x2, softmax
from .nn.network import LayerKind, LayerSpec, Network, Variant

_QMAX = 127
_ACC_LIMIT = 2**31


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

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        return self.scale * (q.astype(np.float64) - self.zero_point)


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
    bias: np.ndarray | None = None  # dequantized, applied in real arithmetic
    b_q: QTensor | None = None  # stored form (int8 payload)
    relu: bool = False
    out_q: ActQuant | None = None  # None for the final linear layer


class QNetwork:
    """Quantized twin of a Network: same topology, dropout elided."""

    def __init__(self, variant: Variant, specs: list[LayerSpec], input_q: ActQuant, ops: list[_QOp]):
        self.variant = variant
        self.specs = specs  # dropout-free layer list
        self.input_q = input_q
        self.ops = ops

    def weight_tensors(self) -> list[QTensor]:
        out = []
        for op in self.ops:
            if op.w is not None:
                out.append(op.w)
            if op.b_q is not None:
                out.append(op.b_q)
        return out

    def weight_payload_bytes(self) -> int:
        return sum(t.values.size for t in self.weight_tensors())


def _check_accumulator_bound(specs: list[LayerSpec]) -> None:
    # int8 activation minus zero point spans [-255, 255]; weights span +/-127.
    for spec in specs:
        if spec.kind is LayerKind.CONV3X3:
            reduce_len = spec.in_ch * 9
        elif spec.kind is LayerKind.LINEAR:
            reduce_len = spec.in_ch
        else:
            continue
        if reduce_len * 255 * _QMAX >= _ACC_LIMIT:
            raise OverflowError(
                f"int32 accumulator bound violated: {reduce_len} * 255 * 127 >= 2^31"
            )


def quantize_network(net: Network, calibration: np.ndarray) -> QNetwork:
    """Quantize weights and calibrate activation ranges from sample inputs.

    ``calibration`` is a stack of standardized model inputs, shape
    (n, 1, F, T); at least 32 spectrograms are recommended. Each conv/linear
    is fused with its trailing ReLU, and activation ranges are recorded after
    the fused op (so post-ReLU where one exists).
    """
    calibration = np.asarray(calibration, dtype=np.float32)
    if calibration.ndim == 3:
        calibration = calibration[None, ...]
    if calibration.size == 0 or len(calibration) == 0:
        raise CalibrationError("calibration set is empty")

    specs = [s for s in net.specs if s.kind is not LayerKind.DROPOUT]
    _check_accumulator_bound(specs)
    input_q = _act_quant_from_range(float(calibration.min()), float(calibration.max()))

    # Walk the float layers, tracking the activation after every op we keep.
    ops: list[_QOp] = []
    h = calibration.astype(np.float32)
    layer_objs = [l for l, s in zip(net.layers, net.specs) if s.kind is not LayerKind.DROPOUT]
    i = 0
    while i < len(specs):
        spec = specs[i]
        if spec.kind in (LayerKind.CONV3X3, LayerKind.LINEAR):
            layer = layer_objs[i]
            h = layer.forward(h, train=False)
            fuse_relu = i + 1 < len(specs) and specs[i + 1].kind is LayerKind.RELU
            if fuse_relu:
                h = np.maximum(h, 0)
            is_final_linear = spec.kind is LayerKind.LINEAR
            out_q = None if is_final_linear else _act_quant_from_range(float(h.min()), float(h.max()))
            wq = quantize_tensor(layer.w.value)
            bq = quantize_tensor(layer.b.value)
            ops.append(
                _QOp(
                    kind=spec.kind,
                    w=wq,
                    bias=bq.dequantize().astype(np.float64),
                    b_q=bq,
                    relu=fuse_relu,
                    out_q=out_q,
                )
            )
            i += 2 if fuse_relu else 1
        elif spec.kind is LayerKind.MAXPOOL2X2:
            h = layer_objs[i].forward(h, train=False)
            ops.append(_QOp(kind=spec.kind))
            i += 1
        elif spec.kind is LayerKind.GLOBAL_AVG_POOL:
            h = layer_objs[i].forward(h, train=False)
            ops.append(_QOp(kind=spec.kind))
            i += 1
        elif spec.kind is LayerKind.SOFTMAX:
            ops.append(_QOp(kind=spec.kind))
            i += 1
        elif spec.kind is LayerKind.RELU:
            # Unfused ReLU (never produced by the variant builders).
            h = np.maximum(h, 0)
            ops.append(_QOp(kind=spec.kind))
            i += 1
        else:  # pragma: no cover
            raise ShapeError(f"unsupported layer kind {spec.kind}")
    return QNetwork(net.variant, specs, input_q, ops)


def _qconv_int(xq: np.ndarray, in_q: ActQuant, op: _QOp) -> np.ndarray:
    """Integer conv: returns real-valued output before requantization."""
    centered = xq.astype(np.int32) - in_q.zero_point  # real zero maps to 0
    cols = _im2col3x3(centered)
    out_ch = op.w.values.shape[0]
    wm = op.w.values.reshape(out_ch, -1).astype(np.int32)
    acc = np.matmul(wm, cols)  # int32 accumulation
    n = acc.shape[0]
    h, w = xq.shape[2], xq.shape[3]
    real = acc.astype(np.float64) * (op.w.scale * in_q.scale)
    real += op.bias[None, :, None]
    return real.reshape(n, out_ch, h, w)


def _qlinear_int(xq: np.ndarray, in_q: ActQuant, op: _QOp) -> np.ndarray:
    flat = xq.reshape(xq.shape[0], -1).astype(np.int32) - in_q.zero_point
    wm = op.w.values.astype(np.int32)
    acc = flat @ wm.T
    real = acc.astype(np.float64) * (op.w.scale * in_q.scale)
    return real + op.bias[None, :]


def qforward(qnet: QNetwork, spectrogram: Spectrogram | np.ndarray) -> np.ndarray:
    """Quantized inference; returns class probabilities.

    Accepts a Spectrogram (standardized exactly like the float path) or an
    already-standardized input array of shape (1, F, T) or (N, 1, F, T).
    """
    if isinstance(spectrogram, Spectrogram):
        x = model_input(spectrogram)[None, ...]
        single = True
    else:
        x = np.asarray(spectrogram, dtype=np.float32)
        single = x.ndim == 3
        if single:
            x = x[None, ...]

    cur_q = qnet.input_q
    q = cur_q.quantize(x)
    real_out: np.ndarray | None = None
    for op in qnet.ops:
        if op.kind is LayerKind.CONV3X3:
            real = _qconv_int(q, cur_q, op)
            if op.relu:
                real = np.maximum(real, 0)
            if op.out_q is None:
                real_out = real
            else:
                cur_q = op.out_q
                q = cur_q.quantize(real)
        elif op.kind is LayerKind.LINEAR:
            real = _qlinear_int(q, cur_q, op)
            if op.relu:
                real = np.maximum(real, 0)
            if op.out_q is None:
                real_out = real
            else:
                cur_q = op.out_q
                q = cur_q.quantize(real)
        elif op.kind is LayerKind.MAXPOOL2X2:
            q = max_pool_2x2(q)  # max in int8; qparams unchanged
        elif op.kind is LayerKind.GLOBAL_AVG_POOL:
            n, c, h, w = q.shape
            total = q.astype(np.int32).sum(axis=(2, 3), keepdims=True)
            q = np.clip(np.round(total / (h * w)), -128, 127).astype(np.int8)
        elif op.kind is LayerKind.RELU:
            q = np.maximum(q, np.int8(np.clip(cur_q.zero_point, -128, 127)))
        elif op.kind is LayerKind.SOFTMAX:
            if real_out is None:
                raise ShapeError("softmax before the final linear layer")
            real_out = softmax(real_out)
    if real_out is None:
        raise ShapeError("network did not produce logits")
    return real_out[0] if single else real_out


# --- quantized weights files -------------------------------------------------

_QWEIGHTS_FORMAT = "murmurkit-qweights"
_QWEIGHTS_VERSION = 1


def save_qnetwork(qnet: QNetwork, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        f"format\t{_QWEIGHTS_FORMAT}\t{_QWEIGHTS_VERSION}",
        f"variant\t{qnet.variant.value}",
        "dtype\tint8",
        f"input_q\t{qnet.input_q.scale!r}\t{qnet.input_q.zero_point}",
    ]
    for i, spec in enumerate(qnet.specs):
        lines.append(f"layer\t{i}\t{spec.kind.value}\t{spec.in_ch}\t{spec.out_ch}\t{spec.p}")
    for i, op in enumerate(qnet.ops):
        lines.append(f"op\t{i}\t{op.kind.value}\t{int(op.relu)}")
        if op.out_q is not None:
            lines.append(f"act_q\t{i}\t{op.out_q.scale!r}\t{op.out_q.zero_point}")
        for tag, tensor in (("w", op.w), ("b", op.b_q)):
            if tensor is None:
                continue
            blob = np.ascontiguousarray(tensor.values, dtype=np.int8).tobytes()
            fname = f"op{i}.{tag}.bin"
            (out / fname).write_bytes(blob)
            shape = ",".join(str(d) for d in tensor.values.shape)
            lines.append(
                f"tensor\top{i}.{tag}\t{shape}\t{tensor.scale!r}\t{fname}\t{zlib.crc32(blob):08x}"
            )
    (out / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_qnetwork(weights_dir: str | Path) -> QNetwork:
    base = Path(weights_dir)
    manifest = base / "manifest"
    if not manifest.exists():
        raise ParseError(f"{weights_dir}: missing weights manifest")
    variant: Variant | None = None
    input_q: ActQuant | None = None
    specs: list[LayerSpec] = []
    op_rows: dict[int, dict] = {}
    for line in manifest.read_text(encoding="utf-8").splitlines():
        f = line.split("\t")
        if f[0] == "variant":
            variant = Variant(f[1])
        elif f[0] == "input_q":
            input_q = ActQuant(float(f[1]), int(f[2]))
        elif f[0] == "layer":
            specs.append(
                LayerSpec(LayerKind(f[2]), in_ch=int(f[3]), out_ch=int(f[4]), p=float(f[5]))
            )
        elif f[0] == "op":
            op_rows.setdefault(int(f[1]), {})["kind"] = LayerKind(f[2])
            op_rows[int(f[1])]["relu"] = bool(int(f[3]))
        elif f[0] == "act_q":
            op_rows.setdefault(int(f[1]), {})["out_q"] = ActQuant(float(f[2]), int(f[3]))
        elif f[0] == "tensor":
            name, shape_tok, scale_tok, fname, crc_tok = f[1:6]
            idx = int(name.split(".")[0][2:])
            tag = name.split(".")[1]
            blob = (base / fname).read_bytes()
            if zlib.crc32(blob) != int(crc_tok, 16):
                raise ParseError(f"{weights_dir}/{fname}: checksum mismatch")
            shape = tuple(int(d) for d in shape_tok.split(","))
            values = np.frombuffer(blob, dtype=np.int8).reshape(shape)
            op_rows.setdefault(idx, {})[tag] = QTensor(values, float(scale_tok))
    if variant is None or input_q is None:
        raise ParseError(f"{weights_dir}: manifest lacks variant or input_q")
    ops = []
    for i in sorted(op_rows):
        row = op_rows[i]
        bq = row.get("b")
        ops.append(
            _QOp(
                kind=row["kind"],
                w=row.get("w"),
                bias=None if bq is None else bq.dequantize().astype(np.float64),
                b_q=bq,
                relu=row.get("relu", False),
                out_q=row.get("out_q"),
            )
        )
    return QNetwork(variant, specs, input_q, ops)
