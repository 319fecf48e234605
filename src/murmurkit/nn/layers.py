"""Forward/backward kernels for the five layer kinds used by the classifiers.

All activations are (N, C, H, W) row-major arrays except after the final
pooling, where linear layers flatten to (N, C). Convolutions are 3x3 with
stride 1 and zero padding 1, implemented via im2col so the inner loop is a
single GEMM.

Hot layers keep per-thread workspace buffers: on a small host, repeatedly
mallocing multi-megabyte temporaries costs more in page faults than the
arithmetic itself. Buffers are keyed per layer object and reallocated when
the batch shape changes, so results are identical with or without reuse.
These arrays are workspace views that the same layer's next call
overwrites: the forward outputs of Conv3x3, Dropout (when it drops) and
MaxPool2x2, and the gradients that the backward passes of Conv3x3, ReLU,
Dropout (when it dropped) and MaxPool2x2 return. ReLU works in place: it
overwrites its input (in a Network, the conv output buffer) and returns it.

Max pooling takes the max over the four stride-2 corner views of the input.
Each window's gradient goes to its first corner, in window order (top-left,
top-right, bottom-left, bottom-right), that equals the max: the element
``argmax`` over the window picks. The forward value is that same corner's,
so even a +0/-0 tie matches it. For finite values the kernels match, byte
for byte, the gather/scatter and allocate-per-call formulation kept as
oracles in tests/test_kernel_identity.py.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import ConfigError, LabelError, ShapeError, StateError


def he_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _Workspace:
    """Per-thread, shape-checked scratch buffers."""

    def __init__(self):
        self._tls = threading.local()

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        store = getattr(self._tls, "buffers", None)
        if store is None:
            store = self._tls.buffers = {}
        buf = store.get(name)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            store[name] = buf
        return buf


# --- convolution ------------------------------------------------------------


def _im2col3x3(x: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
    """(N, C, H, W) -> (N, C*9, H*W) patches with zero padding 1."""
    n, c, h, w = x.shape
    if ws is None:
        xp = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
        cols = np.empty((n, c, 9, h, w), dtype=x.dtype)
    else:
        xp = ws.get("xp", (n, c, h + 2, w + 2), x.dtype)
        xp[...] = 0
        cols = ws.get("cols", (n, c, 9, h, w), x.dtype)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    k = 0
    for u in range(3):
        for v in range(3):
            cols[:, :, k] = xp[:, :, u : u + h, v : v + w]
            k += 1
    return cols.reshape(n, c * 9, h * w)


def _col2im3x3(
    dcols: np.ndarray, shape: tuple[int, int, int, int], ws: _Workspace | None = None
) -> np.ndarray:
    n, c, h, w = shape
    if ws is None:
        dxp = np.zeros((n, c, h + 2, w + 2), dtype=dcols.dtype)
    else:
        dxp = ws.get("dxp", (n, c, h + 2, w + 2), dcols.dtype)
        dxp[...] = 0
    d = dcols.reshape(n, c, 9, h, w)
    k = 0
    for u in range(3):
        for v in range(3):
            dxp[:, :, u : u + h, v : v + w] += d[:, :, k]
            k += 1
    return dxp[:, :, 1 : h + 1, 1 : w + 1]


# --- 2x2 max pooling ----------------------------------------------------------

# Corner offsets of a 2x2 window, in window order.
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _corner_views(x: np.ndarray) -> list[np.ndarray]:
    """The four stride-2 views of (N, C, H, W) that hold each window's corners."""
    h2, w2 = x.shape[2] // 2, x.shape[3] // 2
    return [x[:, :, u : 2 * h2 : 2, v : 2 * w2 : 2] for u, v in _CORNERS]


def max_pool_2x2(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2x2 max pooling, stride 2, as the max of the four corner views.

    Odd trailing rows/columns are dropped. The max is exact in every dtype,
    so the int8 path shares this kernel. The result goes to ``out`` when
    given, shape (N, C, H // 2, W // 2).
    """
    h, w = x.shape[2:]
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2x2 needs H, W >= 2, got {h}x{w}")
    c00, c01, c10, c11 = _corner_views(x)
    if out is None:
        out = np.empty(c00.shape, dtype=x.dtype)
    # np.maximum returns its second operand on ties, so folding the corners
    # in reverse window order keeps the first maximal one.
    np.maximum(c11, c10, out=out)
    np.maximum(out, c01, out=out)
    np.maximum(out, c00, out=out)
    return out


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over all spatial positions, output (N, C, 1, 1)."""
    return x.mean(axis=(2, 3), keepdims=True)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    if single:
        z = z[None, :]
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return out[0] if single else out


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean negative log probability of the true class."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs = probs[None, :]
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if labels.shape[0] != probs.shape[0]:
        raise ShapeError("probs and labels disagree on batch size")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise LabelError(f"label out of range for {probs.shape[1]} classes")
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


# --- layer objects (stateful: parameters, gradients, forward caches) --------


class Param:
    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)


class Conv3x3:
    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator, dtype=np.float32):
        self.in_ch = in_ch
        self.out_ch = out_ch
        w = he_uniform((out_ch, in_ch, 3, 3), fan_in=in_ch * 9, rng=rng, dtype=dtype)
        self.w = Param("w", w)
        self.b = Param("b", np.zeros(out_ch, dtype=dtype))
        self._cache = None
        self._ws = _Workspace()

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        cols = _im2col3x3(x, self._ws)
        wm = self.w.value.reshape(self.out_ch, self.in_ch * 9)
        out = self._ws.get("out", (n, self.out_ch, h * w), x.dtype)
        np.matmul(wm, cols, out=out)
        out += self.b.value[None, :, None]
        if train:
            self._cache = (cols, x.shape)
        return out.reshape(n, self.out_ch, h, w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("conv backward without cached forward")
        cols, x_shape = self._cache
        n, _, h, w = x_shape
        g = grad.reshape(n, self.out_ch, h * w)
        # Batched GEMMs over strided views; copying the operands into one
        # flat GEMM is slower here than letting BLAS walk the batch axis.
        dw_n = self._ws.get("dw_n", (n, self.out_ch, self.in_ch * 9), g.dtype)
        np.matmul(g, cols.transpose(0, 2, 1), out=dw_n)
        self.w.grad += dw_n.sum(axis=0).reshape(self.w.value.shape)
        self.b.grad += g.sum(axis=(0, 2))
        wm = self.w.value.reshape(self.out_ch, self.in_ch * 9)
        dcols = self._ws.get("dcols", (n, self.in_ch * 9, h * w), g.dtype)
        np.matmul(wm.T, g, out=dcols)
        return _col2im3x3(dcols, x_shape, self._ws)


class ReLU:
    def __init__(self):
        self._out = None
        self._ws = _Workspace()

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        np.maximum(x, 0, out=x)
        if train:
            self._out = x  # out > 0 exactly where x > 0
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise StateError("relu backward without cached forward")
        mask = self._ws.get("mask", self._out.shape, np.bool_)
        np.greater(self._out, 0, out=mask)
        dx = self._ws.get("dx", grad.shape, grad.dtype)
        np.multiply(grad, mask, out=dx)
        return dx


class Dropout:
    def __init__(self, p: float = 0.1):
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._cache = None
        self._ws = _Workspace()

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool, *, active: bool, rng) -> np.ndarray:
        if not active or self.p == 0.0:
            if train:
                self._cache = None  # identity backward
            return x
        draw_dtype = np.float64 if x.dtype == np.float64 else np.float32
        draw = self._ws.get("draw", x.shape, draw_dtype)
        rng.random(out=draw.reshape(-1), dtype=draw_dtype)
        gate = self._ws.get("gate", x.shape, np.bool_)
        np.greater_equal(draw, self.p, out=gate)
        scale = np.array(1.0 / (1.0 - self.p), dtype=x.dtype)
        # The gate is exactly 0 or 1, so (x * gate) * scale has the bytes of
        # x * (gate * scale) without a separate mask pass.
        out = self._ws.get("out", x.shape, x.dtype)
        np.multiply(x, gate, out=out)
        out *= scale
        if train:
            self._cache = (gate, scale)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            return grad
        gate, scale = self._cache
        dx = self._ws.get("dx", grad.shape, np.result_type(grad.dtype, scale.dtype))
        np.multiply(grad, gate, out=dx)
        dx *= scale
        return dx


class MaxPool2x2:
    def __init__(self):
        self._cache = None
        self._ws = _Workspace()

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, c, h, w = x.shape
        out = self._ws.get("out", (n, c, h // 2, w // 2), x.dtype)
        max_pool_2x2(x, out)
        if train:
            # Winner code: index of the first corner equal to the max, i.e.
            # 0 if c00 == max else 1 + (c01 != max) * (1 + (c10 != max)).
            c00, c01, c10, _ = _corner_views(x)
            code = self._ws.get("code", out.shape, np.uint8)
            hit = self._ws.get("hit", out.shape, np.bool_)
            np.not_equal(c10, out, out=code)
            code += 1
            np.not_equal(c01, out, out=hit)
            code *= hit
            code += 1
            np.not_equal(c00, out, out=hit)
            code *= hit
            self._cache = (code, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("maxpool backward without cached forward")
        code, shape = self._cache
        dx = self._ws.get("dx", shape, grad.dtype)
        hit = self._ws.get("hit", code.shape, np.bool_)
        for k, corner in enumerate(_corner_views(dx)):
            np.equal(code, k, out=hit)
            np.multiply(grad, hit, out=corner)
        if shape[2] % 2:
            dx[:, :, -1, :] = 0
        if shape[3] % 2:
            dx[:, :, :, -1] = 0
        # grad * False is -0.0 where grad < 0; adding +0.0 makes every
        # non-winner +0.0 and leaves all other values as they are.
        dx += 0.0
        return dx


class GlobalAvgPool:
    def __init__(self):
        self._shape = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self._shape = x.shape
        return global_avg_pool(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise StateError("global_avg_pool backward without cached forward")
        n, c, h, w = self._shape
        return np.broadcast_to(grad / (h * w), (n, c, h, w)).astype(grad.dtype)


class Linear:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        w = he_uniform((out_features, in_features), fan_in=in_features, rng=rng, dtype=dtype)
        self.w = Param("w", w)
        self.b = Param("b", np.zeros(out_features, dtype=dtype))
        self._cache = None

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        flat = x.reshape(x.shape[0], -1)
        if flat.shape[1] != self.in_features:
            raise ShapeError(
                f"linear expects {self.in_features} features, got {flat.shape[1]}"
            )
        if train:
            self._cache = (flat, x.shape)
        return flat @ self.w.value.T + self.b.value[None, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("linear backward without cached forward")
        flat, x_shape = self._cache
        self.w.grad += grad.T @ flat
        self.b.grad += grad.sum(axis=0)
        return (grad @ self.w.value).reshape(x_shape)
