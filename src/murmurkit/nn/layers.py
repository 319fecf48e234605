"""Forward/backward kernels for the five layer kinds used by the classifiers.

All activations are (N, C, H, W) row-major arrays except after the final
pooling, where linear layers flatten to (N, C). Convolutions are 3x3 with
stride 1 and zero padding 1, via im2col one sample at a time, so each
sample's product is a single GEMM.

A train pass runs ``train_plan``: each Conv3x3 -> ReLU -> Dropout ->
MaxPool2x2 block as one ``PooledConvBlock``, a sample at a time, and each
other ReLU -> Dropout tail as one ``ActivationTail``, with the per-layer
chain's outputs and parameter gradients. Eval and MC passes run layer by
layer.

Hot layers take their buffers from a ``_Scratch``: on a small host,
repeatedly mallocing multi-megabyte temporaries costs more in page faults
than the arithmetic itself. Each layer owns one for what outlives a call:
its forward output, the dropout gate and the pool's winner code that its
backward reads, and the gradient its backward returns, each overwritten by
the layer's next request for that name. The convs of a network share one
more for what lives only inside one call (``share_scratch``): the padded
batch and one sample's columns, which do not grow with the batch (partial
im2col, as in CMSIS-NN; Lai et al. 2018, arXiv:1801.06601). ReLU, and
Dropout in training, write over their input instead (in-place activations,
Rota Bulo et al. 2018, arXiv:1712.02616). Results are identical with or
without reuse.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import ConfigError, LabelError, ShapeError, StateError


def he_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def _initial_weight(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator | None, dtype) -> np.ndarray:
    """He-uniform weights, or zeros without an rng (for a loader that sets every weight)."""
    return np.zeros(shape, dtype) if rng is None else he_uniform(shape, fan_in, rng, dtype)


class _Scratch:
    """Per-thread buffers, one flat byte buffer per name, handed out as
    views at the requested shape and dtype.

    A buffer grows to the largest request for its name, freeing the old one
    before the larger one exists, and never shrinks, so a smaller request
    of any shape or dtype (a 1-row eval between train steps, an MC
    segment's 1-row eval pass beside its n-row passes) reallocates nothing. A
    request's arrays are overwritten by the next request for the same name;
    two names never share memory.
    """

    def __init__(self):
        self._tls = threading.local()

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        return self.views([(shape, dtype)], name=name)[0]

    def views(self, layout: list[tuple], name: str = "") -> list[np.ndarray]:
        """One array per (shape, dtype) pair of ``layout``, one after the
        other in the buffer, each cache-line aligned."""
        spans, size = [], 0
        for shape, dtype in layout:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            spans.append((size, nbytes))
            size += -(-nbytes // 64) * 64
        bufs = getattr(self._tls, "bufs", None)
        if bufs is None:
            bufs = self._tls.bufs = {}
        buf = bufs.get(name)
        if buf is None or buf.size < size:
            buf = bufs[name] = None  # free the old buffer before the new one exists
            buf = bufs[name] = np.empty(size, dtype=np.uint8)
        return [buf[lo : lo + n].view(dtype).reshape(shape) for (lo, n), (shape, dtype) in zip(spans, layout)]


# --- convolution ------------------------------------------------------------


def _padded_taps(x: np.ndarray, xp: np.ndarray) -> np.ndarray:
    """Copy x (N, C, H, W) into ``xp`` (N, C, H+2, W+2) inside a zero border,
    and return the (N, C, 3, 3, H, W) view of ``xp`` whose plane
    [n, c, u, v] is tap (u, v): tap (u, v) of output (i, j) is
    xp[u + i, v + j]. The view is only read, but it stays writable: numpy
    2.4 leaks about 50 bytes per writeable=False view (tracemalloc)."""
    n, c, h, w = x.shape
    xp[:, :, :: h + 1] = 0  # rows 0 and h + 1
    xp[:, :, :, :: w + 1] = 0
    xp[:, :, 1:-1, 1:-1] = x
    sn, sc, sh, sw = xp.strides
    return as_strided(xp, (n, c, 3, 3, h, w), (sn, sc, sh, sw, sh, sw))


def _im2col3x3(x: np.ndarray) -> np.ndarray:
    """(N, C, H, W) -> new (N, C*9, H*W) patches with zero padding 1."""
    n, c, h, w = x.shape
    taps = _padded_taps(x, np.empty((n, c, h + 2, w + 2), x.dtype))
    return np.ascontiguousarray(taps).reshape(n, c * 9, h * w)


def _col2im3x3(dcols: np.ndarray, c: int, h: int, w: int) -> list[tuple[tuple, np.ndarray]]:
    """col2im, the adjoint of ``_im2col3x3``, for one sample's (C*9, H*W)
    columns as nine (dx index, dcols view) pairs in tap order. Adding each
    view into its index of the sample's (C, H, W) dx in turn gives every
    element its taps in tap order after what dx holds, +0 in a zeroed one,
    as a zeroed padded buffer would; taps on the padding are skipped. Tap
    (u, v) takes output row i from its plane's row i + 1 - u."""
    d = dcols.reshape(c, 3, 3, h, w)
    ranges = [
        [(slice(max(u - 1, 0), size + min(u - 1, 0)), slice(max(1 - u, 0), size - max(u - 1, 0))) for u in range(3)]
        for size in (h, w)
    ]
    return [
        ((slice(None), rows, cols), d[:, u, v, tap_rows, tap_cols])
        for u, (rows, tap_rows) in enumerate(ranges[0])
        for v, (cols, tap_cols) in enumerate(ranges[1])
    ]


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


def _winner_code(x: np.ndarray, out: np.ndarray, code: np.ndarray, hit: np.ndarray) -> None:
    """Write into ``code`` the index of the first corner of each window of x
    equal to its max ``out``: the one argmax over the window picks and whose
    value the forward returns, so even a +0/-0 tie matches; for finite values
    this is byte for byte the oracle in tests/test_kernel_identity.py.
    ``hit`` is a bool buffer of ``out``'s shape."""
    # 0 if c00 == max else 1 + (c01 != max) * (1 + (c10 != max)).
    c00, c01, c10, _ = _corner_views(x)
    np.not_equal(c10, out, out=code)
    code += 1
    np.not_equal(c01, out, out=hit)
    code *= hit
    code += 1
    np.not_equal(c00, out, out=hit)
    code *= hit


def _route_to_winners(grad: np.ndarray, code: np.ndarray, dx: np.ndarray, hit: np.ndarray) -> None:
    """Write the pooled-size ``grad`` into ``dx`` at each window's winner
    corner, as ``code`` from MaxPool2x2.forward names it. The other corners
    get grad * 0, a zero with grad's sign; odd trailing rows and columns +0."""
    for k, corner in enumerate(_corner_views(dx)):
        np.equal(code, k, out=hit)
        np.multiply(grad, hit, out=corner)
    if dx.shape[2] % 2:
        dx[:, :, -1, :] = 0
    if dx.shape[3] % 2:
        dx[:, :, :, -1] = 0


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
    """3x3 convolution, stride 1, zero padding 1, as one im2col GEMM per
    sample.

    Forward and backward pad the batch once into the shared scratch, then
    copy each sample's taps into one (C*9, H*W) column buffer and run that
    sample's GEMMs on it, as numpy's batched matmul would. Train mode
    caches the input, not its columns: the backward rebuilds the columns
    from it, the recompute half of Chen et al. 2016 (arXiv:1604.06174,
    section 4). That is safe because nothing writes a conv's input until
    that conv's backward has run. The input is the previous pool's output,
    the previous block's activation (``heavy``'s unpooled blocks, whose tail
    writes its gradient there only after this conv's backward), or the
    batch itself.
    """

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator | None, dtype=np.float32):
        self.in_ch = in_ch
        self.out_ch = out_ch
        w = _initial_weight((out_ch, in_ch, 3, 3), in_ch * 9, rng, dtype)
        self.w = Param("w", w)
        self.b = Param("b", np.zeros(out_ch, dtype=dtype))
        self._cache = None
        self._ws = _Scratch()
        self._scratch = _Scratch()  # a Network gives all its convs one (share_scratch)

    def params(self) -> list[Param]:
        return [self.w, self.b]

    def _im2col(self, x: np.ndarray, *after) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """The tap view of x's padded copy, one sample's (C*9, H*W) column
        buffer and arrays of the given (shape, dtype), one after the other
        in the scratch: only the padded copy grows with the batch."""
        n, c, h, w = x.shape
        xp, col, *rest = self._scratch.views([((n, c, h + 2, w + 2), x.dtype), ((c * 9, h * w), x.dtype), *after])
        return _padded_taps(x, xp), col, rest

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_ch:
            raise ShapeError(f"conv expects {self.in_ch} channels, got {c}")
        taps, col, _ = self._im2col(x)
        col_taps = col.reshape(c, 3, 3, h, w)
        wm = self.w.value.reshape(self.out_ch, self.in_ch * 9)
        out = self._ws.get("out", (n, self.out_ch, h * w), x.dtype)
        for i in range(n):
            np.copyto(col_taps, taps[i])
            np.matmul(wm, col, out=out[i])
        out += self.b.value[None, :, None]
        self._cache = x if train else None
        return out.reshape(n, self.out_ch, h, w)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients and return the input gradient,
        or None when ``input_grad`` is False (the network's first layer)."""
        if self._cache is None:
            raise StateError("conv backward without cached forward")
        x = self._cache
        self._cache = None
        return self._backward(x, grad.reshape(len(x), self.out_ch, -1), input_grad)

    def _backward(self, x: np.ndarray, grads, input_grad: bool) -> np.ndarray | None:
        """``backward`` from the cached input ``x`` and ``grads``, each
        sample's (out_ch, H*W) output gradient in sample order. Each sample's
        weight and bias terms are added in sample order, as a sum over the
        batch adds them."""
        n, c, h, w = x.shape
        dw_shape, b_shape = (self.out_ch, self.in_ch * 9), (self.out_ch,)
        layout = [(dw_shape, x.dtype), (dw_shape, x.dtype), (b_shape, x.dtype), (b_shape, x.dtype)]
        taps, col, (dw, dw_term, db, db_term) = self._im2col(x, *layout)
        col_taps, col_t, dcol_taps = col.reshape(c, 3, 3, h, w), col.T, _col2im3x3(col, c, h, w)
        wm_t = self.w.value.reshape(dw_shape).T
        dx = self._ws.get("dx", x.shape, col.dtype) if input_grad else None
        if dx is not None:
            dx[...] = 0
        for i, g in enumerate(grads):
            np.copyto(col_taps, taps[i])
            # One dW GEMM per sample over the strided (H*W, 9*in) view.
            np.matmul(g, col_t, out=dw_term if i else dw)
            np.sum(g, axis=1, out=db_term if i else db)
            if i:
                dw += dw_term
                db += db_term
            if dx is not None:
                # The dW GEMM was the last reader of the sample's columns:
                # they take its input-gradient columns.
                np.matmul(wm_t, g, out=col)
                dx_i = dx[i]
                for index, plane in dcol_taps:
                    dx_i[index] += plane
        self.w.grad += dw.reshape(self.w.value.shape)
        self.b.grad += db
        return dx


def share_scratch(layers: list) -> None:
    """Give the Conv3x3 layers of ``layers`` one scratch, which then lives
    as long as they do."""
    scratch = _Scratch()
    for layer in layers:
        if isinstance(layer, Conv3x3):
            layer._scratch = scratch


class ReLU:
    def __init__(self):
        self._out = None
        self._ws = _Scratch()

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        np.maximum(x, 0, out=x)
        self._out = x if train else None  # out > 0 exactly where x > 0
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise StateError("relu backward without cached forward")
        mask = self._ws.get("mask", self._out.shape, np.bool_)
        np.greater(self._out, 0, out=mask)
        dx = self._ws.get("dx", grad.shape, grad.dtype)
        np.multiply(grad, mask, out=dx)
        return dx


# Generator words per random_raw call: it returns a new array each call, so
# drawing a whole batch at once would allocate a temporary as large as the
# float draw it replaces.
_GATE_CHUNK = 16384


def _dropout_gate(rng, p: float, float32: bool, gate: np.ndarray) -> None:
    """Fill the flat bool array ``gate`` with ``rng.random(gate.size, dtype)
    >= p`` (dtype float32 or float64) from PCG64's raw 64-bit words.

    ``random`` makes a float64 from the top 53 bits of a word and a float32
    from the top 24 bits of a uint32, taking each word's low half first and
    buffering the high half for the next uint32. Those floats are multiples
    of 2**-53 and 2**-24, so the comparison with p (float32(p) for float32,
    as numpy compares a float32 array with a Python float) is a comparison
    of the word with ceil(p * 2**53) << 11 or ceil(float32(p) * 2**24) << 8.
    The generator ends in the state the float draw leaves, buffered half
    included.
    """
    bits = getattr(rng, "bit_generator", None)
    if type(bits) is not np.random.PCG64:
        raise ConfigError(f"dropout needs a PCG64 generator, got {type(bits).__name__}")
    size = gate.size
    if not float32:
        threshold = math.ceil(p * 2.0**53) << 11
        for lo in range(0, size, _GATE_CHUNK):
            words = bits.random_raw(min(_GATE_CHUNK, size - lo))
            np.greater_equal(words, threshold, out=gate[lo : lo + len(words)])
        return
    threshold = math.ceil(float(np.float32(p)) * 2.0**24) << 8
    state = bits.state
    first = 1 if state["has_uint32"] and size else 0
    if first:
        gate[0] = state["uinteger"] >= threshold
    halves = None
    for lo in range(first, size, 2 * _GATE_CHUNK):
        count = min(2 * _GATE_CHUNK, size - lo)
        # Read as little-endian uint32 pairs, each word gives its low half first.
        halves = bits.random_raw((count + 1) // 2).astype("<u8", copy=False).view("<u4")
        np.greater_equal(halves[:count], threshold, out=gate[lo : lo + count])
    if first or halves is not None:
        state = bits.state
        state["has_uint32"] = (size - first) % 2
        if halves is not None:
            state["uinteger"] = int(halves[-1])
        bits.state = state


class Dropout:
    def __init__(self, p: float = 0.1):
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._cache = None
        self._ws = _Scratch()

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool, *, active: bool, rng) -> np.ndarray:
        if not active or self.p == 0.0:
            self._cache = None  # identity backward
            return x
        gate = self._ws.get("gate", x.shape, np.bool_)
        _dropout_gate(rng, self.p, x.dtype != np.float64, gate.reshape(-1))
        scale = np.array(1.0 / (1.0 - self.p), dtype=x.dtype)
        # The gate is exactly 0 or 1, so (x * gate) * scale has the bytes of
        # x * (gate * scale) without a separate mask pass. In training the
        # output overwrites a writable input, as ReLU does.
        out = x if train and x.flags.writeable else self._ws.get("out", x.shape, x.dtype)
        np.multiply(x, gate, out=out)
        out *= scale
        self._cache = (gate, scale, out) if train else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            return grad
        gate, scale, _ = self._cache
        dx = self._ws.get("dx", grad.shape, np.result_type(grad.dtype, scale.dtype))
        np.multiply(grad, gate, out=dx)
        dx *= scale
        return dx


class MaxPool2x2:
    def __init__(self):
        self._cache = None
        self._ws = _Scratch()

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        n, c, h, w = x.shape
        out = self._ws.get("out", (n, c, h // 2, w // 2), x.dtype)
        max_pool_2x2(x, out)
        self._cache = None
        if train:
            code = self._ws.get("code", out.shape, np.uint8)
            _winner_code(x, out, code, self._ws.get("hit", out.shape, np.bool_))
            self._cache = (code, out, x.shape)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("maxpool backward without cached forward")
        code, _, shape = self._cache
        dx = self._ws.get("dx", shape, grad.dtype)
        _route_to_winners(grad, code, dx, self._ws.get("hit", code.shape, np.bool_))
        # grad * False is -0.0 where grad < 0; adding +0.0 makes every
        # non-winner +0.0 and leaves all other values as they are.
        dx += 0.0
        return dx


def _live_grad(grad: np.ndarray, out: np.ndarray, scale, live: np.ndarray, g: np.ndarray) -> None:
    """Write ``(grad * (out > 0)) * scale`` into ``g``, without the scale
    when it is None; ``live`` takes the mask."""
    np.greater(out, 0, out=live)
    np.multiply(grad, live, out=g)
    if scale is not None:
        g *= scale


class ActivationTail:
    """An unpooled block tail, ReLU -> Dropout, whose backward is one kernel
    that reads its mask from the tail's output.

    The dropout output is relu(x) * gate * scale with scale >= 1, so it is
    > 0 exactly where the element passed both the ReLU and the gate, and the
    input gradient is ``(grad * (out > 0)) * scale``: the bytes of the
    ReLU(Dropout(grad)) chain, signed zeros included. A dropout that was
    inactive (p = 0) passed the ReLU output on, so then the mask is read
    from that output and nothing is scaled. The input gradient is written
    into the activation once the mask has been read (the memory-sharing half
    of Chen et al. 2016, section 3), and the ReLU's cache is cleared, since
    that activation now holds a gradient.
    """

    def __init__(self, relu: ReLU, dropout: Dropout):
        self.relu, self.dropout = relu, dropout
        self._ws = _Scratch()

    def forward(self, x: np.ndarray, rng) -> np.ndarray:
        return self.dropout.forward(self.relu.forward(x, True), True, active=True, rng=rng)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self.relu._out is None:
            raise StateError("block tail backward without cached forward")
        if self.dropout._cache is None:
            act, scale = self.relu._out, None
        else:
            _, scale, act = self.dropout._cache
        self.relu._out = None
        _live_grad(grad, act, scale, self._ws.get("live", act.shape, np.bool_), act)
        return act


class PooledConvBlock:
    """Train pass of a Conv3x3 -> ReLU -> Dropout -> MaxPool2x2 block, one
    sample at a time in both directions, so that only the pooled output and
    its winner code exist for the whole batch (MCUNetV2's patch-by-patch
    stage, Lin et al. 2021, arXiv:2110.15352, with a sample as the patch).
    Gates drawn sample by sample consume the generator as one batch draw
    does, so outputs are the per-layer chain's bytes.

    A pooled value is > 0 exactly where its window's winner passed both the
    ReLU and the gate, so the backward scales the pooled-size gradient by
    ``(pooled > 0) * scale`` and routes it to the winners, without the
    chain's full-size ReLU-mask, ReLU-gradient and dropout-gradient passes.
    For finite values the conv-output gradient can differ from the chain's
    only in the sign of zero entries. The conv adds it into storage that
    starts at +0 (``zero_grad``, BLAS with beta 0, col2im's zeroed buffer):
    no sum's value depends on a zero's sign and +0 plus either zero is +0, so
    no gradient the block returns or accumulates changes. The layers' own
    caches hold the block's state, so an eval pass through them clears it.
    """

    def __init__(self, conv: Conv3x3, relu: ReLU, dropout: Dropout, pool: MaxPool2x2):
        self.conv, self.relu, self.dropout, self.pool = conv, relu, dropout, pool
        self._ws = _Scratch()

    def forward(self, x: np.ndarray, rng) -> np.ndarray:
        conv, pool = self.conv, self.pool
        n, _, h, w = x.shape
        pooled = pool._ws.get("out", (n, conv.out_ch, h // 2, w // 2), x.dtype)
        code = pool._ws.get("code", pooled.shape, np.uint8)
        hit = pool._ws.get("hit", (1, *pooled.shape[1:]), np.bool_)
        for i in range(n):
            # The conv's one-row output, in place through ReLU and dropout;
            # the backward reads its mask from the pooled output.
            act = self.relu.forward(conv.forward(x[i : i + 1], False), False)
            self.dropout.forward(act, True, active=True, rng=rng)
            max_pool_2x2(act, pooled[i : i + 1])
            _winner_code(act, pooled[i : i + 1], code[i : i + 1], hit)
        conv._cache = x
        pool._cache = (code, pooled, (n, conv.out_ch, h, w))
        return pooled

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """The conv's ``backward`` for the pooled-size ``grad``."""
        conv, pool = self.conv, self.pool
        if conv._cache is None or pool._cache is None:
            raise StateError("conv block backward without cached forward")
        x, (code, pooled, (_, c, h, w)) = conv._cache, pool._cache
        conv._cache = pool._cache = None
        scale = None if self.dropout._cache is None else self.dropout._cache[1]
        # The forward's one-row conv output is free: it takes each sample's
        # conv-output gradient.
        g = conv._ws.get("out", (1, c, h, w), grad.dtype)
        one = (1, *pooled.shape[1:])
        live, g_pooled = self._ws.get("live", one, np.bool_), self._ws.get("g", one, grad.dtype)
        hit = pool._ws.get("hit", one, np.bool_)

        def sample_grads():
            for i in range(len(x)):
                _live_grad(grad[i : i + 1], pooled[i : i + 1], scale, live, g_pooled)
                _route_to_winners(g_pooled, code[i : i + 1], g, hit)
                yield g.reshape(c, h * w)

        return conv._backward(x, sample_grads(), input_grad)


# Bound at import: a layer class later swapped into this module (an oracle
# under test) has other caches, so it is never fused.
_FUSED_KINDS = (Conv3x3, ReLU, Dropout, MaxPool2x2)


def train_plan(layers: list) -> list:
    """The objects a train pass runs, forward in order and backward in
    reverse: ``layers`` with each Conv3x3 -> ReLU -> Dropout -> MaxPool2x2
    run of this module's classes as one PooledConvBlock and each other
    ReLU -> Dropout run as one ActivationTail. The per-layer methods stay,
    for eval and MC passes, for stacks without that pattern and as the
    reference."""
    conv, relu, dropout, pool = _FUSED_KINDS
    steps, i = [], 0
    while i < len(layers):
        kinds = [type(layer) for layer in layers[i : i + 4]]
        if kinds == [conv, relu, dropout, pool]:
            steps.append(PooledConvBlock(*layers[i : i + 4]))
            i += 4
        elif kinds[:2] == [relu, dropout]:
            steps.append(ActivationTail(*layers[i : i + 2]))
            i += 2
        else:
            steps.append(layers[i])
            i += 1
    return steps


class GlobalAvgPool:
    def __init__(self):
        self._shape = None

    def params(self) -> list[Param]:
        return []

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        self._shape = x.shape if train else None
        return global_avg_pool(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise StateError("global_avg_pool backward without cached forward")
        n, c, h, w = self._shape
        return np.broadcast_to(grad / (h * w), (n, c, h, w))


class Linear:
    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None, dtype=np.float32):
        self.in_features = in_features
        self.out_features = out_features
        w = _initial_weight((out_features, in_features), in_features, rng, dtype)
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
        self._cache = (flat, x.shape) if train else None
        return flat @ self.w.value.T + self.b.value[None, :]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise StateError("linear backward without cached forward")
        flat, x_shape = self._cache
        self.w.grad += grad.T @ flat
        self.b.grad += grad.sum(axis=0)
        return (grad @ self.w.value).reshape(x_shape)
