"""Network assembly for the Light/Baseline/Heavy classifier variants.

Each variant is an ordered stack of conv blocks (Conv3x3 -> ReLU ->
Dropout 0.1 -> pool) ending in a global average pool, a 2-way linear layer,
and a softmax. Float and int8 weights share one container: a directory of
one row-major blob per tensor, conv weights (out_ch, in_ch, kH, kW), and a
tab-separated manifest of ``format``, ``variant`` and ``dtype`` rows, the
``layer`` rows of the variant, and a ``tensor`` row with the shape and
CRC-32 of each blob. Loaders reject any other format, version, dtype or
row than saving the loaded network would write.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from pathlib import Path

import numpy as np

from ..errors import ConfigError, ParseError, ShapeError, StateError
from . import layers as L


class Variant(str, Enum):
    LIGHT = "light"
    BASELINE = "baseline"
    HEAVY = "heavy"


class LayerKind(str, Enum):
    CONV3X3 = "conv3x3"
    RELU = "relu"
    DROPOUT = "dropout"
    MAXPOOL2X2 = "maxpool2x2"
    GLOBAL_AVG_POOL = "global_avg_pool"
    LINEAR = "linear"
    SOFTMAX = "softmax"


@dataclass(frozen=True)
class LayerSpec:
    kind: LayerKind
    in_ch: int = 0
    out_ch: int = 0
    p: float = 0.0

    @property
    def param_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Weight and bias shapes, in parameter order; () for a layer without parameters."""
        if self.kind is LayerKind.CONV3X3:
            return (self.out_ch, self.in_ch, 3, 3), (self.out_ch,)
        if self.kind is LayerKind.LINEAR:
            return (self.out_ch, self.in_ch), (self.out_ch,)
        return ()


DROPOUT_P = 0.1

# Conv plan per variant: (in_ch, out_ch, pool) where pool is "max", "gap", or None.
_CONV_PLANS: dict[Variant, list[tuple[int, int, str | None]]] = {
    Variant.LIGHT: [(1, 16, "max"), (16, 32, "max"), (32, 64, "gap")],
    Variant.BASELINE: [(1, 32, "max"), (32, 64, "max"), (64, 128, "max"), (128, 256, "gap")],
    Variant.HEAVY: [
        (1, 64, None),
        (64, 64, "max"),
        (64, 128, None),
        (128, 128, "max"),
        (128, 256, None),
        (256, 256, "max"),
        (256, 512, "gap"),
    ],
}


def variant_specs(variant: Variant) -> list[LayerSpec]:
    specs: list[LayerSpec] = []
    plan = _CONV_PLANS[variant]
    for in_ch, out_ch, pool in plan:
        specs.append(LayerSpec(LayerKind.CONV3X3, in_ch=in_ch, out_ch=out_ch))
        specs.append(LayerSpec(LayerKind.RELU))
        specs.append(LayerSpec(LayerKind.DROPOUT, p=DROPOUT_P))
        if pool == "max":
            specs.append(LayerSpec(LayerKind.MAXPOOL2X2))
        elif pool == "gap":
            specs.append(LayerSpec(LayerKind.GLOBAL_AVG_POOL))
    head_in = plan[-1][1]
    specs.append(LayerSpec(LayerKind.LINEAR, in_ch=head_in, out_ch=2))
    specs.append(LayerSpec(LayerKind.SOFTMAX))
    return specs


# One layer object per spec; softmax has none (``Network._run`` applies it).
_LAYERS = {
    LayerKind.CONV3X3: lambda s, rng, dtype: L.Conv3x3(s.in_ch, s.out_ch, rng=rng, dtype=dtype),
    LayerKind.RELU: lambda s, rng, dtype: L.ReLU(),
    LayerKind.DROPOUT: lambda s, rng, dtype: L.Dropout(s.p),
    LayerKind.MAXPOOL2X2: lambda s, rng, dtype: L.MaxPool2x2(),
    LayerKind.GLOBAL_AVG_POOL: lambda s, rng, dtype: L.GlobalAvgPool(),
    LayerKind.LINEAR: lambda s, rng, dtype: L.Linear(s.in_ch, s.out_ch, rng=rng, dtype=dtype),
    LayerKind.SOFTMAX: lambda s, rng, dtype: None,
}
_BLOCK = [LayerKind.CONV3X3, LayerKind.RELU, LayerKind.DROPOUT]


class Network:
    """One of the paper's three variants, the layer stack of
    ``variant_specs(variant)``, with explicit train/eval/mcd forward modes.
    Weights are He-uniform draws from ``rng``, or zeros when it is None.

    Eval and MC passes run ``layers``, one per spec. A train pass runs
    ``_steps``: each Conv3x3 -> ReLU -> Dropout [-> MaxPool2x2] run of specs
    as one ``ConvBlock``, a sample at a time, with the per-layer chain's
    outputs and parameter gradients, and every other layer as itself. All
    convs share one scratch for what lives only inside one call."""

    def __init__(self, variant: Variant, rng: np.random.Generator | None, dtype=np.float32):
        self.variant = variant
        self.specs = variant_specs(variant)
        self.dtype = dtype
        self.layers: list = []
        self._steps: list = []
        scratch = L._Scratch()
        kinds = [s.kind for s in self.specs]
        while len(self.layers) < len(kinds):
            i, size = len(self.layers), 1
            if kinds[i : i + 3] == _BLOCK:
                size = 4 if kinds[i + 3 : i + 4] == [LayerKind.MAXPOOL2X2] else 3
            run = [_LAYERS[s.kind](s, rng, dtype) for s in self.specs[i : i + size]]
            if kinds[i] is LayerKind.CONV3X3:
                run[0]._scratch = scratch
            self.layers += run
            self._steps.append(L.ConvBlock(*run) if size > 1 else run[0])
        self.stem_end = kinds.index(LayerKind.DROPOUT)
        self._probs: np.ndarray | None = None  # a train pass's output, kept for its backward

    # -- parameters ----------------------------------------------------

    def parameters(self) -> list[L.Param]:
        out = []
        for i, layer in enumerate(self.layers):
            if layer is None:
                continue
            for p in layer.params():
                p.name = f"layer{i}.{p.name.split('.')[-1]}"
                out.append(p)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad[...] = 0

    def get_weights(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, values: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(values) != len(params):
            raise ShapeError(f"expected {len(params)} tensors, got {len(values)}")
        for p, v in zip(params, values):
            if p.value.shape != v.shape:
                raise ShapeError(f"{p.name}: shape {v.shape} != {p.value.shape}")
            p.value[...] = v

    # -- forward / backward ---------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        mode: str = "eval",
        rng: np.random.Generator | None = None,
        *,
        start: int = 0,
    ) -> np.ndarray:
        """Run the stack; returns class probabilities of shape (N, 2).

        ``mode`` is "eval" (deterministic), "train" (dropout active, caches
        kept for backward), or "mcd" (dropout active, no caches); the last
        two require an ``rng``. A non-train pass may resume at layer
        ``start`` from the output of the layers before it (``stem``); that
        input is used as given, so a broadcast view of one row stays a view.
        """
        if mode not in ("train", "eval", "mcd"):
            raise ConfigError(f"unknown forward mode {mode!r}")
        train = mode == "train"
        if train and start:
            raise ConfigError("a train-mode pass starts at the first layer")
        dropout_active = mode in ("train", "mcd")
        if dropout_active and rng is None:
            raise ConfigError(f"mode {mode!r} requires an rng for dropout")
        h = self._run(x, start, len(self.layers), train, dropout_active, rng)
        # A non-train forward overwrites layer workspaces, so any previously
        # cached train pass can no longer back its backward.
        self._probs = h if train else None
        return h

    def stem(self, x: np.ndarray) -> tuple[int, np.ndarray]:
        """Eval output of the layers before ``stem_end``, the first dropout's
        index found when the network is built, and that index: where
        ``forward(..., start=...)`` resumes.

        The stem is deterministic in every mode, so MC dropout runs it once
        per segment. The output is a workspace view that the next pass
        through the stem overwrites.
        """
        h = self._run(x, 0, self.stem_end, False, False, None)
        self._probs = None
        return self.stem_end, h

    def _run(self, x, lo: int, hi: int, train: bool, dropout_active: bool, rng) -> np.ndarray:
        if lo:
            h = np.asarray(x, dtype=self.dtype)
        else:
            if x.ndim != 4:
                raise ShapeError(f"expected (N, C, H, W) input, got shape {x.shape}")
            h = np.ascontiguousarray(x, dtype=self.dtype)
        for layer in self._steps if train else self.layers[lo:hi]:
            if layer is None:
                # softmax computes in float64 for stability; keep the
                # network dtype so backward does not silently promote
                h = L.softmax(h).astype(self.dtype)
            elif isinstance(layer, L.Dropout):
                h = layer.forward(h, train, active=dropout_active, rng=rng)
            elif isinstance(layer, L.ConvBlock):
                h = layer.forward(h, rng)
            else:
                h = layer.forward(h, train)
        return h

    def backward(self, labels: np.ndarray) -> None:
        """Backpropagate mean cross-entropy, adding into each parameter's ``grad``.

        The softmax + cross-entropy pair is fused: the gradient entering the
        final linear layer is (probs - onehot) / N. The steps run in reverse
        are the train pass's: one ``ConvBlock`` per conv, then the global
        pool and the linear layer. A block's input gradient can differ from
        the per-layer chain's only in the sign of zeros, which no parameter
        gradient sees. Nothing consumes the gradient of the network input,
        so the first step, always the first conv or its block, computes
        only that conv's parameter gradients.
        """
        if self._probs is None:
            raise StateError("backward requires a forward pass in train mode")
        labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
        probs = self._probs
        if labels.shape[0] != probs.shape[0]:
            raise ShapeError("labels batch size mismatch")
        n, k = probs.shape
        onehot = np.zeros((n, k), dtype=probs.dtype)
        onehot[np.arange(n), labels] = 1
        grad = (probs - onehot) / n
        first, *rest = self._steps
        for step in reversed(rest):
            if step is not None:
                grad = step.backward(grad)
        first.backward(grad, input_grad=False)
        self._probs = None


def build_model(variant: Variant | str, seed: int, dtype=np.float32) -> Network:
    """Instantiate a variant with He-uniform weights and zero biases."""
    variant = Variant(variant)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return Network(variant, rng=rng, dtype=dtype)


# --- weights files ----------------------------------------------------------

_FORMAT_VERSION = 1

# A manifest row: a text line, or a tensor as (name, values, extra columns).
Row = str | tuple[str, np.ndarray, list[str]]


def layer_rows(specs: list[LayerSpec]) -> list[str]:
    return [
        f"layer\t{i}\t{s.kind.value}\t{s.in_ch}\t{s.out_ch}\t{s.p}" for i, s in enumerate(specs)
    ]


@contextmanager
def malformed_rows(weights_dir: str | Path):
    """Turn a bad row (missing column, bad number or enum, missing blob) into a ParseError."""
    try:
        yield
    except (IndexError, KeyError, ValueError, OSError) as exc:
        raise ParseError(f"{weights_dir}: malformed weights manifest: {exc}") from None


def write_weights(
    out_dir: str | Path, fmt: str, variant: Variant, dtype: str, rows: list[Row]
) -> None:
    """Write the format, variant and dtype rows, then ``rows`` in order; each
    tensor goes to ``<name>.bin`` as ``dtype`` and gets the row
    ``tensor, name, shape, *extra, file name, crc32``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        f"format\t{fmt}\t{_FORMAT_VERSION}",
        f"variant\t{variant.value}",
        f"dtype\t{np.dtype(dtype).name}",
    ]
    for row in rows:
        if isinstance(row, str):
            lines.append(row)
            continue
        name, values, extra = row
        blob = np.ascontiguousarray(values, dtype=dtype).tobytes()
        (out / f"{name}.bin").write_bytes(blob)
        shape = ",".join(str(d) for d in values.shape)
        crc = f"{zlib.crc32(blob):08x}"
        lines.append("\t".join(["tensor", name, shape, *extra, f"{name}.bin", crc]))
    (out / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_weights(weights_dir: str | Path, fmt: str, dtype: str) -> tuple[Variant, list[Row]]:
    """Read a ``write_weights`` directory back: its variant and its rows,
    with every blob checked against its CRC-32."""
    base = Path(weights_dir)
    if not (base / "manifest").exists():
        raise ParseError(f"{weights_dir}: missing weights manifest")
    with malformed_rows(weights_dir):
        lines = (base / "manifest").read_text(encoding="utf-8").splitlines()
        if lines[:1] != [f"format\t{fmt}\t{_FORMAT_VERSION}"]:
            raise ParseError(f"{weights_dir}: not a {fmt} version {_FORMAT_VERSION} manifest")
        if not lines[1].startswith("variant\t") or lines[2] != f"dtype\t{np.dtype(dtype).name}":
            raise ValueError(f"rows 2-3 must give the variant and dtype {np.dtype(dtype).name}")
        variant = Variant(lines[1].split("\t")[1])
        rows: list[Row] = []
        for line in lines[3:]:
            if not line.startswith("tensor\t"):
                rows.append(line)
                continue
            _, name, shape, *extra, fname, crc = line.split("\t")
            if fname != f"{name}.bin":
                raise ValueError(f"tensor {name!r} names blob {fname!r}")
            blob = (base / fname).read_bytes()
            if zlib.crc32(blob) != int(crc, 16):
                raise ParseError(f"{weights_dir}/{fname}: checksum mismatch")
            dims = [int(d) for d in shape.split(",")]
            rows.append((name, np.frombuffer(blob, dtype=dtype).reshape(dims), extra))
    return variant, rows


def check_rows(weights_dir: str | Path, rows: list[Row], expected: list[Row]) -> None:
    """Reject read rows that differ from what writing the loaded network
    would give, tensor values aside."""
    def outline(row: Row):
        return row if isinstance(row, str) else (row[0], row[1].shape, row[2])

    for got, want in zip_longest(map(outline, rows), map(outline, expected)):
        if got != want:
            raise ParseError(f"{weights_dir}: manifest has {got!r} where {want!r} belongs")


_WEIGHTS_FORMAT = "murmurkit-weights"


def _rows(net: Network) -> list[Row]:
    return [*layer_rows(net.specs), *((p.name, p.value, []) for p in net.parameters())]


def save_network(net: Network, out_dir: str | Path) -> None:
    write_weights(out_dir, _WEIGHTS_FORMAT, net.variant, "<f4", _rows(net))


def load_network(weights_dir: str | Path) -> Network:
    variant, rows = read_weights(weights_dir, _WEIGHTS_FORMAT, "<f4")
    net = Network(variant, rng=None)
    check_rows(weights_dir, rows, _rows(net))
    tensors = [row for row in rows if not isinstance(row, str)]
    for name, values, _ in tensors:
        if not np.isfinite(values).all():
            raise ParseError(f"{weights_dir}: tensor {name} holds non-finite values")
    net.set_weights([values for _, values, _ in tensors])
    return net
