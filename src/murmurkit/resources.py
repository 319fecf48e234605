"""Static resource analysis: parameter counts, MACC, and memory footprints.

Parameter and MACC counts follow the usual conventions for embedded NN
report tools: a layer costs the sizes of its ``LayerSpec.param_shapes`` in
parameters, and its weight size times its output positions in MACC per
sample, so pooling, activations, and dropout are free. The RAM figure is a
documented upper bound (largest input-plus-output activation pair); it does
not model the buffer fusion a vendor optimizer performs, so published RAM
rows are not reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ShapeError
from .nn.network import LayerKind, LayerSpec

DEFAULT_INPUT_SHAPE = (1, 33, 124)


@dataclass(frozen=True)
class LayerResource:
    index: int
    kind: str
    in_ch: int
    out_ch: int
    out_shape: tuple[int, int, int]
    params: int
    macc: int
    activation_elems: int


@dataclass(frozen=True)
class ResourceReport:
    input_shape: tuple[int, int, int]
    dtype_width: int
    params: int
    macc: int
    flash_bytes: int
    ram_bytes_estimate: int
    per_layer: tuple[LayerResource, ...]

    def to_tsv(self) -> str:
        lines = [
            "index\tkind\tin_ch\tout_ch\tout_c\tout_h\tout_w\tparams\tmacc\tact_elems"
        ]
        for lr in self.per_layer:
            c, h, w = lr.out_shape
            lines.append(
                f"{lr.index}\t{lr.kind}\t{lr.in_ch}\t{lr.out_ch}\t{c}\t{h}\t{w}"
                f"\t{lr.params}\t{lr.macc}\t{lr.activation_elems}"
            )
        lines.append(f"# total_params\t{self.params}")
        lines.append(f"# total_macc\t{self.macc}")
        lines.append(f"# flash_bytes\t{self.flash_bytes}\t{format_bytes_binary(self.flash_bytes)}")
        lines.append(
            f"# ram_bytes_estimate\t{self.ram_bytes_estimate}"
            f"\t{format_bytes_binary(self.ram_bytes_estimate)}"
            "\t(two-buffer upper bound; vendor buffer fusion not modeled)"
        )
        return "\n".join(lines) + "\n"


def _specs_of(net) -> list[LayerSpec]:
    if isinstance(net, (list, tuple)):
        return list(net)
    return list(net.specs)


def _layer_params(spec: LayerSpec) -> int:
    return sum(math.prod(shape) for shape in spec.param_shapes)


def analyze(
    net, input_shape: tuple[int, int, int] = DEFAULT_INPUT_SHAPE, dtype_width: int = 4
) -> ResourceReport:
    """Propagate shapes through the layer stack and total the per-layer costs."""
    if dtype_width not in (1, 4):
        raise ShapeError(f"dtype_width must be 1 or 4, got {dtype_width}")
    specs = _specs_of(net)
    c, h, w = input_shape
    per_layer: list[LayerResource] = []
    # Activation buffers at real topology transitions; elementwise layers
    # (relu, dropout, softmax) run in place and do not add a buffer.
    buffered = (
        LayerKind.CONV3X3,
        LayerKind.MAXPOOL2X2,
        LayerKind.GLOBAL_AVG_POOL,
        LayerKind.LINEAR,
    )
    activations = [c * h * w]
    for i, spec in enumerate(specs):
        if spec.kind is LayerKind.CONV3X3:
            if c != spec.in_ch:
                raise ShapeError(f"layer {i}: input has {c} channels, conv expects {spec.in_ch}")
            c = spec.out_ch
        elif spec.kind is LayerKind.MAXPOOL2X2:
            if h < 2 or w < 2:
                raise ShapeError(f"layer {i}: cannot pool {h}x{w}")
            h, w = h // 2, w // 2
        elif spec.kind is LayerKind.GLOBAL_AVG_POOL:
            h, w = 1, 1
        elif spec.kind is LayerKind.LINEAR:
            if c * h * w != spec.in_ch:
                raise ShapeError(
                    f"layer {i}: linear expects {spec.in_ch} features, got {c * h * w}"
                )
            c, h, w = spec.out_ch, 1, 1
        per_layer.append(
            LayerResource(
                index=i,
                kind=spec.kind.value,
                in_ch=spec.in_ch,
                out_ch=spec.out_ch,
                out_shape=(c, h, w),
                params=_layer_params(spec),
                macc=sum(math.prod(shape) for shape in spec.param_shapes[:1]) * h * w,
                activation_elems=c * h * w,
            )
        )
        if spec.kind in buffered:
            activations.append(c * h * w)
    params = sum(lr.params for lr in per_layer)
    macc = sum(lr.macc for lr in per_layer)
    ram = max(
        (activations[i] + activations[i + 1]) * dtype_width
        for i in range(len(activations) - 1)
    )
    return ResourceReport(
        input_shape=input_shape,
        dtype_width=dtype_width,
        params=params,
        macc=macc,
        flash_bytes=params * dtype_width,
        ram_bytes_estimate=ram,
        per_layer=tuple(per_layer),
    )


def count_params(net) -> int:
    return sum(_layer_params(s) for s in _specs_of(net))


def count_macc(net, input_shape: tuple[int, int, int] = DEFAULT_INPUT_SHAPE) -> int:
    return analyze(net, input_shape=input_shape).macc


def estimate_memory(
    net, dtype_width: int, input_shape: tuple[int, int, int] = DEFAULT_INPUT_SHAPE
) -> tuple[int, int]:
    """(flash_bytes, ram_bytes_estimate) at the given element width."""
    report = analyze(net, input_shape=input_shape, dtype_width=dtype_width)
    return report.flash_bytes, report.ram_bytes_estimate


def format_bytes_binary(n: int) -> str:
    """Render a byte count in binary units with one decimal (KiB/MiB)."""
    if n >= 1024 * 1024:
        return f"{n / (1024 * 1024):.1f} MiB"
    if n >= 1024:
        return f"{n / 1024:.1f} KiB"
    return f"{n} B"
