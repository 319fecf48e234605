"""Minimal neural-network engine: layers, variant builders, and training."""

from .layers import Param, cross_entropy, global_avg_pool, softmax
from .network import (
    LayerKind,
    LayerSpec,
    Network,
    Variant,
    build_model,
    load_network,
    save_network,
    variant_specs,
)
from .train import AdamW, History, TrainConfig, adamw_step, fit, predict_labels

__all__ = [
    "AdamW",
    "History",
    "LayerKind",
    "LayerSpec",
    "Network",
    "Param",
    "TrainConfig",
    "Variant",
    "adamw_step",
    "build_model",
    "cross_entropy",
    "fit",
    "global_avg_pool",
    "load_network",
    "predict_labels",
    "save_network",
    "softmax",
    "variant_specs",
]
