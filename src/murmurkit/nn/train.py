"""Training loop: cross-entropy, AdamW, and best-validation-F1 checkpointing."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, EmptyDatasetError, NumericError
from ..metrics import binary_metrics
from . import layers as L
from .network import Network

_BETAS = (0.9, 0.999)
_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 20
    batch_size: int = 32
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(abs(v) <= sys.float_info.max for v in (self.lr, self.weight_decay)):  # nan, inf, too large
            raise ConfigError(f"lr and weight_decay must be finite, got {self.lr} and {self.weight_decay}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


def adamw_step(
    param: np.ndarray,
    grad: np.ndarray,
    state: dict,
    *,
    lr: float,
    weight_decay: float = 0.01,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    ``state`` holds "m", "v" (zeros before the first step) and "t". The decay
    term is applied directly to the parameter, not through the gradient.
    """
    b1, b2 = _BETAS
    if not state:
        state["m"] = np.zeros_like(param)
        state["v"] = np.zeros_like(param)
        state["t"] = 0
    state["t"] += 1
    t = state["t"]
    m, v = state["m"], state["v"]
    m *= b1
    m += (1 - b1) * grad
    v *= b2
    v += (1 - b2) * grad * grad
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    # both the Adam term and the decay term read the pre-update parameter
    update = lr * (m_hat / (np.sqrt(v_hat) + _EPS))
    if weight_decay:
        update += lr * weight_decay * param
    param -= update


class AdamW:
    def __init__(self, params: list[L.Param], config: TrainConfig):
        self.params = params
        self.config = config
        self.state: list[dict] = [{} for _ in params]

    def step(self) -> None:
        for p, st in zip(self.params, self.state):
            adamw_step(p.value, p.grad, st, lr=self.config.lr, weight_decay=self.config.weight_decay)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_f1: float
    val_accuracy: float


@dataclass
class History:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    notes: dict = field(default_factory=dict)

    def to_tsv(self) -> str:
        lines = ["epoch\ttrain_loss\tval_f1\tval_accuracy"]
        for e in self.epochs:
            lines.append(f"{e.epoch}\t{e.train_loss:.6f}\t{e.val_f1:.6f}\t{e.val_accuracy:.6f}")
        lines.append(f"# best_epoch\t{self.best_epoch}")
        return "\n".join(lines) + "\n"


def predict_labels(net: Network, x: np.ndarray) -> np.ndarray:
    """Deterministic eval-mode class predictions for a stack of inputs, run
    one input at a time like the int8 twin: memory does not grow with the
    stack, and a row's label does not depend on the rows around it, which
    a batched linear head rounds differently with the batch size."""
    labels = [net.forward(xi[None], mode="eval")[0].argmax() for xi in x]
    return np.array(labels, dtype=np.int64)


def fit(
    net: Network,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: TrainConfig,
) -> History:
    """Train for the configured epochs and restore the best-validation-F1 weights.

    Present-class oversampling is expected to have been applied upstream by
    segmenting positive recordings with a quartered hop; no loss re-weighting
    happens here. Ties in the best-F1 selection resolve to the earlier epoch.
    A non-finite epoch loss raises NumericError before any checkpoint, so
    diverged weights are never returned as trained.
    """
    if len(train_x) == 0:
        raise EmptyDatasetError("training set is empty")
    if len(val_x) == 0:
        raise EmptyDatasetError("validation set is empty")
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)

    ss = np.random.SeedSequence(config.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    opt = AdamW(net.parameters(), config)

    history = History(
        notes={
            "optimizer": "adamw",
            "lr": config.lr,
            "betas": _BETAS,
            "eps": _EPS,
            "weight_decay": config.weight_decay,
            "batch_size": config.batch_size,
            "init": "he_uniform, zero bias",
            "defaults_not_specified_upstream": "batch_size, betas, eps, weight_decay, init",
        }
    )
    best_f1 = -1.0  # below every F1, so epoch 1 always sets best_weights
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_x))
        total_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            idx = order[lo : lo + config.batch_size]
            net.zero_grad()
            probs = net.forward(train_x[idx], mode="train", rng=dropout_rng)
            loss = L.cross_entropy(probs, train_y[idx])
            net.backward(train_y[idx])
            opt.step()
            total_loss += loss * len(idx)
        train_loss = total_loss / len(order)
        if not np.isfinite(train_loss):
            raise NumericError(f"epoch {epoch}: training loss is {train_loss}; the weights diverged")

        val_pred = predict_labels(net, val_x)
        m = binary_metrics(val_pred, val_y)
        history.epochs.append(EpochStats(epoch, train_loss, m.f1, m.accuracy))
        if m.f1 > best_f1:
            best_f1 = m.f1
            best_weights = net.get_weights()
            history.best_epoch = epoch

    net.set_weights(best_weights)
    return history
