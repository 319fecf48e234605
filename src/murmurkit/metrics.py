"""Binary classification metrics, patient-level k-fold splits, and the
Mann-Whitney U rank-sum test."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

_EXACT_PAIR_LIMIT = 64  # exact enumeration when n_a * n_b is at most this


@dataclass(frozen=True)
class BinaryMetrics:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float


def binary_metrics(predictions, labels) -> BinaryMetrics:
    """Confusion counts and derived rates with class 1 (Present) positive.

    Zero-denominator precision/recall/F1 are reported as 0.
    """
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ShapeError(f"predictions {pred.shape} vs labels {true.shape}")
    if pred.size == 0:
        raise ShapeError("binary_metrics requires at least one sample")
    tp = int(np.sum((pred == 1) & (true == 1)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return BinaryMetrics(tp, fp, tn, fn, accuracy, precision, recall, f1)


@dataclass(frozen=True)
class FoldAssignment:
    k: int
    assignment: dict[str, int]

    def folds(self) -> list[list[str]]:
        out: list[list[str]] = [[] for _ in range(self.k)]
        for pid, f in self.assignment.items():
            out[f].append(pid)
        return out


def patient_kfold(patient_ids, k: int = 5, seed: int = 0) -> FoldAssignment:
    """Seeded shuffle then round-robin assignment; fold sizes differ by <= 1."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    ids = list(patient_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError("patient ids must be unique")
    if len(ids) < k:
        raise ConfigError(f"need at least k={k} patients, got {len(ids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    assignment = {ids[int(idx)]: rank % k for rank, idx in enumerate(order)}
    return FoldAssignment(k, assignment)


# --- Mann-Whitney U ----------------------------------------------------------


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _u_statistic(ranks_a: np.ndarray, n_a: int) -> float:
    return float(ranks_a.sum() - n_a * (n_a + 1) / 2.0)


def _exact_two_sided_p(pooled_ranks: np.ndarray, n_a: int, u_obs: float) -> float:
    """Permutation p-value over all C(n, n_a) group assignments."""
    n = len(pooled_ranks)
    mu = n_a * (n - n_a) / 2.0
    dev = abs(u_obs - mu)
    count = 0
    total = 0
    base = n_a * (n_a + 1) / 2.0
    for combo in itertools.combinations(range(n), n_a):
        u = pooled_ranks[list(combo)].sum() - base
        if abs(u - mu) >= dev - 1e-12:
            count += 1
        total += 1
    return count / total


def _normal_two_sided_p(u: float, n_a: int, n_b: int, pooled: np.ndarray) -> float:
    n = n_a + n_b
    mu = n_a * n_b / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return 1.0
    z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(var)
    p = math.erfc(z / math.sqrt(2.0))
    return min(1.0, max(p, 1e-300))


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Rank-sum U of the first sample and a two-sided p-value.

    Ties get midranks. The p-value is exact (full enumeration) when
    n_a * n_b <= 64, otherwise a normal approximation with tie-corrected
    variance and continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ConfigError("mann_whitney_u requires two nonempty samples")
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    u = _u_statistic(ranks[: len(a)], len(a))
    if len(a) * len(b) <= _EXACT_PAIR_LIMIT:
        p = _exact_two_sided_p(ranks, len(a), u)
    else:
        p = _normal_two_sided_p(u, len(a), len(b), pooled)
    return u, p
