"""Monte Carlo Dropout inference and confidence scoring.

Each segment runs alone: the layers before the first dropout once, then
one deterministic and N stochastic passes from their output. Entropy of
the mean softmax (natural log, normalized by ln 2), coherence of the
binary pass predictions (1 - 4 * population variance), and their blend
CS = alpha * (1 - E) + (1 - alpha) * C all live in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .nn.network import Network

ENTROPY_MODES = ("entropy_of_mean", "mean_of_entropies")


@dataclass(frozen=True)
class McdResult:
    """Per-segment deterministic output plus N stochastic passes and scores."""

    deterministic_probs: np.ndarray  # (2,)
    pass_probs: np.ndarray  # (N, 2)
    pass_preds: np.ndarray  # (N,), in {0, 1}
    entropy: float
    coherence: float
    confidence: float
    n_passes: int

    @property
    def deterministic_pred(self) -> int:
        return int(np.argmax(self.deterministic_probs))


@dataclass(frozen=True)
class ConfidencePolicy:
    cs_threshold: float = 0.8
    confident_ratio_threshold: float = 0.6

    def __post_init__(self) -> None:
        for name in ("cs_threshold", "confident_ratio_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")


def entropy(mean_probs) -> float:
    """Shannon entropy of a 2-class distribution, normalized to [0, 1].

    Natural log divided by ln 2; the 0 * log(0) terms contribute 0.
    """
    p = np.asarray(mean_probs, dtype=np.float64)
    nz = p[p > 0]
    h = float(-(nz * np.log(nz)).sum()) / math.log(len(p))
    return min(1.0, max(0.0, h))


def coherence(pass_preds) -> float:
    """1 - 4 * population variance of the binary prediction sequence."""
    preds = np.asarray(pass_preds)
    if preds.size < 2:
        raise ConfigError("coherence needs at least 2 passes")
    if not np.all(np.isin(preds, (0, 1))):
        raise DomainError("pass predictions must be binary")
    var = float(np.var(preds.astype(np.float64)))  # divides by N
    return min(1.0, max(0.0, 1.0 - 4.0 * var))


def confidence_score(e: float, c: float, alpha: float = 0.5) -> float:
    """CS = alpha * (1 - E) + (1 - alpha) * C."""
    for name, v in (("entropy", e), ("coherence", c), ("alpha", alpha)):
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{name} must be in [0, 1], got {v}")
    return alpha * (1.0 - e) + (1.0 - alpha) * c


def _scores(
    det_probs: np.ndarray,
    pass_probs: np.ndarray,
    alpha: float,
    entropy_mode: str,
) -> McdResult:
    pass_preds = pass_probs.argmax(axis=1)
    if entropy_mode == "entropy_of_mean":
        e = entropy(pass_probs.mean(axis=0))
    else:  # "mean_of_entropies", checked by mcd_predict_batch
        e = float(np.mean([entropy(row) for row in pass_probs]))
    c = coherence(pass_preds)
    return McdResult(
        deterministic_probs=det_probs,
        pass_probs=pass_probs,
        pass_preds=pass_preds.astype(np.int64),
        entropy=e,
        coherence=c,
        confidence=confidence_score(e, c, alpha),
        n_passes=len(pass_probs),
    )


def mcd_predict_batch(
    net: Network,
    inputs: np.ndarray,
    n: int = 10,
    seed: int = 0,
    alpha: float = 0.5,
    entropy_mode: str = "entropy_of_mean",
) -> list[McdResult]:
    """MC-Dropout over a stack of inputs (B, 1, F, T), one segment at a time.

    Each segment's stem runs once, in eval mode; its deterministic pass and
    its n stochastic passes, one n-row batch from a broadcast view of the
    stem row drawn from the segment's own spawned RNG stream, continue from
    it. No forward sees two segments, so results and memory do not depend on
    the stack. The results are byte-identical to the oracles' passes from
    the input in tests/test_mcd_identity.py.
    """
    if n < 2:
        raise ConfigError(f"MC-Dropout needs n >= 2 stochastic passes, got {n}")
    if entropy_mode not in ENTROPY_MODES:
        raise ConfigError(f"entropy_mode must be one of {ENTROPY_MODES}, got {entropy_mode!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    inputs = np.asarray(inputs, dtype=np.float32)
    out = []
    for x, child in zip(inputs, np.random.SeedSequence(seed).spawn(len(inputs))):
        # The stem output is a buffer view that the next stem call overwrites.
        start, stem = net.stem(x[None])
        det = net.forward(stem, mode="eval", start=start)
        rows = np.broadcast_to(stem, (n, *stem.shape[1:]))
        pass_probs = net.forward(rows, mode="mcd", rng=np.random.default_rng(child), start=start)
        out.append(_scores(det[0], pass_probs, alpha, entropy_mode))
    return out


def select_confident(
    results: list[McdResult], policy: ConfidencePolicy
) -> tuple[list[int], float]:
    """Indices with CS >= threshold and the kept fraction.

    Never drops a location outright: an empty keep set simply reports ratio
    0 and leaves the fallback rule downstream to handle it.
    """
    if not results:
        raise ConfigError("select_confident requires at least one result")
    kept = [i for i, r in enumerate(results) if r.confidence >= policy.cs_threshold]
    return kept, len(kept) / len(results)
