"""Segment -> location -> patient decision logic.

A location votes Present when the Present share of its segments exceeds the
threshold (40% by default). With selective classification, locations whose
confident-segment ratio falls below 0.6, or that have no confident segment
at all, instead vote over all segments at the lowered 20% threshold. A
patient is Present when any location is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Location, MurmurLabel
from .errors import CalibrationWarning, ConfigError, DomainError, EmptyLocationError, EmptyPatientError
from .metrics import binary_metrics
from .uq import ConfidencePolicy, McdResult, select_confident

VOTE_THR_DEFAULT = 0.40
VOTE_THR_FALLBACK = 0.20
VOTE_RULES = ("share", "quotient")


@dataclass(frozen=True)
class LocationDecision:
    location: Location
    n_segments: int
    n_present: int
    present_fraction: float
    threshold_used: float
    label: MurmurLabel
    confident_ratio: float = 1.0
    kept: tuple[int, ...] = ()


@dataclass(frozen=True)
class PatientPrediction:
    patient_id: str
    locations: tuple[LocationDecision, ...]
    label: MurmurLabel


def _decide(n_present: int, n_total: int, thr: float, rule: str) -> bool:
    if rule == "share":
        return n_present / n_total > thr
    if rule == "quotient":
        n_absent = n_total - n_present
        if n_absent == 0:
            return n_present > 0
        return n_present / n_absent > thr
    raise ConfigError(f"vote rule must be one of {VOTE_RULES}, got {rule!r}")


def _check_binary(labels: np.ndarray) -> None:
    if not np.all(np.isin(labels, (0, 1))):
        raise DomainError("segment labels must be binary")


def vote_location(
    segment_labels,
    thr: float = VOTE_THR_DEFAULT,
    *,
    location: Location = Location.OTHER,
    rule: str = "share",
) -> LocationDecision:
    """Vote over segment labels; Present when the share strictly exceeds thr."""
    labels = np.asarray(segment_labels, dtype=np.int64)
    if labels.size == 0:
        raise EmptyLocationError("cannot vote over zero segments")
    _check_binary(labels)
    n_present = int(labels.sum())
    present = _decide(n_present, labels.size, thr, rule)
    return LocationDecision(
        location=location,
        n_segments=int(labels.size),
        n_present=n_present,
        present_fraction=n_present / labels.size,
        threshold_used=thr,
        label=MurmurLabel.PRESENT if present else MurmurLabel.ABSENT,
    )


def vote_location_selective(
    results: list[McdResult],
    policy: ConfidencePolicy,
    thr_hi: float = VOTE_THR_DEFAULT,
    thr_lo: float = VOTE_THR_FALLBACK,
    *,
    location: Location = Location.OTHER,
    rule: str = "share",
) -> LocationDecision:
    """Uncertainty-aware location vote.

    When the confident-segment ratio is at least the policy threshold and
    some segment is confident, only confident segments vote at thr_hi.
    Otherwise every segment votes at the lowered thr_lo, so a location is
    never silently dropped. ``kept`` holds the confident segments' indices,
    also when the vote fell back.
    """
    if not results:
        raise EmptyLocationError("cannot vote over zero segments")
    kept_idx, ratio = select_confident(results, policy)
    labels = np.asarray([r.deterministic_pred for r in results], dtype=np.int64)
    if kept_idx and ratio >= policy.confident_ratio_threshold:
        voting, thr = labels[kept_idx], thr_hi
    else:
        voting, thr = labels, thr_lo
    return replace(
        vote_location(voting, thr, location=location, rule=rule), confident_ratio=ratio, kept=tuple(kept_idx)
    )


def predict_patient(
    decisions: list[LocationDecision], patient_id: str = ""
) -> PatientPrediction:
    """Max rule: the patient is Present when any location is."""
    if not decisions:
        raise EmptyPatientError("cannot predict a patient with no locations")
    present = any(d.label is MurmurLabel.PRESENT for d in decisions)
    return PatientPrediction(
        patient_id=patient_id,
        locations=tuple(decisions),
        label=MurmurLabel.PRESENT if present else MurmurLabel.ABSENT,
    )


def calibrate_threshold(
    location_fractions,
    location_truths,
    grid=None,
) -> float:
    """Grid-search the vote threshold maximizing location-level F1.

    ``location_fractions`` are Present vote shares per validation location,
    ``location_truths`` the binary ground truth. Ties resolve to the smallest
    threshold (favoring sensitivity). With no positive locations a
    CalibrationWarning is emitted and the 0.40 default returned.
    """
    fractions = np.asarray(location_fractions, dtype=np.float64)
    truths = np.asarray(location_truths, dtype=np.int64)
    if fractions.shape != truths.shape:
        raise ConfigError("fractions and truths must have equal length")
    if fractions.size == 0:
        raise ConfigError("calibration requires at least one location")
    _check_binary(truths)
    grid = np.asarray(np.round(np.arange(0.05, 1.0, 0.05), 2) if grid is None else grid, dtype=np.float64)
    if np.any((grid <= 0) | (grid >= 1)):
        raise ConfigError("thresholds must lie in (0, 1)")
    if truths.sum() == 0:
        warnings.warn(
            "no Present locations in validation; keeping default threshold 0.40",
            CalibrationWarning,
        )
        return VOTE_THR_DEFAULT
    best_thr = float(grid[0])
    best_f1 = -1.0
    for thr in sorted(float(t) for t in grid):
        f1 = binary_metrics((fractions > thr).astype(np.int64), truths).f1
        if f1 > best_f1:
            best_f1 = f1
            best_thr = thr
    return best_thr
