"""Location votes, the patient max rule, and threshold calibration."""

import numpy as np
import pytest

from murmurkit.aggregate import (
    LocationDecision,
    calibrate_threshold,
    predict_patient,
    vote_location,
    vote_location_selective,
)
from murmurkit.dataset import Location, MurmurLabel
from murmurkit.errors import (
    CalibrationWarning,
    DomainError,
    EmptyLocationError,
    EmptyPatientError,
)
from murmurkit.uq import ConfidencePolicy, McdResult, select_confident


def _mcd(pred: int, confidence: float) -> McdResult:
    probs = np.array([1.0 - pred, float(pred)])
    return McdResult(
        deterministic_probs=probs,
        pass_probs=np.tile(probs, (10, 1)),
        pass_preds=np.full(10, pred),
        entropy=0.0,
        coherence=1.0,
        confidence=confidence,
        n_passes=10,
    )


class TestVoteLocation:
    def test_three_of_ten_at_forty(self):
        d = vote_location([1] * 3 + [0] * 7, thr=0.40)
        assert d.label is MurmurLabel.ABSENT
        assert d.present_fraction == pytest.approx(0.3)

    def test_three_of_ten_at_twenty(self):
        d = vote_location([1] * 3 + [0] * 7, thr=0.20)
        assert d.label is MurmurLabel.PRESENT

    def test_unanimous_present(self):
        for thr in (0.1, 0.4, 0.99):
            assert vote_location([1] * 10, thr=thr).label is MurmurLabel.PRESENT

    def test_strict_inequality_at_boundary(self):
        assert vote_location([1, 0, 0, 0, 0], thr=0.20).label is MurmurLabel.ABSENT

    def test_empty_rejected(self):
        with pytest.raises(EmptyLocationError):
            vote_location([])

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError):
            vote_location([0, 2])

    def test_quotient_rule(self):
        # 3 present vs 7 absent: quotient 3/7 > 0.4 -> Present under quotient rule.
        d = vote_location([1] * 3 + [0] * 7, thr=0.40, rule="quotient")
        assert d.label is MurmurLabel.PRESENT
        d = vote_location([1] * 3 + [0] * 7, thr=0.45, rule="quotient")
        assert d.label is MurmurLabel.ABSENT

    def test_brute_force_share_rule(self):
        # Exhaustive check of the fraction rule on all vectors up to length 12.
        for n in range(1, 13):
            for bits in range(2**n):
                labels = [(bits >> i) & 1 for i in range(n)]
                for thr in (0.2, 0.4, 0.5):
                    d = vote_location(labels, thr=thr)
                    expected = sum(labels) / n > thr
                    assert (d.label is MurmurLabel.PRESENT) == expected


class TestVoteLocationSelective:
    def test_all_confident_uses_high_threshold(self):
        results = [_mcd(1, 0.9)] * 5 + [_mcd(0, 0.9)] * 5
        d = vote_location_selective(results, ConfidencePolicy())
        assert d.threshold_used == 0.40
        assert d.confident_ratio == 1.0
        assert d.label is MurmurLabel.PRESENT  # 0.5 > 0.4

    def test_low_ratio_falls_back(self):
        # 4 confident of 10 (ratio 0.4 < 0.6): all 10 vote at thr 0.20.
        results = [_mcd(1, 0.9)] * 3 + [_mcd(0, 0.9)] + [_mcd(0, 0.5)] * 6
        d = vote_location_selective(results, ConfidencePolicy())
        assert d.threshold_used == 0.20
        assert d.n_segments == 10
        assert d.label is MurmurLabel.PRESENT  # 3/10 > 0.2

    def test_zero_confident_keeps_location(self):
        results = [_mcd(1, 0.1)] + [_mcd(0, 0.1)] * 9
        d = vote_location_selective(results, ConfidencePolicy())
        assert d.threshold_used == 0.20
        assert d.confident_ratio == 0.0
        assert d.label is MurmurLabel.ABSENT  # 0.1 <= 0.2

    def test_zero_ratio_threshold_falls_back_without_confident_segments(self):
        # A ratio threshold of 0 admits ratio 0, but an empty confident set
        # cannot vote: all segments vote at the fallback threshold instead.
        results = [_mcd(1, 0.1), _mcd(0, 0.2), _mcd(0, 0.3)]
        d = vote_location_selective(results, ConfidencePolicy(confident_ratio_threshold=0.0))
        assert d.threshold_used == 0.20
        assert d.confident_ratio == 0.0
        assert (d.n_segments, d.n_present) == (3, 1)
        assert d.label is MurmurLabel.PRESENT  # 1/3 > 0.2

    @pytest.mark.parametrize(
        "confidences, fell_back",
        [
            ([0.9, 0.1, 0.95, 0.8, 0.85], False),
            ([0.9, 0.1, 0.5, 0.2, 0.85], True),
            ([0.1, 0.2, 0.3], True),
        ],
        ids=["confident", "fallback", "none-confident"],
    )
    def test_kept_equals_select_confident_indices(self, confidences, fell_back):
        results = [_mcd(i % 2, c) for i, c in enumerate(confidences)]
        policy = ConfidencePolicy()
        d = vote_location_selective(results, policy)
        assert (d.threshold_used == 0.20) is fell_back
        assert d.kept == tuple(select_confident(results, policy)[0])
        assert d.kept == tuple(i for i, c in enumerate(confidences) if c >= policy.cs_threshold)

    def test_policy_threshold_zero_equals_plain_vote(self):
        rng = np.random.default_rng(0)
        policy = ConfidencePolicy(cs_threshold=0.0)
        for _ in range(50):
            preds = rng.integers(0, 2, size=rng.integers(1, 9))
            results = [_mcd(int(p), float(rng.random())) for p in preds]
            a = vote_location_selective(results, policy)
            b = vote_location(preds, thr=0.40)
            assert a.label is b.label
            assert a.threshold_used == 0.40

    def test_exactly_one_threshold_recorded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            results = [
                _mcd(int(rng.integers(0, 2)), float(rng.random())) for _ in range(n)
            ]
            d = vote_location_selective(results, ConfidencePolicy())
            kept = sum(1 for r in results if r.confidence >= 0.8)
            expected_thr = 0.40 if kept / n >= 0.6 else 0.20
            assert d.threshold_used == expected_thr

    def test_brute_force_against_rule_oracle(self):
        # Enumerate all label vectors and confident masks up to length 8 and
        # compare with a direct transcription of the selective-vote rule.
        policy = ConfidencePolicy()
        for n in range(1, 9):
            for label_bits in range(2**n):
                labels = [(label_bits >> i) & 1 for i in range(n)]
                for mask_bits in range(2**n):
                    mask = [(mask_bits >> i) & 1 for i in range(n)]
                    results = [
                        _mcd(l, 0.9 if m else 0.1) for l, m in zip(labels, mask)
                    ]
                    d = vote_location_selective(results, policy)
                    ratio = sum(mask) / n
                    if ratio >= 0.6:
                        voters = [l for l, m in zip(labels, mask) if m]
                        expected = sum(voters) / len(voters) > 0.40
                        assert d.threshold_used == 0.40
                    else:
                        expected = sum(labels) / n > 0.20
                        assert d.threshold_used == 0.20
                    assert (d.label is MurmurLabel.PRESENT) == expected


def _decision(label: MurmurLabel, loc=Location.AV) -> LocationDecision:
    return LocationDecision(
        location=loc,
        n_segments=4,
        n_present=2 if label is MurmurLabel.PRESENT else 0,
        present_fraction=0.5 if label is MurmurLabel.PRESENT else 0.0,
        threshold_used=0.40,
        label=label,
    )


class TestPredictPatient:
    def test_any_present_wins(self):
        decisions = [
            _decision(MurmurLabel.ABSENT),
            _decision(MurmurLabel.ABSENT),
            _decision(MurmurLabel.PRESENT),
            _decision(MurmurLabel.ABSENT),
        ]
        assert predict_patient(decisions, "p").label is MurmurLabel.PRESENT

    def test_all_absent(self):
        assert predict_patient([_decision(MurmurLabel.ABSENT)] * 3).label is MurmurLabel.ABSENT

    def test_single_present(self):
        assert predict_patient([_decision(MurmurLabel.PRESENT)]).label is MurmurLabel.PRESENT

    def test_empty_rejected(self):
        with pytest.raises(EmptyPatientError):
            predict_patient([])

    def test_monotone_in_location_flips(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            labels = [MurmurLabel.PRESENT if rng.random() < 0.5 else MurmurLabel.ABSENT for _ in range(n)]
            base = predict_patient([_decision(l) for l in labels]).label
            i = int(rng.integers(0, n))
            flipped = list(labels)
            flipped[i] = MurmurLabel.PRESENT
            up = predict_patient([_decision(l) for l in flipped]).label
            if base is MurmurLabel.PRESENT:
                assert up is MurmurLabel.PRESENT


class TestCalibrateThreshold:
    def test_separable_fractions_smallest_winning_grid_point(self):
        fractions = [0.7, 0.65, 0.8, 0.1, 0.15, 0.2]
        truths = [1, 1, 1, 0, 0, 0]
        thr = calibrate_threshold(fractions, truths)
        # The vote is strict (fraction > thr), so every grid point in
        # [0.2, 0.65) yields F1 = 1; ties resolve to the smallest.
        assert 0.2 <= thr < 0.65
        assert thr == 0.20

    def test_perfect_at_default(self):
        fractions = [0.9, 0.8, 0.1, 0.0]
        truths = [1, 1, 0, 0]
        thr = calibrate_threshold(fractions, truths)
        pred = [1 if f > thr else 0 for f in fractions]
        assert pred == truths

    def test_degenerate_single_location(self):
        thr = calibrate_threshold([0.5], [1])
        assert 0.0 < thr < 1.0

    def test_no_positives_warns_and_defaults(self):
        with pytest.warns(CalibrationWarning):
            thr = calibrate_threshold([0.1, 0.2], [0, 0])
        assert thr == 0.40

    def test_exhaustive_grid_oracle(self):
        rng = np.random.default_rng(3)
        grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            fractions = rng.random(n)
            truths = rng.integers(0, 2, size=n)
            if truths.sum() == 0:
                truths[0] = 1
            thr = calibrate_threshold(fractions, truths, grid)

            def f1_at(t):
                pred = (fractions > t).astype(int)
                tp = int(((pred == 1) & (truths == 1)).sum())
                fp = int(((pred == 1) & (truths == 0)).sum())
                fn = int(((pred == 0) & (truths == 1)).sum())
                prec = tp / (tp + fp) if tp + fp else 0.0
                rec = tp / (tp + fn) if tp + fn else 0.0
                return 2 * prec * rec / (prec + rec) if prec + rec else 0.0

            best = max(f1_at(t) for t in grid)
            assert f1_at(thr) == best
            winners = [t for t in grid if f1_at(t) == best]
            assert thr == min(winners)
