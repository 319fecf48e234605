"""The selective vote, vote-threshold calibration, labelled segment stacks and
the CLI's config flags against test-local oracles.

Each oracle is the straightforward formulation that spells its rule out in
full: the selective vote counts and divides by hand, calibration computes
tp/fp/fn and F1 by hand, the labelled stack is concatenated patient by
patient, and every config flag is declared one by one. Decisions,
thresholds, array bytes and parser actions and help text must match
exactly. Where an oracle divides by an empty voting set (a confident-ratio
threshold of 0 with no confident segment) the program's fallback rule
applies instead; ``test_aggregate`` covers that case.
"""

import argparse
from pathlib import Path

import numpy as np
import pytest

from murmurkit import aggregate, cli, pipeline, uq
from murmurkit.aggregate import LocationDecision, _decide
from murmurkit.dataset import DatasetManifest, Location, ManifestEntry, MurmurLabel, PatientRecord, RecordingRef, Split
from murmurkit.errors import EmptyDatasetError, EmptyLocationError
from murmurkit.nn import Variant
from murmurkit.pipeline import LocationFeatures, PatientFeatures
from murmurkit.uq import ConfidencePolicy, McdResult

# --- oracles -------------------------------------------------------------------


def oracle_vote_location_selective(results, policy, thr_hi=0.40, thr_lo=0.20, *, location=Location.OTHER, rule="share"):
    if not results:
        raise EmptyLocationError("cannot vote over zero segments")
    kept_idx = [i for i, r in enumerate(results) if r.confidence >= policy.cs_threshold]
    ratio = len(kept_idx) / len(results)
    labels = np.asarray([r.deterministic_pred for r in results], dtype=np.int64)
    if ratio >= policy.confident_ratio_threshold:
        voting, thr = labels[kept_idx], thr_hi
    else:
        voting, thr = labels, thr_lo
    n_present = int(voting.sum())
    present = _decide(n_present, voting.size, thr, rule)
    return LocationDecision(
        location=location,
        n_segments=int(voting.size),
        n_present=n_present,
        present_fraction=n_present / voting.size,
        threshold_used=thr,
        label=MurmurLabel.PRESENT if present else MurmurLabel.ABSENT,
        confident_ratio=ratio,
        kept=tuple(kept_idx),
    )


def oracle_calibrate_threshold(location_fractions, location_truths, grid=None):
    fractions = np.asarray(location_fractions, dtype=np.float64)
    truths = np.asarray(location_truths, dtype=np.int64)
    if grid is None:
        grid = np.round(np.arange(0.05, 1.0, 0.05), 2)
    grid = np.asarray(grid, dtype=np.float64)
    if truths.sum() == 0:
        return 0.40
    best_thr, best_f1 = float(grid[0]), -1.0
    for thr in sorted(float(t) for t in grid):
        pred = (fractions > thr).astype(np.int64)
        tp = int(np.sum((pred == 1) & (truths == 1)))
        fp = int(np.sum((pred == 1) & (truths == 0)))
        fn = int(np.sum((pred == 0) & (truths == 1)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        if f1 > best_f1:
            best_f1, best_thr = f1, thr
    return best_thr


def oracle_flatten_segments(feats):
    xs, ys = [], []
    for pf in feats:
        if pf.label is MurmurLabel.UNKNOWN:
            continue
        stacks = [lf.inputs for lf in pf.locations if len(lf.inputs)]
        if not stacks:
            continue
        x = np.concatenate(stacks, axis=0)
        xs.append(x)
        ys.append(np.full(len(x), 1 if pf.label is MurmurLabel.PRESENT else 0, dtype=np.int64))
    if not xs:
        raise EmptyDatasetError("no segments to evaluate")
    return np.concatenate(xs, axis=0), np.concatenate(ys)


def oracle_add_config_flags(p):
    p.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    p.add_argument("--n-fft", type=int, dest="n_fft")
    p.add_argument("--psd-thr", type=float, dest="psd_thr")
    p.add_argument("--window-s", type=float, dest="window_s")
    p.add_argument("--hop-s", type=float, dest="hop_s")
    p.add_argument("--oversample-divisor", type=int, dest="oversample_divisor")
    p.add_argument("--thr", type=float, dest="vote_thr")
    p.add_argument("--thr-fallback", type=float, dest="fallback_thr")
    p.add_argument("--cs-threshold", type=float, dest="cs_threshold")
    p.add_argument("--confident-ratio", type=float, dest="confident_ratio")
    p.add_argument("--mcd-passes", type=int, dest="mcd_passes")
    p.add_argument("--alpha", type=float, dest="alpha")
    p.add_argument("--seed", type=int, dest="seed")
    p.add_argument("--variant", choices=[v.value for v in Variant], dest="variant")
    p.add_argument("--epochs", type=int, dest="epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="lr")
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--min-keep", type=int, dest="min_keep")
    p.add_argument("--entropy-mode", choices=uq.ENTROPY_MODES, dest="entropy_mode")
    p.add_argument("--vote-rule", choices=["share", "quotient"], dest="vote_rule")


# --- selective vote --------------------------------------------------------------


def _mcd(pred: int, confidence: float) -> McdResult:
    probs = np.array([1.0 - pred, float(pred)])
    return McdResult(
        deterministic_probs=probs,
        pass_probs=np.tile(probs, (4, 1)),
        pass_preds=np.full(4, pred),
        entropy=0.0,
        coherence=1.0,
        confidence=confidence,
        n_passes=4,
    )


@pytest.mark.parametrize("rule", aggregate.VOTE_RULES)
def test_selective_vote_matches_oracle(rule):
    rng = np.random.default_rng(3)
    # Confidences and thresholds on a coarse grid, so CS == cs_threshold,
    # ratio == confident_ratio_threshold and share == thr ties all occur.
    levels = np.round(np.arange(0.0, 1.0001, 0.1), 1)
    for _ in range(3000):
        n = int(rng.integers(1, 11))
        results = [_mcd(int(rng.integers(0, 2)), float(rng.choice(levels))) for _ in range(n)]
        policy = ConfidencePolicy(
            cs_threshold=float(rng.choice(levels)),
            confident_ratio_threshold=float(rng.choice(levels[1:])),
        )
        thr_hi, thr_lo = (float(rng.choice(levels)) for _ in range(2))
        loc = Location(rng.choice([l.value for l in Location]))
        got = aggregate.vote_location_selective(results, policy, thr_hi, thr_lo, location=loc, rule=rule)
        want = oracle_vote_location_selective(results, policy, thr_hi, thr_lo, location=loc, rule=rule)
        assert got == want


# --- calibration -----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::murmurkit.errors.CalibrationWarning")
def test_calibration_matches_oracle():
    rng = np.random.default_rng(5)
    full = np.round(np.arange(0.05, 1.0, 0.05), 2)
    for i in range(1500):
        n = int(rng.integers(1, 25))
        # Fractions on multiples of 1/k land exactly on grid points for some k.
        k = int(rng.integers(1, 11))
        fractions = rng.integers(0, k + 1, size=n) / k
        truths = rng.integers(0, 2, size=n)
        if i % 3 == 0:
            grid = None
        else:
            grid = rng.permutation(full)[: int(rng.integers(1, len(full) + 1))]
        got = aggregate.calibrate_threshold(fractions, truths, grid)
        want = oracle_calibrate_threshold(fractions, truths, grid)
        assert got == want
        assert type(got) is type(want)


# --- labelled stacks -------------------------------------------------------------


def _random_feats(rng, n_patients):
    feats = []
    labels = [MurmurLabel.ABSENT, MurmurLabel.PRESENT, MurmurLabel.UNKNOWN]
    for p in range(n_patients):
        locs = []
        for loc in list(Location)[: int(rng.integers(0, 4))]:
            k = int(rng.integers(0, 4))
            inputs = rng.standard_normal((k, 1, 3, 5)).astype(np.float32) if k else np.zeros((0, 1, 1, 1), np.float32)
            locs.append(LocationFeatures(loc, inputs, tuple(float(s) for s in range(k)), k + 1))
        feats.append(PatientFeatures(f"p{p}", labels[int(rng.integers(0, 3))], locs))
    return feats


def test_flatten_segments_matches_oracle():
    rng = np.random.default_rng(6)
    compared = 0
    for _ in range(300):
        feats = _random_feats(rng, int(rng.integers(0, 6)))
        try:
            want_x, want_y = oracle_flatten_segments(feats)
        except EmptyDatasetError as exc:
            with pytest.raises(EmptyDatasetError, match=str(exc)):
                pipeline.flatten_segments(feats)
            continue
        x, y = pipeline.flatten_segments(feats)
        assert x.dtype == want_x.dtype and x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
        assert y.dtype == want_y.dtype and y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
        compared += 1
    assert compared > 100


def test_training_stack_error_names_the_train_split(tmp_path):
    record = PatientRecord("p1", MurmurLabel.ABSENT, (RecordingRef(Location.AV, "p1.wav"),))
    manifest = DatasetManifest((ManifestEntry(Split.VALIDATION, record),))
    with pytest.raises(EmptyDatasetError, match="^no usable recordings in split Train$"):
        pipeline.training_features(manifest, tmp_path, pipeline.PipelineConfig())


# --- CLI flags -------------------------------------------------------------------


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _signature(action):
    choices = tuple(action.choices) if action.choices is not None else None
    return (tuple(action.option_strings), action.dest, action.type, choices, action.default, action.help)


def test_parser_matches_oracle(monkeypatch):
    got = cli.build_parser()
    monkeypatch.setattr(cli, "_add_config_flags", oracle_add_config_flags)
    want = cli.build_parser()
    assert got.format_help() == want.format_help()
    got_subs, want_subs = _subparsers(got), _subparsers(want)
    assert list(got_subs) == list(want_subs)
    for name, sub in got_subs.items():
        assert [_signature(a) for a in sub._actions] == [_signature(a) for a in want_subs[name]._actions], name
        assert sub.format_help() == want_subs[name].format_help(), name
