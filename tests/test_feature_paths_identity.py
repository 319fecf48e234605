"""Byte identity of feature extraction and cross-validation against oracles.

The oracles are the straightforward formulation: every patient's recordings
are loaded and gated one by one, evaluation features are merged by location
in location-name order, and each cross-validation fold extracts the
oversampled training stacks of its training patients again from the audio.
``recording_features``, the network and the metrics are the program's own:
only how the extraction work is shared is under test. Arrays, labels and the
report text must match bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from murmurkit import metrics, pipeline
from murmurkit.dataset import MurmurLabel, Split, read_manifest
from murmurkit.nn import build_model, fit, predict_labels
from murmurkit.pipeline import PipelineConfig

# --- oracles -------------------------------------------------------------------


def oracle_eval_features(manifest, base, split, cfg, include_unknown=True):
    """[(patient_id, label, [(location, inputs, start_s, n_total)])] in manifest order."""
    out = []
    for record in manifest.records(split):
        if not include_unknown and record.murmur_label is MurmurLabel.UNKNOWN:
            continue
        per_loc = {}
        for ref in record.recordings:
            lf = pipeline.recording_features(pipeline.load_waveform(base, record, ref), cfg)
            if lf is not None:
                per_loc.setdefault(ref.location, []).append(lf)
        merged = []
        for loc in sorted(per_loc, key=lambda l: l.value):
            parts = per_loc[loc]
            merged.append(
                (
                    loc,
                    np.concatenate([p.inputs for p in parts], axis=0),
                    tuple(s for p in parts for s in p.start_s),
                    sum(p.n_total_segments for p in parts),
                )
            )
        out.append((record.patient_id, record.murmur_label, merged))
    return out


def oracle_training_features(manifest, base, cfg, include=None):
    """Known Train patients' stacks, Present ones at hop / oversample_divisor."""
    xs, ys = [], []
    for record in manifest.records(Split.TRAIN):
        if record.murmur_label is MurmurLabel.UNKNOWN:
            continue
        if include is not None and record.patient_id not in include:
            continue
        label = 1 if record.murmur_label is MurmurLabel.PRESENT else 0
        hop = cfg.hop_s / cfg.oversample_divisor if label == 1 else cfg.hop_s
        for ref in record.recordings:
            wf = pipeline.load_waveform(base, record, ref)
            lf = pipeline.recording_features(wf, cfg, hop_s=hop)
            if lf is not None and len(lf.inputs):
                xs.append(lf.inputs)
                ys.append(np.full(len(lf.inputs), label, dtype=np.int64))
    return np.concatenate(xs, axis=0), np.concatenate(ys)


def oracle_flatten(feats):
    xs, ys = [], []
    for _, label, locations in feats:
        if label is MurmurLabel.UNKNOWN:
            continue
        for _, inputs, _, _ in locations:
            if len(inputs):
                xs.append(inputs)
                ys.append(np.full(len(inputs), 1 if label is MurmurLabel.PRESENT else 0, dtype=np.int64))
    return np.concatenate(xs, axis=0), np.concatenate(ys)


def oracle_cv_run(manifest, base, cfg, k, n_fft_grid, psd_thr_grid):
    """Every fold rebuilds its held-out set and re-extracts its training set."""
    pids = [r.patient_id for r in manifest.records(Split.TRAIN) if r.murmur_label is not MurmurLabel.UNKNOWN]
    folds = metrics.patient_kfold(pids, k=k, seed=pipeline.stage_seed(cfg.seed, "data"))
    lines = cfg.header_lines("cv")
    lines.append("n_fft\tpsd_thr\tfold\tseg_accuracy\tseg_f1")
    for n_fft in n_fft_grid:
        for psd_thr in psd_thr_grid:
            point = replace(cfg, n_fft=n_fft, psd_thr=psd_thr)
            all_feats = oracle_eval_features(manifest, base, Split.TRAIN, point, include_unknown=False)
            accs, f1s = [], []
            for fold in range(k):
                held = {pid for pid, f in folds.assignment.items() if f == fold}
                rest = {pid for pid in pids if pid not in held}
                train_x, train_y = oracle_training_features(manifest, base, point, include=rest)
                val_x, val_y = oracle_flatten([pf for pf in all_feats if pf[0] in held])
                net = build_model(point.variant, seed=pipeline.stage_seed(point.seed, "init"))
                fit(net, train_x, train_y, val_x, val_y, point.train_config())
                m = metrics.binary_metrics(predict_labels(net, val_x), val_y)
                accs.append(m.accuracy)
                f1s.append(m.f1)
                lines.append(f"{n_fft}\t{psd_thr}\t{fold}\t{m.accuracy:.4f}\t{m.f1:.4f}")
            lines.append(f"{n_fft}\t{psd_thr}\tmean\t{np.mean(accs):.4f}\t{np.mean(f1s):.4f}")
            lines.append(f"{n_fft}\t{psd_thr}\tstd\t{np.std(accs):.4f}\t{np.std(f1s):.4f}")
    return "\n".join(lines) + "\n"


# --- tests ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("identity_corpus")
    return read_manifest(pipeline.synth_corpus(out, 16, seed=5)), out


@pytest.mark.parametrize("divisor", [4, 1])
def test_training_features_match_oracle(corpus, divisor):
    manifest, base = corpus
    cfg = PipelineConfig(seed=5, oversample_divisor=divisor)
    x, y = pipeline.training_features(manifest, base, cfg)
    want_x, want_y = oracle_training_features(manifest, base, cfg)
    assert x.dtype == want_x.dtype and x.shape == want_x.shape
    assert x.tobytes() == want_x.tobytes()
    assert y.dtype == want_y.dtype and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("split", [Split.TRAIN, Split.TEST])
def test_eval_features_match_oracle(corpus, split):
    manifest, base = corpus
    cfg = PipelineConfig(seed=5)
    got = pipeline.eval_features(manifest, base, split, cfg)
    want = oracle_eval_features(manifest, base, split, cfg)
    assert [(pf.patient_id, pf.label) for pf in got] == [(pid, label) for pid, label, _ in want]
    for pf, (_, _, locations) in zip(got, want):
        assert len(pf.locations) == len(locations)
        for lf, (loc, inputs, start_s, n_total) in zip(pf.locations, locations):
            assert lf.location is loc
            assert lf.inputs.dtype == inputs.dtype and lf.inputs.shape == inputs.shape
            assert lf.inputs.tobytes() == inputs.tobytes()
            assert lf.start_s == start_s
            assert lf.n_total_segments == n_total


def test_cv_report_matches_oracle(corpus):
    manifest, base = corpus
    cfg = PipelineConfig(seed=5, epochs=1)
    got = pipeline.cv_run(manifest, base, cfg, k=3, n_fft_grid=[64, 128])
    assert got == oracle_cv_run(manifest, base, cfg, 3, [64, 128], [cfg.psd_thr])
    assert len([l for l in got.splitlines() if not l.startswith("#")]) == 1 + 2 * (3 + 2)
