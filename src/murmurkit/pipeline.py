"""End-to-end pipeline orchestration shared by the CLI commands.

Covers synthetic corpus generation, feature extraction with the PSD gate and
Present-class oversampling, training with best-F1 checkpointing, plain and
selective inference, patient-level cross-validation, quantization, and the
UQ report. Every stage derives its RNG stream deterministically from the
run seed, so identical configs reproduce identical outputs byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import aggregate, dsp, metrics, quant, resources, uq
from .dataset import (
    PIPELINE_RATE_HZ,
    DatasetManifest,
    Location,
    ManifestEntry,
    MurmurLabel,
    PatientRecord,
    RecordingRef,
    Split,
    Waveform,
    load_recording,
    read_manifest,
    resample,
    synth_recording,
    write_manifest,
    write_recording,
)
from .errors import ConfigError, EmptyDatasetError
from .nn import Network, TrainConfig, Variant, build_model, fit, predict_labels, save_network

_STAGE_IDS = {"data": 0, "init": 1, "train": 2, "mcd": 3}


@dataclass
class PipelineConfig:
    """Resolved run configuration; defaults follow the published pipeline."""

    n_fft: int = 128
    psd_thr: float = 0.45
    window_s: float = 2.0
    hop_s: float = 1.0
    oversample_divisor: int = 4
    vote_thr: float = 0.40
    fallback_thr: float = 0.20
    cs_threshold: float = 0.8
    confident_ratio: float = 0.6
    mcd_passes: int = 10
    alpha: float = 0.5
    seed: int = 0
    variant: str = "light"
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.01
    min_keep: int = 5
    entropy_mode: str = "entropy_of_mean"
    vote_rule: str = "share"

    def __post_init__(self) -> None:
        for f in fields(self):  # types first, on every route into a config
            want, value = type(f.default), getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
                raise ConfigError(f"config key {f.name!r} must be {want.__name__}, got {value!r}")
            if want is float and not abs(value) <= sys.float_info.max:  # nan, inf or an int too large for a float
                raise ConfigError(f"config key {f.name!r} must be finite, got {value!r}")
            setattr(self, f.name, want(value))  # an int given for a float field echoes as a float
        if self.n_fft not in dsp.VALID_N_FFT:
            raise ConfigError(f"n_fft must be one of {dsp.VALID_N_FFT}, got {self.n_fft}")
        for name in ("psd_thr", "vote_thr", "fallback_thr", "cs_threshold", "confident_ratio", "alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.window_s <= 0 or self.hop_s <= 0:
            raise ConfigError("window_s and hop_s must be positive")
        if self.oversample_divisor < 1 or self.min_keep < 0 or self.seed < 0:
            raise ConfigError("oversample_divisor must be >= 1, and min_keep and seed >= 0")
        if self.mcd_passes < 2:
            raise ConfigError("mcd_passes must be >= 2")
        TrainConfig(self.lr, self.epochs, self.batch_size, self.weight_decay)  # checks the training fields
        try:
            Variant(self.variant)
        except ValueError:
            raise ConfigError(f"unknown variant {self.variant!r}") from None
        if self.entropy_mode not in uq.ENTROPY_MODES:
            raise ConfigError(f"entropy_mode must be one of {uq.ENTROPY_MODES}")
        if self.vote_rule not in aggregate.VOTE_RULES:
            raise ConfigError(f"vote_rule must be one of {aggregate.VOTE_RULES}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid config JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def header_lines(self, command: str) -> list[str]:
        return [f"# murmurkit {command}", f"# config\t{self.to_json()}"]

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            lr=self.lr,
            epochs=self.epochs,
            batch_size=self.batch_size,
            weight_decay=self.weight_decay,
            seed=stage_seed(self.seed, "train"),
        )

    def policy(self) -> uq.ConfidencePolicy:
        return uq.ConfidencePolicy(cs_threshold=self.cs_threshold, confident_ratio_threshold=self.confident_ratio)


def stage_seed(seed: int, stage: str) -> int:
    """Deterministic per-stage seed so stages can be re-run independently."""
    ss = np.random.SeedSequence((seed, _STAGE_IDS[stage]))
    return int(ss.generate_state(1)[0])


def segment_stream_seed(seed: int, patient_id: str, location: Location) -> int:
    tag = zlib.crc32(f"{patient_id}:{location.value}".encode())
    return int(np.random.SeedSequence((stage_seed(seed, "mcd"), tag)).generate_state(1)[0])


def worker_count() -> int:
    env = os.environ.get("MURMUR_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ConfigError(f"MURMUR_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ConfigError("MURMUR_THREADS must be >= 1")
        return n
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def _parallel_map(fn, items):
    items = list(items)
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# --- synthetic corpus --------------------------------------------------------

_LABEL_PATTERN = (
    MurmurLabel.ABSENT,
    MurmurLabel.PRESENT,
    MurmurLabel.ABSENT,
    MurmurLabel.ABSENT,
    MurmurLabel.PRESENT,
    MurmurLabel.ABSENT,
    MurmurLabel.UNKNOWN,
    MurmurLabel.ABSENT,
    MurmurLabel.PRESENT,
    MurmurLabel.ABSENT,
)
_SPLIT_PATTERN = (
    Split.TRAIN,
    Split.VALIDATION,
    Split.TRAIN,
    Split.TEST,
    Split.TRAIN,
    Split.VALIDATION,
    Split.TRAIN,
    Split.TRAIN,
    Split.VALIDATION,
    Split.TRAIN,
)
_SYNTH_LOCATIONS = (Location.AV, Location.PV, Location.TV, Location.MV)
_UNKNOWN_EXTRA_NOISE = 0.5


def synth_corpus(
    out_dir: str | Path,
    n_patients: int,
    seed: int,
    recordings_per_patient: int = 2,
    duration_range_s: tuple[float, float] = (6.0, 9.0),
) -> Path:
    """Write a deterministic synthetic corpus: WAVs plus manifest.tsv.

    Labels follow a fixed 6:3:1 Absent/Present/Unknown pattern and splits a
    fixed 6:3:1 Train/Validation/Test pattern within each label group, so
    proportions are stable at any corpus size. Unknown patients are
    synthesized from a random Known class with extra noise stacked on top,
    which is what makes them genuinely ambiguous to the classifier.
    """
    if n_patients < 2:
        raise ConfigError("need at least 2 patients for a corpus")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2**20)))
    entries = []
    group_positions: dict[MurmurLabel, int] = {}
    for idx in range(n_patients):
        pid = f"p{idx:04d}"
        label = _LABEL_PATTERN[idx % len(_LABEL_PATTERN)]
        pos = group_positions.get(label, 0)
        group_positions[label] = pos + 1
        split = _SPLIT_PATTERN[pos % len(_SPLIT_PATTERN)]
        loc_idx = rng.permutation(len(_SYNTH_LOCATIONS))[:recordings_per_patient]
        refs = []
        for li in loc_idx:
            loc = _SYNTH_LOCATIONS[int(li)]
            duration = float(rng.uniform(*duration_range_s))
            rec_seed = int(rng.integers(2**31))
            if label is MurmurLabel.UNKNOWN:
                synth_label = MurmurLabel.PRESENT if rng.random() < 0.5 else MurmurLabel.ABSENT
                wf = synth_recording(synth_label, duration, rec_seed)
                noisy = wf.samples + _UNKNOWN_EXTRA_NOISE * float(
                    np.std(wf.samples)
                ) * rng.standard_normal(len(wf.samples)).astype(np.float32)
                wf = Waveform(np.clip(noisy, -0.999, 0.999), wf.sample_rate_hz)
            else:
                wf = synth_recording(label, duration, rec_seed)
            fname = f"{pid}_{loc.value}.wav"
            write_recording(out / fname, wf)
            refs.append(RecordingRef(loc, fname))
        entries.append(ManifestEntry(split, PatientRecord(pid, label, tuple(refs))))
    manifest = DatasetManifest(tuple(entries))
    path = out / "manifest.tsv"
    write_manifest(manifest, path)
    return path


# --- feature extraction ------------------------------------------------------


@dataclass
class LocationFeatures:
    """Gated, standardized model inputs for one auscultation location."""

    location: Location
    inputs: np.ndarray  # (k, 1, F, T) float32, kept segments only
    start_s: tuple[float, ...]
    n_total_segments: int


@dataclass
class PatientFeatures:
    patient_id: str
    label: MurmurLabel
    locations: list[LocationFeatures]


def load_waveform(base_dir: Path, ref: RecordingRef) -> Waveform:
    path = Path(ref.path)
    if not path.is_absolute():
        path = base_dir / path
    wf = load_recording(path, location=ref.location)
    return resample(wf, PIPELINE_RATE_HZ)


def recording_features(
    waveform: Waveform, cfg: PipelineConfig, hop_s: float | None = None
) -> LocationFeatures | None:
    """Segment, transform, and gate one recording; None when too short."""
    segs = dsp.segment(waveform, window_s=cfg.window_s, hop_s=hop_s or cfg.hop_s)
    if not segs:
        return None
    specs = [dsp.stft_spectrogram(s, cfg.n_fft) for s in segs]
    kept = dsp.quality_filter(specs, cfg.psd_thr, min_keep=cfg.min_keep).kept_indices()
    inputs = np.stack([dsp.model_input(specs[i]) for i in kept]) if kept else np.zeros(
        (0, 1, 1, 1), dtype=np.float32
    )
    return LocationFeatures(
        location=waveform.location,
        inputs=inputs,
        start_s=tuple(specs[i].start_s for i in kept),
        n_total_segments=len(segs),
    )


def _patient_features(
    manifest: DatasetManifest,
    base_dir: str | Path,
    split: Split,
    cfg: PipelineConfig,
    include_unknown: bool,
    oversample: bool,
) -> list[PatientFeatures]:
    """Per-patient gated features of ``split``, one ``LocationFeatures`` per
    recording long enough to segment, patients and recordings in manifest
    order.

    With ``oversample``, Present recordings are segmented with the hop
    divided by ``oversample_divisor`` to rebalance the classes; the PSD gate
    runs after oversampling, as in the published pipeline.
    """
    base = Path(base_dir)
    records = [
        r
        for r in manifest.records(split)
        if include_unknown or r.murmur_label is not MurmurLabel.UNKNOWN
    ]

    def one(record: PatientRecord) -> PatientFeatures:
        present = record.murmur_label is MurmurLabel.PRESENT
        hop = cfg.hop_s / cfg.oversample_divisor if oversample and present else cfg.hop_s
        feats = [recording_features(load_waveform(base, ref), cfg, hop) for ref in record.recordings]
        return PatientFeatures(record.patient_id, record.murmur_label, [lf for lf in feats if lf is not None])

    return _parallel_map(one, records)


def eval_features(
    manifest: DatasetManifest,
    base_dir: str | Path,
    split: Split,
    cfg: PipelineConfig,
    include_unknown: bool = True,
) -> list[PatientFeatures]:
    """Per-patient gated features at the evaluation hop (no oversampling),
    merged by location in location-name order."""
    feats = _patient_features(manifest, base_dir, split, cfg, include_unknown, oversample=False)
    for pf in feats:  # in place, so each patient's unmerged stacks are freed before the next
        merged = []
        for loc in sorted({lf.location for lf in pf.locations}, key=lambda l: l.value):
            parts = [lf for lf in pf.locations if lf.location is loc]
            merged.append(
                parts[0]  # a lone recording is kept as it is: a copy would only add memory
                if len(parts) == 1
                else LocationFeatures(
                    location=loc,
                    inputs=np.concatenate([p.inputs for p in parts], axis=0),
                    start_s=tuple(s for p in parts for s in p.start_s),
                    n_total_segments=sum(p.n_total_segments for p in parts),
                )
            )
        pf.locations = merged
    return feats


_NO_TRAIN_AUDIO = "no usable recordings in split Train"


def training_features(
    manifest: DatasetManifest, base_dir: str | Path, cfg: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (X, y) training arrays of the Known Train patients, in manifest
    and recording order, with Present-class oversampling (see
    ``_patient_features``)."""
    train = _patient_features(manifest, base_dir, Split.TRAIN, cfg, include_unknown=False, oversample=True)
    return flatten_segments(train, _NO_TRAIN_AUDIO)


def flatten_segments(
    feats: list[PatientFeatures], empty: str = "no segments to evaluate"
) -> tuple[np.ndarray, np.ndarray]:
    """Stack all segments of Known patients with patient-level labels;
    ``empty`` is the error when there are none."""
    stacks = [
        (lf.inputs, int(pf.label is MurmurLabel.PRESENT))
        for pf in feats
        if pf.label is not MurmurLabel.UNKNOWN
        for lf in pf.locations
        if len(lf.inputs)
    ]
    if not stacks:
        raise EmptyDatasetError(empty)
    x = np.concatenate([x for x, _ in stacks], axis=0)
    y = np.concatenate([np.full(len(x), label, dtype=np.int64) for x, label in stacks])
    return x, y


# --- inference ----------------------------------------------------------------


@dataclass
class UqRow:
    patient_id: str
    location: Location
    start_s: float
    p_present: float
    pred: int  # the deterministic label, as the selective vote reads it
    entropy: float
    coherence: float
    confidence: float
    kept: bool


@dataclass
class InferenceResult:
    predictions: list[aggregate.PatientPrediction]
    truths: dict[str, MurmurLabel]
    patient_metrics: metrics.BinaryMetrics | None
    uq_rows: list[UqRow] = field(default_factory=list)


def infer_patients(
    net: Network,
    feats: list[PatientFeatures],
    cfg: PipelineConfig,
    selective: bool = False,
) -> InferenceResult:
    """Segment classification, location votes, and the patient max rule."""
    policy = cfg.policy()
    predictions = []
    truths: dict[str, MurmurLabel] = {}
    uq_rows: list[UqRow] = []
    for pf in feats:
        truths[pf.patient_id] = pf.label
        decisions = []
        for lf in pf.locations:
            if len(lf.inputs) == 0:
                continue
            if selective:
                results = uq.mcd_predict_batch(
                    net,
                    lf.inputs,
                    n=cfg.mcd_passes,
                    seed=segment_stream_seed(cfg.seed, pf.patient_id, lf.location),
                    alpha=cfg.alpha,
                    entropy_mode=cfg.entropy_mode,
                )
                decision = aggregate.vote_location_selective(
                    results,
                    policy,
                    thr_hi=cfg.vote_thr,
                    thr_lo=cfg.fallback_thr,
                    location=lf.location,
                    rule=cfg.vote_rule,
                )
                for i, (start, r) in enumerate(zip(lf.start_s, results)):
                    uq_rows.append(
                        UqRow(
                            patient_id=pf.patient_id,
                            location=lf.location,
                            start_s=start,
                            p_present=float(r.deterministic_probs[1]),
                            pred=r.deterministic_pred,
                            entropy=r.entropy,
                            coherence=r.coherence,
                            confidence=r.confidence,
                            kept=i in decision.kept,
                        )
                    )
            else:
                labels = predict_labels(net, lf.inputs)
                decision = aggregate.vote_location(
                    labels, cfg.vote_thr, location=lf.location, rule=cfg.vote_rule
                )
            decisions.append(decision)
        if not decisions:
            continue
        predictions.append(aggregate.predict_patient(decisions, patient_id=pf.patient_id))

    known = [
        p for p in predictions if truths[p.patient_id] is not MurmurLabel.UNKNOWN
    ]
    patient_metrics = None
    if known:
        pred = [1 if p.label is MurmurLabel.PRESENT else 0 for p in known]
        true = [1 if truths[p.patient_id] is MurmurLabel.PRESENT else 0 for p in known]
        patient_metrics = metrics.binary_metrics(pred, true)
    return InferenceResult(predictions, truths, patient_metrics, uq_rows)


def infer_report(result: InferenceResult, cfg: PipelineConfig) -> str:
    lines = cfg.header_lines("infer")
    lines.append("patient_id\ttrue_label\tpred_label\tlocations")
    for p in result.predictions:
        locs = ";".join(
            f"{d.location.value}:frac={d.present_fraction:.4f}:thr={d.threshold_used:.2f}"
            f":ratio={d.confident_ratio:.4f}:label={d.label.value}"
            for d in p.locations
        )
        truth = result.truths.get(p.patient_id, MurmurLabel.UNKNOWN)
        lines.append(f"{p.patient_id}\t{truth.value}\t{p.label.value}\t{locs}")
    predicted = {p.patient_id for p in result.predictions}
    lines.extend(f"# no_usable_audio\t{pid}" for pid in result.truths if pid not in predicted)
    if result.patient_metrics is not None:
        m = result.patient_metrics
        lines.append(
            f"# patient_metrics\taccuracy={m.accuracy:.4f}\tprecision={m.precision:.4f}"
            f"\trecall={m.recall:.4f}\tf1={m.f1:.4f}\ttp={m.tp}\tfp={m.fp}\ttn={m.tn}\tfn={m.fn}"
        )
    return "\n".join(lines) + "\n"


# --- training ------------------------------------------------------------------


@dataclass
class TrainOutcome:
    history: object
    weights_dir: Path
    calibrated_thr: float
    val_patient_metrics: metrics.BinaryMetrics | None


def train_run(
    manifest: DatasetManifest, base_dir: str | Path, cfg: PipelineConfig, out_dir: str | Path
) -> TrainOutcome:
    """Train a variant on the Train split and checkpoint by validation F1.

    Also calibrates the location vote threshold on the validation split
    (reported, not auto-applied) and saves weights under ``out_dir``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_x, train_y = training_features(manifest, base_dir, cfg)
    val_feats = eval_features(manifest, base_dir, Split.VALIDATION, cfg, include_unknown=False)
    val_x, val_y = flatten_segments(val_feats)

    net = build_model(cfg.variant, seed=stage_seed(cfg.seed, "init"))
    history = fit(net, train_x, train_y, val_x, val_y, cfg.train_config())

    weights_dir = out / "weights"
    save_network(net, weights_dir)

    val_infer = infer_patients(net, val_feats, cfg, selective=False)
    fractions, truths = [], []
    for p in val_infer.predictions:
        for d in p.locations:
            fractions.append(d.present_fraction)
            truths.append(1 if val_infer.truths[p.patient_id] is MurmurLabel.PRESENT else 0)
    if fractions and sum(truths) > 0:
        calibrated = aggregate.calibrate_threshold(fractions, truths)
    else:
        calibrated = aggregate.VOTE_THR_DEFAULT

    (out / "history.tsv").write_text(
        "\n".join(cfg.header_lines("train"))
        + "\n"
        + history.to_tsv()
        + f"# calibrated_vote_thr\t{calibrated:.2f}\n"
        + f"# training_defaults\t{json.dumps(history.notes, sort_keys=True)}\n",
        encoding="utf-8",
    )
    return TrainOutcome(history, weights_dir, calibrated, val_infer.patient_metrics)


# --- cross-validation -----------------------------------------------------------


def cv_run(
    manifest: DatasetManifest,
    base_dir: str | Path,
    cfg: PipelineConfig,
    k: int = 5,
    n_fft_grid: list[int] | None = None,
    psd_thr_grid: list[float] | None = None,
) -> str:
    """Patient-level k-fold CV of the Known Train patients over an
    (n_fft, psd_thr) grid.

    Each fold trains on the other folds, picks its best epoch on the
    Validation split's Known patients, as ``train_run`` does, and reports
    segment-level accuracy and F1 on the held-out fold, plus mean and std
    rows, one grid point at a time. The default grid is the single
    configured point; pass explicit grids to sweep.
    """
    pids = [
        r.patient_id
        for r in manifest.records(Split.TRAIN)
        if r.murmur_label is not MurmurLabel.UNKNOWN
    ]
    folds = metrics.patient_kfold(pids, k=k, seed=stage_seed(cfg.seed, "data")).folds()
    n_fft_grid = n_fft_grid or [cfg.n_fft]
    psd_thr_grid = psd_thr_grid or [cfg.psd_thr]

    lines = cfg.header_lines("cv")
    lines.append("n_fft\tpsd_thr\tfold\tseg_accuracy\tseg_f1")
    for n_fft in n_fft_grid:
        for psd_thr in psd_thr_grid:
            point = replace(cfg, n_fft=n_fft, psd_thr=psd_thr)
            row = f"{point.n_fft}\t{point.psd_thr}\t"  # the validated values, so equal grids print alike
            train_feats = _patient_features(
                manifest, base_dir, Split.TRAIN, point, include_unknown=False, oversample=True
            )
            all_feats = eval_features(manifest, base_dir, Split.TRAIN, point, include_unknown=False)
            val_x, val_y = flatten_segments(
                eval_features(manifest, base_dir, Split.VALIDATION, point, include_unknown=False)
            )
            accs, f1s = [], []
            for fold, held in enumerate(map(set, folds)):
                train_x, train_y = flatten_segments(
                    [pf for pf in train_feats if pf.patient_id not in held], _NO_TRAIN_AUDIO
                )
                held_x, held_y = flatten_segments([pf for pf in all_feats if pf.patient_id in held])
                net = build_model(point.variant, seed=stage_seed(point.seed, "init"))
                fit(net, train_x, train_y, val_x, val_y, point.train_config())
                m = metrics.binary_metrics(predict_labels(net, held_x), held_y)
                accs.append(m.accuracy)
                f1s.append(m.f1)
                lines.append(f"{row}{fold}\t{m.accuracy:.4f}\t{m.f1:.4f}")
            lines.append(f"{row}mean\t{np.mean(accs):.4f}\t{np.mean(f1s):.4f}")
            lines.append(f"{row}std\t{np.std(accs):.4f}\t{np.std(f1s):.4f}")
    return "\n".join(lines) + "\n"


# --- quantization ----------------------------------------------------------------

_MAX_CALIBRATION = 256


@dataclass
class QuantizeOutcome:
    qweights_dir: Path
    agreement: float
    float_payload_bytes: int
    int8_payload_bytes: int


def quantize_run(
    net: Network,
    manifest: DatasetManifest,
    base_dir: str | Path,
    cfg: PipelineConfig,
    out_dir: str | Path,
) -> QuantizeOutcome:
    """Calibrate on validation segments, save int8 weights, and check the
    agreement of the twin read back from them with the float network."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    val_feats = eval_features(manifest, base_dir, Split.VALIDATION, cfg, include_unknown=False)
    cal_x, _ = flatten_segments(val_feats)
    qdir = out / "qweights"
    quant.save_qnetwork(quant.quantize_network(net, cal_x[:_MAX_CALIBRATION]), qdir)
    qnet = quant.load_qnetwork(qdir)

    test_feats = eval_features(manifest, base_dir, Split.TEST, cfg, include_unknown=False)
    test_x, _ = flatten_segments(test_feats)
    float_labels = predict_labels(net, test_x)
    q_probs = quant.qforward(qnet, test_x)
    q_labels = q_probs.argmax(axis=1)
    agreement = float(np.mean(float_labels == q_labels))
    n_params = resources.count_params(net)
    return QuantizeOutcome(
        qweights_dir=qdir,
        agreement=agreement,
        float_payload_bytes=n_params * 4,
        int8_payload_bytes=qnet.weight_payload_bytes(),
    )


# --- UQ report --------------------------------------------------------------------


def uq_report(
    net: Network,
    manifest: DatasetManifest,
    base_dir: str | Path,
    split: Split,
    cfg: PipelineConfig,
) -> str:
    """Per-segment confidence rows, CC/MC histograms, a threshold sweep, and
    the Known vs Unknown Mann-Whitney comparison of confident-segment ratios."""
    feats = eval_features(manifest, base_dir, split, cfg, include_unknown=True)
    result = infer_patients(net, feats, cfg, selective=True)

    lines = cfg.header_lines("uq-report")
    lines.append("patient_id\tlocation\tsegment_start_s\tp_present\tE\tC\tCS\tkept")
    cc_scores, mc_scores = [], []
    for row in result.uq_rows:
        lines.append(
            f"{row.patient_id}\t{row.location.value}\t{row.start_s:.2f}"
            f"\t{row.p_present:.6f}\t{row.entropy:.6f}\t{row.coherence:.6f}"
            f"\t{row.confidence:.6f}\t{int(row.kept)}"
        )
        label = result.truths[row.patient_id]
        if label is MurmurLabel.UNKNOWN:
            continue
        seg_true = 1 if label is MurmurLabel.PRESENT else 0
        (cc_scores if row.pred == seg_true else mc_scores).append(row.confidence)

    edges = np.round(np.arange(0.0, 1.0001, 0.05), 2)
    cc_hist, _ = np.histogram(cc_scores, bins=edges)
    mc_hist, _ = np.histogram(mc_scores, bins=edges)
    lines.append("# histogram\tbin_lo\tbin_hi\tcc_count\tmc_count")
    for i in range(len(edges) - 1):
        lines.append(f"# histogram\t{edges[i]:.2f}\t{edges[i+1]:.2f}\t{cc_hist[i]}\t{mc_hist[i]}")

    lines.append("# sweep\tcs_threshold\tkept_fraction\taccuracy_kept")
    scores = np.array(cc_scores + mc_scores)
    correct = np.array([1] * len(cc_scores) + [0] * len(mc_scores))
    for thr in np.round(np.arange(0.0, 1.0, 0.05), 2):
        kept = scores >= thr
        frac = float(kept.mean()) if len(kept) else 0.0
        acc = float(correct[kept].mean()) if kept.any() else 0.0
        lines.append(f"# sweep\t{thr:.2f}\t{frac:.4f}\t{acc:.4f}")

    known_ratios, unknown_ratios = [], []
    for p in result.predictions:
        for d in p.locations:
            if result.truths[p.patient_id] is MurmurLabel.UNKNOWN:
                unknown_ratios.append(d.confident_ratio)
            else:
                known_ratios.append(d.confident_ratio)
    if known_ratios and unknown_ratios:
        u, p_val = metrics.mann_whitney_u(known_ratios, unknown_ratios)
        lines.append(
            f"# mann_whitney_known_vs_unknown\tU={u:.1f}\tp={p_val:.6g}"
            f"\tn_known={len(known_ratios)}\tn_unknown={len(unknown_ratios)}"
        )
    return "\n".join(lines) + "\n"


def load_manifest_dir(manifest_path: str | Path) -> tuple[DatasetManifest, Path]:
    path = Path(manifest_path)
    return read_manifest(path), path.parent
