"""Corpus synthesis, feature extraction, seeding, and orchestration wiring."""

import dataclasses
import json

import numpy as np
import pytest

from murmurkit import pipeline
from murmurkit.dataset import (
    DatasetManifest,
    Location,
    ManifestEntry,
    MurmurLabel,
    PatientRecord,
    RecordingRef,
    Split,
    Waveform,
    read_manifest,
    synth_recording,
    write_recording,
)
from murmurkit.errors import ConfigError, NumericError
from murmurkit.nn import build_model
from murmurkit.pipeline import PipelineConfig


class TestPipelineConfig:
    def test_paper_defaults(self):
        cfg = PipelineConfig()
        assert cfg.n_fft == 128
        assert cfg.psd_thr == 0.45
        assert cfg.window_s == 2.0
        assert cfg.hop_s == 1.0
        assert cfg.oversample_divisor == 4
        assert cfg.vote_thr == 0.40
        assert cfg.fallback_thr == 0.20
        assert cfg.cs_threshold == 0.8
        assert cfg.confident_ratio == 0.6
        assert cfg.mcd_passes == 10
        assert cfg.alpha == 0.5
        assert cfg.epochs == 20
        assert cfg.lr == 1e-3

    def test_json_round_trip(self):
        cfg = PipelineConfig(seed=5, variant="heavy", psd_thr=0.3)
        again = PipelineConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(json.dumps({"bogus": 1}))

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(n_fft=100)
        with pytest.raises(ConfigError):
            PipelineConfig(psd_thr=1.5)
        with pytest.raises(ConfigError):
            PipelineConfig(variant="giant")
        with pytest.raises(ConfigError):
            PipelineConfig(mcd_passes=1)
        with pytest.raises(ConfigError):
            PipelineConfig(min_keep=-2)
        with pytest.raises(ConfigError):
            PipelineConfig(weight_decay=-0.01)
        with pytest.raises(ConfigError):
            PipelineConfig(seed=-1)
        assert PipelineConfig(min_keep=0, weight_decay=0.0).min_keep == 0
        with pytest.raises(ConfigError):
            PipelineConfig(n_fft=np.int64(64))
        cfg = PipelineConfig.from_json(json.dumps({"lr": 1, "alpha": 0}))  # a float field takes an int
        assert cfg.lr == 1 and isinstance(cfg.lr, float)
        assert cfg.to_json() == PipelineConfig(lr=1.0, alpha=0.0).to_json()
        assert PipelineConfig(lr=1).to_json() == PipelineConfig(lr=1.0).to_json()

    @pytest.mark.parametrize(
        "data", [{"epochs": "3"}, {"mcd_passes": 10.5}, {"batch_size": 2.5}, {"psd_thr": True}]
    )
    def test_value_of_another_type_rejected(self, data):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(json.dumps(data))
        with pytest.raises(ConfigError):
            PipelineConfig(**data)
        with pytest.raises(ConfigError):
            dataclasses.replace(PipelineConfig(), **data)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), -(10**400)], ids=["nan", "inf", "-inf", "huge-int"]
    )
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig) if type(f.default) is float])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            PipelineConfig(**{name: value})
        with pytest.raises(ConfigError, match=name):
            PipelineConfig.from_json(json.dumps({name: value}))  # json writes NaN and Infinity

    def test_header_embeds_config(self):
        cfg = PipelineConfig(seed=3)
        lines = cfg.header_lines("infer")
        assert lines[0] == "# murmurkit infer"
        assert json.loads(lines[1].split("\t", 1)[1])["seed"] == 3


class TestStageSeeds:
    def test_stages_differ(self):
        seeds = {pipeline.stage_seed(7, s) for s in ("data", "init", "train", "mcd")}
        assert len(seeds) == 4

    def test_deterministic(self):
        assert pipeline.stage_seed(7, "init") == pipeline.stage_seed(7, "init")
        assert pipeline.stage_seed(7, "init") != pipeline.stage_seed(8, "init")

    def test_segment_stream_depends_on_identity(self):
        a = pipeline.segment_stream_seed(1, "p1", Location.AV)
        b = pipeline.segment_stream_seed(1, "p1", Location.MV)
        c = pipeline.segment_stream_seed(1, "p2", Location.AV)
        assert len({a, b, c}) == 3


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest_path = pipeline.synth_corpus(out, 30, seed=11)
    return read_manifest(manifest_path), out


class TestSynthCorpus:
    def test_proportions_and_split(self, corpus):
        manifest, _ = corpus
        labels = [e.record.murmur_label for e in manifest.entries]
        assert labels.count(MurmurLabel.ABSENT) == 18
        assert labels.count(MurmurLabel.PRESENT) == 9
        assert labels.count(MurmurLabel.UNKNOWN) == 3
        for split in Split:
            assert manifest.records(split)
        # both Known classes reach training
        train_labels = {r.murmur_label for r in manifest.records(Split.TRAIN)}
        assert {MurmurLabel.ABSENT, MurmurLabel.PRESENT} <= train_labels

    def test_wavs_written(self, corpus):
        manifest, base = corpus
        for record in manifest.records():
            for ref in record.recordings:
                assert (base / ref.path).exists()

    def test_deterministic(self, tmp_path):
        a = pipeline.synth_corpus(tmp_path / "a", 6, seed=3)
        b = pipeline.synth_corpus(tmp_path / "b", 6, seed=3)
        assert a.read_text() == b.read_text()
        wav = next(iter(read_manifest(a).records())).recordings[0].path
        assert (tmp_path / "a" / wav).read_bytes() == (tmp_path / "b" / wav).read_bytes()


class TestFeatureExtraction:
    def test_eval_features_shapes(self, corpus):
        manifest, base = corpus
        cfg = PipelineConfig(seed=1)
        feats = pipeline.eval_features(manifest, base, Split.VALIDATION, cfg)
        assert feats
        for pf in feats:
            for lf in pf.locations:
                assert lf.inputs.ndim == 4
                assert lf.inputs.shape[1:] == (1, 33, 124)
                assert len(lf.start_s) == len(lf.inputs)
                assert lf.n_total_segments >= len(lf.inputs)

    def test_unknown_filtering(self, corpus):
        manifest, base = corpus
        cfg = PipelineConfig(seed=1)
        with_unknown = pipeline.eval_features(manifest, base, Split.TRAIN, cfg, include_unknown=True)
        without = pipeline.eval_features(manifest, base, Split.TRAIN, cfg, include_unknown=False)
        labels = {pf.label for pf in with_unknown}
        assert MurmurLabel.UNKNOWN in labels
        assert all(pf.label is not MurmurLabel.UNKNOWN for pf in without)

    def test_training_oversampling(self, corpus):
        manifest, base = corpus
        cfg = PipelineConfig(seed=1)
        x, y = pipeline.training_features(manifest, base, cfg)
        assert len(x) == len(y)
        assert set(np.unique(y)) == {0, 1}
        # hop/4 oversampling makes Present segments comparable in count to
        # Absent despite the 2:1 patient imbalance
        assert (y == 1).sum() > 0.5 * (y == 0).sum()

    def test_oversample_divisor_one_disables(self, corpus):
        manifest, base = corpus
        cfg = PipelineConfig(seed=1)
        x4, y4 = pipeline.training_features(manifest, base, cfg)
        cfg1 = dataclasses.replace(cfg, oversample_divisor=1)
        x1, y1 = pipeline.training_features(manifest, base, cfg1)
        assert (y4 == 1).sum() > (y1 == 1).sum()
        assert (y4 == 0).sum() == (y1 == 0).sum()

    def test_worker_env_validation(self, monkeypatch):
        monkeypatch.setenv("MURMUR_THREADS", "0")
        with pytest.raises(ConfigError):
            pipeline.worker_count()
        monkeypatch.setenv("MURMUR_THREADS", "3")
        assert pipeline.worker_count() == 3

    def test_worker_count_uses_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("MURMUR_THREADS", raising=False)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert pipeline.worker_count() == 2
        monkeypatch.setenv("MURMUR_THREADS", "3")
        assert pipeline.worker_count() == 3
        monkeypatch.delenv("MURMUR_THREADS")
        monkeypatch.delattr(pipeline.os, "sched_getaffinity")
        assert pipeline.worker_count() == 4

    def test_parallel_matches_serial(self, corpus, monkeypatch):
        manifest, base = corpus
        cfg = PipelineConfig(seed=1)
        monkeypatch.setenv("MURMUR_THREADS", "1")
        serial = pipeline.eval_features(manifest, base, Split.TEST, cfg)
        monkeypatch.setenv("MURMUR_THREADS", "4")
        parallel = pipeline.eval_features(manifest, base, Split.TEST, cfg)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.patient_id == b.patient_id
            for la, lb in zip(a.locations, b.locations):
                np.testing.assert_array_equal(la.inputs, lb.inputs)


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    manifest, base = corpus
    out = tmp_path_factory.mktemp("run")
    cfg = PipelineConfig(seed=11, epochs=3)
    outcome = pipeline.train_run(manifest, base, cfg, out)
    return manifest, base, cfg, outcome


class TestTrainAndInfer:
    def test_history_written(self, trained):
        _, _, _, outcome = trained
        assert len(outcome.history.epochs) == 3
        assert outcome.weights_dir.exists()
        assert 0 < outcome.calibrated_thr < 1

    def test_history_file_embeds_config_and_defaults(self, trained):
        _, _, _, outcome = trained
        text = (outcome.weights_dir.parent / "history.tsv").read_text()
        assert "# config\t" in text
        assert "# training_defaults\t" in text
        assert "# calibrated_vote_thr\t" in text

    def test_infer_plain_and_selective(self, trained):
        manifest, base, cfg, outcome = trained
        from murmurkit.nn import load_network

        net = load_network(outcome.weights_dir)
        feats = pipeline.eval_features(manifest, base, Split.TEST, cfg)
        plain = pipeline.infer_patients(net, feats, cfg, selective=False)
        assert plain.patient_metrics is not None
        assert plain.uq_rows == []
        sel = pipeline.infer_patients(net, feats, cfg, selective=True)
        assert sel.uq_rows
        for row in sel.uq_rows:
            assert 0.0 <= row.confidence <= 1.0
        for p in sel.predictions:
            for d in p.locations:
                assert d.threshold_used in (cfg.vote_thr, cfg.fallback_thr)

    def test_infer_report_deterministic(self, trained):
        manifest, base, cfg, outcome = trained
        from murmurkit.nn import load_network

        net = load_network(outcome.weights_dir)
        feats = pipeline.eval_features(manifest, base, Split.TEST, cfg)
        a = pipeline.infer_report(pipeline.infer_patients(net, feats, cfg, selective=True), cfg)
        b = pipeline.infer_report(pipeline.infer_patients(net, feats, cfg, selective=True), cfg)
        assert a == b
        assert a.startswith("# murmurkit infer")
        assert "no_usable_audio" not in a

    @pytest.mark.parametrize("selective", [False, True])
    def test_patient_without_usable_audio_is_reported(self, tmp_path, selective):
        # "short" has one 1.5 s recording: too short for a 2 s window.
        entries = []
        wf = synth_recording(MurmurLabel.PRESENT, 7.0, seed=3)
        for pid, n in (("ok", len(wf.samples)), ("short", 6000)):
            write_recording(tmp_path / f"{pid}.wav", Waveform(wf.samples[:n], wf.sample_rate_hz))
            record = PatientRecord(pid, MurmurLabel.PRESENT, (RecordingRef(Location.AV, f"{pid}.wav"),))
            entries.append(ManifestEntry(Split.TEST, record))
        cfg = PipelineConfig(seed=1)
        feats = pipeline.eval_features(DatasetManifest(tuple(entries)), tmp_path, Split.TEST, cfg)
        assert [pf.locations for pf in feats][1] == []
        net = build_model("light", seed=0)
        both = pipeline.infer_patients(net, feats, cfg, selective=selective)
        assert [p.patient_id for p in both.predictions] == ["ok"]
        report = pipeline.infer_report(both, cfg)
        assert "# no_usable_audio\tshort" in report.splitlines()
        alone = pipeline.infer_report(pipeline.infer_patients(net, feats[:1], cfg, selective=selective), cfg)
        assert report.replace("# no_usable_audio\tshort\n", "") == alone

    def test_train_deterministic(self, corpus, tmp_path):
        manifest, base = corpus
        cfg = PipelineConfig(seed=11, epochs=1)
        h1 = pipeline.train_run(manifest, base, cfg, tmp_path / "r1").history
        h2 = pipeline.train_run(manifest, base, cfg, tmp_path / "r2").history
        assert [(e.train_loss, e.val_f1) for e in h1.epochs] == [
            (e.train_loss, e.val_f1) for e in h2.epochs
        ]

    def test_diverging_training_saves_no_weights(self, corpus, tmp_path):
        manifest, base = corpus
        cfg = PipelineConfig(seed=11, epochs=1, lr=1e12)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch 1"):
            pipeline.train_run(manifest, base, cfg, tmp_path / "r")
        assert not (tmp_path / "r" / "weights").exists()

    def test_quantize_run(self, trained, tmp_path):
        manifest, base, cfg, outcome = trained
        from murmurkit.nn import load_network

        net = load_network(outcome.weights_dir)
        q = pipeline.quantize_run(net, manifest, base, cfg, tmp_path / "q")
        assert q.float_payload_bytes == 4 * q.int8_payload_bytes
        assert 0.0 <= q.agreement <= 1.0
        assert (q.qweights_dir / "manifest").exists()

    def test_quantize_run_scores_the_twin_it_reads_back(self, trained, tmp_path, monkeypatch):
        from murmurkit import quant
        from murmurkit.nn import load_network

        manifest, base, cfg, outcome = trained
        loaded, scored = [], []
        load_qnetwork, qforward = quant.load_qnetwork, quant.qforward

        def recording_load(weights_dir):
            loaded.append((weights_dir, load_qnetwork(weights_dir)))
            return loaded[-1][1]

        def recording_forward(qnet, x):
            scored.append(qnet)
            return qforward(qnet, x)

        monkeypatch.setattr(quant, "load_qnetwork", recording_load)
        monkeypatch.setattr(quant, "qforward", recording_forward)
        net = load_network(outcome.weights_dir)
        q = pipeline.quantize_run(net, manifest, base, cfg, tmp_path / "q")
        assert [d for d, _ in loaded] == [q.qweights_dir]
        assert len(scored) == 1 and scored[0] is loaded[0][1]
        assert q.int8_payload_bytes == loaded[0][1].weight_payload_bytes()

    def test_cv_smoke(self, corpus):
        manifest, base = corpus
        cfg = PipelineConfig(seed=11, epochs=1)
        report = pipeline.cv_run(manifest, base, cfg, k=2)
        lines = [l for l in report.splitlines() if not l.startswith("#")]
        assert lines[0] == "n_fft\tpsd_thr\tfold\tseg_accuracy\tseg_f1"
        assert any("\tmean\t" in l for l in lines)
        assert any("\tstd\t" in l for l in lines)

    def test_cv_equal_grids_give_equal_reports(self, corpus):
        manifest, base = corpus
        cfg = PipelineConfig(seed=11, epochs=1)
        report = pipeline.cv_run(manifest, base, cfg, k=2, psd_thr_grid=[0])
        assert report == pipeline.cv_run(manifest, base, cfg, k=2, psd_thr_grid=[0.0])

    def test_cv_checkpoints_on_the_validation_split(self, corpus, monkeypatch):
        # Every fold picks its epoch on the Validation split's Known
        # patients, never on the held-out fold it is scored on.
        manifest, base = corpus
        cfg = PipelineConfig(seed=11, epochs=1)
        seen = []
        fit = pipeline.fit

        def spy(net, train_x, train_y, val_x, val_y, config):
            seen.append((val_x.tobytes(), val_y.tobytes()))
            return fit(net, train_x, train_y, val_x, val_y, config)

        monkeypatch.setattr(pipeline, "fit", spy)
        pipeline.cv_run(manifest, base, cfg, k=2, n_fft_grid=[64, 128])
        want = []
        for n_fft in (64, 128):
            point = dataclasses.replace(cfg, n_fft=n_fft)
            feats = pipeline.eval_features(manifest, base, Split.VALIDATION, point, include_unknown=False)
            val_x, val_y = pipeline.flatten_segments(feats)
            want += [(val_x.tobytes(), val_y.tobytes())] * 2
        assert seen == want


class TestUqReport:
    def test_report_sections(self, trained):
        manifest, base, cfg, outcome = trained
        from murmurkit.nn import load_network

        net = load_network(outcome.weights_dir)
        report = pipeline.uq_report(net, manifest, base, Split.VALIDATION, cfg)
        lines = report.splitlines()
        assert "patient_id\tlocation\tsegment_start_s\tp_present\tE\tC\tCS\tkept" in lines
        assert any(l.startswith("# histogram\t") for l in lines)
        assert any(l.startswith("# sweep\t") for l in lines)

    def test_mann_whitney_line_with_unknowns(self, corpus, trained):
        # Train split carries Unknown patients, so the Known-vs-Unknown
        # comparison has both groups there.
        manifest, base, cfg, outcome = trained
        from murmurkit.nn import load_network

        net = load_network(outcome.weights_dir)
        report = pipeline.uq_report(net, manifest, base, Split.TRAIN, cfg)
        assert any(l.startswith("# mann_whitney_known_vs_unknown\t") for l in report.splitlines())

    def test_tied_segments_count_as_the_vote_labels_them(self, tmp_path):
        # A network of zeros reads [0.5, 0.5] for every segment. The vote's
        # argmax calls a tie Absent, so the report must count it Absent too.
        manifest = read_manifest(pipeline.synth_corpus(tmp_path, 20, seed=5))
        cfg = PipelineConfig(seed=5)
        net = build_model("light", seed=0)
        for p in net.parameters():
            p.value[...] = 0
        feats = pipeline.eval_features(manifest, tmp_path, Split.VALIDATION, cfg)
        result = pipeline.infer_patients(net, feats, cfg, selective=True)
        assert {p.label for p in result.predictions} == {MurmurLabel.ABSENT}
        truths = [result.truths[row.patient_id] for row in result.uq_rows]
        known = [t for t in truths if t is not MurmurLabel.UNKNOWN]
        absent_share = sum(t is MurmurLabel.ABSENT for t in known) / len(known)
        assert 0 < absent_share < 1
        report = pipeline.uq_report(net, manifest, tmp_path, Split.VALIDATION, cfg)
        sweep = next(l for l in report.splitlines() if l.startswith("# sweep\t0.00\t"))
        assert sweep.split("\t")[-1] == f"{absent_share:.4f}"
