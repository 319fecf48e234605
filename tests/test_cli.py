"""Command-line surface: exit codes, report files, determinism."""

import json

import pytest

from murmurkit.cli import run
from murmurkit.dataset import read_manifest
from murmurkit.nn import build_model, save_network


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorpus")
    code = run(["synth", "--patients", "16", "--out", str(out), "--seed", "7"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("clirun")
    code = run(
        [
            "train",
            "--manifest",
            str(corpus_dir / "manifest.tsv"),
            "--out",
            str(out),
            "--seed",
            "7",
            "--epochs",
            "1",
        ]
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_manifest_and_wavs(self, corpus_dir):
        manifest = read_manifest(corpus_dir / "manifest.tsv")
        assert len(manifest.entries) == 16
        labels = {e.record.murmur_label.value for e in manifest.entries}
        assert {"Absent", "Present"} <= labels
        wavs = list(corpus_dir.glob("*.wav"))
        assert len(wavs) == sum(len(e.record.recordings) for e in manifest.entries)


class TestResources:
    def test_light_params_in_report(self, tmp_path, capsys):
        out = tmp_path / "resources.tsv"
        code = run(
            ["resources", "--variant", "light", "--input-shape", "1x33x124", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "# total_params\t23426" in text

    def test_stdout_without_out_flag(self, capsys):
        assert run(["resources", "--variant", "baseline"]) == 0
        captured = capsys.readouterr()
        assert "# total_params\t388354" in captured.out

    def test_bad_input_shape_exits_2(self, capsys):
        assert run(["resources", "--variant", "light", "--input-shape", "bogus"]) == 2


class TestTrainInferQuantize:
    def test_train_outputs(self, trained_dir):
        assert (trained_dir / "weights" / "manifest").exists()
        assert (trained_dir / "history.tsv").exists()

    def test_infer_deterministic_bytes(self, corpus_dir, trained_dir, tmp_path):
        args = [
            "infer",
            "--manifest",
            str(corpus_dir / "manifest.tsv"),
            "--weights",
            str(trained_dir / "weights"),
            "--split",
            "Test",
            "--selective",
            "--seed",
            "7",
        ]
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[1]
        assert json.loads(header.split("\t", 1)[1])["seed"] == 7

    def test_rerun_from_echoed_config_reproduces_report(self, corpus_dir, trained_dir, tmp_path):
        first = tmp_path / "first.tsv"
        assert (
            run(
                [
                    "infer",
                    "--manifest",
                    str(corpus_dir / "manifest.tsv"),
                    "--weights",
                    str(trained_dir / "weights"),
                    "--split",
                    "Test",
                    "--selective",
                    "--seed",
                    "13",
                    "--out",
                    str(first),
                ]
            )
            == 0
        )
        echoed = first.read_text().splitlines()[1].split("\t", 1)[1]
        cfg_path = tmp_path / "echoed.json"
        cfg_path.write_text(echoed)
        second = tmp_path / "second.tsv"
        assert (
            run(
                [
                    "infer",
                    "--manifest",
                    str(corpus_dir / "manifest.tsv"),
                    "--weights",
                    str(trained_dir / "weights"),
                    "--split",
                    "Test",
                    "--selective",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(second),
                ]
            )
            == 0
        )
        assert first.read_bytes() == second.read_bytes()

    def test_quantize(self, corpus_dir, trained_dir, tmp_path):
        code = run(
            [
                "quantize",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--weights",
                str(trained_dir / "weights"),
                "--out",
                str(tmp_path / "q"),
            ]
        )
        assert code == 0
        assert (tmp_path / "q" / "qweights" / "manifest").exists()

    def test_uq_report(self, corpus_dir, trained_dir, tmp_path):
        out = tmp_path / "uq.tsv"
        code = run(
            [
                "uq-report",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--weights",
                str(trained_dir / "weights"),
                "--split",
                "Validation",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "\tCS\t" in out.read_text().splitlines()[2]

    @pytest.mark.parametrize("command", ["infer", "uq-report", "resources"])
    def test_header_names_the_variant_of_the_weights(self, corpus_dir, tmp_path, command):
        # The config asks for the default variant; the weights hold another.
        weights = tmp_path / "baseline"
        save_network(build_model("baseline", seed=0), weights)
        out = tmp_path / "report.tsv"
        args = [command, "--weights", str(weights), "--out", str(out)]
        if command != "resources":
            args += ["--manifest", str(corpus_dir / "manifest.tsv"), "--split", "Validation"]
        assert run(args) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[1].split("\t", 1)[1])["variant"] == "baseline"
        if command == "resources":
            assert "# total_params\t388354" in lines

    def test_cv_smoke(self, corpus_dir, tmp_path):
        out = tmp_path / "cv.tsv"
        code = run(
            [
                "cv",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--out",
                str(out),
                "--k",
                "2",
                "--epochs",
                "1",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        assert "seg_f1" in out.read_text()


class TestExitCodes:
    def test_missing_manifest_exits_3(self, tmp_path):
        code = run(
            [
                "train",
                "--manifest",
                str(tmp_path / "nope.tsv"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_bad_config_value_exits_2(self, corpus_dir, tmp_path):
        code = run(
            [
                "train",
                "--manifest",
                str(corpus_dir / "manifest.tsv"),
                "--out",
                str(tmp_path / "out"),
                "--psd-thr",
                "2.0",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [["--hop-s", "nan"], ["--window-s", "inf"], ["--lr", "nan"]])
    def test_non_finite_config_value_exits_2(self, corpus_dir, tmp_path, flags, capsys):
        manifest = str(corpus_dir / "manifest.tsv")
        assert run(["train", "--manifest", manifest, "--out", str(tmp_path / "out"), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--k", "0"], ["--k", "-1"], ["--n-fft-grid", "64,abc"], ["--psd-thr-grid", "0.1,x"]],
    )
    def test_bad_cv_input_exits_2(self, corpus_dir, tmp_path, flags, capsys):
        manifest = str(corpus_dir / "manifest.tsv")
        code = run(["cv", "--manifest", manifest, "--out", str(tmp_path / "cv.tsv"), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "cv.tsv").exists()

    def test_config_file_flag(self, corpus_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 9, "epochs": 1}))
        out = tmp_path / "res.tsv"
        code = run(["resources", "--variant", "light", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[1]
        assert json.loads(header.split("\t", 1)[1])["seed"] == 9

    @pytest.mark.parametrize(
        "config, flags", [({"epochs": "3"}, []), ({}, ["--min-keep", "-1"]), ({}, ["--seed", "-1"])]
    )
    def test_bad_config_type_or_sign_exits_2(self, tmp_path, config, flags, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run(["resources", "--variant", "light", "--config", str(cfg_path), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_config_file_exits_3(self):
        assert run(["resources", "--variant", "light", "--config", "/nonexistent.json"]) == 3
