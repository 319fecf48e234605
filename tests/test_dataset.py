"""Manifest parsing, WAV I/O, and the synthetic PCG generator."""

import numpy as np
import pytest

from murmurkit import dataset
from murmurkit.dataset import (
    DatasetManifest,
    Location,
    ManifestEntry,
    MurmurLabel,
    PatientRecord,
    RecordingRef,
    Split,
    Waveform,
    load_recording,
    parse_manifest,
    synth_recording,
    write_recording,
)
from murmurkit.errors import (
    ConfigError,
    DuplicatePatientError,
    ParseError,
    TooShortError,
    UnsupportedFormatError,
)


class TestParseManifest:
    def test_single_row(self):
        m = parse_manifest("p001\tTrain\tAbsent\tAV:p001_AV.wav\n")
        assert len(m.entries) == 1
        rec = m.entries[0].record
        assert rec.patient_id == "p001"
        assert rec.murmur_label is MurmurLabel.ABSENT
        assert rec.recordings == (RecordingRef(Location.AV, "p001_AV.wav"),)
        assert m.entries[0].split is Split.TRAIN

    def test_empty_file(self):
        assert parse_manifest("").entries == ()
        assert parse_manifest("# only a comment\n\n").entries == ()

    def test_duplicate_across_splits(self):
        text = "p1\tTrain\tAbsent\tAV:a.wav\np1\tTest\tAbsent\tAV:a.wav\n"
        with pytest.raises(DuplicatePatientError):
            parse_manifest(text)

    def test_duplicate_same_split(self):
        text = "p1\tTrain\tAbsent\tAV:a.wav\np1\tTrain\tPresent\tMV:b.wav\n"
        with pytest.raises(DuplicatePatientError):
            parse_manifest(text)

    def test_unknown_tokens_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_manifest("p1\tTrain\tMaybe\tAV:a.wav")
        with pytest.raises(ParseError):
            parse_manifest("p1\tDev\tAbsent\tAV:a.wav")
        with pytest.raises(ParseError):
            parse_manifest("p1\tTrain\tAbsent\tXX:a.wav")

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_manifest("p1\tTrain\tAbsent\tAV:a.wav\nbroken row\n")

    def test_recording_ref_without_path_rejected(self):
        for ref in ("AV", "AV:", "AV:a.wav,MV"):
            with pytest.raises(ParseError, match="malformed recording ref"):
                parse_manifest(f"p1\tTrain\tAbsent\t{ref}\n")

    def test_location_listed_three_times_rejected(self):
        refs = "AV:a.wav,AV:b.wav,AV:c.wav"
        with pytest.raises(ParseError, match="line 1: .*more than twice"):
            parse_manifest(f"p1\tTrain\tAbsent\t{refs}\n")

    def test_manifest_file_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"p1\tTrain\tAbsent\tAV:\x80.wav\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            dataset.read_manifest(path)

    def test_multiple_recordings_and_comments(self):
        text = "# corpus\np2\tValidation\tPresent\tAV:a.wav,MV:b.wav\n"
        m = parse_manifest(text)
        assert [r.location for r in m.entries[0].record.recordings] == [Location.AV, Location.MV]

    def test_round_trip(self):
        records = (
            ManifestEntry(
                Split.TRAIN,
                PatientRecord("p1", MurmurLabel.ABSENT, (RecordingRef(Location.AV, "a.wav"),)),
            ),
            ManifestEntry(
                Split.TEST,
                PatientRecord(
                    "p2",
                    MurmurLabel.UNKNOWN,
                    (RecordingRef(Location.MV, "b.wav"), RecordingRef(Location.TV, "c.wav")),
                ),
            ),
        )
        manifest = DatasetManifest(records)
        assert parse_manifest(dataset.format_manifest(manifest)) == manifest

    def test_location_at_most_twice(self):
        refs = tuple(RecordingRef(Location.AV, f"{i}.wav") for i in range(3))
        with pytest.raises(ConfigError):
            PatientRecord("p1", MurmurLabel.ABSENT, refs)


class TestWavIO:
    def test_scale_definition(self, tmp_path):
        wf = Waveform(np.array([0, 16384, -32768], dtype=np.int16) / 32768.0, 4000)
        path = tmp_path / "x.wav"
        write_recording(path, wf)
        loaded = load_recording(path)
        assert loaded.samples.tolist() == [0.0, 0.5, -1.0]
        assert loaded.sample_rate_hz == 4000

    def test_header_rate_echo(self, tmp_path):
        wf = Waveform(np.zeros(10, dtype=np.float32), 8000)
        path = tmp_path / "x.wav"
        write_recording(path, wf)
        assert load_recording(path).sample_rate_hz == 8000

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500, dtype=np.int16)
        wf = Waveform(ints / 32768.0, 4000)
        path = tmp_path / "r.wav"
        write_recording(path, wf)
        assert np.array_equal(load_recording(path).samples, wf.samples)

    def test_rejects_8bit(self, tmp_path):
        import struct

        body = bytes(100)
        hdr = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
        hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 4000, 4000, 1, 8)
        hdr += b"data" + struct.pack("<I", len(body))
        path = tmp_path / "bad.wav"
        path.write_bytes(hdr + body)
        with pytest.raises(UnsupportedFormatError):
            load_recording(path)

    def test_rejects_stereo_and_float(self, tmp_path):
        import struct

        for fmt, channels in ((1, 2), (3, 1)):
            body = bytes(64)
            hdr = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
            hdr += b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, 4000, 16000, 4, 16)
            hdr += b"data" + struct.pack("<I", len(body))
            path = tmp_path / f"bad_{fmt}_{channels}.wav"
            path.write_bytes(hdr + body)
            with pytest.raises(UnsupportedFormatError):
                load_recording(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(b"RIFF\x00\x00")
        with pytest.raises(ParseError):
            load_recording(path)

    def test_truncated_data_chunk(self, tmp_path):
        import struct

        hdr = b"RIFF" + struct.pack("<I", 36 + 100) + b"WAVE"
        hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 4000, 8000, 2, 16)
        hdr += b"data" + struct.pack("<I", 100) + bytes(10)
        path = tmp_path / "short.wav"
        path.write_bytes(hdr)
        with pytest.raises(ParseError):
            load_recording(path)

    def test_truncated_fmt_chunk(self, tmp_path):
        import struct

        hdr = b"RIFF" + struct.pack("<I", 4 + 8 + 12 + 8 + 4) + b"WAVE"
        hdr += b"fmt " + struct.pack("<IHHII", 12, 1, 1, 4000, 8000)
        hdr += b"data" + struct.pack("<I", 4) + bytes(4)
        path = tmp_path / "short_fmt.wav"
        path.write_bytes(hdr)
        with pytest.raises(ParseError, match="truncated fmt chunk"):
            load_recording(path)

    def test_missing_fmt_or_data_chunk(self, tmp_path):
        import struct

        fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 4000, 8000, 2, 16)
        data = b"data" + struct.pack("<I", 4) + bytes(4)
        for name, chunks in (("no_fmt", data), ("no_data", fmt), ("neither", b"")):
            path = tmp_path / f"{name}.wav"
            path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
            with pytest.raises(ParseError, match="missing fmt or data chunk"):
                load_recording(path)


class TestResample:
    def test_identity_at_target_rate(self):
        wf = Waveform(np.ones(100, dtype=np.float32), 4000)
        assert dataset.resample(wf) is wf

    def test_halves_length(self):
        wf = Waveform(np.ones(8000, dtype=np.float32), 8000)
        out = dataset.resample(wf, 4000)
        assert out.sample_rate_hz == 4000
        assert len(out.samples) == 4000
        np.testing.assert_allclose(out.samples, 1.0, atol=1e-6)

    def test_tone_above_nyquist_does_not_alias_into_gate_band(self):
        # 3.9 kHz sampled at 8 kHz aliases to 100 Hz at 4 kHz, inside the
        # 20-200 Hz PSD band, unless it is removed before decimation.
        t = np.arange(8000) / 8000
        x = 0.5 * np.sin(2 * np.pi * 3900.0 * t)
        out = dataset.resample(Waveform(x.astype(np.float32), 8000)).samples.astype(np.float64)
        spec = np.fft.rfft(out)
        freqs = np.fft.rfftfreq(len(out), 1 / 4000)
        band = (freqs >= 20.0) & (freqs <= 200.0)
        band_power = 2 * np.sum(np.abs(spec[band]) ** 2) / len(out) ** 2
        assert band_power < 1e-6 * np.mean(x**2)

    @pytest.mark.parametrize("rate", [8000, 2000, 44100])
    def test_in_band_tone_keeps_its_amplitude(self, rate):
        t = np.arange(2 * rate) / rate
        wf = Waveform((0.5 * np.sin(2 * np.pi * 100.0 * t)).astype(np.float32), rate)
        out = dataset.resample(wf)
        assert len(out.samples) == 8000
        want = 0.5 * np.sin(2 * np.pi * 100.0 * np.arange(8000) / 4000)
        np.testing.assert_allclose(out.samples, want, atol=1e-6)

    def test_too_few_samples_give_an_empty_waveform(self):
        out = dataset.resample(Waveform(np.zeros(1, dtype=np.float32), 8000))
        assert out.sample_rate_hz == 4000 and len(out.samples) == 0


class TestSynthRecording:
    def test_deterministic(self):
        a = synth_recording(MurmurLabel.ABSENT, 8.0, seed=1)
        b = synth_recording(MurmurLabel.ABSENT, 8.0, seed=1)
        assert np.array_equal(a.samples, b.samples)

    def test_length_exact(self):
        for dur in (2.0, 6.25, 8.0):
            wf = synth_recording(MurmurLabel.ABSENT, dur, seed=3)
            assert len(wf.samples) == round(dur * 4000)
            assert wf.sample_rate_hz == 4000

    def test_present_has_higher_band_energy(self):
        # Direct FFT oracle on the full waveform: energy in 100-400 Hz.
        for seed in (1, 2, 7):
            absent = synth_recording(MurmurLabel.ABSENT, 8.0, seed=seed)
            present = synth_recording(MurmurLabel.PRESENT, 8.0, seed=seed)

            def band_energy(wf):
                spec = np.abs(np.fft.rfft(wf.samples.astype(np.float64))) ** 2
                freqs = np.fft.rfftfreq(len(wf.samples), d=1 / 4000)
                return spec[(freqs >= 100) & (freqs <= 400)].sum()

            assert band_energy(present) > band_energy(absent)

    def test_too_short(self):
        with pytest.raises(TooShortError):
            synth_recording(MurmurLabel.PRESENT, 1.0, seed=1)

    def test_seed_changes_output(self):
        a = synth_recording(MurmurLabel.ABSENT, 4.0, seed=1)
        b = synth_recording(MurmurLabel.ABSENT, 4.0, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError):
            synth_recording(MurmurLabel.UNKNOWN, 4.0, seed=1)


class TestCircorAdapter:
    def test_parses_patient_files(self, tmp_path):
        (tmp_path / "100.txt").write_text(
            "100 2 4000\nAV 100_AV.hea 100_AV.wav\nMV 100_MV.hea 100_MV.wav\n#Murmur: Present\n"
        )
        (tmp_path / "200.txt").write_text("200 1 4000\nPV 200_PV.hea 200_PV.wav\n#Murmur: Absent\n")
        manifest = dataset.circor_to_manifest(tmp_path, seed=0, fractions=(0.5, 0.5, 0.0))
        ids = {e.record.patient_id: e.record for e in manifest.entries}
        assert set(ids) == {"100", "200"}
        assert ids["100"].murmur_label is MurmurLabel.PRESENT
        assert {r.location for r in ids["100"].recordings} == {Location.AV, Location.MV}

    def test_no_split_leakage(self, tmp_path):
        for i in range(10):
            (tmp_path / f"{i}.txt").write_text(f"{i} 1 4000\nAV {i}_AV.wav\n#Murmur: Absent\n")
        manifest = dataset.circor_to_manifest(tmp_path, seed=1)
        assert len(manifest.patient_ids()) == 10  # DatasetManifest enforces uniqueness
