"""Data model for heart-sound recordings.

Covers the normalized manifest format, mono 16-bit PCM WAV I/O, an adapter
for CirCor-style patient metadata files, and a seeded synthetic
phonocardiogram generator for desk-scale end-to-end runs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DuplicatePatientError,
    NumericError,
    ParseError,
    TooShortError,
    UnsupportedFormatError,
)

PIPELINE_RATE_HZ = 4000


class MurmurLabel(str, Enum):
    ABSENT = "Absent"
    PRESENT = "Present"
    UNKNOWN = "Unknown"


class Location(str, Enum):
    AV = "AV"
    PV = "PV"
    TV = "TV"
    MV = "MV"
    OTHER = "Other"


class Split(str, Enum):
    TRAIN = "Train"
    VALIDATION = "Validation"
    TEST = "Test"


@dataclass(frozen=True)
class RecordingRef:
    location: Location
    path: str


@dataclass(frozen=True)
class PatientRecord:
    """One patient: murmur annotation plus references to their recordings."""

    patient_id: str
    murmur_label: MurmurLabel
    recordings: tuple[RecordingRef, ...]

    def __post_init__(self) -> None:
        if not self.patient_id:
            raise ConfigError("patient_id must be nonempty")
        if not self.recordings:
            raise ConfigError(f"patient {self.patient_id!r} has no recordings")
        counts: dict[Location, int] = {}
        for ref in self.recordings:
            counts[ref.location] = counts.get(ref.location, 0) + 1
            if counts[ref.location] > 2:
                raise ConfigError(
                    f"patient {self.patient_id!r}: location {ref.location.value} "
                    "appears more than twice"
                )


@dataclass(frozen=True)
class ManifestEntry:
    split: Split
    record: PatientRecord


@dataclass(frozen=True)
class DatasetManifest:
    """All manifest rows. A patient id may appear in at most one split."""

    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            pid = entry.record.patient_id
            if pid in seen:
                raise DuplicatePatientError(f"patient {pid!r} listed more than once")
            seen.add(pid)

    def records(self, split: Split | None = None) -> list[PatientRecord]:
        return [e.record for e in self.entries if split is None or e.split == split]

    def patient_ids(self, split: Split | None = None) -> list[str]:
        return [r.patient_id for r in self.records(split)]


def parse_manifest(text: str) -> DatasetManifest:
    """Parse the tab-separated manifest format.

    One row per patient: ``patient_id<TAB>split<TAB>label<TAB>loc:path[,loc:path...]``.
    Lines starting with ``#`` and blank lines are ignored.
    """
    entries: list[ManifestEntry] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
        pid, split_tok, label_tok, recs_tok = fields
        try:
            split = Split(split_tok)
        except ValueError:
            raise ParseError(f"line {lineno}: unknown split {split_tok!r}") from None
        try:
            label = MurmurLabel(label_tok)
        except ValueError:
            raise ParseError(f"line {lineno}: unknown label {label_tok!r}") from None
        recordings: list[RecordingRef] = []
        for item in recs_tok.split(","):
            loc_tok, sep, path = item.partition(":")
            if not sep or not path:
                raise ParseError(f"line {lineno}: malformed recording ref {item!r}")
            try:
                loc = Location(loc_tok)
            except ValueError:
                raise ParseError(f"line {lineno}: unknown location {loc_tok!r}") from None
            recordings.append(RecordingRef(loc, path))
        try:
            record = PatientRecord(pid, label, tuple(recordings))
        except ConfigError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        entries.append(ManifestEntry(split, record))
    return DatasetManifest(tuple(entries))


def format_manifest(manifest: DatasetManifest) -> str:
    lines = []
    for entry in manifest.entries:
        recs = ",".join(f"{r.location.value}:{r.path}" for r in entry.record.recordings)
        lines.append(
            "\t".join(
                (
                    entry.record.patient_id,
                    entry.split.value,
                    entry.record.murmur_label.value,
                    recs,
                )
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    Path(path).write_text(format_manifest(manifest), encoding="utf-8")


def read_manifest(path: str | Path) -> DatasetManifest:
    try:
        return parse_manifest(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples with provenance."""

    samples: np.ndarray
    sample_rate_hz: int
    location: Location = Location.OTHER

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not np.all(np.isfinite(self.samples)):
            raise NumericError("waveform contains non-finite samples")


# --- WAV I/O (RIFF, PCM, mono, 16-bit, little-endian) ---------------------

_PCM_FORMAT = 1


def load_recording(path: str | Path, *, location: Location = Location.OTHER) -> Waveform:
    """Load a mono 16-bit PCM WAV file, scaling samples to [-1, 1)."""
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ParseError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt: tuple[int, int, int, int] | None = None  # format, channels, rate, bits
    pcm: bytes | None = None
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_len,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + chunk_len]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise ParseError(f"{path}: truncated fmt chunk")
            audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            fmt = (audio_format, channels, rate, bits)
        elif chunk_id == b"data":
            if len(body) < chunk_len:
                raise ParseError(f"{path}: truncated data chunk")
            pcm = body
        pos += 8 + chunk_len + (chunk_len & 1)
    if fmt is None or pcm is None:
        raise ParseError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, bits = fmt
    if audio_format != _PCM_FORMAT:
        raise UnsupportedFormatError(f"{path}: compressed or float WAV (format {audio_format})")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if bits != 16:
        raise UnsupportedFormatError(f"{path}: expected 16-bit samples, got {bits}")
    raw = np.frombuffer(pcm[: len(pcm) - (len(pcm) % 2)], dtype="<i2")
    samples = raw.astype(np.float32) / 32768.0
    return Waveform(samples, int(rate), location=location)


def write_recording(path: str | Path, waveform: Waveform) -> None:
    """Write a waveform as mono 16-bit PCM WAV."""
    clipped = np.clip(waveform.samples, -1.0, 32767.0 / 32768.0)
    ints = np.round(clipped * 32768.0).astype("<i2")
    body = ints.tobytes()
    rate = waveform.sample_rate_hz
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _PCM_FORMAT, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(body))
    Path(path).write_bytes(header + body)


def resample(waveform: Waveform, target_rate_hz: int = PIPELINE_RATE_HZ) -> Waveform:
    """FFT-domain resampling to the pipeline rate.

    The spectrum is cut (or zero-padded) at the output's Nyquist bin, so
    content above it is removed instead of folding into the low band.
    """
    if waveform.sample_rate_hz == target_rate_hz:
        return waveform
    n_in = len(waveform.samples)
    n_out = int(round(n_in * target_rate_hz / waveform.sample_rate_hz))
    if n_out == 0:
        return replace(waveform, samples=np.zeros(0, dtype=np.float32), sample_rate_hz=target_rate_hz)
    spec = np.fft.rfft(waveform.samples.astype(np.float64))[: n_out // 2 + 1]
    spec = np.pad(spec, (0, n_out // 2 + 1 - len(spec)))
    samples = np.fft.irfft(spec, n=n_out) * (n_out / n_in)
    return replace(waveform, samples=samples.astype(np.float32), sample_rate_hz=target_rate_hz)


# --- Synthetic phonocardiogram generator -----------------------------------

_MURMUR_BAND_HZ = (100.0, 400.0)
_NOISE_RMS_FRACTION = 0.10


def _add_tone_burst(
    signal: np.ndarray,
    rate: int,
    center_s: float,
    freq_hz: float,
    width_s: float,
    amplitude: float,
) -> None:
    """Add a Gaussian-windowed tone in place, evaluated only within 6 sigma."""
    lo = max(0, int((center_s - 6.0 * width_s) * rate))
    hi = min(len(signal), int((center_s + 6.0 * width_s) * rate) + 1)
    if hi <= lo:
        return
    t = np.arange(lo, hi) / rate - center_s
    signal[lo:hi] += amplitude * np.exp(-0.5 * (t / width_s) ** 2) * np.sin(
        2.0 * math.pi * freq_hz * t
    )


def _bandpass(x: np.ndarray, rate_hz: int, lo_hz: float, hi_hz: float) -> np.ndarray:
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(len(x), d=1.0 / rate_hz)
    spec[(freqs < lo_hz) | (freqs > hi_hz)] = 0.0
    return np.fft.irfft(spec, n=len(x))


def synth_recording(label: MurmurLabel, duration_s: float, seed: int) -> Waveform:
    """Generate a deterministic synthetic PCG at 4000 Hz.

    Emits a ~1 Hz S1/S2 pulse train (fundamentals in 20-150 Hz, seeded
    jitter). When ``label`` is Present, a 100-400 Hz band-limited noise
    burst is inserted between S1 and S2 of every cycle. White noise at 10%
    of the clean-signal RMS is added in all cases. For a fixed seed the
    Absent and Present variants share the same base pulse train and noise,
    so the murmur is strictly additive.
    """
    if label not in (MurmurLabel.ABSENT, MurmurLabel.PRESENT):
        raise ConfigError(f"synth_recording supports Absent/Present, got {label}")
    if duration_s < 2.0:
        raise TooShortError(f"duration_s must be >= 2, got {duration_s}")
    rate = PIPELINE_RATE_HZ
    n = int(round(duration_s * rate))

    ss = np.random.SeedSequence(seed)
    rng_base, rng_murmur, rng_noise = (np.random.default_rng(c) for c in ss.spawn(3))

    signal = np.zeros(n)
    murmur_track = np.zeros(n)
    cycle_start = 0.15
    while cycle_start + 0.55 < duration_s:
        s1_freq = rng_base.uniform(28.0, 42.0)
        s2_freq = rng_base.uniform(48.0, 64.0)
        s2_offset = 0.30 + rng_base.uniform(-0.02, 0.02)
        _add_tone_burst(signal, rate, cycle_start, s1_freq, 0.020, 0.55)
        _add_tone_burst(signal, rate, cycle_start + s2_offset, s2_freq, 0.016, 0.42)
        lo = int(round((cycle_start + 0.10) * rate))
        hi = int(round((cycle_start + s2_offset - 0.03) * rate))
        if hi > lo:
            burst = rng_murmur.standard_normal(hi - lo)
            burst *= np.hanning(hi - lo)
            murmur_track[lo:hi] += burst
        period = 1.0 + rng_base.normal(0.0, 0.05)
        cycle_start += float(np.clip(period, 0.75, 1.3))

    if label is MurmurLabel.PRESENT:
        murmur = _bandpass(murmur_track, rate, *_MURMUR_BAND_HZ)
        peak = np.max(np.abs(murmur))
        if peak > 0:
            murmur *= 0.30 / peak
        signal = signal + murmur

    rms = float(np.sqrt(np.mean(signal**2)))
    signal = signal + _NOISE_RMS_FRACTION * rms * rng_noise.standard_normal(n)
    signal = np.clip(signal, -0.999, 0.999)
    return Waveform(signal.astype(np.float32), rate)


# --- CirCor adapter ---------------------------------------------------------

_CIRCOR_LOCATIONS = {"AV": Location.AV, "PV": Location.PV, "TV": Location.TV, "MV": Location.MV}


def circor_to_manifest(
    data_dir: str | Path,
    seed: int = 0,
    fractions: tuple[float, float, float] = (0.6, 0.3, 0.1),
) -> DatasetManifest:
    """Build a manifest from a directory of CirCor-style patient text files.

    Each ``<pid>.txt`` starts with ``<pid> <n_recordings> <rate>`` followed by
    recording rows whose tokens include a location code and a ``.wav`` name,
    and comment lines such as ``#Murmur: Present``. Splits are assigned per
    patient with a seeded shuffle at the given Train/Validation/Test
    fractions. Segmentation TSVs are ignored; the pipeline is
    segmentation-free.
    """
    base = Path(data_dir)
    records: list[PatientRecord] = []
    for meta_path in sorted(base.glob("*.txt")):
        pid = meta_path.stem
        label: MurmurLabel | None = None
        recordings: list[RecordingRef] = []
        for line in meta_path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                if key.strip().lower() == "murmur":
                    try:
                        label = MurmurLabel(value.strip())
                    except ValueError:
                        raise ParseError(f"{meta_path}: unknown murmur label {value!r}") from None
                continue
            tokens = line.split()
            wavs = [tok for tok in tokens if tok.lower().endswith(".wav")]
            if not wavs:
                continue
            loc = _CIRCOR_LOCATIONS.get(tokens[0], Location.OTHER)
            recordings.append(RecordingRef(loc, str(Path(wavs[0]))))
        if label is None or not recordings:
            continue
        # PatientRecord allows a location at most twice; CirCor has rare
        # triple-recorded sites, so surplus repeats are folded into Other.
        counts: dict[Location, int] = {}
        fixed: list[RecordingRef] = []
        for ref in recordings:
            counts[ref.location] = counts.get(ref.location, 0) + 1
            if counts[ref.location] > 2:
                ref = RecordingRef(Location.OTHER, ref.path)
            fixed.append(ref)
        records.append(PatientRecord(pid, label, tuple(fixed)))
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    n_train = int(round(fractions[0] * len(records)))
    n_val = int(round(fractions[1] * len(records)))
    entries = []
    for rank, idx in enumerate(order):
        if rank < n_train:
            split = Split.TRAIN
        elif rank < n_train + n_val:
            split = Split.VALIDATION
        else:
            split = Split.TEST
        entries.append(ManifestEntry(split, records[idx]))
    entries.sort(key=lambda e: e.record.patient_id)
    return DatasetManifest(tuple(entries))
