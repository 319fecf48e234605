"""Segmentation, Hann-window STFT spectrograms, and the PSD quality gate.

The quality gate compares in-band power (20-200 Hz, where S1/S2 energy
concentrates) to total retained power (up to 1 kHz) and keeps segments whose
ratio clears a threshold, never dropping below the minimum per location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import PIPELINE_RATE_HZ, Waveform
from .errors import ConfigError, TooShortError

FREQ_CUTOFF_HZ = 1000.0
BAND_LO_HZ = 20.0
BAND_HI_HZ = 200.0
VALID_N_FFT = (64, 128, 256)
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class Segment:
    """A fixed-length window of a waveform."""

    samples: np.ndarray
    start_s: float


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude-squared STFT matrix truncated to bins at or below 1 kHz."""

    bins: np.ndarray  # (F, T), |X|^2
    n_fft: int
    freq_resolution_hz: float
    start_s: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.bins.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class QualityReport:
    """The keep decision for each spectrogram of one location."""

    kept: tuple[bool, ...]

    def kept_indices(self) -> list[int]:
        return [i for i, k in enumerate(self.kept) if k]


def segment(waveform: Waveform, window_s: float = 2.0, hop_s: float = 1.0) -> list[Segment]:
    """Tile a waveform into left-aligned windows; the trailing remainder is
    dropped. A hop that rounds to less than one sample is rejected."""
    if waveform.sample_rate_hz != PIPELINE_RATE_HZ:
        raise ConfigError(
            f"expected {PIPELINE_RATE_HZ} Hz input, got {waveform.sample_rate_hz} Hz; "
            "resample first"
        )
    rate = waveform.sample_rate_hz
    win = int(round(window_s * rate))
    hop = int(round(hop_s * rate))
    if hop < 1:
        raise ConfigError(f"hop_s {hop_s} rounds to {hop} samples at {rate} Hz; it must be at least one")
    if len(waveform.samples) < win:
        return []
    count = (len(waveform.samples) - win) // hop + 1
    return [
        Segment(samples=waveform.samples[lo : lo + win], start_s=lo / rate)
        for lo in range(0, count * hop, hop)
    ]


def hann_periodic(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window: 0.5 * (1 - cos(2*pi*k/n))."""
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * math.pi * k / n))


def _frame(samples: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    n_frames = (len(samples) - n_fft) // hop + 1
    idx = np.arange(n_fft)[None, :] + hop * np.arange(n_frames)[:, None]
    return samples[idx]


def _stft_power_onesided(samples: np.ndarray, n_fft: int) -> np.ndarray:
    """Full one-sided |X|^2 matrix, shape (n_fft//2 + 1, T), before truncation."""
    hop = n_fft // 2
    frames = _frame(np.asarray(samples, dtype=np.float64), n_fft, hop)
    frames = frames * hann_periodic(n_fft)[None, :]
    spec = np.fft.rfft(frames, axis=1)
    return (spec.real**2 + spec.imag**2).T


def retained_bins(n_fft: int, rate_hz: int = PIPELINE_RATE_HZ) -> int:
    """Count of one-sided bins with center frequency <= 1 kHz (inclusive)."""
    df = rate_hz / n_fft
    return min(n_fft // 2 + 1, int(math.floor(FREQ_CUTOFF_HZ / df)) + 1)


def stft_spectrogram(seg: Segment, n_fft: int) -> Spectrogram:
    """Hann-window STFT with 50% frame overlap, truncated to <= 1 kHz rows."""
    if n_fft not in VALID_N_FFT:
        raise ConfigError(f"n_fft must be one of {VALID_N_FFT}, got {n_fft}")
    if len(seg.samples) < n_fft:
        raise TooShortError(f"segment has {len(seg.samples)} samples, need >= {n_fft}")
    power = _stft_power_onesided(seg.samples, n_fft)
    f_keep = retained_bins(n_fft)
    return Spectrogram(
        bins=np.ascontiguousarray(power[:f_keep]),
        n_fft=n_fft,
        freq_resolution_hz=PIPELINE_RATE_HZ / n_fft,
        start_s=seg.start_s,
    )


def band_bin_range(freq_resolution_hz: float) -> tuple[int, int]:
    """Inclusive bin range covering 20-200 Hz: ceil at the low edge, floor at the high."""
    bx = int(math.ceil(BAND_LO_HZ / freq_resolution_hz))
    by = int(math.floor(BAND_HI_HZ / freq_resolution_hz))
    return bx, by


def psd_ratio(spec: Spectrogram) -> float:
    """In-band power over total retained power; 0 when the total is 0."""
    bx, by = band_bin_range(spec.freq_resolution_hz)
    total = float(spec.bins.sum())
    if total <= 0.0:
        return 0.0
    band = float(spec.bins[bx : by + 1].sum())
    return band / total


def quality_filter(
    specs: list[Spectrogram], psd_thr: float, min_keep: int = 5
) -> QualityReport:
    """Keep spectrograms with ratio >= psd_thr, topping up to min_keep by rank.

    If fewer than ``min_keep`` clear the threshold, the ``min_keep``
    highest-ratio spectrograms are kept regardless (all of them when fewer
    exist). Ties break toward the earlier start time.
    """
    if not 0.0 <= psd_thr <= 1.0:
        raise ConfigError(f"psd_thr must be in [0, 1], got {psd_thr}")
    ratios = [psd_ratio(s) for s in specs]
    kept = [r >= psd_thr for r in ratios]
    floor = min(min_keep, len(specs))
    if sum(kept) < floor:
        order = sorted(range(len(specs)), key=lambda i: (-ratios[i], specs[i].start_s, i))
        kept = [False] * len(specs)
        for i in order[:floor]:
            kept[i] = True
    return QualityReport(tuple(kept))


def model_input(spec: Spectrogram) -> np.ndarray:
    """Network input: log(|X|^2 + 1e-10), standardized per spectrogram.

    Returns a (1, F, T) float32 array. A constant spectrogram standardizes
    to zeros.
    """
    x = np.log(spec.bins + LOG_FLOOR)
    std = float(x.std())
    if std < 1e-12:
        x = np.zeros_like(x)
    else:
        x = (x - x.mean()) / std
    return x[None, :, :].astype(np.float32)

