"""Segmentation, STFT, the PSD gate and model input preparation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurkit import dsp
from murmurkit.dataset import Waveform
from murmurkit.dsp import (
    Segment,
    Spectrogram,
    psd_ratio,
    quality_filter,
    segment,
    stft_spectrogram,
)
from murmurkit.errors import ConfigError, TooShortError


def _wave(duration_s: float, rate: int = 4000) -> Waveform:
    return Waveform(np.zeros(int(duration_s * rate), dtype=np.float32), rate)


class TestSegment:
    def test_count_8s_hop1(self):
        assert len(segment(_wave(8.0), 2.0, 1.0)) == 7  # floor((8-2)/1) + 1

    def test_exact_fit(self):
        segs = segment(_wave(2.0), 2.0, 1.0)
        assert len(segs) == 1
        assert segs[0].start_s == 0.0

    def test_oversampled_hop(self):
        assert len(segment(_wave(8.0), 2.0, 0.25)) == 25  # floor(6/0.25) + 1

    def test_short_input_empty(self):
        assert segment(_wave(1.5), 2.0, 1.0) == []

    def test_starts_tile_left_aligned(self):
        segs = segment(_wave(5.0), 2.0, 1.0)
        assert [s.start_s for s in segs] == [0.0, 1.0, 2.0, 3.0]
        assert all(len(s.samples) == 8000 for s in segs)

    def test_wrong_rate_rejected(self):
        with pytest.raises(ConfigError):
            segment(_wave(4.0, rate=8000), 2.0, 1.0)

    def test_nonpositive_hop_rejected(self):
        with pytest.raises(ConfigError):
            segment(_wave(4.0), 2.0, 0.0)

    @pytest.mark.parametrize("duration_s", [4.0, 1.5])
    def test_hop_under_one_sample_rejected(self, duration_s):
        # 1e-4 s is 0.4 samples at 4 kHz: the hop would round to 0 and tile nothing.
        with pytest.raises(ConfigError):
            segment(_wave(duration_s), 2.0, 1e-4)


def _segment_of(samples: np.ndarray) -> Segment:
    return Segment(samples=samples.astype(np.float64), start_s=0.0)


class TestStft:
    def test_shape_33x124(self):
        seg = _segment_of(np.random.default_rng(0).standard_normal(8000))
        spec = stft_spectrogram(seg, 128)
        assert spec.shape == (33, 124)
        assert spec.freq_resolution_hz == 31.25

    def test_shapes_other_nfft(self):
        seg = _segment_of(np.random.default_rng(0).standard_normal(8000))
        assert stft_spectrogram(seg, 64).shape == (17, 249)
        assert stft_spectrogram(seg, 256).shape == (65, 61)

    def test_zero_input_zero_output(self):
        spec = stft_spectrogram(_segment_of(np.zeros(8000)), 128)
        assert np.all(spec.bins == 0)

    def test_pure_tone_peaks_at_expected_bin(self):
        t = np.arange(8000) / 4000.0
        seg = _segment_of(1000.0 * np.sin(2 * math.pi * 500.0 * t))
        spec = stft_spectrogram(seg, 128)
        assert np.all(spec.bins.argmax(axis=0) == 16)  # 500 / 31.25

    def test_too_short(self):
        with pytest.raises(TooShortError):
            stft_spectrogram(_segment_of(np.zeros(100)), 128)

    def test_invalid_nfft(self):
        with pytest.raises(ConfigError):
            stft_spectrogram(_segment_of(np.zeros(8000)), 100)

    def test_nonnegative_and_finite(self):
        seg = _segment_of(np.random.default_rng(1).standard_normal(8000))
        spec = stft_spectrogram(seg, 128)
        assert np.all(spec.bins >= 0)
        assert np.all(np.isfinite(spec.bins))

    def test_parseval_per_frame(self):
        # Sum of |X|^2 over the full one-sided spectrum (with doubling for the
        # interior bins) equals n_fft times the windowed-frame energy.
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(8000)
        n_fft = 128
        power = dsp._stft_power_onesided(samples, n_fft)
        window = dsp.hann_periodic(n_fft)
        hop = n_fft // 2
        frames = (samples[np.arange(n_fft)[None, :] + hop * np.arange(power.shape[1])[:, None]]
                  * window[None, :])
        time_energy = (frames**2).sum()
        doubled = 2 * power[1:-1].sum() + power[0].sum() + power[-1].sum()
        assert doubled / n_fft == pytest.approx(time_energy, rel=1e-6)

    def test_shift_by_one_hop_shifts_columns(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal(9000)
        a = stft_spectrogram(_segment_of(base[:8000]), 128)
        b = stft_spectrogram(_segment_of(base[64 : 64 + 8000]), 128)
        np.testing.assert_allclose(a.bins[:, 1:], b.bins[:, :-1], atol=1e-9)


def _spec_with_energy_at(bin_idx: int, n_fft: int = 128) -> Spectrogram:
    f = dsp.retained_bins(n_fft)
    bins = np.zeros((f, 4))
    bins[bin_idx] = 1.0
    return Spectrogram(bins=bins, n_fft=n_fft, freq_resolution_hz=4000 / n_fft)


class TestPsdRatio:
    def test_all_energy_in_band(self):
        assert psd_ratio(_spec_with_energy_at(3)) == 1.0  # 93.75 Hz

    def test_dc_excluded(self):
        assert psd_ratio(_spec_with_energy_at(0)) == 0.0

    def test_uniform_energy(self):
        f = dsp.retained_bins(128)
        spec = Spectrogram(bins=np.ones((f, 7)), n_fft=128, freq_resolution_hz=31.25)
        assert psd_ratio(spec) == pytest.approx(6 / 33)  # band bins 1..6 of 33

    def test_zero_total(self):
        spec = Spectrogram(bins=np.zeros((33, 5)), n_fft=128, freq_resolution_hz=31.25)
        assert psd_ratio(spec) == 0.0

    def test_band_edges(self):
        assert dsp.band_bin_range(31.25) == (1, 6)
        assert dsp.band_bin_range(62.5) == (1, 3)
        assert dsp.band_bin_range(15.625) == (2, 12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        bins = rng.random((33, 6)) * rng.integers(1, 100)
        spec = Spectrogram(bins=bins, n_fft=128, freq_resolution_hz=31.25)
        assert 0.0 <= psd_ratio(spec) <= 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_monotone_under_in_band_energy(self, seed):
        rng = np.random.default_rng(seed)
        bins = rng.random((33, 6))
        spec = Spectrogram(bins=bins, n_fft=128, freq_resolution_hz=31.25)
        boosted = bins.copy()
        boosted[3] += rng.random(6)  # inside 20-200 Hz
        spec2 = Spectrogram(bins=boosted, n_fft=128, freq_resolution_hz=31.25)
        assert psd_ratio(spec2) >= psd_ratio(spec)


def _spec_with_ratio(ratio: float, start_s: float, n_fft: int = 128) -> Spectrogram:
    f = dsp.retained_bins(n_fft)
    bins = np.zeros((f, 2))
    bins[3] = ratio  # in band
    bins[20] = 1.0 - ratio  # out of band
    return Spectrogram(
        bins=bins, n_fft=n_fft, freq_resolution_hz=4000 / n_fft, start_s=start_s
    )


class TestQualityFilter:
    def test_all_pass(self):
        specs = [_spec_with_ratio(r, i) for i, r in enumerate([0.5, 0.6, 0.7, 0.8, 0.9, 0.95])]
        report = quality_filter(specs, 0.45)
        assert all(report.kept)

    def test_minimum_five_kept(self):
        specs = [_spec_with_ratio(0.1, i) for i in range(7)]
        report = quality_filter(specs, 0.45)
        assert sum(report.kept) == 5
        assert report.kept_indices() == [0, 1, 2, 3, 4]  # ties break by start time

    def test_fewer_than_min_keep(self):
        specs = [_spec_with_ratio(0.1, i) for i in range(3)]
        report = quality_filter(specs, 0.45)
        assert all(report.kept)

    def test_top_up_takes_highest(self):
        ratios = [0.1, 0.5, 0.2, 0.4, 0.05, 0.3]
        specs = [_spec_with_ratio(r, i) for i, r in enumerate(ratios)]
        report = quality_filter(specs, 0.9, min_keep=3)
        assert report.kept_indices() == [1, 3, 5]

    def test_never_fewer_than_min_available(self):
        rng = np.random.default_rng(0)
        for n in range(1, 12):
            specs = [_spec_with_ratio(float(rng.random()), i) for i in range(n)]
            report = quality_filter(specs, float(rng.random()))
            assert sum(report.kept) >= min(5, n)

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            quality_filter([], 1.5)


class TestModelInput:
    def test_standardized(self):
        seg = _segment_of(np.random.default_rng(5).standard_normal(8000))
        x = dsp.model_input(stft_spectrogram(seg, 128))
        assert x.shape == (1, 33, 124)
        assert x.dtype == np.float32
        assert abs(float(x.mean())) < 1e-5
        assert float(x.std()) == pytest.approx(1.0, abs=1e-4)

    def test_constant_input_zeros(self):
        spec = Spectrogram(bins=np.full((33, 4), 2.5), n_fft=128, freq_resolution_hz=31.25)
        assert np.all(dsp.model_input(spec) == 0.0)
