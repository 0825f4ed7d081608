import threading

import numpy as np
import pytest

from cosmix import autodiff as ad
from cosmix import features as ft


def naive_power_spectrum(frame, n_fft):
    """O(n^2) DFT oracle: explicit complex-exponential matrix."""
    padded = np.zeros(n_fft)
    padded[:len(frame)] = frame
    k = np.arange(n_fft // 2 + 1)[:, None]
    n = np.arange(n_fft)[None, :]
    basis = np.exp(-2j * np.pi * k * n / n_fft)
    return np.abs(basis @ padded) ** 2


class TestStftPower:
    def test_zero_wave_zero_spectrogram(self):
        out = ft.stft_power(np.zeros(16000))
        assert out.shape == (98, 257)
        assert np.all(out == 0)

    def test_shape_is_98_by_257(self):
        rng = np.random.default_rng(0)
        assert ft.stft_power(rng.normal(size=16000)).shape == (98, 257)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ft.stft_power(np.zeros(15999))

    def test_pure_tone_argmax_bin(self):
        t = np.arange(16000) / 16000.0
        wave = np.sin(2 * np.pi * 1000.0 * t)
        power = ft.stft_power(wave)
        expected_bin = round(1000 * 512 / 16000)  # 32
        assert np.all(power.argmax(axis=1) == expected_bin)

    def test_energy_non_negative(self):
        rng = np.random.default_rng(1)
        assert np.all(ft.stft_power(rng.normal(size=16000)) >= 0)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(2)
        wave = rng.normal(size=16000)
        power = ft.stft_power(wave)
        win = ft.hann_periodic(ft.WIN_LENGTH)
        for t in rng.choice(98, size=6, replace=False):
            frame = wave[t * ft.HOP_LENGTH:t * ft.HOP_LENGTH + ft.WIN_LENGTH] * win
            oracle = naive_power_spectrum(frame, ft.N_FFT)
            scale = np.maximum(np.abs(oracle), 1.0)
            assert np.max(np.abs(power[t] - oracle) / scale) < 1e-9

    def test_frame_covers_hop_offsets(self):
        # frame t covers [t*hop, t*hop + win); an impulse inside frame 5
        # is invisible to frame 6, which starts after it
        wave = np.zeros(16000)
        wave[ft.HOP_LENGTH * 5 + 50] = 1.0
        power = ft.stft_power(wave)
        assert power[5].sum() > 0
        assert power[6].sum() == 0


class TestMelFilterbank:
    def test_rows_sum_positive(self):
        fbank = ft.mel_filterbank()
        assert fbank.shape == (64, 257)
        assert np.all(fbank.sum(axis=1) > 0)
        assert np.all(fbank >= 0)

    def test_centers_monotone_increasing(self):
        centers = ft.filter_centers_hz()
        assert np.all(np.diff(centers) > 0)

    def test_center_range_for_default_band(self):
        centers = ft.filter_centers_hz()
        assert centers[0] < centers[63] < 8000.0
        # first center sits just above f_min on the mel scale
        mel_pts = np.linspace(ft.hz_to_mel(20.0), ft.hz_to_mel(8000.0), 66)
        np.testing.assert_allclose(centers[0], ft.mel_to_hz(mel_pts[1]), atol=1e-9)

    def test_htk_mel_formula(self):
        np.testing.assert_allclose(ft.hz_to_mel(700.0), 2595.0 * np.log10(2.0), atol=1e-12)
        np.testing.assert_allclose(ft.mel_to_hz(ft.hz_to_mel(1234.5)), 1234.5, atol=1e-9)


class TestLogFbank:
    def test_zero_wave_hits_floor(self):
        feat = ft.log_fbank_batch(np.zeros((1, 16000)))[0]
        np.testing.assert_allclose(feat, np.log(ft.LOG_FLOOR), atol=1e-12)

    def test_shape_is_98_by_64(self):
        rng = np.random.default_rng(3)
        for wave in (rng.normal(size=16000), np.zeros(16000), np.ones(16000)):
            assert ft.log_fbank_batch(wave[None])[0].shape == (98, 64)

    def test_floor_is_lower_bound(self):
        rng = np.random.default_rng(4)
        feat = ft.log_fbank_batch(rng.normal(size=(1, 16000)) * 1e-8)[0]
        assert feat.min() >= np.log(ft.LOG_FLOOR) - 1e-12

    def test_scaling_by_two_bounded_by_log4(self):
        rng = np.random.default_rng(5)
        wave = rng.normal(size=16000) * 0.1
        a = ft.log_fbank_batch(wave[None])[0]
        b = ft.log_fbank_batch(2 * wave[None])[0]
        delta = b - a
        assert delta.max() <= np.log(4.0) + 1e-9
        floored = np.isclose(a, np.log(ft.LOG_FLOOR))
        assert np.all(delta[floored] >= -1e-12)

    def test_time_shift_covariance_on_interior_rows(self):
        rng = np.random.default_rng(6)
        wave = rng.normal(size=16000)
        shifted = np.zeros_like(wave)
        shifted[ft.HOP_LENGTH:] = wave[:-ft.HOP_LENGTH]
        a = ft.log_fbank_batch(wave[None])[0]
        b = ft.log_fbank_batch(shifted[None])[0]
        # row t of the shifted clip sees what row t-1 of the original saw,
        # except near the edges
        np.testing.assert_allclose(b[10:90], a[9:89], atol=1e-9)

    def test_batch_variant_matches_rowwise(self):
        rng = np.random.default_rng(8)
        fbank = ft.mel_filterbank()
        for n in (1, 2, 7, 33, 96):
            waves = rng.normal(size=(n, 16000)) * 0.3
            for dtype in (np.float32, np.float64):
                batch = ft.log_fbank_batch(waves, dtype)
                assert batch.shape == (n, 98, 64) and batch.dtype == dtype
                single = np.stack([ft.log_fbank_batch(w[None], dtype)[0] for w in waves])
                np.testing.assert_array_equal(batch, single)
                # the whole-stack formula: one FFT call and one filterbank GEMM
                power = ft._power_batch(waves, dtype).reshape(-1, ft.N_BINS)
                whole = np.log(np.maximum(power @ fbank.T.astype(dtype),
                                          np.asarray(ft.LOG_FLOOR, dtype=dtype)))
                np.testing.assert_array_equal(batch, whole.reshape(n, 98, 64))

    def test_stft_power_is_row_of_batched_power(self):
        rng = np.random.default_rng(9)
        waves = rng.normal(size=(3, 16000))
        batched = ft._power_batch(waves, np.float64)
        for row, wave in enumerate(waves):
            np.testing.assert_array_equal(ft.stft_power(wave), batched[row])

    def test_filterbank_writes_cannot_change_features(self):
        rng = np.random.default_rng(10)
        wave = rng.normal(size=16000)
        before = ft.log_fbank_batch(wave[None])[0]
        fbank = ft.mel_filterbank()
        with pytest.raises(ValueError):
            fbank *= 2.0
        np.testing.assert_array_equal(ft.log_fbank_batch(wave[None])[0], before)

    def test_batch_variant_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ft.log_fbank_batch(np.zeros(16000))


class TestRowSpans:
    """log_fbank_batch's rows on the pool worker (autodiff._share)."""

    @staticmethod
    def pooled(monkeypatch, span_rows):
        """Force the pool at ``span_rows`` rows per span; returns the spans
        handed to it."""
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        monkeypatch.setattr(ad, "BLOCK_CLIPS", span_rows)
        share, spans = ad._share, []

        def spy(fn, fn_spans):
            fn_spans = list(fn_spans)
            spans.extend(fn_spans)
            return share(fn, fn_spans)
        monkeypatch.setattr(ad, "_share", spy)
        return spans

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 33, 96])
    @pytest.mark.parametrize("span_rows", [1, 3])  # 3 leaves a longer last span
    def test_pooled_rows_match_inline(self, monkeypatch, span_rows, n, dtype):
        spans = self.pooled(monkeypatch, span_rows)
        waves = np.random.default_rng(n).normal(size=(n, 16000)) * 0.3
        pooled = ft.log_fbank_batch(waves, dtype)
        # the last span takes the remainder; fewer than two spans, a one-row
        # call among them, never reach the pool
        last = (n // span_rows - 1) * span_rows
        assert spans == ([(lo, lo + span_rows) for lo in range(0, last, span_rows)]
                         + [(last, n)] if n >= 2 * span_rows else [])
        monkeypatch.setattr(ad, "POOL_WORKERS", 0)
        inline = ft.log_fbank_batch(waves, dtype)
        assert pooled.dtype == dtype
        assert np.array_equal(pooled, inline)

    def test_worker_error_surfaces_in_caller(self, monkeypatch):
        spans = self.pooled(monkeypatch, 1)
        caller, power_batch = threading.current_thread(), ft._power_batch
        worker_started = threading.Event()

        def failing_on_worker(waves, dtype):
            if threading.current_thread() is caller:
                assert worker_started.wait(10), "the pool worker took no row"
                return power_batch(waves, dtype)
            worker_started.set()
            raise RuntimeError("row failed on the worker")
        monkeypatch.setattr(ft, "_power_batch", failing_on_worker)
        with pytest.raises(RuntimeError, match="row failed on the worker"):
            ft.log_fbank_batch(np.zeros((4, 16000)))
        assert spans == [(0, 1), (1, 2), (2, 3), (3, 4)]
