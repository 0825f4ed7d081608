import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosmix import augment as ag


class TestBetaSampler:
    def test_mean_near_half_for_alpha_10(self):
        rng = np.random.default_rng(0)
        params = ag.BetaParams(alpha=10.0)
        draws = np.array([ag.sample_beta(params, rng) for _ in range(100_000)])
        assert 0.49 <= draws.mean() <= 0.51

    def test_variance_for_alpha_10(self):
        rng = np.random.default_rng(1)
        params = ag.BetaParams(alpha=10.0)
        draws = np.array([ag.sample_beta(params, rng) for _ in range(100_000)])
        expected = 1.0 / 84.0  # a*b / ((a+b)^2 (a+b+1)) at a=b=10
        assert abs(draws.var() - expected) <= 0.1 * expected

    def test_alpha_half_is_bimodal(self):
        rng = np.random.default_rng(2)
        n = 100_000
        mid = lambda a: np.mean([(0.4 < ag.sample_beta(ag.BetaParams(alpha=a), rng) < 0.6)
                                 for _ in range(n)])
        assert mid(0.5) < mid(10.0)

    def test_open_interval(self):
        rng = np.random.default_rng(3)
        params = ag.BetaParams(alpha=0.1)
        draws = [ag.sample_beta(params, rng) for _ in range(5000)]
        assert all(0 < d < 1 for d in draws)

    def test_deterministic_given_state(self):
        params = ag.BetaParams(alpha=10.0)
        a = [ag.sample_beta(params, np.random.default_rng(9)) for _ in range(10)]
        b = [ag.sample_beta(params, np.random.default_rng(9)) for _ in range(10)]
        assert a == b

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ag.BetaParams(alpha=0.0)
        with pytest.raises(ValueError):
            ag.BetaParams(alpha=-1.0)

    @pytest.mark.parametrize("alpha", [0.5, 10.0])
    def test_draws_equal_the_plain_ratio(self, alpha):
        # g1 / (g1 + g2) wherever the sum is positive and finite
        def reference_gamma(a, rng):
            if a < 1.0:
                u = rng.uniform()
                while u == 0.0:
                    u = rng.uniform()
                return reference_gamma(a + 1.0, rng) * u ** (1.0 / a)
            d = a - 1.0 / 3.0
            c = 1.0 / math.sqrt(9.0 * d)
            while True:
                x = rng.standard_normal()
                v = 1.0 + c * x
                if v <= 0.0:
                    continue
                v = v * v * v
                u = rng.uniform()
                if u < 1.0 - 0.0331 * x ** 4:
                    return d * v
                if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                    return d * v

        params = ag.BetaParams(alpha=alpha)
        ours, ref = np.random.default_rng(23), np.random.default_rng(23)
        for _ in range(5000):
            g1, g2 = reference_gamma(alpha, ref), reference_gamma(alpha, ref)
            expected = min(max(g1 / (g1 + g2), 1e-12), 1.0 - 1e-12)
            assert ag.sample_beta(params, ours) == expected
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_tiny_alpha_draws_stay_inside(self):
        # at alpha 0.001 both gamma variates often underflow to 0
        rng = np.random.default_rng(24)
        params = ag.BetaParams(alpha=0.001)
        draws = np.array([ag.sample_beta(params, rng) for _ in range(20_000)])
        assert np.all((draws >= 1e-12) & (draws <= 1.0 - 1e-12))
        # Beta(a, a) for small a puts half its mass near each end
        assert 0.45 < np.mean(draws > 0.5) < 0.55

    def test_denormal_alpha_draws_stay_inside(self):
        # below alpha ~1e-307 even the variates' logs overflow to -inf
        rng = np.random.default_rng(30)
        draws = [ag.sample_beta(ag.BetaParams(alpha=1e-320), rng) for _ in range(100)]
        assert all(1e-12 <= d <= 1.0 - 1e-12 for d in draws)

    def test_huge_alpha_draws_near_half(self):
        # the two variates are near 1e308 and their sum overflows
        rng = np.random.default_rng(25)
        draws = [ag.sample_beta(ag.BetaParams(alpha=1e308), rng) for _ in range(100)]
        assert all(abs(d - 0.5) < 1e-6 for d in draws)

    def test_matches_numpy_beta_distribution(self):
        # two-sided moment cross-check against numpy's own sampler
        rng = np.random.default_rng(4)
        ours = np.array([ag.sample_beta(ag.BetaParams(alpha=2.0), rng) for _ in range(50_000)])
        ref = np.random.default_rng(5).beta(2.0, 2.0, size=50_000)
        assert abs(ours.mean() - ref.mean()) < 0.01
        assert abs(ours.var() - ref.var()) < 0.005


class TestMixup:
    def test_lambda_one_returns_first(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=100), rng.normal(size=100)
        np.testing.assert_array_equal(ag.mixup_waveforms(a, b, 1.0), a)

    def test_half_mix_of_constants(self):
        out = ag.mixup_waveforms(np.ones(50), np.zeros(50), 0.5)
        np.testing.assert_array_equal(out, np.full(50, 0.5))

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=16000), rng.normal(size=16000)
        out = ag.mixup_waveforms(a, b, 0.3)
        oracle = np.array([0.3 * a[t] + 0.7 * b[t] for t in range(0, 16000, 97)])
        np.testing.assert_allclose(out[::97], oracle, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            ag.mixup_waveforms(np.zeros(10), np.zeros(11), 0.5)

    @given(lam=st.floats(0.0, 1.0), scale=st.floats(-3.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_exactly_linear(self, lam, scale):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=64), rng.normal(size=64)
        left = ag.mixup_waveforms(scale * a, scale * b, lam)
        right = scale * ag.mixup_waveforms(a, b, lam)
        np.testing.assert_allclose(left, right, atol=1e-12)

    @given(lam=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, lam):
        rng = np.random.default_rng(9)
        a, b = rng.normal(size=64), rng.normal(size=64)
        np.testing.assert_allclose(ag.mixup_waveforms(a, b, lam),
                                   ag.mixup_waveforms(b, a, 1.0 - lam), atol=1e-12)


def reference_shift(wave, s):
    """shift_samples as it was with a branch per sign of the shift."""
    wave = np.asarray(wave, dtype=np.float64)
    out = np.zeros_like(wave)
    n = wave.size
    if abs(s) >= n:
        return out
    if s >= 0:
        out[s:] = wave[:n - s] if s else wave
    else:
        out[:n + s] = wave[-s:]
    return out


def reference_stretch(wave, factor):
    """stretch_to_factor as it was: resample to round(n / factor) samples,
    then truncate or zero-pad."""
    wave = np.asarray(wave, dtype=np.float64)
    n = wave.size
    new_len = int(round(n / factor))
    positions = np.minimum(np.arange(new_len) * factor, n - 1.0)
    resampled = np.interp(positions, np.arange(n, dtype=np.float64), wave)
    if new_len >= n:
        return resampled[:n]
    out = np.zeros(n, dtype=np.float64)
    out[:new_len] = resampled
    return out


def signed_wave(rng, n, dtype):
    """Normal samples with some exact zeros of either sign."""
    wave = rng.normal(size=n).astype(dtype)
    wave[rng.integers(0, n, size=max(1, n // 50))] = 0.0
    wave[rng.integers(0, n, size=max(1, n // 50))] = -0.0
    return wave


def assert_same_bits(out, ref):
    assert out.dtype == ref.dtype == np.float64
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))


class TestTimeShift:
    def test_zero_shift_identity(self):
        rng = np.random.default_rng(11)
        wave = rng.normal(size=16000)
        np.testing.assert_array_equal(ag.shift_samples(wave, 0), wave)

    def test_positive_shift_moves_right(self):
        rng = np.random.default_rng(12)
        wave = rng.normal(size=16000)
        out = ag.shift_samples(wave, 1600)  # 100 ms at 16 kHz
        np.testing.assert_array_equal(out[1600:], wave[:-1600])
        assert np.all(out[:1600] == 0)

    def test_negative_shift_moves_left(self):
        rng = np.random.default_rng(13)
        wave = rng.normal(size=16000)
        out = ag.shift_samples(wave, -1600)
        np.testing.assert_array_equal(out[:14400], wave[1600:])
        assert np.all(out[14400:] == 0)

    @pytest.mark.parametrize("s", [16000, 20000, -16000, -20000])
    def test_shift_past_the_clip_gives_zeros(self, s):
        out = ag.shift_samples(np.ones(16000), s)
        np.testing.assert_array_equal(out, np.zeros(16000))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_branching_reference(self, dtype):
        rng = np.random.default_rng(26)
        edges = [0, 1, -1, 16000, -16000, 15999, -15999, 20000, -20000]
        shifts = edges + [int(s) for s in rng.integers(-20000, 20001, size=300)]
        for s in shifts:
            wave = signed_wave(rng, 16000, dtype)
            assert_same_bits(ag.shift_samples(wave, s), reference_shift(wave, s))

    def test_random_shift_bounds_and_length(self):
        rng = np.random.default_rng(14)
        wave = np.ones(16000)
        for _ in range(50):
            out = ag.time_shift(wave, rng)
            assert out.shape == (16000,)
            zeros = int((out == 0).sum())
            assert zeros <= 1600


class TestTimeStretch:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(15)
        wave = rng.normal(size=16000)
        np.testing.assert_allclose(ag.stretch_to_factor(wave, 1.0), wave, atol=1e-9)

    def test_slowdown_truncates(self):
        # factor 0.9 -> intermediate round(16000/0.9) = 17778 samples
        wave = np.arange(1, 16001, dtype=np.float64)
        out = ag.stretch_to_factor(wave, 0.9)
        assert out.shape == (16000,)
        np.testing.assert_allclose(out[-1], 15999 * 0.9 + 1, atol=1e-6)
        assert not np.any(out == 0)  # no padding when slowed down

    def test_speedup_pads(self):
        # factor 1.1 -> intermediate round(16000/1.1) = 14545 samples
        wave = np.ones(16000)
        out = ag.stretch_to_factor(wave, 1.1)
        assert out.shape == (16000,)
        assert np.all(out[:14545] == 1.0)
        assert np.all(out[14545:] == 0.0)

    def test_matches_truncating_and_padding_reference(self):
        rng = np.random.default_rng(28)
        edges = [1e-3, 37.0, 0.9, 1.1, 1.0, 0.5, 2.0]
        factors = edges + list(np.exp(rng.uniform(math.log(1e-3), math.log(37.0), 200)))
        for factor in factors:
            wave = signed_wave(rng, 1600, np.float64)
            assert_same_bits(ag.stretch_to_factor(wave, factor),
                             reference_stretch(wave, factor))
        for factor in rng.uniform(0.9, 1.1, 50):  # the default range, full clips
            wave = signed_wave(rng, 16000, np.float32)
            assert_same_bits(ag.stretch_to_factor(wave, factor),
                             reference_stretch(wave, factor))

    @pytest.mark.parametrize("factor", [1e-6, 1e-320])
    def test_extreme_slowdown_keeps_only_the_clip(self, factor):
        # the resampled clip would have 1.6e10 samples, or an infinite count
        wave = np.random.default_rng(29).normal(size=16000)
        start = time.perf_counter()
        out = ag.stretch_to_factor(wave, factor)
        assert time.perf_counter() - start < 5.0
        assert out.shape == (16000,)
        # every position k * factor lies below 1: a line from wave[0] to wave[1]
        np.testing.assert_allclose(out, wave[0] + np.arange(16000) * factor
                                   * (wave[1] - wave[0]), rtol=1e-9, atol=1e-12)

    def test_random_factor_within_range(self):
        rng = np.random.default_rng(16)
        wave = np.ones(16000)
        for _ in range(20):
            out = ag.time_stretch(wave, rng)
            assert out.shape == (16000,)
            pad = int((out == 0).sum())
            assert pad <= 16000 - round(16000 / 1.1) + 1


class TestSpecAugment:
    def test_zero_masks_identity(self):
        rng = np.random.default_rng(17)
        feat = rng.normal(size=(98, 64))
        cfg = ag.AugmentConfig(time_mask_max=0, freq_mask_max=0)
        np.testing.assert_array_equal(ag.spec_augment(feat, rng, cfg), feat)

    def test_masked_rows_are_contiguous(self):
        # pin a generator whose first draw gives a full-width time mask
        feat = np.full((98, 64), 5.0)
        cfg = ag.AugmentConfig(time_mask_max=13, freq_mask_max=0)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            out = ag.spec_augment(feat, rng, cfg)
            masked = np.where(np.all(out == ag.MASK_VALUE, axis=1))[0]
            if len(masked) == 13:
                assert np.array_equal(masked, np.arange(masked[0], masked[0] + 13))
                return
        pytest.fail("no seed produced a width-13 mask in 200 tries")

    def test_shape_preserved(self):
        rng = np.random.default_rng(18)
        out = ag.spec_augment(rng.normal(size=(98, 64)), rng)
        assert out.shape == (98, 64)

    def test_mask_budget_bound(self):
        feat = np.full((98, 64), 3.0)
        cfg = ag.AugmentConfig(n_time_masks=2, n_freq_masks=2)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            out = ag.spec_augment(feat, rng, cfg)
            rows = int(np.all(out == ag.MASK_VALUE, axis=1).sum())
            cols = int(np.all(out == ag.MASK_VALUE, axis=0).sum())
            assert rows <= 2 * 13
            assert cols <= 2 * 7

    def test_oversize_mask_rejected(self):
        rng = np.random.default_rng(19)
        cfg = ag.AugmentConfig(freq_mask_max=7)
        with pytest.raises(ValueError):
            ag.spec_augment(np.zeros((98, 5)), rng, cfg)

    def test_input_not_mutated(self):
        rng = np.random.default_rng(20)
        feat = rng.normal(size=(98, 64))
        copy = feat.copy()
        ag.spec_augment(feat, rng)
        np.testing.assert_array_equal(feat, copy)


class TestDeterminism:
    def test_all_augmentations_reproducible(self):
        wave = np.random.default_rng(21).normal(size=16000)
        feat = np.random.default_rng(22).normal(size=(98, 64))
        a = ag.time_shift(wave, np.random.default_rng(1))
        b = ag.time_shift(wave, np.random.default_rng(1))
        np.testing.assert_array_equal(a, b)
        a = ag.time_stretch(wave, np.random.default_rng(2))
        b = ag.time_stretch(wave, np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)
        a = ag.spec_augment(feat, np.random.default_rng(3))
        b = ag.spec_augment(feat, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
