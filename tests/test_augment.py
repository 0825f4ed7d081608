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


class TestMixLabels:
    def _one_hot(self, k):
        v = np.zeros(10)
        v[k] = 1.0
        return v

    def test_equal_labels_fixed_point(self):
        y = self._one_hot(3)
        for lam in (0.0, 0.25, 1.0):
            np.testing.assert_array_equal(ag.mix_labels(y, y, lam), y)

    def test_two_class_mix(self):
        out = ag.mix_labels(self._one_hot(2), self._one_hot(5), 0.7)
        assert out[2] == pytest.approx(0.7)
        assert out[5] == pytest.approx(0.3)
        assert np.count_nonzero(out) == 2

    def test_sums_to_one_randomized(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            i, j = rng.integers(0, 10, size=2)
            lam = rng.uniform()
            out = ag.mix_labels(self._one_hot(i), self._one_hot(j), lam)
            assert out.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.count_nonzero(out) <= 2

    def test_rejects_non_one_hot(self):
        with pytest.raises(ValueError, match="one-hot"):
            ag.mix_labels(np.full(10, 0.1), self._one_hot(0), 0.5)


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
