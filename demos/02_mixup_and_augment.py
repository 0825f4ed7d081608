"""The mixup construction and the stochastic augmentations.

Draws the mixing coefficient from Beta(10, 10), builds a virtual
example from two clips, and shows what time shift, time stretch, and
SpecAugment do to shapes and content.
"""
import numpy as np

from cosmix import AugmentConfig, BetaParams, log_fbank, mix_labels, \
    mixup_waveforms, sample_beta, spec_augment, time_shift, time_stretch
from cosmix.dataset import synth_waveform

rng = np.random.default_rng(7)

params = BetaParams(alpha=10.0)
draws = np.array([sample_beta(params, rng) for _ in range(10_000)])
print(f"Beta(10,10): mean {draws.mean():.3f}, var {draws.var():.5f} "
      f"(theory 0.5 and {1/84:.5f})")

x_i = synth_waveform(label=2, noise_level=0.05, rng=rng)
x_j = synth_waveform(label=7, noise_level=0.05, rng=rng)
lam = sample_beta(params, rng)
x_mix = mixup_waveforms(x_i, x_j, lam)
y_mix = mix_labels(np.eye(10)[2], np.eye(10)[7], lam)
print(f"lambda {lam:.3f}: soft label puts {y_mix[2]:.3f} on class 2 "
      f"and {y_mix[7]:.3f} on class 7")

cfg = AugmentConfig()
shifted = time_shift(x_mix, rng, cfg)
stretched = time_stretch(shifted, rng, cfg)
print(f"after shift+stretch: still {stretched.size} samples")

feat = log_fbank(stretched).values
masked = spec_augment(feat, rng, cfg)
rows = int(np.all(masked == 0.0, axis=1).sum())
cols = int(np.all(masked == 0.0, axis=0).sum())
print(f"SpecAugment: shape {masked.shape}, {rows} time frames and "
      f"{cols} mel bins fully masked (caps: 13 and 7)")

# the construction is exactly linear in its inputs
lhs = mixup_waveforms(2 * x_i, 2 * x_j, lam)
print(f"linearity check: max |mix(2x) - 2 mix(x)| = "
      f"{np.abs(lhs - 2 * x_mix).max():.2e}")
