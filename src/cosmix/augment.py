"""Stochastic augmentations and the mixup construction.

All functions take an explicit numpy Generator so every draw is
reproducible; callers derive one generator per (seed, epoch, batch,
row, view) and never share streams across views.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CLIP_SAMPLES, SAMPLE_RATE
from .features import FRAME_COUNT, N_MELS

MASK_VALUE = 0.0
CLIP_MS = 1000.0 * CLIP_SAMPLES / SAMPLE_RATE


@dataclass(frozen=True)
class AugmentConfig:
    """Waveform- and feature-level augmentation strengths."""

    shift_ms_low: float = -100.0
    shift_ms_high: float = 100.0
    stretch_low: float = 0.9
    stretch_high: float = 1.1
    time_mask_max: int = 13
    freq_mask_max: int = 7
    n_time_masks: int = 1
    n_freq_masks: int = 1

    def __post_init__(self):
        if self.shift_ms_low > self.shift_ms_high:
            raise ValueError("shift range inverted")
        for key in ("shift_ms_low", "shift_ms_high"):
            if abs(getattr(self, key)) > CLIP_MS:
                raise ValueError(f"{key} {getattr(self, key)} exceeds the "
                                 f"{CLIP_MS:g} ms clip")
        if not 0 < self.stretch_low <= self.stretch_high:
            raise ValueError("stretch range invalid")
        if self.time_mask_max < 0 or self.freq_mask_max < 0:
            raise ValueError("mask sizes must be >= 0")
        if self.time_mask_max > FRAME_COUNT:
            raise ValueError(f"time_mask_max {self.time_mask_max} exceeds the "
                             f"{FRAME_COUNT} feature frames")
        if self.freq_mask_max > N_MELS:
            raise ValueError(f"freq_mask_max {self.freq_mask_max} exceeds the "
                             f"{N_MELS} mel bins")
        if self.n_time_masks < 0 or self.n_freq_masks < 0:
            raise ValueError("mask counts must be >= 0")


@dataclass(frozen=True)
class BetaParams:
    """Symmetric Beta(alpha, alpha) for the mixing coefficient."""

    alpha: float = 10.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def _gamma_variate(alpha, rng):
    """Marsaglia-Tsang Gamma(alpha, 1) sampler; boosts by one for alpha < 1."""
    if alpha < 1.0:
        u = rng.uniform()
        while u == 0.0:
            u = rng.uniform()
        return _gamma_variate(alpha + 1.0, rng) * u ** (1.0 / alpha)
    d = alpha - 1.0 / 3.0
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


def sample_beta(params, rng):
    """Draw the mixing coefficient from Beta(alpha, alpha) via two gammas."""
    if params.alpha <= 0:
        raise ValueError(f"alpha must be positive, got {params.alpha}")
    g1 = _gamma_variate(params.alpha, rng)
    g2 = _gamma_variate(params.alpha, rng)
    lam = g1 / (g1 + g2)
    # keep strictly inside (0, 1) so mixed rows always carry both sources
    return min(max(lam, 1e-12), 1.0 - 1e-12)


def mixup_waveforms(x_i, x_j, lam):
    """Convex combination lam * x_i + (1 - lam) * x_j, elementwise."""
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    if x_i.shape != x_j.shape:
        raise ValueError(f"length mismatch: {x_i.shape} vs {x_j.shape}")
    if not 0 <= lam <= 1:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return lam * x_i + (1.0 - lam) * x_j


def _check_one_hot(y, name):
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or not np.all((y == 0) | (y == 1)) or y.sum() != 1:
        raise ValueError(f"{name} is not one-hot")
    return y


def mix_labels(y_i, y_j, lam):
    """Soft label lam * y_i + (1 - lam) * y_j; at most two nonzero entries."""
    y_i = _check_one_hot(y_i, "y_i")
    y_j = _check_one_hot(y_j, "y_j")
    if not 0 <= lam <= 1:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return lam * y_i + (1.0 - lam) * y_j


def shift_samples(wave, s):
    """Shift content by s samples (positive = right); zero-fill vacated ends.
    A shift of the whole length or more leaves only zeros."""
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


def time_shift(wave, rng, cfg=AugmentConfig()):
    """Random shift, uniform over the configured millisecond range."""
    wave = np.asarray(wave, dtype=np.float64)
    lo = int(round(cfg.shift_ms_low * SAMPLE_RATE / 1000.0))
    hi = int(round(cfg.shift_ms_high * SAMPLE_RATE / 1000.0))
    s = int(rng.integers(lo, hi + 1))
    return shift_samples(wave, s)


def stretch_to_factor(wave, factor):
    """Resample to length round(n / factor) by linear interpolation, then
    zero-pad or truncate back to the original length."""
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


def time_stretch(wave, rng, cfg=AugmentConfig()):
    """Random speed perturbation, factor uniform in the configured range."""
    factor = float(rng.uniform(cfg.stretch_low, cfg.stretch_high))
    return stretch_to_factor(wave, factor)


def spec_augment(values, rng, cfg=AugmentConfig()):
    """Mask random time rows and frequency columns of a [T, F] feature
    array; the input dtype is preserved."""
    values = np.asarray(values)
    n_t, n_f = values.shape
    if cfg.time_mask_max > n_t:
        raise ValueError(f"time_mask_max {cfg.time_mask_max} exceeds {n_t} frames")
    if cfg.freq_mask_max > n_f:
        raise ValueError(f"freq_mask_max {cfg.freq_mask_max} exceeds {n_f} bins")
    out = values.copy()
    for _ in range(cfg.n_time_masks):
        w = int(rng.integers(0, cfg.time_mask_max + 1))
        t0 = int(rng.integers(0, n_t - w + 1))
        out[t0:t0 + w, :] = MASK_VALUE
    for _ in range(cfg.n_freq_masks):
        w = int(rng.integers(0, cfg.freq_mask_max + 1))
        f0 = int(rng.integers(0, n_f - w + 1))
        out[:, f0:f0 + w] = MASK_VALUE
    return out
