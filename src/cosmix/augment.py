"""Stochastic augmentations and the mixup construction.

All functions take an explicit numpy Generator so every draw is
reproducible; callers derive one generator per (seed, epoch, batch,
row, view) and never share streams across views.

The waveform stages (shift, stretch) take one path whatever the draw and
return a new float64 array; a float32 clip is cast as it is copied.
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
        for key in ("shift_ms_low", "shift_ms_high", "stretch_low", "stretch_high"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
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
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


def _gamma_variate(alpha, rng):
    """Marsaglia-Tsang Gamma(alpha, 1) sampler; boosts by one for alpha < 1.
    Returns the variate and its natural log, which stays finite where the
    variate underflows to 0."""
    if alpha < 1.0:
        u = rng.uniform()
        while u == 0.0:
            u = rng.uniform()
        g, log_g = _gamma_variate(alpha + 1.0, rng)
        return g * u ** (1.0 / alpha), log_g + math.log(u) / alpha
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = rng.uniform()
        if u < 1.0 - 0.0331 * x ** 4 or \
                (u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v))):
            return d * v, math.log(d) + math.log(v)


def sample_beta(params, rng):
    """Draw the mixing coefficient from Beta(alpha, alpha) via two gammas."""
    if params.alpha <= 0:
        raise ValueError(f"alpha must be positive, got {params.alpha}")
    g1, log1 = _gamma_variate(params.alpha, rng)
    g2, log2 = _gamma_variate(params.alpha, rng)
    if 0.0 < g1 + g2 < math.inf:
        lam = g1 / (g1 + g2)
    else:
        # both variates underflowed to 0 (alpha far below 1) or their sum
        # overflowed (alpha near the float maximum): 1 / (1 + g2 / g1) from
        # the logs. Below alpha ~1e-307 even the logs reach -inf: a tie.
        d = log2 - log1
        lam = 0.5 if math.isnan(d) else 1.0 / (1.0 + math.exp(min(d, 709.0)))
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


def shift_samples(wave, s):
    """Shift content by s samples (positive = right) into a new float64
    array; zero-fill vacated ends. A shift of the whole length or more
    leaves only zeros."""
    wave = np.asarray(wave)
    n = wave.size
    out = np.zeros(n)
    lo, hi = max(s, 0), n + min(s, 0)
    if lo < hi:
        out[lo:hi] = wave[lo - s:hi - s]
    return out


def time_shift(wave, rng, cfg=AugmentConfig()):
    """Random shift, uniform over the configured millisecond range."""
    lo = int(round(cfg.shift_ms_low * SAMPLE_RATE / 1000.0))
    hi = int(round(cfg.shift_ms_high * SAMPLE_RATE / 1000.0))
    s = int(rng.integers(lo, hi + 1))
    return shift_samples(wave, s)


def stretch_to_factor(wave, factor):
    """Resample by linear interpolation at positions k * factor (capped at
    the last sample), keeping the first round(n / factor) samples, at most
    n, and zero-padding back to the original length n."""
    wave = np.asarray(wave, dtype=np.float64)
    n = wave.size
    kept = int(round(min(n / factor, n)))
    out = np.zeros(n)
    out[:kept] = np.interp(np.minimum(np.arange(kept) * factor, n - 1.0),
                           np.arange(n, dtype=np.float64), wave)
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
