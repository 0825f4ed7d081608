"""Log-Mel filterbank front end for one-second 16 kHz clips.

25 ms periodic-Hann windows every 10 ms, 512-point FFT, 64 triangular
mel filters between 20 Hz and 8 kHz, natural-log compression with a
1e-10 floor. Every one-second waveform maps to a 98 x 64 matrix.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import runtime
from .dataset import CLIP_SAMPLES, SAMPLE_RATE

WIN_LENGTH = 400
HOP_LENGTH = 160
N_FFT = 512
N_MELS = 64
F_MIN = 20.0
F_MAX = 8000.0
LOG_FLOOR = 1e-10
FRAME_COUNT = 1 + (CLIP_SAMPLES - WIN_LENGTH) // HOP_LENGTH  # 98
N_BINS = N_FFT // 2 + 1  # 257


def hann_periodic(n):
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)


@functools.cache
def _window(dtype):
    """The analysis window cast to ``dtype``; computed once per dtype and
    shared read-only, like ``mel_filterbank()``."""
    window = hann_periodic(WIN_LENGTH).astype(dtype)
    window.flags.writeable = False
    return window


def _wave_stack(waves, dtype):
    """``waves`` as an [N, CLIP_SAMPLES] array of ``dtype``; raises on any other shape."""
    waves = np.asarray(waves, dtype=dtype)
    if waves.ndim != 2 or waves.shape[1] != CLIP_SAMPLES:
        raise ValueError(f"expected [N, {CLIP_SAMPLES}], got {waves.shape}")
    return waves


def stft_power(wave):
    """Power spectrogram [98, 257] of a one-second waveform, in float64."""
    wave = _wave_stack(np.asarray(wave)[None], np.float64)[0]
    frames = sliding_window_view(wave, WIN_LENGTH)[::HOP_LENGTH] * _window(np.float64)
    return np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _band_edges_hz():
    return mel_to_hz(np.linspace(hz_to_mel(F_MIN), hz_to_mel(F_MAX), N_MELS + 2))


@functools.cache
def mel_filterbank():
    """Triangular filters [64, 257], centers even on the mel scale.

    Computed once; every caller shares the one read-only array.
    """
    edges_hz = _band_edges_hz()
    bin_hz = np.arange(N_BINS) * SAMPLE_RATE / N_FFT
    lower, center, upper = edges_hz[:-2], edges_hz[1:-1], edges_hz[2:]
    up = (bin_hz[None, :] - lower[:, None]) / (center - lower)[:, None]
    down = (upper[:, None] - bin_hz[None, :]) / (upper - center)[:, None]
    fbank = np.maximum(0.0, np.minimum(up, down))
    fbank.flags.writeable = False
    return fbank


def filter_centers_hz():
    """Center frequency of each triangular filter, in Hz."""
    return _band_edges_hz()[1:-1]


def log_fbank_batch(waves):
    """Log-mel features of an [N, 16000] stack -> [N, 98, 64] float32.

    Training and evaluation share this one path: a float64 stack is cast
    to float32 first and every step computes in float32. The rows are
    featurized one at a time into one preallocated output: a single row's
    frames and complex spectrum stay in cache, where a whole stack's spill
    out of it. Each step of a row writes into scratch its span allocates
    once: the windowed frames into the first ``WIN_LENGTH`` columns of a
    zeroed [98, 512] buffer, whose zero tail is the FFT's padding, then
    the complex spectrum, the power and the filterbank energies; the log
    goes straight into the output. The steps give the bits that fresh
    arrays give (``np.square`` is what ``** 2`` computes). The filterbank
    product stays one row's [98, 257] @ [257, 64], under
    ``runtime.MIN_MADDS``: a taller GEMM could take other kernels. 96
    rows, one BLAS thread on a 2-core Xeon: 29 ms inline and 22 ms on
    both threads, against 36 ms for fresh arrays row by row, 37 ms in
    chunks of 4 rows and 48 ms as one batch. Row n equals a one-row
    call on ``waves[n]`` exactly.

    The rows go out in spans of ``runtime.BLOCK_CLIPS`` rows by
    ``runtime``'s span rule. Within a span each row is still computed
    alone and written to its own row of the output, so the result is
    bit-identical at any span size and on either thread. The worker calls
    numpy only, and writes only its own scratch and its rows of the output.
    """
    waves = _wave_stack(waves, np.float32)
    # a strided view of the frames: no gather index and no copy before the window
    frames = sliding_window_view(waves, WIN_LENGTH, axis=1)[:, ::HOP_LENGTH]
    window = _window(np.float32)
    fbank_t = mel_filterbank().T.astype(np.float32)
    floor = np.float32(LOG_FLOOR)
    n = len(waves)
    out = np.empty((n, FRAME_COUNT, N_MELS), dtype=np.float32)

    def featurize_span(lo, hi):
        # the span's scratch; the frame buffer's zero tail is the FFT's padding
        padded = np.zeros((FRAME_COUNT, N_FFT), dtype=np.float32)
        spec = np.empty((FRAME_COUNT, N_BINS), dtype=np.complex64)
        power = np.empty((FRAME_COUNT, N_BINS), dtype=np.float32)
        energies = np.empty((FRAME_COUNT, N_MELS), dtype=np.float32)
        for row in range(lo, hi):
            np.multiply(frames[row], window, out=padded[:, :WIN_LENGTH])
            np.fft.rfft(padded, axis=1, out=spec)
            np.abs(spec, out=power)
            np.square(power, out=power)
            np.matmul(power, fbank_t, out=energies)
            np.maximum(energies, floor, out=energies)
            np.log(energies, out=out[row])

    runtime.in_blocks(featurize_span, n, runtime.BLOCK_CLIPS, None)
    return out

