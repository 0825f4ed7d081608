"""Walk one synthetic clip through the feature front end.

Shows the 98x64 contract: 25 ms windows every 10 ms over one second of
16 kHz audio give 98 frames, and 64 mel filters spanning 20 Hz - 8 kHz
give the 64 columns.
"""
import numpy as np

from cosmix import log_fbank, mel_filterbank, stft_power
from cosmix.dataset import SAMPLE_RATE, synth_waveform
from cosmix.features import N_FFT, filter_centers_hz

rng = np.random.default_rng(0)
wave = synth_waveform(label=4, noise_level=0.05, rng=rng)  # the word slot for "yes"
print(f"waveform: {wave.size} samples, peak {np.abs(wave).max():.3f}")

power = stft_power(wave)
print(f"power spectrogram: {power.shape}  (frames x FFT bins)")

# class 4 tones sit at 1500 and 2250 Hz; check the hottest bins agree
hot_bins = np.argsort(power.sum(axis=0))[-4:]
hot_hz = hot_bins * SAMPLE_RATE / N_FFT
print(f"hottest FFT bins at: {sorted(hot_hz.astype(int).tolist())} Hz")

fbank = mel_filterbank()
centers = filter_centers_hz()
print(f"mel filters: {fbank.shape}, centers {centers[0]:.0f} Hz .. {centers[-1]:.0f} Hz")

feat = log_fbank(wave)
print(f"log-mel features: {feat.values.shape}, "
      f"range [{feat.values.min():.1f}, {feat.values.max():.1f}]")
