"""Waveform loading, manifests, speaker-partitioned trimming, synthetic corpus.

The on-disk layout follows Google Speech Commands V2:
``<word>/<speaker_id>_nohash_<n>.wav`` plus ``validation_list.txt`` and
``testing_list.txt`` holding one relative path per line. Ten keyword
classes are supported; everything else is skipped. Only ``build_manifest``
reads labels and speakers from paths; everything downstream takes them
from the manifest, so a manifest's paths need not follow the layout.
"""
from __future__ import annotations

import math
import wave as wave_mod
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DatasetError, FormatError, ManifestError, UnsupportedFormatError

SAMPLE_RATE = 16000
CLIP_SAMPLES = 16000

KEYWORDS = ("up", "down", "left", "right", "yes", "no", "on", "off", "go", "stop")
_KEYWORD_INDEX = {w: i for i, w in enumerate(KEYWORDS)}

SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class ManifestEntry:
    path: str  # relative to the dataset root, '/' separators
    label: int
    speaker_id: str
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    """Split-aware clip index; immutable once built."""

    entries: tuple
    root: str
    skipped_dirs: tuple = ()

    def split_entries(self, split):
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return [e for e in self.entries if e.split == split]

    def counts(self):
        out = {s: 0 for s in SPLITS}
        for e in self.entries:
            out[e.split] += 1
        return out


def parse_clip_path(rel_path):
    """``yes/abc_nohash_0.wav`` -> (label index, speaker id)."""
    parts = Path(rel_path).parts
    if len(parts) < 2:
        raise ValueError(f"path {rel_path!r} is not <word>/<file>.wav")
    word = parts[-2]
    if word not in _KEYWORD_INDEX:
        raise ValueError(f"unknown keyword directory {word!r} in {rel_path!r}")
    stem = Path(parts[-1]).stem
    speaker = stem.split("_nohash_")[0]
    return _KEYWORD_INDEX[word], speaker


def load_wav(path, root=None):
    """Read a 16-bit mono 16 kHz PCM WAV into float64 samples in [-1, 1).

    Unsupported parameter combinations are rejected, never resampled, and
    so is a clip without samples or with fewer than its header declares.
    """
    path = Path(path)
    full = Path(root) / path if root is not None else path
    try:
        with wave_mod.open(str(full), "rb") as fh:
            n_channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            rate = fh.getframerate()
            comp = fh.getcomptype()
            n_frames = fh.getnframes()
            raw = fh.readframes(n_frames)
    except (wave_mod.Error, EOFError) as exc:
        raise FormatError(f"{full}: malformed WAV ({exc or 'truncated'})") from None
    if comp != "NONE":
        raise UnsupportedFormatError(f"{full}: compressed WAV not supported")
    if n_channels != 1:
        raise UnsupportedFormatError(f"{full}: expected mono, got {n_channels} channels")
    if sampwidth != 2:
        raise UnsupportedFormatError(f"{full}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormatError(f"{full}: expected {SAMPLE_RATE} Hz, got {rate}")
    if len(raw) < 2 * n_frames:
        raise FormatError(f"{full}: truncated data chunk, {len(raw)} of "
                          f"{2 * n_frames} bytes")
    if not raw:
        raise FormatError(f"{full}: empty clip")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_wav(path, samples):
    """Write float samples in [-1, 1] as 16-bit mono 16 kHz PCM."""
    samples = np.asarray(samples, dtype=np.float64)
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with wave_mod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(ints.tobytes())


def pad_or_trim(samples):
    """Zero-pad on the right or drop tail samples to hit exactly ``CLIP_SAMPLES``."""
    n = samples.size
    if n == CLIP_SAMPLES:
        return samples
    if n > CLIP_SAMPLES:
        return samples[:CLIP_SAMPLES].copy()
    out = np.zeros(CLIP_SAMPLES, dtype=samples.dtype)
    out[:n] = samples
    return out


def read_text(path, error):
    """The UTF-8 text of ``path``; a file that is not UTF-8 raises ``error``
    naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_list(path):
    out = []
    for line in read_text(path, ManifestError).splitlines():
        line = line.strip()
        if line:
            out.append(line.replace("\\", "/"))
    return out


def build_manifest(root, validation_list=None, testing_list=None):
    """Index a Speech-Commands-layout directory into a DatasetManifest.

    Files named in the validation/testing lists get those splits; every
    other file of the ten target words is train. Unknown word
    directories are skipped (and reported via ``skipped_dirs``).
    """
    root = Path(root)
    if not root.is_dir():
        raise ManifestError(f"dataset root {root} is not a directory")
    val_paths = set(_read_list(validation_list)) if validation_list else set()
    test_paths = set(_read_list(testing_list)) if testing_list else set()
    both = sorted((val_paths & test_paths))
    if both:
        raise ManifestError(f"path in both validation and testing lists: {both[0]}")

    on_disk = set()
    skipped = []
    entries = []
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        if sub.name not in _KEYWORD_INDEX:
            skipped.append(sub.name)
            continue
        for f in sorted(sub.glob("*.wav")):
            rel = f"{sub.name}/{f.name}"
            on_disk.add(rel)
            label, speaker = parse_clip_path(rel)
            if rel in val_paths:
                split = "validation"
            elif rel in test_paths:
                split = "test"
            else:
                split = "train"
            entries.append(ManifestEntry(rel, label, speaker, split))
    for rel in sorted(val_paths | test_paths):
        word = rel.split("/")[0]
        if word in _KEYWORD_INDEX and rel not in on_disk:
            raise ManifestError(f"listed file missing on disk: {rel}")
    entries.sort(key=lambda e: e.path)
    return DatasetManifest(entries=tuple(entries), root=str(root),
                           skipped_dirs=tuple(skipped))


def trim_by_speaker(manifest, fraction, seed):
    """Keep whole speakers per keyword until a seeded utterance quota is met.

    Speakers are admitted in seeded-shuffle order until the retained
    train count first reaches ``ceil(fraction * per-keyword count)``.
    Validation and test entries are never touched.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    by_label = {}
    for e in manifest.entries:
        if e.split == "train":
            by_label.setdefault(e.label, []).append(e)
    for k in range(len(KEYWORDS)):
        if k not in by_label:
            raise DatasetError(f"keyword {KEYWORDS[k]!r} has no train utterances")

    keep = set()
    for label, train_entries in sorted(by_label.items()):
        per_speaker = {}
        for e in train_entries:
            per_speaker.setdefault(e.speaker_id, 0)
            per_speaker[e.speaker_id] += 1
        speakers = sorted(per_speaker)
        rng = np.random.default_rng([int(seed), label])
        rng.shuffle(speakers)
        quota = math.ceil(fraction * len(train_entries))
        admitted = 0
        for s in speakers:
            if admitted >= quota:
                break
            keep.add((label, s))
            admitted += per_speaker[s]

    return replace(manifest, entries=tuple(
        e for e in manifest.entries if e.split != "train" or (e.label, e.speaker_id) in keep))


def atomic_write(path, data):
    """Replace ``path`` with the bytes ``data`` via ``<name>.tmp`` in the
    same directory and one rename: readers see the old file or the new one,
    and a failed write leaves ``path`` as it was and no temp file behind."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# manifest serialization: path<TAB>label<TAB>speaker<TAB>split, LF endings

def write_manifest(path, manifest):
    lines = [f"{e.path}\t{e.label}\t{e.speaker_id}\t{e.split}" for e in manifest.entries]
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_manifest(path, root):
    entries = []
    for i, line in enumerate(read_text(path, ManifestError).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ManifestError(f"{path}:{i}: expected 4 tab-separated fields")
        rel, label_s, speaker, split = parts
        if split not in SPLITS:
            raise ManifestError(f"{path}:{i}: unknown split {split!r}")
        try:
            label = int(label_s)
            if not 0 <= label < len(KEYWORDS):
                raise ValueError
        except ValueError:
            raise ManifestError(f"{path}:{i}: bad label {label_s!r}, expected "
                                f"0..{len(KEYWORDS) - 1}") from None
        entries.append(ManifestEntry(rel, label, speaker, split))
    return DatasetManifest(entries=tuple(entries), root=str(root))


# ---------------------------------------------------------------------------
# synthetic corpus: ten harmonic templates, five clips per synthetic speaker

def synth_waveform(label, noise_level, rng):
    """One synthetic clip: two tones with a class-keyed AM envelope."""
    t = np.arange(CLIP_SAMPLES) / SAMPLE_RATE
    f1 = (label + 1) * 300.0
    f2 = (label + 1) * 450.0
    phase1, phase2, phase_env = rng.uniform(0, 2 * np.pi, size=3)
    env_rate = 1.5 + 0.5 * label
    envelope = 0.6 + 0.4 * np.sin(2 * np.pi * env_rate * t + phase_env)
    tone = 0.35 * (np.sin(2 * np.pi * f1 * t + phase1) + np.sin(2 * np.pi * f2 * t + phase2))
    wave = envelope * tone
    if noise_level > 0:
        wave = wave + noise_level * rng.standard_normal(CLIP_SAMPLES)
    return np.clip(wave, -0.999, 0.999)


def _speaker_split(n_speakers):
    """60/20/20 assignment of per-class speakers, train first; each split
    gets at least one speaker once three are available."""
    if n_speakers == 1:
        return ["train"]
    if n_speakers == 2:
        return ["train", "test"]
    n_train = max(1, int(0.6 * n_speakers + 0.5))
    n_val = max(1, int(0.2 * n_speakers + 0.5))
    while n_train + n_val + 1 > n_speakers:
        if n_train > 1:
            n_train -= 1
        else:
            n_val -= 1
    tags = ["train"] * n_train + ["validation"] * n_val
    tags += ["test"] * (n_speakers - len(tags))
    return tags


def synth_dataset(root, n_per_class=20, noise_level=0.05, seed=0):
    """Write a deterministic synthetic corpus under ``root``; return its manifest.

    Ten classes, ``n_per_class`` clips each, one synthetic speaker per
    five clips, speakers assigned to train/validation/test 60/20/20.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    root = Path(root)
    entries = []
    for label in range(len(KEYWORDS)):
        n_speakers = math.ceil(n_per_class / 5)
        tags = _speaker_split(n_speakers)
        for i in range(n_per_class):
            spk_idx = i // 5
            speaker = f"syn{label}{spk_idx:03d}"
            rng = np.random.default_rng([int(seed), label, i])
            wave = synth_waveform(label, noise_level, rng)
            rel = f"{KEYWORDS[label]}/{speaker}_nohash_{i % 5}.wav"
            write_wav(root / rel, wave)
            entries.append(ManifestEntry(rel, label, speaker, tags[spk_idx]))
    entries.sort(key=lambda e: e.path)
    return DatasetManifest(entries=tuple(entries), root=str(root))
