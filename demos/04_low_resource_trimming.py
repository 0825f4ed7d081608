"""Speaker-partitioned trimming: how the train split shrinks while
validation and test stay fixed.

Whole speakers are removed per keyword until the utterance quota is
met, which reduces speaker diversity the way a personalized device
would see it.
"""
import tempfile
from pathlib import Path

from cosmix import build_manifest, synth_dataset, trim_by_speaker, write_manifest

with tempfile.TemporaryDirectory() as tmp_name:
    tmp = Path(tmp_name)
    manifest = synth_dataset(tmp, n_per_class=35, noise_level=0.2, seed=3)
    print("synthetic corpus:", manifest.counts())

    for fraction in (1.0, 0.5, 0.25, 0.1):
        trimmed = trim_by_speaker(manifest, fraction, seed=17)
        counts = trimmed.counts()
        speakers = len({e.speaker_id for e in trimmed.entries if e.split == "train"})
        print(f"fraction {fraction:4.2f}: train {counts['train']:3d} utterances "
              f"from {speakers:2d} speakers; val {counts['validation']}, "
              f"test {counts['test']} (untouched)")

    out = tmp / "manifest_10pct.tsv"
    write_manifest(out, trim_by_speaker(manifest, 0.1, seed=17))
    print(f"\nserialized manifest preview ({out.name}):")
    for line in out.read_text().splitlines()[:3]:
        print("   ", line)
