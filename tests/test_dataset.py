import math
import struct
import wave as wave_mod
from pathlib import Path

import numpy as np
import pytest

from cosmix import dataset as ds
from cosmix.errors import DatasetError, FormatError, ManifestError, UnsupportedFormatError
from cosmix.trainer import ClipStore


@pytest.fixture()
def tiny_corpus(tmp_path):
    """Two keywords, three speakers each, two clips per speaker."""
    rng = np.random.default_rng(0)
    for word in ("yes", "no"):
        for spk in ("aa", "bb", "cc"):
            for n in range(2):
                ds.write_wav(tmp_path / word / f"{spk}_nohash_{n}.wav",
                             rng.uniform(-0.5, 0.5, size=8000))
    return tmp_path


class TestLoadWav:
    def test_silence_round_trip(self, tmp_path):
        path = tmp_path / "yes" / "spk_nohash_0.wav"
        ds.write_wav(path, np.zeros(16000))
        samples = ds.load_wav(path)
        assert samples.shape == (16000,) and samples.dtype == np.float32
        assert np.all(samples == 0)

    def test_full_scale_value(self, tmp_path):
        path = tmp_path / "yes" / "spk_nohash_0.wav"
        ds.write_wav(path, np.full(16000, 32767 / 32768))
        np.testing.assert_allclose(ds.load_wav(path), 32767 / 32768, atol=1e-12)

    def test_int16_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ints = rng.integers(-32768, 32768, size=5000).astype(np.int16)
        path = tmp_path / "go" / "s_nohash_0.wav"
        ds.write_wav(path, ints.astype(np.float64) / 32768.0)
        back = np.round(ds.load_wav(path) * 32768.0).astype(np.int16)
        np.testing.assert_array_equal(back, ints)

    def test_rejects_wrong_rate(self, tmp_path):
        path = tmp_path / "yes" / "s_nohash_0.wav"
        path.parent.mkdir(parents=True)
        with wave_mod.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 16000)
        with pytest.raises(UnsupportedFormatError, match="8000"):
            ds.load_wav(path)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "yes" / "s_nohash_0.wav"
        path.parent.mkdir(parents=True)
        with wave_mod.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(16000)
            fh.writeframes(b"\x00" * 400)
        with pytest.raises(UnsupportedFormatError, match="mono"):
            ds.load_wav(path)

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "yes" / "s_nohash_0.wav"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"RIFFgarbage-not-a-wav-file")
        with pytest.raises(FormatError):
            ds.load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ds.load_wav(tmp_path / "yes" / "nope_nohash_0.wav")

    def test_empty_clip_rejected(self, tmp_path):
        path = tmp_path / "yes" / "s_nohash_0.wav"
        ds.write_wav(path, np.zeros(0))
        with pytest.raises(ValueError, match="empty") as info:
            ds.load_wav("yes/s_nohash_0.wav", root=tmp_path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("cut", [1, 2, 1001, 20000], ids=["odd", "even", "odd-mid",
                                                               "even-mid"])
    def test_truncated_data_chunk_rejected(self, tmp_path, cut):
        # the header still declares 16000 frames; the data chunk is cut short
        path = tmp_path / "yes" / "s_nohash_0.wav"
        ds.write_wav(path, np.zeros(16000))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(FormatError, match="truncated") as info:
            ds.load_wav("yes/s_nohash_0.wav", root=tmp_path)
        assert str(path) in str(info.value)


def chunk(name, body):
    """One RIFF chunk, with its pad byte after an odd size."""
    return name + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def fmt_chunk(tag=1, channels=1, rate=16000, bits=16):
    block = channels * ((bits + 7) // 8)
    return chunk(b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * block,
                                      block, bits))


def riff(*chunks, riff_size=None):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body) if riff_size is None else riff_size) + body


SAMPLES = chunk(b"data", np.arange(-50, 50, dtype="<i2").tobytes())


class TestWavChunks:
    """``load_wav``'s own RIFF walk: every malformed or unsupported header
    raises its documented type, and the reason names the file."""

    @pytest.mark.parametrize("blob,error,reason", [
        (riff(chunk(b"fmt ", b"\1\0\1\0"), SAMPLES), FormatError,
         "malformed WAV (4-byte fmt chunk, expected at least 16)"),
        (riff(fmt_chunk()), FormatError,
         "malformed WAV (fmt chunk and/or data chunk missing)"),
        (riff(SAMPLES, fmt_chunk()), FormatError,
         "malformed WAV (data chunk before fmt chunk)"),
        (riff(fmt_chunk(channels=0), SAMPLES), FormatError,
         "malformed WAV (bad # of channels)"),
        (riff(fmt_chunk(bits=0), SAMPLES), FormatError, "malformed WAV (bad sample width)"),
        (riff(fmt_chunk(tag=3, bits=32), SAMPLES), UnsupportedFormatError,
         "expected PCM (format tag 1), got format tag 0x0003"),
        (riff(fmt_chunk(tag=0xFFFE), SAMPLES), UnsupportedFormatError,
         "expected PCM (format tag 1), got format tag 0xfffe"),
        (riff(fmt_chunk(), b"data" + struct.pack("<I", 32000) + bytes(100)), FormatError,
         "truncated data chunk, 100 of 32000 bytes"),
        # the file holds all 200 bytes, but the RIFF size ends 60 into them
        (riff(fmt_chunk(), SAMPLES, riff_size=4 + 24 + 8 + 60), FormatError,
         "truncated data chunk, 60 of 200 bytes"),
    ], ids=["short-fmt", "no-data", "data-before-fmt", "zero-channels", "zero-bits",
            "float-tag", "extensible-tag", "data-past-eof", "riff-shorter-than-file"])
    def test_rejected_with_reason_naming_file(self, tmp_path, blob, error, reason):
        path = tmp_path / "yes" / "s_nohash_0.wav"
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
        with pytest.raises(error) as info:
            ds.load_wav("yes/s_nohash_0.wav", root=tmp_path)
        assert str(info.value) == f"{path}: {reason}"

    def test_odd_list_chunk_before_data_skipped(self, tmp_path):
        path = tmp_path / "s.wav"
        path.write_bytes(riff(fmt_chunk(), chunk(b"LIST", b"INFOabc"), SAMPLES))
        np.testing.assert_array_equal(ds.load_wav(path),
                                      np.arange(-50, 50, dtype=np.float32) / 32768)


class TestDecodeBits:
    """Every int16 value decodes to float32 with the bits of
    ``(ints / 32768.0).astype(np.float32)``."""

    ALL = np.arange(-32768, 32768, dtype=np.int16)

    def test_every_int16_value(self, tmp_path):
        path = tmp_path / "s.wav"
        path.write_bytes(riff(fmt_chunk(), chunk(b"data", self.ALL.astype("<i2").tobytes())))
        got = ds.load_wav(path)
        assert got.dtype == np.float32
        want = (self.ALL / 32768.0).astype(np.float32)
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("n", [8000, 16000, 65536], ids=["padded", "exact", "trimmed"])
    def test_clip_store_wave(self, tmp_path, n):
        ints = np.random.default_rng(n).permutation(self.ALL)[:n]
        path = tmp_path / "yes" / "s_nohash_0.wav"
        path.parent.mkdir(parents=True)
        path.write_bytes(riff(fmt_chunk(), chunk(b"data", ints.astype("<i2").tobytes())))
        entry = ds.ManifestEntry("yes/s_nohash_0.wav", 4, "s", "train")
        store = ClipStore(ds.DatasetManifest(entries=(entry,), root=str(tmp_path)))
        got = store.wave(entry)
        assert got.dtype == np.float32 and not got.flags.writeable
        want = ds.pad_or_trim((ints / 32768.0).astype(np.float32))
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


class TestPadOrTrim:
    def _samples(self, n):
        return np.linspace(-0.5, 0.5, n)

    def test_exact_length_identity(self):
        samples = self._samples(16000)
        assert ds.pad_or_trim(samples) is samples

    def test_short_clip_zero_padded_right(self):
        out = ds.pad_or_trim(self._samples(12000))
        assert out.shape == (16000,)
        np.testing.assert_array_equal(out[:12000], self._samples(12000))
        assert np.all(out[12000:] == 0)

    def test_long_clip_tail_dropped(self):
        samples = self._samples(17000)
        out = ds.pad_or_trim(samples)
        assert out.shape == (16000,)
        np.testing.assert_array_equal(out, samples[:16000])
        assert not np.shares_memory(out, samples)


class TestBuildManifest:
    def test_all_train_without_lists(self, tiny_corpus):
        manifest = ds.build_manifest(tiny_corpus)
        assert len(manifest.entries) == 12
        assert all(e.split == "train" for e in manifest.entries)
        # label and speaker come from <word>/<speaker>_nohash_<n>.wav
        first = manifest.entries[0]
        assert (first.path, first.label, first.speaker_id) == \
            ("no/aa_nohash_0.wav", ds.KEYWORDS.index("no"), "aa")

    def test_split_tagging(self, tiny_corpus):
        (tiny_corpus / "validation_list.txt").write_text("yes/aa_nohash_0.wav\n")
        (tiny_corpus / "testing_list.txt").write_text("no/bb_nohash_1.wav\n")
        manifest = ds.build_manifest(tiny_corpus,
                                     tiny_corpus / "validation_list.txt",
                                     tiny_corpus / "testing_list.txt")
        by_path = {e.path: e.split for e in manifest.entries}
        assert by_path["yes/aa_nohash_0.wav"] == "validation"
        assert by_path["no/bb_nohash_1.wav"] == "test"
        assert manifest.counts() == {"train": 10, "validation": 1, "test": 1}

    def test_path_in_both_lists_rejected(self, tiny_corpus):
        (tiny_corpus / "v.txt").write_text("yes/aa_nohash_0.wav\n")
        (tiny_corpus / "t.txt").write_text("yes/aa_nohash_0.wav\n")
        with pytest.raises(ManifestError, match="both"):
            ds.build_manifest(tiny_corpus, tiny_corpus / "v.txt", tiny_corpus / "t.txt")

    def test_listed_file_missing_rejected(self, tiny_corpus):
        (tiny_corpus / "v.txt").write_text("yes/ghost_nohash_0.wav\n")
        with pytest.raises(ManifestError, match="ghost"):
            ds.build_manifest(tiny_corpus, tiny_corpus / "v.txt")

    def test_non_target_list_entries_ignored(self, tiny_corpus):
        (tiny_corpus / "v.txt").write_text("bed/xyz_nohash_0.wav\nyes/aa_nohash_0.wav\n")
        manifest = ds.build_manifest(tiny_corpus, tiny_corpus / "v.txt")
        assert manifest.counts()["validation"] == 1

    def test_unknown_word_dir_skipped_with_count(self, tiny_corpus):
        ds.write_wav(tiny_corpus / "bed" / "zz_nohash_0.wav", np.zeros(100))
        manifest = ds.build_manifest(tiny_corpus)
        assert manifest.skipped_dirs == ("bed",)
        assert len(manifest.entries) == 12

    def test_lexicographic_order(self, tiny_corpus):
        manifest = ds.build_manifest(tiny_corpus)
        paths = [e.path for e in manifest.entries]
        assert paths == sorted(paths)

    def test_counting_identity(self, tiny_corpus):
        (tiny_corpus / "v.txt").write_text("yes/aa_nohash_0.wav\nyes/aa_nohash_1.wav\n")
        (tiny_corpus / "t.txt").write_text("no/cc_nohash_0.wav\n")
        manifest = ds.build_manifest(tiny_corpus, tiny_corpus / "v.txt", tiny_corpus / "t.txt")
        counts = manifest.counts()
        assert counts["train"] == 12 - 2 - 1


def make_manifest(per_keyword):
    """In-memory manifest: {keyword: {speaker: n_train_clips}}."""
    entries = []
    for word, speakers in per_keyword.items():
        label = ds.KEYWORDS.index(word)
        for spk, n in speakers.items():
            for i in range(n):
                entries.append(ds.ManifestEntry(f"{word}/{spk}_nohash_{i}.wav",
                                                label, spk, "train"))
    # make sure every keyword has at least one train entry
    for word in ds.KEYWORDS:
        if word not in per_keyword:
            label = ds.KEYWORDS.index(word)
            entries.append(ds.ManifestEntry(f"{word}/filler_nohash_0.wav", label,
                                            "filler", "train"))
    entries.sort(key=lambda e: e.path)
    return ds.DatasetManifest(entries=tuple(entries), root="mem")


class TestTrimBySpeaker:
    def test_fraction_one_is_identity(self):
        manifest = make_manifest({"yes": {"a": 3, "b": 2}, "no": {"c": 4}})
        trimmed = ds.trim_by_speaker(manifest, 1.0, seed=7)
        assert trimmed.entries == manifest.entries

    def test_quota_met_minimally(self):
        manifest = make_manifest({"yes": {f"s{i}": 4 for i in range(10)}})
        trimmed = ds.trim_by_speaker(manifest, 0.05, seed=3)
        label = ds.KEYWORDS.index("yes")
        kept = [e for e in trimmed.entries if e.label == label and e.split == "train"]
        quota = math.ceil(0.05 * 40)  # 2
        assert len(kept) >= quota
        # minimal speaker prefix: dropping the last admitted speaker goes below quota
        speakers = {e.speaker_id for e in kept}
        assert (len(speakers) - 1) * 4 < quota

    def test_validation_and_test_untouched(self):
        manifest = make_manifest({"yes": {"a": 5}})
        extra = (ds.ManifestEntry("no/v_nohash_0.wav", 5, "v", "validation"),
                 ds.ManifestEntry("no/t_nohash_0.wav", 5, "t", "test"))
        manifest = ds.DatasetManifest(entries=manifest.entries + extra, root="mem")
        trimmed = ds.trim_by_speaker(manifest, 0.01, seed=0)
        assert extra[0] in trimmed.entries
        assert extra[1] in trimmed.entries

    def test_deterministic(self):
        manifest = make_manifest({"yes": {f"s{i}": 3 for i in range(8)},
                                  "go": {f"g{i}": 2 for i in range(5)}})
        a = ds.trim_by_speaker(manifest, 0.4, seed=11)
        b = ds.trim_by_speaker(manifest, 0.4, seed=11)
        assert a == b

    def test_monotone_in_fraction(self):
        manifest = make_manifest({"yes": {f"s{i}": 3 for i in range(9)}})
        label = ds.KEYWORDS.index("yes")
        prev = 0
        for frac in (0.1, 0.3, 0.5, 0.8, 1.0):
            trimmed = ds.trim_by_speaker(manifest, frac, seed=5)
            n = sum(1 for e in trimmed.entries if e.label == label and e.split == "train")
            assert n >= prev
            prev = n

    def test_idempotent_at_fraction_one(self):
        manifest = make_manifest({"yes": {f"s{i}": 3 for i in range(6)}})
        once = ds.trim_by_speaker(manifest, 0.5, seed=2)
        again = ds.trim_by_speaker(once, 1.0, seed=2)
        assert again.entries == once.entries

    def test_retained_speakers_subset(self):
        manifest = make_manifest({"yes": {f"s{i}": 3 for i in range(6)}})
        before = {e.speaker_id for e in manifest.entries if e.label == 4}
        trimmed = ds.trim_by_speaker(manifest, 0.3, seed=9)
        after = {e.speaker_id for e in trimmed.entries
                 if e.label == 4 and e.split == "train"}
        assert after <= before

    def test_rejects_bad_fraction(self):
        manifest = make_manifest({"yes": {"a": 2}})
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ds.trim_by_speaker(manifest, bad, seed=0)

    def test_keyword_without_train_entries(self):
        entries = (ds.ManifestEntry("yes/a_nohash_0.wav", 4, "a", "train"),)
        manifest = ds.DatasetManifest(entries=entries, root="mem")
        with pytest.raises(DatasetError):
            ds.trim_by_speaker(manifest, 0.5, seed=0)


class TestAtomicWrite:
    def test_creates_then_replaces(self, tmp_path):
        path = tmp_path / "out.bin"
        ds.atomic_write(path, b"first")
        ds.atomic_write(path, b"second")
        assert path.read_bytes() == b"second"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_failed_rename_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def fail(self, target):
            raise OSError("rename failed")
        monkeypatch.setattr(Path, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            ds.atomic_write(path, b"new")
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


class TestManifestSerialization:
    def test_round_trip(self, tiny_corpus, tmp_path):
        manifest = ds.build_manifest(tiny_corpus)
        out = tmp_path / "manifest.tsv"
        ds.write_manifest(out, manifest)
        back = ds.read_manifest(out, tiny_corpus)
        assert back.entries == manifest.entries

    def test_format_is_tab_separated_lf(self, tiny_corpus, tmp_path):
        manifest = ds.build_manifest(tiny_corpus)
        out = tmp_path / "manifest.tsv"
        ds.write_manifest(out, manifest)
        raw = out.read_bytes()
        assert b"\r" not in raw
        first = raw.split(b"\n")[0].decode()
        assert first.count("\t") == 3

    def test_byte_identical_for_same_seed(self, tmp_path):
        manifest = make_manifest({"yes": {f"s{i}": 3 for i in range(8)}})
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        ds.write_manifest(a, ds.trim_by_speaker(manifest, 0.4, seed=13))
        ds.write_manifest(b, ds.trim_by_speaker(manifest, 0.4, seed=13))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_rows(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("yes/a.wav\t4\ta\n")
        with pytest.raises(ManifestError):
            ds.read_manifest(bad, tmp_path)
        bad.write_text("yes/a.wav\t4\ta\tweird\n")
        with pytest.raises(ManifestError):
            ds.read_manifest(bad, tmp_path)

    @pytest.mark.parametrize("label", ["12", "-1"])
    def test_label_outside_keywords_names_file_and_line(self, tmp_path, label):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"yes/a.wav\t0\ta\ttrain\nno/b.wav\t{label}\tb\ttrain\n")
        with pytest.raises(ManifestError, match=f"{bad}:2: bad label '{label}'"):
            ds.read_manifest(bad, tmp_path)


class TestSynthDataset:
    def test_entry_count(self, tmp_path):
        manifest = ds.synth_dataset(tmp_path, n_per_class=20, noise_level=0.0, seed=1)
        assert len(manifest.entries) == 200

    def test_splits_partition_entries(self, tmp_path):
        manifest = ds.synth_dataset(tmp_path, n_per_class=20, noise_level=0.1, seed=1)
        counts = manifest.counts()
        assert sum(counts.values()) == 200
        assert all(v > 0 for v in counts.values())

    def test_acceptance_scale_has_20_train_per_class(self, tmp_path):
        manifest = ds.synth_dataset(tmp_path, n_per_class=35, noise_level=0.3, seed=1)
        for label in range(10):
            n = sum(1 for e in manifest.entries
                    if e.label == label and e.split == "train")
            assert n == 20

    def test_deterministic_given_seed(self, tmp_path):
        m1 = ds.synth_dataset(tmp_path / "a", n_per_class=5, noise_level=0.2, seed=42)
        m2 = ds.synth_dataset(tmp_path / "b", n_per_class=5, noise_level=0.2, seed=42)
        assert [e.path for e in m1.entries] == [e.path for e in m2.entries]
        for e in m1.entries[:5]:
            np.testing.assert_array_equal(ds.load_wav(e.path, root=m1.root),
                                          ds.load_wav(e.path, root=m2.root))

    def test_different_seeds_differ(self, tmp_path):
        m1 = ds.synth_dataset(tmp_path / "a", n_per_class=5, noise_level=0.2, seed=1)
        m2 = ds.synth_dataset(tmp_path / "b", n_per_class=5, noise_level=0.2, seed=2)
        assert [e.path for e in m1.entries] == [e.path for e in m2.entries]
        a = ds.load_wav(m1.entries[0].path, root=m1.root)
        b = ds.load_wav(m2.entries[0].path, root=m2.root)
        assert not np.array_equal(a, b)

    def test_clips_are_loadable_one_second(self, tmp_path):
        manifest = ds.synth_dataset(tmp_path, n_per_class=5, noise_level=0.3, seed=3)
        samples = ds.load_wav(manifest.entries[0].path, root=manifest.root)
        assert samples.size == 16000
        assert np.abs(samples).max() <= 1.0

    def test_speaker_per_five_clips(self, tmp_path):
        manifest = ds.synth_dataset(tmp_path, n_per_class=10, noise_level=0.0, seed=4)
        yes = [e for e in manifest.entries if ds.KEYWORDS[e.label] == "yes"]
        assert len({e.speaker_id for e in yes}) == 2
