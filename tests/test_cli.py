import json
import wave as wave_mod
from pathlib import Path

import numpy as np
import pytest

from cosmix import cli
from cosmix import dataset as ds
from cosmix import errors
from cosmix import runconfig as rc
from cosmix import trainer as tr
from cosmix.cli import main
from cosmix.errors import ConfigError


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata")
    ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=5)
    return root


@pytest.fixture(scope="module")
def manifest_file(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("manifests") / "all.tsv"
    manifest = ds.build_manifest(corpus)
    # synthetic corpora carry split tags in their own manifest; rebuild them
    manifest = ds.synth_dataset(corpus, n_per_class=20, noise_level=0.1, seed=5)
    ds.write_manifest(path, manifest)
    return path


FAST_CONFIG = """
# desk-scale run
batch_size = 16
epochs = 2
seed = 3
model_channels = 2,3
"""


# config.resolved as written before the seven retired keys left: each still
# loads at its one value
OLD_RESOLVED = """batch_size = 128
epochs = 70
lr0 = 0.005
decay_rate = 0.85
decay_every = 4
decay_start_epoch = 5
decay_end_epoch = 70
beta_penalty = 0.5
alpha = 10.0
mix_ratio = 0.5
cls_loss = softmax_ce
seed = 0
shift_ms_low = -100.0
shift_ms_high = 100.0
stretch_low = 0.9
stretch_high = 1.1
time_mask_max = 13
freq_mask_max = 7
n_time_masks = 1
n_freq_masks = 1
model_channels = 32,64,64,128
model_kernel_size = 3
model_stride = 2
model_proj_hidden = 128
model_proj_two_layer = true
model_n_classes = 10
model_proj_dim = 128
model_init_seed = 0
"""


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(FAST_CONFIG)
    return path


class TestRunConfig:
    def test_defaults_round_trip(self):
        settings = rc.default_settings()
        parsed = rc.parse_config(rc.format_config(settings))
        assert parsed == settings

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            rc.parse_config("warp_speed = 9\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            rc.parse_config("epochs = 2\nepochs = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            rc.parse_config("epochs = soon\n")

    def test_comments_and_blanks_ok(self):
        settings = rc.parse_config("\n# hi\nepochs = 4  # trailing\n")
        assert settings.train.epochs == 4

    def test_every_field_is_covered(self):
        text = rc.format_config(rc.default_settings())
        keys = {line.split(" = ")[0] for line in text.splitlines()}
        import dataclasses
        from cosmix.augment import AugmentConfig
        from cosmix.model import ModelConfig
        from cosmix.trainer import TrainConfig
        expected = {f.name for f in dataclasses.fields(TrainConfig)}
        expected |= {f.name for f in dataclasses.fields(AugmentConfig)}
        expected |= {"model_" + f.name for f in dataclasses.fields(ModelConfig)}
        assert keys == expected

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError):
            rc.parse_config("mix_ratio = 1.5\n")

    @pytest.mark.parametrize("key,value", [("time_mask_max", 99), ("freq_mask_max", 65)])
    def test_mask_larger_than_features_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            rc.parse_config(f"{key} = {value}\n", source="run.cfg")
        assert "run.cfg" in str(err.value) and key in str(err.value)

    def test_mask_as_large_as_features_accepted(self):
        settings = rc.parse_config("time_mask_max = 98\nfreq_mask_max = 64\n")
        assert (settings.augment.time_mask_max, settings.augment.freq_mask_max) == (98, 64)

    def test_shift_of_whole_clip_accepted(self):
        settings = rc.parse_config("shift_ms_low = -1000\nshift_ms_high = 1000\n")
        assert (settings.augment.shift_ms_low, settings.augment.shift_ms_high) == \
            (-1000.0, 1000.0)

    def test_old_resolved_config_parses(self, tmp_path):
        path = tmp_path / "config.resolved"
        path.write_text(OLD_RESOLVED)
        assert rc.load_config(path) == rc.default_settings()

    @pytest.mark.parametrize("key,value", [("model_kernel_size", "5"), ("model_stride", "1"),
                                           ("model_n_classes", "12"), ("model_proj_dim", "64"),
                                           ("cls_loss", "sigmoid_bce"),
                                           ("model_proj_hidden", "64"),
                                           ("model_proj_two_layer", "false")])
    def test_retired_key_at_other_value_rejected(self, tmp_path, key, value):
        path = tmp_path / "config.resolved"
        path.write_text("".join(f"{key} = {value}\n" if line.startswith(key + " ")
                                else line + "\n" for line in OLD_RESOLVED.splitlines()))
        with pytest.raises(ConfigError) as err:
            rc.load_config(path)
        assert str(path) in str(err.value) and key in str(err.value)


class TestPrepare:
    def test_writes_manifest_and_prints_counts(self, corpus, tmp_path, capsys):
        out = tmp_path / "manifest.tsv"
        code = main(["prepare", "--data-root", str(corpus), "--output", str(out),
                     "--fraction", "0.5", "--seed", "1"])
        assert code == 0
        printed = capsys.readouterr().out
        manifest = ds.read_manifest(out, corpus)
        assert len(manifest.entries) > 0
        expected = tmp_path / "expected.tsv"
        ds.write_manifest(expected, ds.trim_by_speaker(ds.build_manifest(corpus), 0.5, 1))
        assert out.read_bytes() == expected.read_bytes()
        # minutes are the kept clips' decoded samples, not their headers' claim
        for label, word in enumerate(ds.KEYWORDS):
            kept = [e for e in manifest.entries if e.split == "train" and e.label == label]
            samples = sum(ds.load_wav(e.path, root=corpus).size for e in kept)
            line = f"{word:>8s}: {len(kept):5d} utterances, " \
                   f"{samples / ds.SAMPLE_RATE / 60:6.2f} min"
            assert line in printed.splitlines()

    def test_invalid_root_exit_2_no_partial_file(self, tmp_path):
        out = tmp_path / "manifest.tsv"
        code = main(["prepare", "--data-root", str(tmp_path / "nope"),
                     "--output", str(out)])
        assert code == 2
        assert not out.exists()

    def test_malformed_wav_exit_2_names_file(self, tmp_path, capsys):
        root = tmp_path / "data"
        manifest = ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=5)
        clip = root / manifest.split_entries("train")[0].path
        clip.write_bytes(clip.read_bytes()[:30])  # cut inside the fmt chunk
        out = tmp_path / "manifest.tsv"
        code = main(["prepare", "--data-root", str(root), "--output", str(out)])
        assert code == 2
        assert f"{clip}: malformed WAV" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_clip_exit_2_names_clip(self, tmp_path, capsys):
        root = tmp_path / "data"
        manifest = ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=5)
        clip = root / next(e.path for e in manifest.entries if e.path.startswith("down/"))
        clip.write_bytes(clip.read_bytes()[:-20000])  # the header still says 16000
        out = tmp_path / "manifest.tsv"
        code = main(["prepare", "--data-root", str(root), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(clip) in err and "truncated" in err
        assert not out.exists()

    def test_wrong_rate_clip_in_validation_list_exit_2_names_clip(self, tmp_path,
                                                                   capsys):
        root = tmp_path / "data"
        manifest = ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=5)
        rel = manifest.split_entries("validation")[0].path
        with wave_mod.open(str(root / rel), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 16000)
        (root / "validation_list.txt").write_text(rel + "\n")
        out = tmp_path / "manifest.tsv"
        code = main(["prepare", "--data-root", str(root), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(root / rel) in err and "8000" in err
        assert not out.exists()

    def test_non_utf8_list_exit_2_names_file(self, tmp_path, capsys):
        root = tmp_path / "data"
        manifest = ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=5)
        val_list = root / "validation_list.txt"
        val_list.write_bytes(b"\xff" + manifest.split_entries("validation")[0].path.encode())
        out = tmp_path / "manifest.tsv"
        code = main(["prepare", "--data-root", str(root), "--output", str(out)])
        assert code == 2
        assert f"{val_list}: not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_fraction_one_equals_untrimmed(self, corpus, tmp_path):
        out = tmp_path / "m.tsv"
        assert main(["prepare", "--data-root", str(corpus), "--output", str(out)]) == 0
        manifest = ds.read_manifest(out, corpus)
        untrimmed = ds.build_manifest(corpus)
        assert len(manifest.entries) == len(untrimmed.entries)


class TestTrainEval:
    def test_full_cycle(self, corpus, manifest_file, config_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(config_file),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--run-dir", str(run_dir), "--mode", "cosmix"])
        assert code == 0
        assert (run_dir / "config.resolved").exists()
        assert (run_dir / "best.ckpt").exists()
        lines = (run_dir / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert list(rec) == ["epoch", "loss_mix", "loss_cos", "loss_total",
                             "train_acc", "val_acc", "lr", "seconds"]

        capsys.readouterr()
        code = main(["eval", "--run-dir", str(run_dir),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--split", "validation"])
        assert code == 0
        printed = capsys.readouterr().out
        acc = float(printed.split()[1])
        best = max(json.loads(l)["val_acc"] for l in lines)
        assert acc == pytest.approx(best, abs=5e-5)
        confusion = (run_dir / "confusion_validation.csv").read_text().splitlines()
        assert len(confusion) == 10
        total = sum(int(x) for row in confusion for x in row.split(","))
        correct = sum(int(row.split(",")[i]) for i, row in enumerate(confusion))
        assert correct / total == pytest.approx(acc, abs=5e-5)

        code = main(["export-embeddings", "--run-dir", str(run_dir),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--split", "validation"])
        assert code == 0
        emb = (run_dir / "embeddings_validation.csv").read_text().splitlines()
        assert len(emb) == total
        assert all(len(l.split(",")) == 3 + 1 for l in emb)  # embed_dim 3

    def test_tiny_alpha_trains(self, tmp_path):
        # at alpha 0.001 both gamma variates of a draw often underflow to 0;
        # criterion 8's corpus
        corpus = tmp_path / "corpus"
        manifest = tmp_path / "all.tsv"
        ds.write_manifest(manifest, ds.synth_dataset(corpus, n_per_class=20,
                                                     noise_level=0.1, seed=7))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CONFIG + "alpha = 0.001\n")
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--manifest", str(manifest),
                     "--data-root", str(corpus), "--run-dir", str(run_dir),
                     "--mode", "cosmix"])
        assert code == 0
        assert len((run_dir / "metrics.jsonl").read_text().splitlines()) == 2

    def test_refuses_existing_run_dir(self, corpus, manifest_file, config_file,
                                      tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "junk.txt").write_text("x")
        code = main(["train", "--config", str(config_file),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--run-dir", str(run_dir)])
        assert code == 2

    def test_unknown_config_key_exit_2(self, corpus, manifest_file, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_knob = 5\n")
        code = main(["train", "--config", str(bad), "--manifest", str(manifest_file),
                     "--data-root", str(corpus), "--run-dir", str(tmp_path / "r")])
        assert code == 2
        assert "nonsense_knob" in capsys.readouterr().err

    def test_bad_augment_config_exit_2_before_run_dir(self, corpus, manifest_file,
                                                      tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_CONFIG + "time_mask_max = 200\n")
        run_dir = tmp_path / "r"
        code = main(["train", "--config", str(bad), "--manifest", str(manifest_file),
                     "--data-root", str(corpus), "--run-dir", str(run_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "time_mask_max" in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("key,value", [("shift_ms_low", -1000.5),
                                           ("shift_ms_high", 1500)])
    def test_shift_beyond_clip_exit_2_before_run_dir(self, corpus, manifest_file,
                                                     tmp_path, capsys, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(FAST_CONFIG + f"{key} = {value}\n")
        run_dir = tmp_path / "r"
        code = main(["train", "--config", str(bad), "--manifest", str(manifest_file),
                     "--data-root", str(corpus), "--run-dir", str(run_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and key in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("key,value", [
        ("batch_size", "0"), ("batch_size", "-1"), ("decay_every", "0"), ("lr0", "-1"),
        ("lr0", "nan"), ("decay_rate", "0"), ("seed", "-1"), ("model_channels", "-4"),
        ("model_channels", "0"), ("model_channels", "2,0"), ("model_init_seed", "-1"),
        ("cls_loss", "sigmoid_bce"), ("model_proj_two_layer", "false"),
        ("model_proj_hidden", "64"), ("alpha", "nan"), ("alpha", "inf"),
        ("beta_penalty", "nan"), ("beta_penalty", "inf"), ("lr0", "inf"),
        ("decay_rate", "nan"), ("decay_rate", "inf"), ("shift_ms_low", "nan"),
        ("shift_ms_high", "nan"), ("stretch_low", "nan"), ("stretch_high", "nan"),
        ("stretch_high", "inf")])
    def test_unrunnable_value_exit_2_before_run_dir(self, corpus, manifest_file, tmp_path,
                                                    capsys, key, value):
        bad = tmp_path / "bad.cfg"
        kept = [line for line in FAST_CONFIG.splitlines() if not line.startswith(key + " ")]
        bad.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        run_dir = tmp_path / "r"
        code = main(["train", "--config", str(bad), "--manifest", str(manifest_file),
                     "--data-root", str(corpus), "--run-dir", str(run_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and key in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("bad_input", ["config", "manifest"])
    def test_non_utf8_input_exit_2_names_file_before_run_dir(self, corpus, manifest_file,
                                                             config_file, tmp_path, capsys,
                                                             bad_input):
        source = {"config": config_file, "manifest": manifest_file}[bad_input]
        bad = tmp_path / source.name
        bad.write_bytes(b"\xff" + source.read_bytes())
        inputs = {"config": config_file, "manifest": manifest_file, bad_input: bad}
        run_dir = tmp_path / "r"
        code = main(["train", "--config", str(inputs["config"]),
                     "--manifest", str(inputs["manifest"]), "--data-root", str(corpus),
                     "--run-dir", str(run_dir)])
        assert code == 2
        assert f"{bad}: not UTF-8" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_truncated_clip_exit_2_names_clip(self, config_file, tmp_path, capsys):
        root = tmp_path / "data"
        manifest_path = tmp_path / "m.tsv"
        manifest = ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=5)
        ds.write_manifest(manifest_path, manifest)
        clip = root / manifest.split_entries("train")[0].path
        clip.write_bytes(clip.read_bytes()[:-1001])  # the data chunk ends mid-sample
        code = main(["train", "--config", str(config_file), "--manifest", str(manifest_path),
                     "--data-root", str(root), "--run-dir", str(tmp_path / "run")])
        assert code == 2
        assert f"{clip}: truncated" in capsys.readouterr().err

    def test_failed_export_keeps_old_file_and_no_temp(self, corpus, manifest_file,
                                                      config_file, tmp_path, monkeypatch,
                                                      capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--manifest", str(manifest_file),
                     "--data-root", str(corpus), "--run-dir", str(run_dir)]) == 0
        out = run_dir / "embeddings_test.csv"
        out.write_text("old\n")

        def fail(self, target):
            raise OSError("rename failed")
        monkeypatch.setattr(Path, "replace", fail)
        capsys.readouterr()
        assert main(["export-embeddings", "--run-dir", str(run_dir),
                     "--manifest", str(manifest_file), "--data-root", str(corpus)]) == 2
        assert "rename failed" in capsys.readouterr().err
        assert out.read_text() == "old\n"
        assert not list(run_dir.glob("*.tmp"))

    def test_export_onto_directory_exit_2_names_path(self, corpus, manifest_file,
                                                     config_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_file), "--manifest", str(manifest_file),
                     "--data-root", str(corpus), "--run-dir", str(run_dir)]) == 0
        out = run_dir / "embeddings_test.csv"
        out.mkdir()
        capsys.readouterr()
        assert main(["export-embeddings", "--run-dir", str(run_dir),
                     "--manifest", str(manifest_file), "--data-root", str(corpus)]) == 2
        assert str(out) in capsys.readouterr().err
        assert out.is_dir() and not list(out.iterdir())
        assert not list(run_dir.glob("*.tmp"))

    def test_empty_validation_split_exit_2_before_training(self, config_file, tmp_path,
                                                           capsys, monkeypatch):
        # ten clips per class are two speakers: train and test, no validation
        root = tmp_path / "data"
        manifest_path = tmp_path / "m.tsv"
        ds.write_manifest(manifest_path, ds.synth_dataset(root, n_per_class=10, seed=5))
        batches = []
        compose_batch = tr.compose_batch
        monkeypatch.setattr(tr, "compose_batch",
                            lambda *a, **kw: batches.append(1) or compose_batch(*a, **kw))
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(config_file), "--manifest", str(manifest_path),
                     "--data-root", str(root), "--run-dir", str(run_dir)])
        assert code == 2
        assert "validation" in capsys.readouterr().err
        assert batches == []
        assert not (run_dir / "last.ckpt").exists()

    def test_replay_from_resolved_config(self, corpus, manifest_file, config_file,
                                         tmp_path):
        run1 = tmp_path / "r1"
        main(["train", "--config", str(config_file), "--manifest", str(manifest_file),
              "--data-root", str(corpus), "--run-dir", str(run1)])
        run2 = tmp_path / "r2"
        main(["train", "--config", str(run1 / "config.resolved"),
              "--manifest", str(manifest_file), "--data-root", str(corpus),
              "--run-dir", str(run2)])
        m1 = [json.loads(l) for l in (run1 / "metrics.jsonl").read_text().splitlines()]
        m2 = [json.loads(l) for l in (run2 / "metrics.jsonl").read_text().splitlines()]
        for a, b in zip(m1, m2):
            a.pop("seconds")
            b.pop("seconds")
        assert m1 == m2


class TestAblate:
    def test_single_cell_grid(self, corpus, manifest_file, config_file, tmp_path,
                              capsys):
        run_dir = tmp_path / "sweep"
        code = main(["ablate", "--config", str(config_file),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--run-dir", str(run_dir), "--epochs", "1",
                     "--mix-ratios", "0.5", "--alphas", "10", "--modes", "mixup"])
        assert code == 0
        table = (run_dir / "ablation.csv").read_text().splitlines()
        assert table[0] == "mix_ratio,mixup@alpha=10"
        assert len(table) == 2
        cell = table[1].split(",")[1]
        assert 0.0 <= float(cell) <= 1.0

    def test_grid_shape_matches_request(self, corpus, manifest_file, config_file,
                                        tmp_path):
        run_dir = tmp_path / "sweep2"
        code = main(["ablate", "--config", str(config_file),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--run-dir", str(run_dir), "--epochs", "1",
                     "--mix-ratios", "0.3,0.7", "--alphas", "0.5,10",
                     "--modes", "mixup,cosmix"])
        assert code == 0
        table = (run_dir / "ablation.csv").read_text().splitlines()
        assert len(table) == 3  # header + 2 ratios
        assert len(table[1].split(",")) == 1 + 4  # ratio + 2 alphas x 2 modes

    def test_sweep_reads_each_clip_once(self, corpus, manifest_file, config_file,
                                        tmp_path, monkeypatch):
        loaded = []

        def counting_load_wav(path, *args, **kwargs):
            loaded.append(path)
            return ds.load_wav(path, *args, **kwargs)
        monkeypatch.setattr(tr, "load_wav", counting_load_wav)
        code = main(["ablate", "--config", str(config_file),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--run-dir", str(tmp_path / "sweep3"), "--epochs", "1",
                     "--mix-ratios", "0.3,0.7", "--alphas", "10",
                     "--modes", "mixup,cosmix"])
        assert code == 0
        entries = ds.read_manifest(manifest_file, corpus).entries
        assert sorted(loaded) == sorted(e.path for e in entries)

    @pytest.mark.parametrize("flag,value", [
        ("--alphas", "inf"), ("--alphas", "nan"), ("--alphas", "0"), ("--alphas", "10,x"),
        ("--alphas", "1e305"),
        ("--mix-ratios", "nan"), ("--mix-ratios", "inf"), ("--mix-ratios", "1.5"),
        ("--mix-ratios", "")])
    def test_bad_sweep_value_exit_2_before_run_dir(self, corpus, manifest_file,
                                                   config_file, tmp_path, capsys,
                                                   flag, value):
        run_dir = tmp_path / "sweep4"
        code = main(["ablate", "--config", str(config_file),
                     "--manifest", str(manifest_file), "--data-root", str(corpus),
                     "--run-dir", str(run_dir), "--epochs", "1", "--modes", "mixup",
                     flag, value])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not run_dir.exists()


ERROR_CLASSES = sorted((c for c in vars(errors).values()
                        if isinstance(c, type) and issubclass(c, Exception)),
                       key=lambda c: c.__name__)


class TestExitCodes:
    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_exit_code(self, error, monkeypatch, capsys):
        def command(_args):
            raise error("stubbed failure")
        monkeypatch.setattr(cli, "cmd_verify", command)
        code = main(["verify"])
        assert code == (3 if error is errors.NumericError else 2)
        assert "stubbed failure" in capsys.readouterr().err


class TestVerifyCommand:
    def test_pristine_build_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "passed" in out
        names = [l.split()[0] for l in out.splitlines() if "max_err" in l]
        assert len(names) == len(set(names))  # every suite exactly once

    def test_sabotaged_conv_exits_one_naming_conv2d(self, capsys, monkeypatch):
        from cosmix.autodiff import SABOTAGE_ENV
        monkeypatch.setenv(SABOTAGE_ENV, "conv2d")
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "conv2d" in out and "FAILED" in out
