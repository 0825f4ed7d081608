import dataclasses
import gc
import json
import shutil
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from cosmix import autodiff as ad
from cosmix import dataset as ds
from cosmix import features as ft
from cosmix import model as md
from cosmix import trainer as tr
from cosmix.augment import AugmentConfig

TINY_MODEL = md.ModelConfig(channels=(2, 3), init_seed=1)
FAST = tr.TrainConfig(batch_size=16, epochs=2, seed=3)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    manifest = ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=7)
    return manifest


@pytest.fixture(scope="module")
def store(small_corpus):
    return tr.ClipStore(small_corpus)


class TestLrSchedule:
    def test_initial_rate(self):
        assert tr.lr_at_epoch(1, tr.TrainConfig()) == pytest.approx(5e-3)

    def test_first_decay_at_epoch_five(self):
        assert tr.lr_at_epoch(5, tr.TrainConfig()) == pytest.approx(4.25e-3)

    def test_three_decays_by_epoch_13(self):
        assert tr.lr_at_epoch(13, tr.TrainConfig()) == pytest.approx(5e-3 * 0.85 ** 3)

    def test_constant_before_first_decay(self):
        cfg = tr.TrainConfig()
        assert [tr.lr_at_epoch(e, cfg) for e in (1, 2, 3, 4)] == [5e-3] * 4

    def test_non_increasing_and_frozen_after_end(self):
        cfg = tr.TrainConfig(epochs=90)
        rates = [tr.lr_at_epoch(e, cfg) for e in range(1, 91)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[70 - 1] == rates[89]


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = ad.ParameterSet()
        p = params.add("w", np.array([1.0, -2.0, 3.0]))
        p.grad = np.array([0.5, -0.25, 1.5])
        state = tr.AdamState.for_params(params)
        before = p.values.copy()
        tr.adam_step(params, state, lr=0.01)
        np.testing.assert_allclose(before - p.values, 0.01 * np.sign(p.grad), rtol=1e-6)

    def test_zero_grads_leave_params_unchanged(self):
        params = ad.ParameterSet()
        p = params.add("w", np.array([1.0, 2.0]))
        p.grad = np.zeros(2)
        state = tr.AdamState.for_params(params)
        before = p.values.copy()
        tr.adam_step(params, state, lr=0.01)
        np.testing.assert_array_equal(p.values, before)

    def test_quadratic_convergence(self):
        # textbook Adam at lr 5e-3 reaches 5.6e-3 after 500 steps and
        # crosses 1e-3 right after step 600 (measured once, frozen here)
        params = ad.ParameterSet()
        p = params.add("theta", np.ones(4))
        state = tr.AdamState.for_params(params)
        for step in range(1, 601):
            p.grad = 2 * p.values
            tr.adam_step(params, state, lr=5e-3)
            if step == 500:
                assert np.abs(p.values).max() < 1e-2
        assert np.abs(p.values).max() < 1e-3

    def test_shape_mismatch_rejected(self):
        params = ad.ParameterSet()
        p = params.add("w", np.ones(3))
        p.grad = np.ones(4)
        state = tr.AdamState.for_params(params)
        with pytest.raises(Exception, match="grad"):
            tr.adam_step(params, state, lr=0.01)


class TestLossMix:
    def test_lambda_one_equals_plain_ce(self):
        rng = np.random.default_rng(0)
        logits = ad.Tensor(rng.normal(size=(8, 10)))
        y_i = np.eye(10)[rng.integers(0, 10, 8)]
        y_j = np.eye(10)[rng.integers(0, 10, 8)]
        lam = np.ones(8)
        mixed = tr.loss_mix(logits, y_i, y_j, lam)
        plain = ad.softmax_cross_entropy(logits, ad.Tensor(y_i))
        assert float(mixed.values) == pytest.approx(float(plain.values), abs=1e-12)

    def test_uniform_logits_ln10(self):
        rng = np.random.default_rng(1)
        y_i = np.eye(10)[rng.integers(0, 10, 5)]
        y_j = np.eye(10)[rng.integers(0, 10, 5)]
        out = tr.loss_mix(ad.Tensor(np.zeros((5, 10))), y_i, y_j, rng.uniform(size=5))
        assert float(out.values) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_equivalent_to_soft_label_ce(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            logits = ad.Tensor(rng.normal(size=(1, 10)) * 3)
            i, j = rng.integers(0, 10, size=2)
            lam = float(rng.uniform())
            y_i, y_j = np.eye(10)[[i]], np.eye(10)[[j]]
            a = float(tr.loss_mix(logits, y_i, y_j, np.array([lam])).values)
            b = float(ad.softmax_cross_entropy(
                logits, ad.Tensor(lam * y_i + (1 - lam) * y_j)).values)
            worst = max(worst, abs(a - b))
        assert worst <= 1e-9


class TestLossCos:
    def test_identical_projections_give_minus_one(self):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(5, 128))
        out = tr.loss_cos(ad.Tensor(p), ad.Tensor(p.copy()))
        np.testing.assert_allclose(out.values, -np.ones(5), atol=1e-12)

    def test_orthogonal_projections_give_zero(self):
        a = np.zeros((2, 4))
        b = np.zeros((2, 4))
        a[:, 0] = 1.0
        b[:, 1] = 1.0
        out = tr.loss_cos(ad.Tensor(a), ad.Tensor(b))
        np.testing.assert_allclose(out.values, np.zeros(2), atol=1e-12)

    def test_target_path_contributes_no_encoder_gradient(self, store):
        cfg = tr.TrainConfig(batch_size=4, beta_penalty=0.5, seed=0)
        batch = tr.compose_batch(store, [0, 1, 2, 3], cfg)
        params = md.init_params(TINY_MODEL, dtype=np.float64)

        # freeze the mixed branch: only the target branches vary
        dtype = np.float64
        with ad.pause_recording():
            emb_const = tr.encoder_forward(ad.Tensor(batch.feats_mix.astype(dtype)), params)
            proj_mix_const = tr.projector_forward(emb_const, params)
        params.zero_grad()
        with ad.Tape():
            proj_i = tr.projector_forward(
                tr.encoder_forward(ad.Tensor(batch.feats_i.astype(dtype)), params), params)
            c = tr.loss_cos(ad.Tensor(proj_mix_const.values), ad.stop_gradient(proj_i))
            ad.backward(ad.mean_all(c))
        for name, t in params.items():
            assert t.grad is None or not np.any(t.grad), name


class TestLambdaWeight:
    def test_mixed_row_splits_lambda(self):
        assert tr.lambda_weight(0.7, True) == (0.7, pytest.approx(0.3))

    def test_non_mixed_row_single_unit_weight(self):
        assert tr.lambda_weight(1.0, False) == (1.0,)

    def test_mixed_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lam = float(rng.uniform())
            w = tr.lambda_weight(lam, True)
            assert sum(w) == 1.0


class TestTotalLoss:
    def test_beta_zero_equals_loss_mix(self, store):
        cfg = tr.TrainConfig(batch_size=4, beta_penalty=0.0, seed=1)
        batch = tr.compose_batch(store, [0, 1, 2, 3], cfg)
        assert batch.feats_i is None and batch.feats_j is None
        params = md.init_params(TINY_MODEL, dtype=np.float64)
        total, logits, parts = tr.total_loss(batch, params, cfg)
        assert parts["loss_total"] == parts["loss_mix"]
        assert parts["loss_cos"] == 0.0

    def test_perfect_alignment_arithmetic(self):
        # both cosines at -1 and weights summing to 1 give total = mix - beta
        cfg = tr.TrainConfig(beta_penalty=0.5)
        lam = np.array([0.3, 0.8])
        w_sum = lam * (-1.0) + (1 - lam) * (-1.0)
        assert np.allclose(w_sum, -1.0)
        # total = loss_mix + 0.5 * mean(-1) = loss_mix - 0.5
        assert cfg.beta_penalty * np.mean(w_sum) == pytest.approx(-0.5)

    def test_full_loss_gradient_matches_finite_differences(self, store):
        # the oracle freezes the stop-gradient targets at their current
        # values; that composite's true gradient is what backward computes
        cfg = tr.TrainConfig(batch_size=3, beta_penalty=0.5, seed=4)
        batch = tr.compose_batch(store, [2, 3, 4], cfg)
        params = md.init_params(TINY_MODEL, dtype=np.float64)
        targets = tr.target_projections(batch, params)
        err = ad.finite_difference_check(
            lambda: tr.total_loss(batch, params, cfg, frozen_targets=targets)[0],
            params, h=1e-5)
        assert err < 1e-4

    def test_frozen_targets_match_live_loss_at_same_point(self, store):
        cfg = tr.TrainConfig(batch_size=3, beta_penalty=0.5, seed=4)
        batch = tr.compose_batch(store, [2, 3, 4], cfg)
        params = md.init_params(TINY_MODEL, dtype=np.float64)
        targets = tr.target_projections(batch, params)
        live = tr.total_loss(batch, params, cfg)[0]
        frozen = tr.total_loss(batch, params, cfg, frozen_targets=targets)[0]
        assert float(live.values) == float(frozen.values)

    def test_j_targets_of_unmixed_rows_carry_no_weight(self, store):
        # a non-mixed row has no j-view; whatever finite j-target stands in
        # for it, the loss and every gradient come out bit for bit the same
        cfg = tr.TrainConfig(batch_size=8, beta_penalty=0.5, seed=13)
        batch = tr.compose_batch(store, list(range(8)), cfg)
        assert 0 < batch.is_mixed.sum() < 8
        params = md.init_params(TINY_MODEL, dtype=np.float32)
        vals_i, vals_j = tr.target_projections(batch, params)
        np.testing.assert_array_equal(vals_j[~batch.is_mixed], vals_i[~batch.is_mixed])
        other_j = vals_j.copy()
        other_j[~batch.is_mixed] = np.random.default_rng(0).normal(
            size=other_j[~batch.is_mixed].shape) * 10

        def loss_and_grads(targets):
            params.zero_grad()
            with ad.Tape():
                total, _, parts = tr.total_loss(batch, params, cfg, frozen_targets=targets)
                ad.backward(total)
            return parts, {n: t.grad.copy() for n, t in params.items()}

        parts, grads = loss_and_grads((vals_i, vals_j))
        other_parts, other_grads = loss_and_grads((vals_i, other_j))
        assert parts == other_parts
        assert grads.keys() == other_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], other_grads[name]), name

    def test_loss_bounded_below(self, store):
        cfg = tr.TrainConfig(batch_size=4, beta_penalty=0.5, seed=5)
        batch = tr.compose_batch(store, [0, 3, 6, 9], cfg)
        params = md.init_params(TINY_MODEL, dtype=np.float64)
        total, _, parts = tr.total_loss(batch, params, cfg)
        assert parts["loss_total"] >= -cfg.beta_penalty
        assert abs(parts["loss_cos"]) <= 1.0


class TestComposeBatch:
    def test_mix_ratio_zero_all_plain(self, store):
        cfg = tr.TrainConfig(batch_size=8, mix_ratio=0.0, seed=6)
        batch = tr.compose_batch(store, list(range(8)), cfg)
        assert not batch.is_mixed.any()
        np.testing.assert_array_equal(batch.y_i, batch.y_j)
        np.testing.assert_array_equal(batch.lambdas, np.ones(8))

    def test_mix_ratio_one_all_mixed(self, store):
        cfg = tr.TrainConfig(batch_size=8, mix_ratio=1.0, seed=7)
        batch = tr.compose_batch(store, list(range(8)), cfg)
        assert batch.is_mixed.all()
        assert np.all((batch.lambdas > 0) & (batch.lambdas < 1))

    def test_unmixed_batch_builds_no_j_views(self, store):
        cfg = tr.TrainConfig(batch_size=2, mix_ratio=0.0, seed=8)
        batch = tr.compose_batch(store, [0, 1], cfg)
        assert batch.feats_i.shape == (2, 98, 64)
        assert batch.feats_j.shape == (0, 98, 64)

    def test_mixed_row_views_differ(self, store):
        cfg = tr.TrainConfig(batch_size=2, mix_ratio=1.0, seed=8)
        batch = tr.compose_batch(store, [0, 1], cfg)
        assert batch.feats_j.shape == (2, 98, 64)
        assert not np.array_equal(batch.feats_i[0], batch.feats_j[0])

    @pytest.mark.parametrize("beta_penalty", [0.0, 0.5])
    def test_featurizes_a_j_view_per_mixed_row_only(self, store, monkeypatch, beta_penalty):
        calls = []
        log_fbank_batch = tr.log_fbank_batch

        def counting(waves, dtype):
            calls.append(len(waves))
            return log_fbank_batch(waves, dtype)
        monkeypatch.setattr(tr, "log_fbank_batch", counting)
        cfg = tr.TrainConfig(batch_size=16, beta_penalty=beta_penalty, seed=11)
        batch = tr.compose_batch(store, list(range(16)), cfg)
        n_mixed = int(batch.is_mixed.sum())
        assert 0 < n_mixed < 16
        if beta_penalty:
            assert calls == [2 * 16 + n_mixed]
            assert batch.feats_j.shape == (n_mixed, 98, 64)
        else:
            assert calls == [16]

    def test_deterministic_given_coordinates(self, store):
        cfg = tr.TrainConfig(batch_size=4, seed=9)
        a = tr.compose_batch(store, [0, 1, 2, 3], cfg, epoch=2, batch_idx=5)
        b = tr.compose_batch(store, [0, 1, 2, 3], cfg, epoch=2, batch_idx=5)
        np.testing.assert_array_equal(a.feats_mix, b.feats_mix)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)

    def test_mixed_fraction_concentrates(self, store, monkeypatch):
        # is_mixed comes from each row's stream 0, before any view is built,
        # so skipping the costly view work cannot move the count
        monkeypatch.setattr(tr, "time_stretch", lambda wave, rng, aug: wave)
        monkeypatch.setattr(tr, "log_fbank_batch", lambda waves, dtype:
                            np.zeros((len(waves), 98, 64), dtype=dtype))
        # beta_penalty 0 builds the mixed view only
        cfg = tr.TrainConfig(batch_size=128, mix_ratio=0.5, beta_penalty=0.0, seed=10)
        mixed = 0
        for b in range(100):
            batch = tr.compose_batch(store, np.arange(128) % 100, cfg,
                                     epoch=1, batch_idx=b)
            mixed += int(batch.is_mixed.sum())
        assert 0.45 <= mixed / 12800 <= 0.55

    def test_too_small_manifest_rejected(self, tmp_path):
        entries = (ds.ManifestEntry("yes/a_nohash_0.wav", 4, "a", "train"),)
        manifest = ds.DatasetManifest(entries=entries, root=str(tmp_path))
        store = tr.ClipStore(manifest)
        with pytest.raises(Exception, match="train entries"):
            tr.compose_batch(store, [0], tr.TrainConfig())


class TestEvaluate:
    def test_confusion_rows_match_class_counts(self, store):
        params = md.init_params(TINY_MODEL)
        acc, confusion = tr.evaluate(store, "test", params)
        per_class = {k: 0 for k in range(10)}
        for e in store.manifest.split_entries("test"):
            per_class[e.label] += 1
        np.testing.assert_array_equal(confusion.sum(axis=1),
                                      [per_class[k] for k in range(10)])
        assert acc == pytest.approx(np.trace(confusion) / confusion.sum())

    def test_random_init_near_chance(self, store):
        accs = []
        for seed in range(5):
            params = md.init_params(md.ModelConfig(channels=(2, 3), init_seed=seed))
            acc, _ = tr.evaluate(store, "test", params)
            accs.append(acc)
        assert 0.02 <= np.mean(accs) <= 0.25

    def test_empty_split_rejected(self, tmp_path):
        entries = (ds.ManifestEntry("yes/a_nohash_0.wav", 4, "a", "train"),)
        manifest = ds.DatasetManifest(entries=entries, root=str(tmp_path))
        with pytest.raises(ValueError, match="empty"):
            tr.evaluate(tr.ClipStore(manifest), "test", md.init_params(TINY_MODEL))

    def test_cold_chunk_matches_per_clip_features(self, small_corpus, monkeypatch):
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        store = tr.ClipStore(small_corpus)
        entries = small_corpus.split_entries("test")[:tr.EVAL_BATCH]
        expected = np.stack([ft.log_fbank_batch(store.wave(e)[None])[0].astype(np.float32)
                             for e in entries])
        chunk = store.eval_features(entries)
        assert chunk.shape == (len(entries), 98, 64) and chunk.dtype == np.float32
        assert np.array_equal(chunk, expected)
        # a chunk that is partly cached, in another order
        more = small_corpus.split_entries("test")[tr.EVAL_BATCH - 2:tr.EVAL_BATCH + 2][::-1]
        assert len(more) == 4
        assert np.array_equal(store.eval_features(more), [
            ft.log_fbank_batch(store.wave(e)[None])[0].astype(np.float32) for e in more])


class TestExportEmbeddings:
    def test_record_shape_and_determinism(self, store, tmp_path):
        params = md.init_params(TINY_MODEL)
        out = tmp_path / "emb.csv"
        n = tr.export_embeddings(store, "test", params, out)
        lines = out.read_text().splitlines()
        assert len(lines) == n == len(store.manifest.split_entries("test"))
        assert all(len(line.split(",")) == TINY_MODEL.embed_dim + 1 for line in lines)
        out2 = tmp_path / "emb2.csv"
        tr.export_embeddings(store, "test", params, out2)
        assert out.read_bytes() == out2.read_bytes()


def run_tiny(manifest, mode, cfg=FAST, **kw):
    return tr.train(cfg, manifest, mode=mode, model_cfg=TINY_MODEL,
                    clock=lambda: 0.0, **kw)


class TestTrainLoop:
    def test_metrics_per_epoch_and_determinism(self, small_corpus):
        a = run_tiny(small_corpus, "cosmix")
        b = run_tiny(small_corpus, "cosmix")
        assert len(a.history) == FAST.epochs
        assert a.history == b.history
        assert a.batch_losses == b.batch_losses

    def test_baseline_has_zero_contrastive_loss(self, small_corpus):
        result = run_tiny(small_corpus, "baseline")
        assert all(m.loss_cos == 0.0 for m in result.history)

    def test_cosmix_beta_zero_matches_mixup_bitwise(self, small_corpus):
        cfg = dataclasses.replace(FAST, beta_penalty=0.0)
        a = run_tiny(small_corpus, "cosmix", cfg=cfg)
        b = run_tiny(small_corpus, "mixup", cfg=FAST)
        assert a.batch_losses == b.batch_losses

    def test_mixup_ratio_zero_matches_baseline_bitwise(self, small_corpus):
        cfg = dataclasses.replace(FAST, mix_ratio=0.0)
        a = run_tiny(small_corpus, "mixup", cfg=cfg)
        b = run_tiny(small_corpus, "baseline", cfg=FAST)
        assert a.batch_losses == b.batch_losses

    def test_epoch_metrics_decomposition(self, small_corpus):
        result = run_tiny(small_corpus, "cosmix")
        for m in result.history:
            assert m.loss_total == pytest.approx(m.loss_mix + 0.5 * m.loss_cos, abs=1e-5)

    def test_metrics_file_fields(self, small_corpus, tmp_path):
        path = tmp_path / "metrics.jsonl"
        run_tiny(small_corpus, "cosmix", metrics_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == FAST.epochs
        rec = json.loads(lines[0])
        assert list(rec) == ["epoch", "loss_mix", "loss_cos", "loss_total",
                             "train_acc", "val_acc", "lr", "seconds"]

    def test_step_graph_freed_without_cycle_collector(self, small_corpus, monkeypatch):
        # with the collector off, a step's graph must still be gone by the
        # time the next step starts: freed by reference counting alone
        refs = []
        alive_at_step_start = []
        conv2d, compose_batch = ad.conv2d, tr.compose_batch

        def recording_conv2d(*args, **kwargs):
            out = conv2d(*args, **kwargs)
            if out.tape is not None:
                refs.append(weakref.ref(out))
            return out

        def checking_compose_batch(*args, **kwargs):
            alive_at_step_start.append(sum(r() is not None for r in refs))
            return compose_batch(*args, **kwargs)

        monkeypatch.setattr(ad, "conv2d", recording_conv2d)
        monkeypatch.setattr(tr, "compose_batch", checking_compose_batch)
        gc.disable()
        try:
            run_tiny(small_corpus, "cosmix")
            alive_at_end = sum(r() is not None for r in refs)
        finally:
            gc.enable()
        assert len(refs) > len(TINY_MODEL.channels)
        assert alive_at_step_start == [0] * len(alive_at_step_start)
        assert alive_at_end == 0

    def test_labels_come_from_the_manifest_alone(self, small_corpus, tmp_path):
        # every clip copied to clips/<k>.wav, outside the <word>/<speaker>
        # layout: only the manifest's label column names its keyword
        (tmp_path / "clips").mkdir()
        rows = []
        for k, e in enumerate(small_corpus.entries):
            rel = f"clips/{k}.wav"
            shutil.copyfile(Path(small_corpus.root) / e.path, tmp_path / rel)
            rows.append(f"{rel}\t{e.label}\t{e.speaker_id}\t{e.split}")
        (tmp_path / "flat.tsv").write_text("\n".join(rows) + "\n")
        flat = ds.read_manifest(tmp_path / "flat.tsv", tmp_path)
        cfg = dataclasses.replace(FAST, epochs=1)
        runs = [tr.train(cfg, m, mode="cosmix", model_cfg=TINY_MODEL, clock=lambda: 0.0)
                for m in (small_corpus, flat)]
        assert runs[0].history == runs[1].history

    def test_invalid_mode_rejected(self, small_corpus):
        with pytest.raises(ValueError, match="mode"):
            tr.train(FAST, small_corpus, mode="party", model_cfg=TINY_MODEL)


class TestResume:
    def test_resume_reproduces_trajectory(self, small_corpus, tmp_path):
        cfg = dataclasses.replace(FAST, epochs=3)
        full = tr.train(cfg, small_corpus, mode="cosmix", model_cfg=TINY_MODEL,
                        checkpoint_dir=tmp_path / "full", clock=lambda: 0.0)

        cfg2 = dataclasses.replace(FAST, epochs=2)
        tr.train(cfg2, small_corpus, mode="cosmix", model_cfg=TINY_MODEL,
                 checkpoint_dir=tmp_path / "part", clock=lambda: 0.0)
        ckpt = md.load_checkpoint(tmp_path / "part" / "last.ckpt")
        assert ckpt.epoch == 2
        resumed = tr.train(cfg, small_corpus, mode="cosmix", model_cfg=TINY_MODEL,
                           resume_from=ckpt, clock=lambda: 0.0)
        assert len(resumed.history) == 1
        assert resumed.history[0] == full.history[2]
        for name, values in full.params.copy_values().items():
            np.testing.assert_array_equal(resumed.params.copy_values()[name], values)

    def test_best_checkpoint_round_trips_val_acc(self, small_corpus, tmp_path):
        result = tr.train(FAST, small_corpus, mode="cosmix", model_cfg=TINY_MODEL,
                          checkpoint_dir=tmp_path, clock=lambda: 0.0)
        ckpt = md.load_checkpoint(tmp_path / "best.ckpt")
        params = tr.params_from_checkpoint(ckpt)
        store = tr.ClipStore(small_corpus)
        acc, _ = tr.evaluate(store, "validation", params)
        assert acc == pytest.approx(result.best_val_acc)
        assert ckpt.metrics_tail["val_acc"] == pytest.approx(result.best_val_acc)

    def test_seed_mismatch_rejected(self, small_corpus, tmp_path):
        tr.train(FAST, small_corpus, mode="cosmix", model_cfg=TINY_MODEL,
                 checkpoint_dir=tmp_path, clock=lambda: 0.0)
        ckpt = md.load_checkpoint(tmp_path / "last.ckpt")
        bad = dataclasses.replace(FAST, seed=99, epochs=3)
        with pytest.raises(Exception, match="seed"):
            tr.train(bad, small_corpus, mode="cosmix", model_cfg=TINY_MODEL,
                     resume_from=ckpt)


class TestRowBlocks:
    """Conv row blocks and log-mel row spans on the pool
    (autodiff.POOL_WORKERS) leave every output byte as inline calls write
    it."""

    # a small encoder whose conv blocks pass autodiff.MIN_MADDS at
    # 8-clip blocks; block 1's weight GEMM splits by column, block 0's by
    # output channel
    MODEL = md.ModelConfig(channels=(24, 8), init_seed=1)
    OUTPUTS = ("metrics.jsonl", "last.ckpt", "best.ckpt", "emb.csv")

    def run_outputs(self, manifest, mode, run_dir):
        run_dir.mkdir()
        result = tr.train(FAST, manifest, mode=mode, model_cfg=self.MODEL,
                          metrics_path=run_dir / "metrics.jsonl", checkpoint_dir=run_dir,
                          clock=lambda: 0.0)
        best = tr.params_from_values(self.MODEL, result.best_values)
        tr.export_embeddings(tr.ClipStore(manifest), "test", best, run_dir / "emb.csv")
        return {name: (run_dir / name).read_bytes() for name in self.OUTPUTS}

    @pytest.mark.parametrize("mode", tr.MODES)
    def test_pooled_and_inline_runs_write_identical_bytes(self, small_corpus, tmp_path,
                                                          monkeypatch, mode):
        share, pooled_fns = ad._share, set()

        def spy(fn, spans):
            pooled_fns.add(fn.__name__)
            return share(fn, spans)
        monkeypatch.setattr(ad, "_share", spy)
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        pooled = self.run_outputs(small_corpus, mode, tmp_path / "pooled")
        assert pooled_fns == {"forward_block", "backward_block", "weight_part",
                              "featurize_span"}
        monkeypatch.setattr(ad, "POOL_WORKERS", 0)
        inline = self.run_outputs(small_corpus, mode, tmp_path / "inline")
        for name in self.OUTPUTS:
            assert pooled[name] == inline[name], name

    def test_one_pool_thread(self, small_corpus, tmp_path, monkeypatch):
        # conv blocks and log-mel rows share the one worker
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        result = tr.train(dataclasses.replace(FAST, epochs=1), small_corpus, mode="cosmix",
                          model_cfg=self.MODEL, clock=lambda: 0.0)
        store = tr.ClipStore(small_corpus)
        tr.evaluate(store, "test", result.params)
        tr.export_embeddings(store, "test", result.params, tmp_path / "emb.csv")
        names = [t.name for t in threading.enumerate() if t.name.startswith("cosmix-")]
        assert names == ["cosmix-pool_0"]

    def test_verify_with_pooled_blocks(self, monkeypatch, capsys):
        from cosmix.cli import main
        # every conv of the suites goes to the pool, one clip per block
        monkeypatch.setattr(ad, "POOL_WORKERS", 1)
        monkeypatch.setattr(ad, "BLOCK_CLIPS", 1)
        monkeypatch.setattr(ad, "MIN_MADDS", 0)
        assert main(["verify"]) == 0
        assert "all 15 suites passed" in capsys.readouterr().out
        monkeypatch.setenv(ad.SABOTAGE_ENV, "conv2d")
        assert main(["verify"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAILED: ")]
        assert len(failed) == 1
        assert {"conv2d_grad", "conv2d_c1_grad", "full_loss_grad"} <= \
            set(failed[0][len("FAILED: "):].split(", "))
