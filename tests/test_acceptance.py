"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -s`` to see
the per-criterion report.

The desk-scale training comparison (criterion 6) is the slow one; it
trains nine models and is budgeted at fifteen minutes total.
"""
import dataclasses
import json
import os
import time

import numpy as np
import pytest

from cosmix import autodiff as ad
from cosmix import dataset as ds
from cosmix import model as md
from cosmix import trainer as tr
from cosmix import verify as vf
from cosmix.features import HOP_LENGTH, N_BINS, N_FFT, WIN_LENGTH, hann_periodic, \
    log_fbank_batch, stft_power

# desk-scale protocol: 20 train clips per class (35 per class over seven
# 5-clip speakers, split 4/1/2), noise 0.3, three seeds, <= 40 epochs
ACCEPT_SEEDS = (101, 102, 103)
ACCEPT_EPOCHS = 28
ACCEPT_CFG = dict(batch_size=32, lr0=2e-3)

TINY_MODEL = md.ModelConfig(channels=(2, 3), init_seed=1)
FAST = tr.TrainConfig(batch_size=16, epochs=2, seed=3)


def report(criterion, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_synth")
    return ds.synth_dataset(root, n_per_class=35, noise_level=0.3, seed=2024)


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_tiny")
    return ds.synth_dataset(root, n_per_class=20, noise_level=0.1, seed=7)


def test_criterion_1_verification_suite():
    t0 = time.monotonic()
    results = vf.run_all()
    elapsed = time.monotonic() - t0
    grad_suites = [r for r in results if r.name.endswith("_grad")]
    all_pass = all(r.passed for r in results)
    worst = max(r.value for r in grad_suites)
    report(1, all_pass and worst < 1e-4 and elapsed < 120,
           f"{len(results)} suites, worst gradient error {worst:.2e} < 1e-4, "
           f"runtime {elapsed:.1f}s < 120s")


def test_criterion_2a_mix_equals_soft_label_ce():
    rng = np.random.default_rng(0)
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
    report("2a", worst <= 1e-9,
           f"mixed loss vs soft-label CE over 1000 cases: max gap {worst:.2e} <= 1e-9")


def test_criterion_2b_unit_norm_mse_identity():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(1000, 24))
    v = rng.normal(size=(1000, 24))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    neg_cos = -ad.cosine_similarity(ad.Tensor(u), ad.Tensor(v)).values
    gap = np.abs(((u - v) ** 2).sum(axis=1) - (2 + 2 * neg_cos)).max()
    report("2b", gap <= 1e-9, f"||u-v||^2 == 2 + 2*L_cos: max gap {gap:.2e} <= 1e-9")


def test_criterion_2c_branch_weights_sum_to_one():
    rng = np.random.default_rng(2)
    exact = all(sum(tr.lambda_weight(float(rng.uniform()), True)) == 1.0
                for _ in range(1000))
    exact = exact and sum(tr.lambda_weight(1.0, False)) == 1.0
    report("2c", exact, "mixed-row weights sum to exactly 1 (and 1 when unmixed)")


def test_criterion_3_feature_pipeline():
    rng = np.random.default_rng(3)
    shapes_ok = all(log_fbank_batch(w[None])[0].shape == (98, 64) for w in
                    (np.zeros(16000), rng.normal(size=16000) * 0.1,
                     np.sin(np.arange(16000) / 5.0)))
    wave = rng.normal(size=16000)
    power = stft_power(wave)
    win = hann_periodic(WIN_LENGTH)
    k = np.arange(N_BINS)[:, None]
    n = np.arange(N_FFT)[None, :]
    basis = np.exp(-2j * np.pi * k * n / N_FFT)
    worst = 0.0
    for t in rng.choice(98, size=10, replace=False):
        frame = np.zeros(N_FFT)
        frame[:WIN_LENGTH] = wave[t * HOP_LENGTH:t * HOP_LENGTH + WIN_LENGTH] * win
        oracle = np.abs(basis @ frame) ** 2
        worst = max(worst, (np.abs(power[t] - oracle) /
                            np.maximum(np.abs(oracle), 1.0)).max())
    report(3, shapes_ok and worst < 1e-9,
           f"output always 98x64; fast transform vs naive DFT: {worst:.2e} < 1e-9")


def test_criterion_4_beta_sampler_moments():
    from cosmix.augment import BetaParams, sample_beta
    rng = np.random.default_rng(4)
    params = BetaParams(alpha=10.0)
    draws = np.array([sample_beta(params, rng) for _ in range(100_000)])
    mean_ok = 0.49 <= draws.mean() <= 0.51
    var_gap = abs(draws.var() - 1 / 84) / (1 / 84)
    report(4, mean_ok and var_gap <= 0.10,
           f"Beta(10,10) 1e5 draws: mean {draws.mean():.4f} in [0.49, 0.51], "
           f"variance within {var_gap * 100:.1f}% of 1/84 (<= 10%)")


def test_criterion_5_mode_nesting(tiny_corpus):
    def run(mode, **overrides):
        cfg = dataclasses.replace(FAST, **overrides)
        return tr.train(cfg, tiny_corpus, mode=mode, model_cfg=TINY_MODEL,
                        clock=lambda: 0.0).batch_losses

    cosmix_b0 = run("cosmix", beta_penalty=0.0)
    mixup = run("mixup")
    mixup_r0 = run("mixup", mix_ratio=0.0)
    baseline = run("baseline")
    report(5, cosmix_b0 == mixup and mixup_r0 == baseline,
           "per-batch losses bit-identical: cosmix(beta=0) == mixup and "
           "mixup(ratio=0) == baseline")


@pytest.mark.slow
def test_criterion_6_desk_scale_ordering(desk_corpus):
    t0 = time.monotonic()
    store = tr.ClipStore(desk_corpus)  # every training and evaluation reads the same clips
    means = {}
    per_mode = {}
    for mode in ("baseline", "mixup", "cosmix"):
        accs = []
        for seed in ACCEPT_SEEDS:
            cfg = tr.TrainConfig(epochs=ACCEPT_EPOCHS, seed=seed, **ACCEPT_CFG)
            mcfg = md.ModelConfig(init_seed=seed)
            result = tr.train(cfg, desk_corpus, mode=mode, model_cfg=mcfg, store=store)
            params = tr.params_from_values(mcfg, result.best_values)
            acc, _ = tr.evaluate(store, "test", params)
            accs.append(acc)
        per_mode[mode] = accs
        means[mode] = float(np.mean(accs))
    elapsed = time.monotonic() - t0
    # the same seed trains every mode from the same initial weights
    for other in ("mixup", "baseline"):
        diffs = [c - o for c, o in zip(per_mode["cosmix"], per_mode[other])]
        print(f"\ncriterion 6 paired cosmix - {other} per seed: "
              f"{', '.join(f'{d:+.3f}' for d in diffs)}; mean {np.mean(diffs):+.3f}")
    ok = (means["cosmix"] >= means["mixup"] and
          means["cosmix"] >= means["baseline"] and
          means["cosmix"] >= 0.90 and elapsed < 900)
    report(6, ok,
           f"mean test acc over {len(ACCEPT_SEEDS)} seeds at {ACCEPT_EPOCHS} epochs: "
           f"cosmix {means['cosmix']:.3f} >= mixup {means['mixup']:.3f}, "
           f">= baseline {means['baseline']:.3f}, >= 0.90; "
           f"runtime {elapsed:.0f}s < 900s  (per-seed: {per_mode})")


@pytest.mark.skipif("COSMIX_GSC_ROOT" not in os.environ,
                    reason="optional full-data check; set COSMIX_GSC_ROOT to a "
                           "Google Speech Commands V2 directory to enable")
def test_criterion_7_full_data_optional(tmp_path):
    root = os.environ["COSMIX_GSC_ROOT"]
    manifest = ds.build_manifest(root, os.path.join(root, "validation_list.txt"),
                                 os.path.join(root, "testing_list.txt"))
    manifest = ds.trim_by_speaker(manifest, 0.05, seed=0)
    import wave as wave_mod
    minutes = []
    for label in range(10):
        kept = [e for e in manifest.entries if e.split == "train" and e.label == label]
        secs = 0.0
        for e in kept:
            with wave_mod.open(os.path.join(root, e.path), "rb") as fh:
                secs += fh.getnframes() / fh.getframerate()
        minutes.append(secs / 60.0)
    minutes_ok = all(2.0 <= m <= 3.0 for m in minutes)  # 2.5 min +/- 20%

    cfg = tr.TrainConfig(seed=0)  # paper defaults: batch 128, 70 epochs, lr 5e-3
    result = tr.train(cfg, manifest, mode="cosmix", model_cfg=md.ModelConfig())
    params = tr.params_from_values(md.ModelConfig(), result.best_values)
    acc, _ = tr.evaluate(tr.ClipStore(manifest), "test", params)
    report(7, minutes_ok and acc >= 0.85,
           f"5% split: per-keyword minutes {[f'{m:.2f}' for m in minutes]}; "
           f"cosmix test acc {acc:.3f} >= 0.85")


def test_criterion_8_determinism_and_resume(tiny_corpus, tmp_path):
    # byte-identical streams under an injected clock; identical modulo the
    # wall-clock seconds field under the real clock
    paths = [tmp_path / f"m{i}.jsonl" for i in range(4)]
    for i, path in enumerate(paths):
        clock = (lambda: 0.0) if i < 2 else time.monotonic
        tr.train(FAST, tiny_corpus, mode="cosmix", model_cfg=TINY_MODEL,
                 metrics_path=path, clock=clock)
    byte_identical = paths[0].read_bytes() == paths[1].read_bytes()
    real = []
    for path in paths[2:]:
        recs = [json.loads(l) for l in path.read_text().splitlines()]
        for r in recs:
            r.pop("seconds")
        real.append(recs)
    real_identical = real[0] == real[1]

    full = tr.train(dataclasses.replace(FAST, epochs=3), tiny_corpus, mode="cosmix",
                    model_cfg=TINY_MODEL, checkpoint_dir=tmp_path / "full",
                    clock=lambda: 0.0)
    tr.train(FAST, tiny_corpus, mode="cosmix", model_cfg=TINY_MODEL,
             checkpoint_dir=tmp_path / "part", clock=lambda: 0.0)
    ckpt = md.load_checkpoint(tmp_path / "part" / "last.ckpt")
    resumed = tr.train(dataclasses.replace(FAST, epochs=3), tiny_corpus, mode="cosmix",
                       model_cfg=TINY_MODEL, resume_from=ckpt, clock=lambda: 0.0)
    resume_ok = (resumed.history[0] == full.history[2] and
                 all(np.array_equal(a, b) for a, b in
                     zip(full.params.copy_values().values(),
                         resumed.params.copy_values().values())))
    report(8, byte_identical and real_identical and resume_ok,
           "metrics streams byte-identical (injected clock), identical modulo "
           "seconds (real clock), and resume reproduces the trajectory")
