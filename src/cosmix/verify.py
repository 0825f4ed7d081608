"""Self-verification suites: gradient checks against central finite
differences, the loss identities, sampler moments, and the DFT oracle.

Each suite reports one max-error-style metric against a fixed tolerance;
the CLI ``verify`` subcommand runs them all and fails the build on any
regression (including deliberately corrupted gradients, via the
mutation-testing hook in the autodiff module).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .augment import BetaParams, sample_beta
from .features import HOP_LENGTH, N_BINS, N_FFT, WIN_LENGTH, hann_periodic, stft_power
from .model import ModelConfig, init_params
from .trainer import MixedBatch, TrainConfig, lambda_weight, loss_mix, total_loss

TINY_MODEL = ModelConfig(channels=(2, 3), init_seed=11)


@dataclass(frozen=True)
class VerifyResult:
    name: str
    value: float
    tolerance: float
    passed: bool


def _result(name, value, tolerance):
    return VerifyResult(name, float(value), tolerance, bool(value <= tolerance))


def _fd(build, arrays):
    params = ad.ParameterSet()
    for name, arr in arrays.items():
        params.add(name, arr)
    return ad.finite_difference_check(lambda: build(params), params)


def suite_dense_grad():
    rng = np.random.default_rng(101)
    target = ad.Tensor(rng.dirichlet(np.ones(10), size=4))
    err = _fd(lambda p: ad.softmax_cross_entropy(
        ad.dense(p["x"], p["w"], p["b"]), target),
        {"x": rng.normal(size=(4, 6)), "w": rng.normal(size=(6, 10)),
         "b": rng.normal(size=10)})
    return _result("dense_grad", err, 1e-6)


def _conv2d_fd(rng, x_shape, k_shape):
    return _fd(lambda p: ad.sum_all(ad.mul(
        ad.conv2d(p["x"], p["k"], p["b"], stride=2, padding=1),
        ad.conv2d(p["x"], p["k"], p["b"], stride=2, padding=1))),
        {"x": rng.normal(size=x_shape), "k": rng.normal(size=k_shape),
         "b": rng.normal(size=k_shape[0])})


def suite_conv2d_grad():
    err = _conv2d_fd(np.random.default_rng(102), (2, 6, 5, 2), (3, 2, 3, 3))
    return _result("conv2d_grad", err, 1e-6)


def suite_conv2d_c1_grad():
    """Encoder block 0's geometry: one input channel, odd height and width."""
    err = _conv2d_fd(np.random.default_rng(115), (2, 7, 5, 1), (3, 1, 3, 3))
    return _result("conv2d_c1_grad", err, 1e-6)


def suite_relu_pool_grad():
    rng = np.random.default_rng(103)
    x = rng.normal(size=(2, 4, 4, 3))
    x[np.abs(x) < 1e-3] = 0.25
    err = _fd(lambda p: ad.sum_all(ad.mul(
        ad.global_avg_pool(ad.relu(p["x"])),
        ad.global_avg_pool(ad.relu(p["x"])))), {"x": x})
    return _result("relu_pool_grad", err, 1e-6)


def suite_l2_normalize_grad():
    rng = np.random.default_rng(104)
    c = ad.Tensor(rng.normal(size=(4, 7)))
    err = _fd(lambda p: ad.sum_all(ad.mul(ad.l2_normalize(p["x"]), c)),
              {"x": rng.normal(size=(4, 7))})
    return _result("l2_normalize_grad", err, 1e-6)


def suite_softmax_ce_grad():
    rng = np.random.default_rng(105)
    z = rng.normal(size=(6, 10))
    t = rng.dirichlet(np.ones(10), size=6)
    params = ad.ParameterSet()
    zt = params.add("z", z)
    with ad.Tape():
        ad.backward(ad.softmax_cross_entropy(zt, ad.Tensor(t)))
    m = z.max(axis=1, keepdims=True)
    sm = np.exp(z - m) / np.exp(z - m).sum(axis=1, keepdims=True)
    analytic_gap = np.abs(zt.grad - (sm - t) / 6).max()
    fd_err = _fd(lambda p: ad.softmax_cross_entropy(p["z"], ad.Tensor(t)), {"z": z})
    return _result("softmax_ce_grad", max(analytic_gap, fd_err), 1e-6)


def suite_sigmoid_bce_grad():
    rng = np.random.default_rng(106)
    t = rng.uniform(0.05, 0.95, size=(3, 5))
    err = _fd(lambda p: ad.sigmoid_bce(p["z"], ad.Tensor(t)),
              {"z": rng.normal(size=(3, 5))})
    return _result("sigmoid_bce_grad", err, 1e-6)


def suite_stop_gradient():
    rng = np.random.default_rng(107)
    params = ad.ParameterSet()
    x = params.add("x", rng.normal(size=(3, 4)))

    params.zero_grad()
    with ad.Tape():
        ad.backward(ad.sum_all(ad.stop_gradient(ad.mul(x, x))))
    blocked = 0.0 if x.grad is None else np.abs(x.grad).max()

    params.zero_grad()
    with ad.Tape():
        ad.backward(ad.sum_all(ad.mul(x, ad.stop_gradient(x))))
    partial_gap = np.abs(x.grad - x.values).max()
    return _result("stop_gradient", max(blocked, partial_gap), 0.0)


def _toy_batch(rng, b=3):
    y_i = np.eye(10)[rng.integers(0, 10, b)]
    y_j = np.eye(10)[rng.integers(0, 10, b)]
    lam = rng.uniform(0.1, 0.9, size=b)
    return MixedBatch(feats_mix=rng.normal(size=(b, 98, 64)),
                      feats_i=rng.normal(size=(b, 98, 64)),
                      feats_j=rng.normal(size=(b, 98, 64)),
                      y_i=y_i, y_j=y_j, lambdas=lam,
                      is_mixed=np.ones(b, dtype=bool))


def suite_full_loss_grad():
    from .trainer import target_projections
    rng = np.random.default_rng(108)
    batch = _toy_batch(rng)
    cfg = TrainConfig(beta_penalty=0.5)
    params = init_params(TINY_MODEL, dtype=np.float64)
    targets = target_projections(batch, params)
    err = ad.finite_difference_check(
        lambda: total_loss(batch, params, cfg, frozen_targets=targets)[0],
        params, h=1e-5)
    return _result("full_loss_grad", err, 1e-4)


def suite_mix_soft_label_identity():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(1000):
        logits = ad.Tensor(rng.normal(size=(1, 10)) * 3)
        i, j = rng.integers(0, 10, size=2)
        lam = float(rng.uniform())
        y_i, y_j = np.eye(10)[[i]], np.eye(10)[[j]]
        a = float(loss_mix(logits, y_i, y_j, np.array([lam])).values)
        b = float(ad.softmax_cross_entropy(
            logits, ad.Tensor(lam * y_i + (1 - lam) * y_j)).values)
        worst = max(worst, abs(a - b))
    return _result("mix_soft_label_identity", worst, 1e-9)


def suite_cosine_mse_identity():
    rng = np.random.default_rng(110)
    u = rng.normal(size=(500, 32))
    v = rng.normal(size=(500, 32))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    neg_cos = -ad.cosine_similarity(ad.Tensor(u), ad.Tensor(v)).values
    sq = ((u - v) ** 2).sum(axis=1)
    return _result("cosine_mse_identity", np.abs(sq - (2 + 2 * neg_cos)).max(), 1e-9)


def suite_branch_weight_conservation():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(1000):
        lam = float(rng.uniform())
        w = lambda_weight(lam, True)
        worst = max(worst, abs(sum(w) - 1.0))
        worst = max(worst, abs(sum(lambda_weight(1.0, False)) - 1.0))
    return _result("branch_weight_conservation", worst, 0.0)


def suite_beta_mean():
    rng = np.random.default_rng(112)
    params = BetaParams(alpha=10.0)
    draws = np.array([sample_beta(params, rng) for _ in range(100_000)])
    return _result("beta_mean", abs(draws.mean() - 0.5), 0.01)


def suite_beta_variance():
    rng = np.random.default_rng(113)
    params = BetaParams(alpha=10.0)
    draws = np.array([sample_beta(params, rng) for _ in range(100_000)])
    expected = 1.0 / 84.0
    return _result("beta_variance", abs(draws.var() - expected), 0.1 * expected)


def suite_dft_oracle():
    rng = np.random.default_rng(114)
    wave = rng.normal(size=16000)
    power = stft_power(wave)
    win = hann_periodic(WIN_LENGTH)
    k = np.arange(N_BINS)[:, None]
    n = np.arange(N_FFT)[None, :]
    basis = np.exp(-2j * np.pi * k * n / N_FFT)
    worst = 0.0
    for t in rng.choice(98, size=8, replace=False):
        frame = np.zeros(N_FFT)
        frame[:WIN_LENGTH] = wave[t * HOP_LENGTH:t * HOP_LENGTH + WIN_LENGTH] * win
        oracle = np.abs(basis @ frame) ** 2
        rel = np.abs(power[t] - oracle) / np.maximum(np.abs(oracle), 1.0)
        worst = max(worst, rel.max())
    return _result("dft_oracle", worst, 1e-9)


ALL_SUITES = (
    suite_dense_grad,
    suite_conv2d_grad,
    suite_conv2d_c1_grad,
    suite_relu_pool_grad,
    suite_l2_normalize_grad,
    suite_softmax_ce_grad,
    suite_sigmoid_bce_grad,
    suite_stop_gradient,
    suite_full_loss_grad,
    suite_mix_soft_label_identity,
    suite_cosine_mse_identity,
    suite_branch_weight_conservation,
    suite_beta_mean,
    suite_beta_variance,
    suite_dft_oracle,
)


def run_all():
    return [suite() for suite in ALL_SUITES]
