"""Training: batch composition, the combined loss, Adam, evaluation.

Every random draw derives from (seed, epoch, batch, row, stream)
counters, so runs are reproducible regardless of scheduling, and modes
nest exactly: with the contrastive weight at zero the computation is
bit-identical to plain mixup, and with the mix ratio at zero mixup is
bit-identical to the baseline.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, BetaParams, mixup_waveforms, sample_beta, \
    spec_augment, time_shift, time_stretch
from .dataset import KEYWORDS, atomic_write, load_wav, pad_or_trim
from .errors import ContractError, DatasetError, NumericError
from .features import log_fbank_batch
from .model import Checkpoint, ModelConfig, classifier_forward, encoder_forward, \
    init_params, projector_forward, save_checkpoint

# bench/tracing.py patches this name; nothing calls it, so the tracer's
# features.log_fbank_cached.* metrics read 0 (evaluation featurizes through
# log_fbank_batch). The alias goes with the next change to bench/.
log_fbank_cached = log_fbank_batch

MODES = ("baseline", "mixup", "cosmix")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

EVAL_BATCH = 32


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    epochs: int = 70
    lr0: float = 5e-3
    decay_rate: float = 0.85
    decay_every: int = 4
    decay_start_epoch: int = 5
    decay_end_epoch: int = 70
    beta_penalty: float = 0.5
    alpha: float = 10.0
    mix_ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for key in ("lr0", "decay_rate", "beta_penalty"):  # BetaParams checks alpha
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        for key, low in (("batch_size", 1), ("epochs", 1), ("decay_every", 1),
                         ("beta_penalty", 0), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        for key in ("lr0", "decay_rate"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, got {getattr(self, key)}")
        if not 0 <= self.mix_ratio <= 1:
            raise ValueError(f"mix_ratio must be in [0, 1], got {self.mix_ratio}")
        BetaParams(self.alpha)

    @property
    def beta_params(self):
        return BetaParams(self.alpha)


@dataclass
class MixedBatch:
    """Features of the mixed view plus the two pre-mix views and labels.

    ``feats_mix`` and ``feats_i`` hold one row per batch row. For
    non-mixed rows source j == source i and lambda is recorded as 1; the
    contrastive term gives view j weight 0 there, so no j-view is built
    and ``feats_j`` holds one row per mixed row, in row order (empty when
    no row was mixed). ``feats_i``/``feats_j`` are None when no
    contrastive term needs them.
    """

    feats_mix: np.ndarray
    feats_i: np.ndarray | None
    feats_j: np.ndarray | None
    y_i: np.ndarray
    y_j: np.ndarray
    lambdas: np.ndarray
    is_mixed: np.ndarray


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m={n: np.zeros_like(t.values) for n, t in params.items()},
                   v={n: np.zeros_like(t.values) for n, t in params.items()})


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss_mix: float
    loss_cos: float
    loss_total: float
    train_acc: float
    val_acc: float
    lr: float
    seconds: float

    def to_json_line(self):
        return json.dumps(asdict(self))


@dataclass
class TrainResult:
    history: list
    batch_losses: list  # one list of per-batch total losses per epoch
    best_epoch: int
    best_val_acc: float
    params: ad.ParameterSet
    best_values: dict


class ClipStore:
    """Loads and caches padded waveforms and evaluation features.

    A waveform is cached as ``load_wav`` returns it, float32 and 64,000
    bytes a clip, with no re-cast. Training's augmentation casts it to
    float64; evaluation featurizes it as it is. Cached arrays are
    read-only, since every later batch shares them.
    """

    def __init__(self, manifest):
        self.manifest = manifest
        self._waves = {}
        self._eval_feats = {}

    def wave(self, entry):
        cached = self._waves.get(entry.path)
        if cached is None:
            cached = pad_or_trim(load_wav(entry.path, root=self.manifest.root))
            cached.flags.writeable = False
            self._waves[entry.path] = cached
        return cached

    def eval_features(self, entries):
        """Evaluation features [n, 98, 64] float32 of a chunk of entries.

        The uncached entries are featurized in one ``log_fbank_batch``
        call and cached row by row.
        """
        missing = {e.path: e for e in entries if e.path not in self._eval_feats}
        if missing:
            feats = log_fbank_batch(np.stack([self.wave(e) for e in missing.values()]))
            self._eval_feats.update(zip(missing, feats))
        return np.stack([self._eval_feats[e.path] for e in entries])


def _augment_wave(wave, rng, aug_cfg):
    return time_stretch(time_shift(wave, rng, aug_cfg), rng, aug_cfg)


def compose_batch(store, indices, cfg, aug_cfg=AugmentConfig(), epoch=1, batch_idx=0):
    """Build one MixedBatch; deterministic given (seed, epoch, batch index).

    ``indices`` selects the i-side clips from the train split; partners
    are drawn uniformly from the whole train split excluding i. Each view
    of a row owns its own generator, consumed by shift, stretch, then
    masking; featurization draws nothing, so all views share one
    ``log_fbank_batch`` call. The two pre-mix views are built only when
    ``cfg.beta_penalty`` asks for the contrastive term, and the j-view
    only for mixed rows: a B-row batch featurizes 2B + n_mixed views.
    Skipping a view draws nothing from any other view's generator, so
    every built view is the same as if all were built.
    """
    entries = store.manifest.split_entries("train")
    n = len(entries)
    if n < 2:
        raise DatasetError(f"need >= 2 train entries, found {n}")
    b = len(indices)
    with_views = cfg.beta_penalty != 0.0
    n_views = 3 if with_views else 1
    views = [[] for _ in range(n_views)]  # (augmented wave, generator), row order
    one_hot = np.eye(len(KEYWORDS))
    y_i = np.empty((b, len(KEYWORDS)))
    y_j = np.empty((b, len(KEYWORDS)))
    lambdas = np.empty(b)
    is_mixed = np.empty(b, dtype=bool)
    beta = cfg.beta_params

    for row, i_idx in enumerate(indices):
        i_idx = int(i_idx)
        key = [cfg.seed, epoch, batch_idx, row]
        rng = np.random.default_rng(key + [0])
        mixed = bool(rng.random() < cfg.mix_ratio)
        if mixed:
            j_idx = int(rng.integers(0, n - 1))
            if j_idx >= i_idx:
                j_idx += 1
            lam = sample_beta(beta, rng)
        else:
            j_idx = i_idx
            lam = 1.0
        wave_i = store.wave(entries[i_idx])
        wave_j = store.wave(entries[j_idx])
        view_waves = (mixup_waveforms(wave_i, wave_j, lam), wave_i, wave_j)
        # a non-mixed row's j-view would get weight 0, so it is not built
        for v in range(n_views if mixed else min(n_views, 2)):
            view_rng = np.random.default_rng(key + [v + 1])
            views[v].append((_augment_wave(view_waves[v], view_rng, aug_cfg), view_rng))
        y_i[row] = one_hot[entries[i_idx].label]
        y_j[row] = one_hot[entries[j_idx].label]
        lambdas[row] = lam
        is_mixed[row] = mixed

    built = [item for view in views for item in view]  # mixed, i, then j views
    feats = log_fbank_batch(np.stack([wave for wave, _ in built], dtype=np.float32))
    for k, (_, view_rng) in enumerate(built):
        feats[k] = spec_augment(feats[k], view_rng, aug_cfg)
    if not with_views:
        return MixedBatch(feats, None, None, y_i, y_j, lambdas, is_mixed)
    return MixedBatch(feats[:b], feats[b:2 * b], feats[2 * b:],
                      y_i, y_j, lambdas, is_mixed)


# ---------------------------------------------------------------------------
# losses

def loss_mix(logits, y_i, y_j, lambdas):
    """Batch mean of lam * CE(logits, y_i) + (1 - lam) * CE(logits, y_j)."""
    dtype = logits.values.dtype if isinstance(logits, ad.Tensor) else np.float64
    lam = ad.Tensor(np.asarray(lambdas, dtype=dtype))
    one_minus = ad.Tensor(1.0 - np.asarray(lambdas, dtype=dtype))
    ce_i = ad.softmax_cross_entropy_rowwise(logits, ad.Tensor(np.asarray(y_i, dtype=dtype)))
    ce_j = ad.softmax_cross_entropy_rowwise(logits, ad.Tensor(np.asarray(y_j, dtype=dtype)))
    return ad.mean_all(ad.add(ad.mul(lam, ce_i), ad.mul(one_minus, ce_j)))


def loss_cos(proj_mix, proj_r):
    """Per-row negative cosine between projections; wrap proj_r in
    stop_gradient first so the pre-mixed branch stays a fixed target."""
    return ad.scale(ad.cosine_similarity(proj_mix, proj_r), -1.0)


def lambda_weight(lam, is_mixed):
    """Contrastive weights for one row: (lam, 1 - lam) when two sources
    were mixed, a single weight of 1 otherwise."""
    if is_mixed:
        return (float(lam), 1.0 - float(lam))
    return (1.0,)


def target_projections(batch, params):
    """Plain-forward projections of the two pre-mix views (no recording),
    as two [B, P] arrays.

    The encoder runs on ``feats_i`` and on the mixed rows' ``feats_j``
    only. A non-mixed row has no j-view, so its j-target is its i-target:
    a finite value that ``total_loss`` weights by 0, which leaves the loss
    and every gradient unchanged.
    """
    dtype = next(iter(params.tensors())).values.dtype
    both = np.concatenate([batch.feats_i, batch.feats_j]).astype(dtype, copy=False)
    vals = _paused_forward(both, params, projector_forward)
    b = batch.feats_i.shape[0]
    vals_i = vals[:b]
    vals_j = vals_i.copy()
    vals_j[batch.is_mixed] = vals[b:]
    return vals_i, vals_j


def total_loss(batch, params, cfg, frozen_targets=None):
    """Combined loss: classification on the mixed view plus the weighted
    contrastive pull toward each (stop-gradient) pre-mixed projection.

    ``frozen_targets`` pins the target projections to precomputed values,
    which is what a finite-difference oracle of the stop-gradient loss
    needs. Returns (scalar tensor, logits tensor, component dict).
    """
    dtype = next(iter(params.tensors())).values.dtype
    feats_mix = ad.Tensor(batch.feats_mix.astype(dtype, copy=False))
    emb = encoder_forward(feats_mix, params)
    logits = classifier_forward(emb, params)
    l_mix = loss_mix(logits, batch.y_i, batch.y_j, batch.lambdas)

    parts = {"loss_mix": float(l_mix.values), "loss_cos": 0.0}
    if cfg.beta_penalty != 0.0:
        if frozen_targets is None and (batch.feats_i is None or batch.feats_j is None):
            raise ContractError("contrastive loss requires the pre-mix views")
        proj_mix = projector_forward(emb, params)
        if frozen_targets is None:
            frozen_targets = target_projections(batch, params)
        vals_i, vals_j = (np.asarray(t, dtype=dtype) for t in frozen_targets)
        c_i = loss_cos(proj_mix, ad.stop_gradient(ad.Tensor(vals_i)))
        c_j = loss_cos(proj_mix, ad.stop_gradient(ad.Tensor(vals_j)))
        # a non-mixed row's single weight goes to view i; view j keeps 0
        weights = np.zeros((len(batch.lambdas), 2), dtype=dtype)
        for row, (lam, mixed) in enumerate(zip(batch.lambdas, batch.is_mixed)):
            w = lambda_weight(lam, mixed)
            weights[row, :len(w)] = w
        w_i, w_j = ad.Tensor(weights[:, 0]), ad.Tensor(weights[:, 1])
        contrast = ad.mean_all(ad.add(ad.mul(w_i, c_i), ad.mul(w_j, c_j)))
        total = ad.add(l_mix, ad.scale(contrast, cfg.beta_penalty))
        parts["loss_cos"] = float(contrast.values)
    else:
        total = l_mix
    parts["loss_total"] = float(total.values)
    return total, logits, parts


def lr_at_epoch(epoch, cfg):
    """Step decay: multiply by the rate at each decay point reached."""
    if epoch < 1:
        raise ValueError("epoch is 1-based")
    points = range(cfg.decay_start_epoch, cfg.decay_end_epoch + 1, cfg.decay_every)
    d = sum(1 for p in points if p <= epoch)
    return cfg.lr0 * cfg.decay_rate ** d


def adam_step(params, state, lr):
    """Standard bias-corrected Adam; one call per batch."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.values)
        if g.shape != p.values.shape:
            raise ContractError(f"adam_step: grad {g.shape} vs param {p.values.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# evaluation and export

def _paused_forward(feats, params, head=None):
    """Encoder outputs of ``feats``, through ``head`` if given; nothing is taped."""
    with ad.pause_recording():
        out = encoder_forward(ad.Tensor(feats), params)
        return (out if head is None else head(out, params)).values


def _forward_split(store, split, params, head=None):
    """``_paused_forward`` over a split's evaluation features, ``EVAL_BATCH``
    clips at a time; returns the entries and the stacked outputs."""
    entries = store.manifest.split_entries(split)
    if not entries:
        raise ValueError(f"split {split!r} is empty")
    outputs = [_paused_forward(store.eval_features(entries[start:start + EVAL_BATCH]),
                               params, head)
               for start in range(0, len(entries), EVAL_BATCH)]
    return entries, np.concatenate(outputs)


def evaluate(store, split, params):
    """Accuracy and confusion matrix on a split, no augmentation applied."""
    entries, logits = _forward_split(store, split, params, classifier_forward)
    confusion = np.zeros((len(KEYWORDS), len(KEYWORDS)), dtype=np.int64)
    for e, p in zip(entries, logits.argmax(axis=1)):  # ties go to the lowest index
        confusion[e.label, int(p)] += 1
    accuracy = float(np.trace(confusion)) / len(entries)
    return accuracy, confusion


def export_embeddings(store, split, params, path):
    """One CSV record per utterance: label index then the embedding values."""
    entries, emb = _forward_split(store, split, params)
    lines = [",".join([str(e.label), *map(repr, row)])
             for e, row in zip(entries, emb.tolist())]
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))
    return len(entries)


# ---------------------------------------------------------------------------
# the training loop

def resolve_mode(cfg, mode):
    """baseline: no mixing, no contrastive term; mixup: no contrastive term."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "baseline":
        return replace(cfg, mix_ratio=0.0, beta_penalty=0.0)
    if mode == "mixup":
        return replace(cfg, beta_penalty=0.0)
    return cfg


def _dominant_label(y_i, y_j, lambdas):
    soft = lambdas[:, None] * y_i + (1.0 - lambdas[:, None]) * y_j
    return soft.argmax(axis=1)


def train(cfg, manifest, mode="cosmix", aug_cfg=AugmentConfig(),
          model_cfg=ModelConfig(), metrics_path=None, checkpoint_dir=None,
          resume_from=None, clock=time.monotonic, store=None):
    """Run the full loop; returns metrics history and the best parameters.

    One epoch visits every train entry once in seeded shuffled order.
    The checkpoint with the best validation accuracy is kept, plus a
    rolling last-epoch checkpoint for resumption. Pass a prebuilt
    ``store`` to share loaded waveforms across runs on one manifest.
    """
    eff = resolve_mode(cfg, mode)
    if store is None:
        store = ClipStore(manifest)
    elif store.manifest is not manifest:
        raise ContractError("store was built for a different manifest")
    n_train = len(manifest.split_entries("train"))
    if n_train < 2:
        raise DatasetError(f"need >= 2 train entries, found {n_train}")
    if not manifest.split_entries("validation"):
        raise DatasetError("split 'validation' is empty; every epoch ends with "
                           "a validation evaluation")

    params = init_params(model_cfg, dtype=np.float32)
    adam = AdamState.for_params(params)
    start_epoch = 1
    if resume_from is not None:
        ckpt = resume_from
        params.load_values(ckpt.parameters)
        for name in adam.m:
            adam.m[name] = ckpt.parameters[f"opt.m.{name}"].astype(np.float32).copy()
            adam.v[name] = ckpt.parameters[f"opt.v.{name}"].astype(np.float32).copy()
        state = json.loads(ckpt.rng_state.decode("utf-8"))
        if state["seed"] != eff.seed:
            raise ContractError(f"checkpoint seed {state['seed']} != config seed {eff.seed}")
        adam.t = state["adam_t"]
        start_epoch = ckpt.epoch + 1

    metrics_fh = open(metrics_path, "a", encoding="utf-8", newline="\n") \
        if metrics_path else None
    history = []
    batch_losses = []
    best_val = -1.0
    best_epoch = 0
    best_values = params.copy_values()
    try:
        for epoch in range(start_epoch, cfg.epochs + 1):
            t0 = clock()
            lr = lr_at_epoch(epoch, eff)
            order = np.random.default_rng([eff.seed, epoch]).permutation(n_train)
            sums = {"loss_mix": 0.0, "loss_cos": 0.0, "loss_total": 0.0}
            hits = 0
            losses_this_epoch = []
            for batch_idx in range(0, (n_train + eff.batch_size - 1) // eff.batch_size):
                indices = order[batch_idx * eff.batch_size:(batch_idx + 1) * eff.batch_size]
                batch = compose_batch(store, indices, eff, aug_cfg, epoch=epoch,
                                      batch_idx=batch_idx)
                params.zero_grad()
                try:
                    with ad.Tape():
                        total, logits, parts = total_loss(batch, params, eff)
                        ad.backward(total)
                except NumericError as exc:
                    raise NumericError(f"epoch {epoch} batch {batch_idx}: {exc}") from None
                preds = logits.values.argmax(axis=1)
                # the step's graph hangs off these two; drop it before Adam
                del total, logits
                adam_step(params, adam, lr)
                nb = len(indices)
                for k in sums:
                    sums[k] += parts[k] * nb
                hits += int((preds == _dominant_label(batch.y_i, batch.y_j,
                                                      batch.lambdas)).sum())
                losses_this_epoch.append(parts["loss_total"])
            val_acc, _ = evaluate(store, "validation", params)
            metrics = EpochMetrics(epoch=epoch,
                                   loss_mix=sums["loss_mix"] / n_train,
                                   loss_cos=sums["loss_cos"] / n_train,
                                   loss_total=sums["loss_total"] / n_train,
                                   train_acc=hits / n_train,
                                   val_acc=val_acc,
                                   lr=lr,
                                   seconds=clock() - t0)
            history.append(metrics)
            batch_losses.append(losses_this_epoch)
            if metrics_fh:
                metrics_fh.write(metrics.to_json_line() + "\n")
                metrics_fh.flush()
            if val_acc > best_val:
                best_val = val_acc
                best_epoch = epoch
                best_values = params.copy_values()
            if checkpoint_dir is not None:
                _save_train_checkpoint(checkpoint_dir, "last.ckpt", model_cfg, params,
                                       adam, eff.seed, epoch, metrics)
                if best_epoch == epoch:
                    _save_train_checkpoint(checkpoint_dir, "best.ckpt", model_cfg,
                                           params, adam, eff.seed, epoch, metrics)
    finally:
        if metrics_fh:
            metrics_fh.close()
    return TrainResult(history=history, batch_losses=batch_losses,
                       best_epoch=best_epoch, best_val_acc=best_val,
                       params=params, best_values=best_values)


def _save_train_checkpoint(directory, name, model_cfg, params, adam, seed, epoch,
                           metrics):
    parameters = params.copy_values()
    for pname in list(adam.m):
        parameters[f"opt.m.{pname}"] = adam.m[pname]
        parameters[f"opt.v.{pname}"] = adam.v[pname]
    rng_state = json.dumps({"seed": seed, "adam_t": adam.t}).encode("utf-8")
    ckpt = Checkpoint(config=model_cfg, parameters=parameters, epoch=epoch,
                      rng_state=rng_state, metrics_tail=asdict(metrics))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_checkpoint(directory / name, ckpt)


def params_from_checkpoint(ckpt):
    """Rebuild a float32 ParameterSet holding the checkpoint's model weights."""
    return params_from_values(ckpt.config, ckpt.parameters)


def params_from_values(model_cfg, values):
    """ParameterSet from a name -> array mapping (best_values, or a
    checkpoint's parameters, whose optimizer state is ignored)."""
    params = init_params(model_cfg, dtype=np.float32)
    params.load_values(values)
    return params
