"""Train the three modes on a small synthetic corpus and compare.

baseline: no mixing, no contrastive term.
mixup:    virtual examples from pairs, soft-label loss.
cosmix:   mixup plus the contrastive pull toward each pre-mix view.

Uses a downsized encoder and a handful of epochs so it finishes in
about a minute; the acceptance suite runs the full-size comparison.
"""
import tempfile
from pathlib import Path

from cosmix import ClipStore, ModelConfig, TrainConfig, evaluate, synth_dataset, train
from cosmix.trainer import params_from_values

with tempfile.TemporaryDirectory() as tmp_name:
    tmp = Path(tmp_name)
    manifest = synth_dataset(tmp, n_per_class=25, noise_level=0.25, seed=11)
    print("corpus:", manifest.counts())

    cfg = TrainConfig(batch_size=32, epochs=8, seed=11)
    model_cfg = ModelConfig(channels=(8, 16, 32), init_seed=11)

    for mode in ("baseline", "mixup", "cosmix"):
        result = train(cfg, manifest, mode=mode, model_cfg=model_cfg)
        params = params_from_values(model_cfg, result.best_values)
        acc, confusion = evaluate(ClipStore(manifest), "test", params)
        tail = result.history[-1]
        print(f"{mode:>8s}: test acc {acc:.3f}  "
              f"(best val {result.best_val_acc:.3f} @ epoch {result.best_epoch}; "
              f"final loss_mix {tail.loss_mix:.3f}, loss_cos {tail.loss_cos:+.3f})")
