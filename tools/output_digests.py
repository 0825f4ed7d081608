"""Print the sha256 of each file a training run writes, so that two
checkouts can be compared for byte-identical results.

Trains baseline, mixup and cosmix on the synthetic corpus of acceptance
criterion 8 (20 clips per class, noise 0.1, seed 7) under an injected
clock: a tiny model (channels 2, 3) for 3 epochs and the default model
for 2, at batch 16. Each run writes ``metrics.jsonl``, ``last.ckpt`` and
``best.ckpt``, and its best checkpoint exports the test split's
embeddings as a CSV. One line per file: ``<model>/<mode>/<file> <sha256>``.

Run it in both checkouts at the same BLAS thread count and diff:

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py > before.txt
    (in the other checkout, same command) > after.txt
    diff before.txt after.txt

A default-model run takes about a minute on two cores.
"""
import dataclasses
import hashlib
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cosmix import dataset as ds  # noqa: E402
from cosmix import model as md  # noqa: E402
from cosmix import trainer as tr  # noqa: E402

MODELS = {"tiny": (md.ModelConfig(channels=(2, 3), init_seed=1), 3),
          "default": (md.ModelConfig(), 2)}
TRAIN = tr.TrainConfig(batch_size=16, seed=3)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = ds.synth_dataset(tmp / "corpus", n_per_class=20, noise_level=0.1, seed=7)
        store = tr.ClipStore(manifest)
        for name, (model_cfg, epochs) in MODELS.items():
            for mode in tr.MODES:
                run_dir = tmp / name / mode
                run_dir.mkdir(parents=True)
                tr.train(dataclasses.replace(TRAIN, epochs=epochs), manifest, mode=mode,
                         model_cfg=model_cfg, metrics_path=run_dir / "metrics.jsonl",
                         checkpoint_dir=run_dir, clock=lambda: 0.0, store=store)
                best = md.load_checkpoint(run_dir / "best.ckpt")
                tr.export_embeddings(store, "test",
                                     tr.params_from_values(best.config, best.parameters),
                                     run_dir / "embeddings_test.csv")
                for file in ("metrics.jsonl", "last.ckpt", "best.ckpt",
                             "embeddings_test.csv"):
                    print(f"{name}/{mode}/{file} {digest(run_dir / file)}", flush=True)


if __name__ == "__main__":
    main()
