"""Print the sha256 of each file a training run writes, so that two
checkouts can be compared for byte-identical results.

Trains baseline, mixup and cosmix on the synthetic corpus of acceptance
criterion 8 (20 clips per class, noise 0.1, seed 7) under an injected
clock: a tiny model (channels 2, 3) for 3 epochs and the default model
for 2, at batch 16. Each run writes ``metrics.jsonl``, ``last.ckpt`` and
``best.ckpt``, and its best checkpoint exports the test split's
embeddings as a CSV. One line per file: ``<model>/<mode>/<file> <sha256>``.

The output starts with comment lines: the environment key the digests
depend on besides the code (numpy version, its BLAS and the CPU model),
then the BLAS thread count. Run it in both checkouts at the same BLAS
thread count and diff:

    OPENBLAS_NUM_THREADS=1 python3 tools/output_digests.py > before.txt
    (in the other checkout, same command) > after.txt
    diff before.txt after.txt

``tests/test_output_digests.py`` compares the output at one BLAS thread
with ``tests/data/output_digests.txt``; a change to the numerics on
purpose rewrites that record with the first command above. The whole
run takes about 5 s on two cores.
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
import numpy as np  # noqa: E402  (after cosmix, which sets its BLAS threads)

MODELS = {"tiny": (md.ModelConfig(channels=(2, 3), init_seed=1), 3),
          "default": (md.ModelConfig(), 2)}
TRAIN = tr.TrainConfig(batch_size=16, seed=3)


def environment_key():
    """The numpy version, its BLAS's name and version, and the CPU model
    name (``unknown`` where numpy or the system does not say)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.partition(":")[2].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__, "blas": blas, "cpu": cpu}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main():
    for field, value in environment_key().items():
        print(f"# {field}: {value}")
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
