"""The benchmark's workloads: seeded inputs and one measured round each.

A round is one unit of work that a cosmix user pays for: set up a store
and parameters, then either train for a fixed number of epochs and
evaluate and export on the test split (training workloads), or load a
checkpoint and evaluate and export on a held-out split (``eval-cold``).
Every round of a run does the same work on the same inputs, so its
losses, accuracies and exported embeddings must repeat exactly.

Training resumes from a reference checkpoint, trained once per source
tree and cached (see ``reference_dir``). Training from scratch
on a desk-scale corpus stays at chance for the first several epochs,
so a run-length training from scratch would give quality guards that
only read chance. From the reference, a round trains the way the
middle of a long run does, and its losses and accuracies mean something.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from cosmix import dataset as ds
from cosmix import model as md
from cosmix import trainer as tr


@dataclass(frozen=True)
class Workload:
    name: str
    n_per_class: int      # synthetic clips per keyword
    noise: float          # synth_dataset noise level
    mode: str             # training mode; eval-cold trains its checkpoint in it
    batch_size: int
    lr0: float
    epochs: int           # per training round, or for eval-cold's checkpoint
    ckpt_trim: float = 0.0  # eval-cold: share of train utterances its checkpoint sees

    @property
    def trains_per_round(self):
        return self.ckpt_trim == 0.0


# why each workload exists is in bench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("cosmix-b32", 35, 0.3, "cosmix", 32, 2e-3, epochs=1),
    Workload("mixup-b128", 100, 0.3, "mixup", 128, 5e-3, epochs=1),
    Workload("eval-cold", 150, 0.3, "baseline", 32, 2e-3, epochs=4, ckpt_trim=0.1),
)}


@dataclass(frozen=True)
class Reference:
    """The training every round resumes from: acceptance criterion 6's
    cosmix config on a fixed synthetic corpus."""

    n_per_class: int = 35
    noise: float = 0.3
    seed: int = 0         # corpus, init and training seed
    epochs: int = 24


REFERENCE = Reference()

# cold test evaluations per training round: more samples of the eval and
# export rates, which vary more from call to call than an epoch does
EVAL_REPEATS = 2


def reference_dir(cache_dir, ref=REFERENCE):
    """Where the reference for this source tree and ``ref`` is cached.

    The key hashes the cosmix sources, so a changed tree trains its own
    reference. The checkpoint is ``last.ckpt`` inside.
    """
    src = Path(md.__file__).parent
    digest = hashlib.sha256(repr(ref).encode())
    for path in sorted(src.glob("*.py")):
        digest.update(path.read_bytes())
    return Path(cache_dir) / f"reference-{digest.hexdigest()[:16]}"


def train_reference(final, ref=REFERENCE):
    """Train the reference into ``final``. Training goes to a private
    directory that is renamed into place, so no run ever sees a
    half-written reference."""
    final = Path(final)
    tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    manifest = ds.synth_dataset(tmp / "corpus", n_per_class=ref.n_per_class,
                                noise_level=ref.noise, seed=ref.seed)
    tr.train(tr.TrainConfig(batch_size=32, lr0=2e-3, epochs=ref.epochs, seed=ref.seed),
             manifest, mode="cosmix", model_cfg=md.ModelConfig(init_seed=ref.seed),
             checkpoint_dir=tmp)
    shutil.rmtree(tmp / "corpus")
    try:
        tmp.rename(final)
    except OSError:  # another run put the same reference in place first
        shutil.rmtree(tmp)


@dataclass
class Inputs:
    root: Path           # corpus directory
    manifest: Path       # every split; training reads this
    eval_manifest: Path  # the test split only, for cold evaluation stores
    ckpt_manifest: Path  # eval-cold: trimmed train split for its checkpoint
    reference: Path      # checkpoint that training resumes from


def make_inputs(wl, seed, workdir, reference):
    """Write the seeded synthetic corpus and its manifests under ``workdir``."""
    workdir = Path(workdir)
    root = workdir / "corpus"
    manifest = ds.synth_dataset(root, n_per_class=wl.n_per_class,
                                noise_level=wl.noise, seed=seed)
    inputs = Inputs(root, workdir / "manifest.tsv", workdir / "test.tsv",
                    workdir / "ckpt.tsv", Path(reference))
    ds.write_manifest(inputs.manifest, manifest)
    test_only = tuple(e for e in manifest.entries if e.split == "test")
    ds.write_manifest(inputs.eval_manifest, ds.DatasetManifest(test_only, root=str(root)))
    if wl.ckpt_trim:
        ds.write_manifest(inputs.ckpt_manifest,
                          ds.trim_by_speaker(manifest, wl.ckpt_trim, seed))
    return inputs


@dataclass
class Round:
    """What one round measured, and what it computed."""

    setup_s: float
    wall_s: float
    epochs: list            # EpochMetrics of the training in this round
    train_clips: int = 0    # clips visited by that training
    eval_rates: list = field(default_factory=list)    # clips/s, one per evaluate
    export_rates: list = field(default_factory=list)  # clips/s, one per export
    acc_end: float = 0.0
    loss_end: float = 0.0
    fingerprint: tuple = ()  # every number and byte that must repeat
    errors: list = field(default_factory=list)
    checkpoint: Path | None = None  # eval-cold's checkpoint, from train_checkpoint


def setup_store(manifest_path, root):
    """Read the manifest and load every WAV it lists into a fresh store."""
    manifest = ds.read_manifest(manifest_path, root)
    store = tr.ClipStore(manifest)
    for entry in manifest.entries:
        store.wave(entry)
    return manifest, store


def timed_setup(inputs, ckpt_path=None):
    """The set-up a round pays before its first step or eval call: the
    store with every WAV loaded, and the checkpoint training resumes from
    (or, given ``ckpt_path``, the test-split store and that checkpoint)."""
    t0 = time.perf_counter()
    if ckpt_path is None:
        manifest, store = setup_store(inputs.manifest, inputs.root)
        ckpt = md.load_checkpoint(inputs.reference)
    else:
        manifest, store = setup_store(inputs.eval_manifest, inputs.root)
        ckpt = md.load_checkpoint(ckpt_path)
    params = tr.params_from_checkpoint(ckpt)
    return time.perf_counter() - t0, manifest, store, ckpt, params


def _check_export(path, n_clips, embed_dim, errors):
    data = Path(path).read_bytes()
    rows = data.decode("utf-8").splitlines()
    if len(rows) != n_clips:
        errors.append(f"export has {len(rows)} rows for {n_clips} clips")
    widths = {len(r.split(",")) for r in rows}
    if widths != {embed_dim + 1}:
        errors.append(f"export rows have {sorted(widths)} columns, want {embed_dim + 1}")
    return data


def _check_accuracy(acc, confusion, n_clips, errors, what):
    if int(confusion.sum()) != n_clips or acc != float(confusion.trace()) / n_clips:
        errors.append(f"{what} accuracy {acc} is not trace/n of its confusion matrix")


def _eval_and_export(store, params, out_csv, embed_dim, rnd):
    """Evaluate the test split on a store whose features are cold, then
    export from the features that cached; rates and checks go to ``rnd``.
    Returns what must repeat: accuracy, confusion matrix, CSV bytes."""
    n = len(store.manifest.split_entries("test"))
    t0 = time.perf_counter()
    acc, confusion = tr.evaluate(store, "test", params)
    t1 = time.perf_counter()
    written = tr.export_embeddings(store, "test", params, out_csv)
    t2 = time.perf_counter()
    rnd.eval_rates.append(n / (t1 - t0))
    rnd.export_rates.append(n / (t2 - t1))
    _check_accuracy(acc, confusion, n, rnd.errors, "test")
    if written != n:
        rnd.errors.append(f"export wrote {written} of {n} clips")
    csv = _check_export(out_csv, n, embed_dim, rnd.errors)
    return acc, confusion.tobytes(), csv


def check_training(result, metrics_path, errors):
    for h in result.history:
        if not all(math.isfinite(v) for v in (h.loss_mix, h.loss_cos, h.loss_total)):
            errors.append(f"epoch {h.epoch}: non-finite loss")
    if not all(math.isfinite(v) for epoch in result.batch_losses for v in epoch):
        errors.append("non-finite batch loss")
    lines = Path(metrics_path).read_text(encoding="utf-8").splitlines()
    if lines != [h.to_json_line() for h in result.history]:
        errors.append(f"metrics.jsonl has {len(lines)} lines for {len(result.history)} "
                      "epochs or differs from the returned history")


def _fresh_dir(path):
    path = Path(path)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _train(wl, manifest, store, ckpt, run_dir, errors):
    """Resume from ``ckpt`` for ``wl.epochs`` epochs as ``cosmix train``
    does: metrics.jsonl, last.ckpt and best.ckpt land in the run
    directory. The training seed stays the checkpoint's, which resuming
    requires; the workload seed reaches training through the corpus."""
    cfg = tr.TrainConfig(batch_size=wl.batch_size, lr0=wl.lr0,
                         epochs=ckpt.epoch + wl.epochs, seed=REFERENCE.seed)
    result = tr.train(cfg, manifest, mode=wl.mode, model_cfg=ckpt.config,
                      metrics_path=run_dir / "metrics.jsonl", checkpoint_dir=run_dir,
                      resume_from=ckpt, clock=time.perf_counter, store=store)
    check_training(result, run_dir / "metrics.jsonl", errors)
    return result


def _history_numbers(history):
    return tuple((h.epoch, h.loss_mix, h.loss_cos, h.loss_total, h.train_acc, h.val_acc,
                  h.lr) for h in history)


def train_checkpoint(wl, inputs, run_dir):
    """eval-cold's fixed checkpoint: ``wl.epochs`` epochs from the
    reference on the trimmed train split, saved as ``cosmix train`` saves
    best.ckpt."""
    t0 = time.perf_counter()
    run_dir = _fresh_dir(run_dir)
    manifest, store = setup_store(inputs.ckpt_manifest, inputs.root)
    errors = []
    result = _train(wl, manifest, store, md.load_checkpoint(inputs.reference), run_dir,
                    errors)
    return Round(setup_s=0.0, wall_s=time.perf_counter() - t0, epochs=result.history,
                 train_clips=len(manifest.split_entries("train")) * len(result.history),
                 loss_end=result.history[-1].loss_total,
                 fingerprint=_history_numbers(result.history), errors=errors,
                 checkpoint=run_dir / "best.ckpt")


def train_round(wl, inputs, run_dir):
    """Set up, train ``wl.epochs`` epochs from the reference, then evaluate
    and export the test split with the best parameters, as acceptance
    criterion 6 does after each training: on the round's store, then on
    fresh test-split stores, ``EVAL_REPEATS`` times in all."""
    t0 = time.perf_counter()
    run_dir = _fresh_dir(run_dir)
    setup_s, manifest, store, ckpt, _ = timed_setup(inputs)
    rnd = Round(setup_s=setup_s, wall_s=0.0, epochs=[])
    result = _train(wl, manifest, store, ckpt, run_dir, rnd.errors)
    last = result.history[-1]
    val_acc, val_confusion = tr.evaluate(store, "validation", result.params)
    if val_acc != last.val_acc:
        rnd.errors.append(f"validation accuracy {val_acc} != last epoch's {last.val_acc}")
    _check_accuracy(last.val_acc, val_confusion, int(val_confusion.sum()), rnd.errors,
                    "validation")
    best = tr.params_from_values(ckpt.config, result.best_values)
    outputs = set()
    for i in range(EVAL_REPEATS):
        if i:
            store = setup_store(inputs.eval_manifest, inputs.root)[1]
        outputs.add(_eval_and_export(store, best, run_dir / "embeddings_test.csv",
                                     ckpt.config.embed_dim, rnd))
    if len(outputs) != 1:
        rnd.errors.append("repeated test evaluations disagree")
    rnd.epochs = result.history
    rnd.train_clips = len(manifest.split_entries("train")) * len(result.history)
    rnd.acc_end = last.val_acc
    rnd.loss_end = last.loss_total
    rnd.fingerprint = (_history_numbers(result.history),
                       tuple(map(tuple, result.batch_losses)), min(outputs))
    rnd.wall_s = time.perf_counter() - t0
    return rnd


def eval_round(inputs, ckpt_path, run_dir):
    """Fresh store over the test split, load the checkpoint, evaluate,
    then export embeddings from the features evaluate cached."""
    t0 = time.perf_counter()
    run_dir = _fresh_dir(run_dir)
    setup_s, _, store, ckpt, params = timed_setup(inputs, ckpt_path)
    rnd = Round(setup_s=setup_s, wall_s=0.0, epochs=[])
    out = _eval_and_export(store, params, run_dir / "embeddings_test.csv",
                           ckpt.config.embed_dim, rnd)
    rnd.acc_end = out[0]
    rnd.fingerprint = out
    rnd.wall_s = time.perf_counter() - t0
    return rnd
