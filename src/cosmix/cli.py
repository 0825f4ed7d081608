"""Command-line entry points: prepare, train, eval, export-embeddings,
ablate, verify.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 runtime numeric error. Every artifact but the per-epoch metrics.jsonl
stream is written through ``dataset.atomic_write``, so a failed write
leaves neither a partial file nor a temp file.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import wave as wave_mod
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import model as md
from . import runconfig as rc
from . import trainer as tr
from .errors import CheckpointError, ConfigError, ContractError, DatasetError, \
    FormatError, ManifestError, NumericError
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# every config, manifest, format and shape error is a ValueError; a path that
# cannot be read or written (missing, a directory, no permission) is an OSError
USAGE_ERRORS = (ValueError, DatasetError, CheckpointError, ContractError, OSError)


def _clip_seconds(path):
    """Duration from the WAV header alone; the samples are not read."""
    try:
        with wave_mod.open(str(path), "rb") as fh:
            return fh.getnframes() / fh.getframerate()
    except (wave_mod.Error, EOFError) as exc:
        raise FormatError(f"{path}: malformed WAV ({exc or 'truncated'})") from None


def cmd_prepare(args):
    root = Path(args.data_root)
    if not root.is_dir():
        raise ManifestError(f"dataset root {root} is not a directory")
    val_list = root / "validation_list.txt"
    test_list = root / "testing_list.txt"
    manifest = ds.build_manifest(root,
                                 val_list if val_list.exists() else None,
                                 test_list if test_list.exists() else None)
    if manifest.skipped_dirs:
        print(f"skipped {len(manifest.skipped_dirs)} non-keyword directories",
              file=sys.stderr)
    manifest = ds.trim_by_speaker(manifest, args.fraction, args.seed)

    lines = []
    for label, word in enumerate(ds.KEYWORDS):
        kept = [e for e in manifest.entries if e.split == "train" and e.label == label]
        durations = [_clip_seconds(root / e.path) for e in kept]
        minutes = sum(durations) / 60.0
        lines.append(f"{word:>8s}: {len(kept):5d} utterances, {minutes:6.2f} min")
        print(lines[-1])
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.write_manifest(out, manifest)
    print(f"wrote {len(manifest.entries)} entries to {args.output}")
    return EXIT_OK


def _load_settings(args):
    settings = rc.load_config(args.config) if args.config else rc.default_settings()
    if args.epochs is not None:
        settings = dataclasses.replace(
            settings, train=dataclasses.replace(settings.train, epochs=args.epochs))
    if args.seed is not None:
        settings = dataclasses.replace(
            settings, train=dataclasses.replace(settings.train, seed=args.seed))
    return settings


def _read_manifest(args):
    return ds.read_manifest(args.manifest, args.data_root)


def _prepare_run_dir(run_dir, force):
    run_dir = Path(run_dir)
    if run_dir.exists() and any(run_dir.iterdir()) and not force:
        raise ConfigError(f"run directory {run_dir} exists; pass --force to reuse")
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def cmd_train(args):
    settings = _load_settings(args)
    manifest = _read_manifest(args)
    run_dir = _prepare_run_dir(args.run_dir, args.force)
    ds.atomic_write(run_dir / "config.resolved", rc.format_config(settings).encode("utf-8"))
    metrics_path = run_dir / "metrics.jsonl"
    if metrics_path.exists():
        metrics_path.unlink()
    result = tr.train(settings.train, manifest, mode=args.mode,
                      aug_cfg=settings.augment, model_cfg=settings.model,
                      metrics_path=metrics_path, checkpoint_dir=run_dir)
    last = result.history[-1]
    print(f"finished {len(result.history)} epochs; "
          f"best val_acc {result.best_val_acc:.4f} at epoch {result.best_epoch}; "
          f"final train_acc {last.train_acc:.4f}")
    return EXIT_OK


def _best_params(args):
    """Model parameters from the run directory's best checkpoint."""
    ckpt_path = Path(args.run_dir) / "best.ckpt"
    if not ckpt_path.exists():
        raise CheckpointError(f"{ckpt_path} not found; train first")
    return tr.params_from_checkpoint(md.load_checkpoint(ckpt_path))


def cmd_eval(args):
    manifest = _read_manifest(args)
    params = _best_params(args)
    store = tr.ClipStore(manifest)
    accuracy, confusion = tr.evaluate(store, args.split, params)
    print(f"accuracy {accuracy:.4f}")
    rows = [",".join(str(int(x)) for x in row) for row in confusion]
    ds.atomic_write(Path(args.run_dir) / f"confusion_{args.split}.csv",
                    ("\n".join(rows) + "\n").encode("utf-8"))
    return EXIT_OK


def cmd_export_embeddings(args):
    manifest = _read_manifest(args)
    params = _best_params(args)
    store = tr.ClipStore(manifest)
    out = Path(args.run_dir) / f"embeddings_{args.split}.csv"
    n = tr.export_embeddings(store, args.split, params, out)
    print(f"wrote {n} embeddings to {out}")
    return EXIT_OK


def _cell_seed(base_seed, mode, mix_ratio, alpha):
    key = [base_seed, tr.MODES.index(mode), int(round(mix_ratio * 10_000)),
           int(round(alpha * 10_000))]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _sweep_values(flag, text, field, train_cfg):
    """The comma-separated numbers of ``flag``, each checked as ``field`` of
    ``train_cfg`` so the sweep meets no value its cells cannot run."""
    try:
        values = [float(x) for x in text.split(",")]
        for v in values:
            dataclasses.replace(train_cfg, **{field: v})
    except ValueError as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from None
    return values


def cmd_ablate(args):
    settings = _load_settings(args)
    manifest = _read_manifest(args)
    ratios = _sweep_values("--mix-ratios", args.mix_ratios, "mix_ratio", settings.train)
    alphas = _sweep_values("--alphas", args.alphas, "alpha", settings.train)
    modes = [m.strip() for m in args.modes.split(",")]
    for m in modes:
        if m not in tr.MODES:
            raise ConfigError(f"unknown mode {m!r} in --modes")
    run_dir = _prepare_run_dir(args.run_dir, args.force)

    base_seed = settings.train.seed
    store = tr.ClipStore(manifest)  # every cell reads the same clips
    header = ["mix_ratio"] + [f"{mode}@alpha={a:g}" for a in alphas for mode in modes]
    table = [",".join(header)]
    for ratio in ratios:
        row = [f"{ratio:g}"]
        for alpha in alphas:
            for mode in modes:
                cell_seed = _cell_seed(base_seed, mode, ratio, alpha)
                cfg = dataclasses.replace(settings.train, mix_ratio=ratio,
                                          alpha=alpha, seed=cell_seed)
                model_cfg = dataclasses.replace(settings.model, init_seed=cell_seed)
                try:
                    result = tr.train(cfg, manifest, mode=mode,
                                      aug_cfg=settings.augment, model_cfg=model_cfg,
                                      store=store)
                    params = tr.params_from_values(model_cfg, result.best_values)
                    acc, _ = tr.evaluate(store, "test", params)
                    row.append(f"{acc:.4f}")
                except Exception as exc:  # cell failures never stop the sweep
                    print(f"cell mode={mode} ratio={ratio} alpha={alpha} failed: {exc}",
                          file=sys.stderr)
                    row.append("ERROR")
        table.append(",".join(row))
    text = "\n".join(table) + "\n"
    ds.atomic_write(run_dir / "ablation.csv", text.encode("utf-8"))
    print(text, end="")
    return EXIT_OK


def cmd_verify(_args):
    results = run_all()
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:32s} max_err={r.value:.3e} tol={r.tolerance:.1e} {status}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"FAILED: {', '.join(r.name for r in failed)}")
        return EXIT_VERIFY
    print(f"all {len(results)} suites passed")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cosmix",
        description="Low-resource keyword-spotting training with mixup and a "
                    "contrastive pre-mix consistency loss.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build and trim a dataset manifest")
    p.add_argument("--data-root", required=True)
    p.add_argument("--output", required=True, help="manifest file to write")
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prepare)

    def common_train_args(p):
        p.add_argument("--config", default=None, help="key = value run config")
        p.add_argument("--manifest", required=True)
        p.add_argument("--data-root", required=True)
        p.add_argument("--run-dir", required=True)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--force", action="store_true")

    p = sub.add_parser("train", help="train one model")
    common_train_args(p)
    p.add_argument("--mode", choices=tr.MODES, default="cosmix")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate the best checkpoint of a run")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--split", choices=ds.SPLITS, default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-embeddings", help="dump encoder embeddings as CSV")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--data-root", required=True)
    p.add_argument("--split", choices=ds.SPLITS, default="test")
    p.set_defaults(func=cmd_export_embeddings)

    p = sub.add_parser("ablate", help="sweep mix ratio and Beta alpha")
    common_train_args(p)
    p.add_argument("--mix-ratios", default="0.1,0.3,0.5,0.7,1.0")
    p.add_argument("--alphas", default="0.5,10")
    p.add_argument("--modes", default="mixup,cosmix")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="run the numerical verification suites")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
