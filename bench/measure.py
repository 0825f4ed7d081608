"""Measurement for the benchmark: rounds, output checks and metrics.

Imported by run.py once it has found the cosmix sources.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing as t
import workloads as w

SETUP_SAMPLES = 5  # set-ups measured per run at least

END_TO_END = {  # name -> unit
    "setup_s": "s", "train_clips_per_s": "1/s", "epoch_s_p50": "s",
    "eval_clips_per_s": "1/s", "export_clips_per_s": "1/s", "peak_rss_mb": "MB",
    "loss_end": "nats", "acc_end": "ratio",
}

CONV_BLOCKS = 4
PER_LAYER = {
    "dataset.load_wav.calls": "count", "dataset.load_wav.self_s": "s",
    "features.log_fbank_cached.calls": "count", "features.log_fbank_cached.self_s": "s",
    "features.log_fbank_batch.calls": "count", "features.log_fbank_batch.rows": "count",
    "features.log_fbank_batch.self_s": "s",
    **{f"augment.{f}.{k}": u for f in ("time_shift", "time_stretch", "spec_augment",
                                       "mixup_waveforms", "sample_beta")
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "trainer.compose_batch.self_s": "s",
    "features.useful_view_share": "ratio", "features.views_featurized": "count",
    "features.views_useful": "count",
    "augment.mixed_share": "ratio", "augment.rows": "count", "augment.mixed_rows": "count",
    **{f"autodiff.conv2d.enc{i}.{k}": u for i in range(CONV_BLOCKS)
       for k, u in (("fwd_s", "s"), ("bwd_s", "s"), ("fwd_gflops", "GFLOP/s"),
                    ("bwd_gflops", "GFLOP/s"))},
    "autodiff.dense.fwd_s": "s", "autodiff.dense.bwd_s": "s",
    "autodiff.other.fwd_s": "s", "autodiff.other.bwd_s": "s",
    "autodiff.backward.self_s": "s", "autodiff.tape_nodes": "count",
    **{f"model.encoder_forward.{kind}.{k}": "s" for kind in ("taped", "target", "eval")
       for k in ("self_s", "total_s")},
    "model.projector_forward.self_s": "s", "model.classifier_forward.self_s": "s",
    "model.save_checkpoint.self_s": "s", "model.load_checkpoint.self_s": "s",
    "trainer.adam_step.self_s": "s", "trainer.evaluate.self_s": "s",
    "trainer.export_embeddings.self_s": "s", "trainer.total_loss.self_s": "s",
    "trainer.steps": "count", "trainer.step_ms_p50": "ms", "trainer.step_ms_p90": "ms",
    "trainer.data_wait_s": "s", "trainer.step_unattributed_s": "s",
    "machine.sgemm_gflops": "GFLOP/s", "trace_overhead_s": "s",
}


def sgemm_gflops(reps=20):
    """Best float32 GEMM rate at conv block 1's im2col shape (B=96): what
    this machine can do at a conv-like shape, for the conv GFLOP/s figures
    to be read against, with the BLAS thread count the run uses. The best
    of several repeats, because the rate at this skinny shape swings from
    call to call."""
    m, k, n = 96 * 25 * 16, 32 * 9, 64
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * m * k * n / best / 1e9


def _quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.5) - 1))]


# ---------------------------------------------------------------------------
# runs

class Run:
    """Attempted and failed operations, and the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def attempt(self, what, fn):
        """Call ``fn()``, which returns a workloads.Round; an exception or a
        failed output check counts as a failed operation. Returns the
        round, or None when it raised."""
        self.attempted += 1
        try:
            value = fn()
        except Exception:  # report every failure, keep the run's other results
            self.failed += 1
            self.notes.append(f"{what} raised:\n{traceback.format_exc()}")
            return None
        if value.errors:
            self.failed += 1
            self.notes.extend(f"{what}: {e}" for e in value.errors)
        return value

    def check(self, ok, message):
        if not ok:
            self.failed += 1
            self.notes.append(message)


def _train_reference_in_child(ref_dir, ref):
    """Run workloads.train_reference in a child interpreter and wait for it.

    A plain child process rather than multiprocessing, which would leave
    its resource-tracker process behind. The child is killed and waited
    for on every way out of here, so it never outlives the run.
    """
    bench = Path(__file__).resolve().parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(bench.parent / "src"), str(bench)])}
    code = ("import json, sys, workloads; workloads.train_reference("
            "sys.argv[1], workloads.Reference(**json.loads(sys.argv[2])))")
    child = subprocess.Popen([sys.executable, "-c", code, str(ref_dir),
                              json.dumps(dataclasses.asdict(ref))], env=env)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        # a killed or failed child leaves its private training directory
        shutil.rmtree(ref_dir.with_name(f"{ref_dir.name}.tmp-{child.pid}"),
                      ignore_errors=True)


def _inputs(wl, seed, workdir, cache_dir):
    """The reference checkpoint and the seeded corpus; neither is measured.

    The reference is trained once per source tree, in a child process so
    that its memory stays out of this process's peak RSS.
    """
    t0 = time.perf_counter()
    ref_dir = w.reference_dir(cache_dir, w.REFERENCE)
    if not (ref_dir / "last.ckpt").is_file():
        exitcode = _train_reference_in_child(ref_dir, w.REFERENCE)
        if exitcode != 0:
            raise RuntimeError(f"training the reference exited with {exitcode}")
    reference = ref_dir / "last.ckpt"
    t1 = time.perf_counter()
    inputs = w.make_inputs(wl, seed, workdir, reference)
    return inputs, {"reference_s": t1 - t0, "inputs_s": time.perf_counter() - t1}


def _prepare(wl, inputs, workdir, run):
    """eval-cold trains its fixed checkpoint first; training workloads
    need nothing. Returns that training's round, or None."""
    if wl.trains_per_round:
        return None
    return run.attempt("checkpoint training",
                       lambda: w.train_checkpoint(wl, inputs, workdir / "ckpt"))


def _round(wl, inputs, prep, run_dir):
    if wl.trains_per_round:
        return w.train_round(wl, inputs, run_dir)
    return w.eval_round(inputs, prep.checkpoint, run_dir)


def measure(wl, seed, seconds, workdir, cache_dir):
    """Untraced: repeat rounds for about ``seconds``; end-to-end metrics."""
    run = Run()
    inputs, info = _inputs(wl, seed, workdir, cache_dir)
    t_end = time.perf_counter() + seconds
    prep = _prepare(wl, inputs, workdir, run)
    rounds = []
    while run.failed == 0:
        r = run.attempt(f"round {len(rounds) + 1}",
                        lambda: _round(wl, inputs, prep, workdir / "round"))
        if r is None:
            break
        if rounds:
            run.check(r.fingerprint == rounds[0].fingerprint,
                      f"round {len(rounds) + 1} computed different numbers than round 1")
        rounds.append(r)
        gc.collect()
        if time.perf_counter() + r.wall_s > t_end:
            break
    if not rounds:
        return run, {}, info

    setups = [r.setup_s for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(w.timed_setup(inputs, prep and prep.checkpoint)[0])
    # eval-cold's training is the one that made its checkpoint
    training = [prep] if prep is not None else rounds
    trained = [h for r in training for h in r.epochs]
    eval_rates = [v for r in rounds for v in r.eval_rates]
    export_rates = [v for r in rounds for v in r.export_rates]
    first = rounds[0]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "train_clips_per_s": (sum(r.train_clips for r in training)
                              / sum(h.seconds for h in trained), len(trained)),
        "epoch_s_p50": (statistics.median(h.seconds for h in trained), len(trained)),
        "eval_clips_per_s": (statistics.median(eval_rates), len(eval_rates)),
        "export_clips_per_s": (statistics.median(export_rates), len(export_rates)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "loss_end": (training[0].loss_end, len(training)),
        "acc_end": (first.acc_end, len(rounds)),
    }
    return run, values, {**info, "rounds": len(rounds)}


def layer_metrics(tracer):
    """Per-layer values from the spans and counters of one traced round."""
    spans = tracer.spans
    self_s = t.self_times(spans)
    total = t.total_times(spans)
    calls = t.call_counts(spans)
    c = tracer.counts
    steps, wait, unattributed = t.step_stats(spans)
    out = {}
    for name in ("dataset.load_wav", "features.log_fbank_cached", "features.log_fbank_batch",
                 *(f"augment.{f}" for f in t.AUGMENT_FUNCS)):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["features.log_fbank_batch.rows"] = c["features.log_fbank_batch.rows"]
    for name in ("trainer.compose_batch", "autodiff.backward", "model.projector_forward",
                 "model.classifier_forward", "model.save_checkpoint",
                 "model.load_checkpoint", "trainer.adam_step", "trainer.evaluate",
                 "trainer.export_embeddings", "trainer.total_loss"):
        out[f"{name}.self_s"] = self_s[name]
    views, useful = c["features.views_featurized"], c["features.views_useful"]
    out["features.views_featurized"] = views
    out["features.views_useful"] = useful
    out["features.useful_view_share"] = useful / views if views else 0.0
    rows, mixed = c["augment.rows"], c["augment.mixed_rows"]
    out["augment.rows"] = rows
    out["augment.mixed_rows"] = mixed
    out["augment.mixed_share"] = mixed / rows if rows else 0.0
    for i in range(CONV_BLOCKS):
        name = f"autodiff.conv2d.enc{i}"
        for d in ("fwd", "bwd"):
            secs = self_s[f"{name}.{d}"]
            out[f"{name}.{d}_s"] = secs
            out[f"{name}.{d}_gflops"] = c[f"{name}.{d}_flops"] / secs / 1e9 if secs else 0.0
    for name in ("autodiff.dense", "autodiff.other"):
        out[f"{name}.fwd_s"] = self_s[f"{name}.fwd"]
        out[f"{name}.bwd_s"] = self_s[f"{name}.bwd"]
    out["autodiff.tape_nodes"] = c["autodiff.tape_nodes"] / len(steps) if steps else 0.0
    for kind in ("taped", "target", "eval"):
        name = f"model.encoder_forward.{kind}"
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.total_s"] = total[name]
    out["trainer.steps"] = len(steps)
    out["trainer.step_ms_p50"] = 1e3 * statistics.median(steps) if steps else 0.0
    out["trainer.step_ms_p90"] = 1e3 * _quantile(steps, 0.9) if steps else 0.0
    out["trainer.data_wait_s"] = wait
    out["trainer.step_unattributed_s"] = unattributed
    return out


def measure_traced(wl, seed, workdir, cache_dir):
    """The same round plain, traced, then plain again; per-layer metrics.

    Plain rounds on both sides of the traced one keep warm-up out of the
    overhead figure, which is the traced wall time minus the plain mean.
    """
    run = Run()
    ceiling = sgemm_gflops()
    inputs, info = _inputs(wl, seed, workdir, cache_dir)
    prep = _prepare(wl, inputs, workdir, run)
    if run.failed:
        return run, {}, info
    tracer = t.Tracer()
    rounds = []
    for what in ("plain", "traced", "plain"):
        gc.collect()
        with t.instrumented(tracer) if what == "traced" else contextlib.nullcontext():
            r = run.attempt(f"{what} round",
                            lambda: _round(wl, inputs, prep, workdir / "round"))
        if r is None:
            return run, {}, info
        rounds.append(r)
    plain_a, traced, plain_b = rounds
    run.check(traced.fingerprint == plain_a.fingerprint == plain_b.fingerprint,
              "traced round computed different numbers than the plain rounds")
    layers = layer_metrics(tracer)
    layers["machine.sgemm_gflops"] = ceiling
    plain_wall = (plain_a.wall_s + plain_b.wall_s) / 2
    layers["trace_overhead_s"] = traced.wall_s - plain_wall
    steps = layers["trainer.steps"]
    values = {name: (v, steps if name.startswith("trainer.step_ms") else 1)
              for name, v in layers.items()}
    return run, values, {**info, "plain_wall_s": plain_wall,
                         "traced_wall_s": traced.wall_s, "spans": len(tracer.spans)}
