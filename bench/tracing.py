"""Spans for the benchmark's traced run, recorded from outside the package.

``instrumented(tracer)`` swaps the public functions of each cosmix layer
for timing wrappers while the block runs, and restores them afterwards.
Wrappers only time and count; they pass every argument and return value
through untouched, so a traced run computes the same numbers bit for bit.

Where a wrapper has to go follows from how the package binds names:
``trainer`` imports the feature, augmentation, WAV and model functions by
name, so those are swapped on ``cosmix.trainer``; ``model`` and
``trainer`` call the autodiff primitives through the module, so those
are swapped on ``cosmix.autodiff``. A primitive's backward rule is timed
by wrapping the vjp closure on the tensor the primitive returns.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# autodiff primitives other than conv2d and dense; composites such as
# cosine_similarity are covered through the primitives they call
OTHER_PRIMITIVES = ("add", "sub", "mul", "scale", "reshape", "rowsum", "sum_all",
                    "mean_all", "relu", "stop_gradient", "channel_bias_add",
                    "global_avg_pool", "l2_normalize", "softmax_cross_entropy_rowwise",
                    "sigmoid_bce_rowwise")
AUGMENT_FUNCS = ("time_shift", "time_stretch", "spec_augment", "mixup_waveforms",
                 "sample_beta")
# the four spans that make up one training step, in order
STEP_PARTS = ("trainer.compose_batch", "trainer.total_loss", "autodiff.backward",
              "trainer.adam_step")


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Spans in start order plus named counters, all kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)
        self.kernel_blocks = {}  # id(kernel tensor) -> (block index, tensor)
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), None, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx):
        self.spans[idx].end = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def inside(self, name):
        return any(self.spans[i].name == name for i in self._open)

    def count(self, name, n=1):
        self.counts[name] += n


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """name -> summed self time: each span's duration minus what its
    children cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = defaultdict(float)
    for i, sp in enumerate(spans):
        out[sp.name] += (sp.end - sp.start) - covered(children[i], sp.start, sp.end)
    return out


def total_times(spans):
    """name -> summed inclusive duration."""
    out = defaultdict(float)
    for sp in spans:
        out[sp.name] += sp.end - sp.start
    return out


def call_counts(spans):
    out = defaultdict(int)
    for sp in spans:
        out[sp.name] += 1
    return out


def step_stats(spans):
    """Per-step wall times, time waiting for data, and the part of the
    step wall time that the four step spans do not cover.

    A step runs from the start of ``compose_batch`` to the end of
    ``adam_step``. Data wait runs from the end of one ``adam_step`` to the
    start of the next ``total_loss`` in the same epoch; every epoch ends
    with ``evaluate``, which resets it.
    """
    steps = []
    wait = 0.0
    parts = 0.0
    step_start = last_adam_end = None
    for sp in spans:
        if sp.name == "trainer.compose_batch":
            step_start = sp.start
        elif sp.name == "trainer.total_loss" and last_adam_end is not None:
            wait += sp.start - last_adam_end
        elif sp.name == "trainer.adam_step":
            steps.append(sp.end - step_start)
            last_adam_end = sp.end
        elif sp.name == "trainer.evaluate":
            last_adam_end = None
        if sp.name in STEP_PARTS:
            parts += sp.end - sp.start
    return steps, wait, sum(steps) - parts


def _timed(tracer, name, fn):
    """A span around each call; ``name`` may be a callable of the arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name(*args, **kwargs) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _primitive(tracer, prefix, fn, on_result=None):
    """Forward span ``<prefix>.fwd``; the returned tensor's vjp gets a
    ``<prefix>.bwd`` span. ``prefix`` may be a callable of the arguments."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = prefix(*args, **kwargs) if callable(prefix) else prefix
        idx = tracer.begin(name + ".fwd")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if out._vjp is not None:
            out._vjp = _timed(tracer, name + ".bwd", out._vjp)
        if on_result is not None:
            on_result(out, *args, **kwargs)
        return out
    return wrapper


def conv_flops(x_shape, k_shape, out_shape):
    """Multiply-adds times two for one conv2d forward."""
    bsz, cout, ho, wo = out_shape
    _, cin, kh, kw = k_shape
    return 2.0 * bsz * cout * ho * wo * cin * kh * kw


@contextmanager
def instrumented(tracer):
    """Swap in the timing wrappers for the duration of the block."""
    from cosmix import autodiff as ad
    from cosmix import model as md
    from cosmix import trainer as tr

    saved = []

    def patch(module, attr, make):
        orig = getattr(module, attr)
        saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def timed(name):
        return lambda fn: _timed(tracer, name, fn)

    # dataset, features, augment: bound by name in trainer
    patch(tr, "load_wav", timed("dataset.load_wav"))
    patch(tr, "log_fbank_cached", timed("features.log_fbank_cached"))

    def fbank_batch(fn):
        inner = _timed(tracer, "features.log_fbank_batch", fn)

        def wrapper(waves, *args, **kwargs):
            tracer.count("features.log_fbank_batch.rows", len(waves))
            return inner(waves, *args, **kwargs)
        return wrapper
    patch(tr, "log_fbank_batch", fbank_batch)
    for name in AUGMENT_FUNCS:
        patch(tr, name, timed(f"augment.{name}"))

    # model: forward functions bound by name in trainer
    def encoder_span(*args, **kwargs):
        if ad.Tape.current() is not None:
            return "model.encoder_forward.taped"
        if tracer.inside("trainer.total_loss"):
            return "model.encoder_forward.target"  # pre-mix views, recording paused
        return "model.encoder_forward.eval"
    patch(tr, "encoder_forward", timed(encoder_span))
    patch(tr, "projector_forward", timed("model.projector_forward"))
    patch(tr, "classifier_forward", timed("model.classifier_forward"))
    patch(tr, "save_checkpoint", timed("model.save_checkpoint"))
    patch(md, "load_checkpoint", timed("model.load_checkpoint"))

    def register(fn):
        def wrapper(*args, **kwargs):
            params = fn(*args, **kwargs)
            i = 0
            while f"enc{i}.w" in params:
                kernel = params[f"enc{i}.w"]
                tracer.kernel_blocks[id(kernel)] = (i, kernel)
                i += 1
            return params
        return wrapper
    patch(tr, "init_params", register)

    # trainer: the step, evaluation and export
    def compose(fn):
        inner = _timed(tracer, "trainer.compose_batch", fn)

        def wrapper(*args, **kwargs):
            batch = inner(*args, **kwargs)
            rows = len(batch.lambdas)
            views = rows if batch.feats_i is None else 3 * rows
            useful = rows
            if batch.feats_i is not None:
                useful += int(np.count_nonzero(batch.lambdas))
                useful += int(np.count_nonzero(1.0 - batch.lambdas))
            tracer.count("features.views_featurized", views)
            tracer.count("features.views_useful", useful)
            tracer.count("augment.rows", rows)
            tracer.count("augment.mixed_rows", int(batch.is_mixed.sum()))
            return batch
        return wrapper
    patch(tr, "compose_batch", compose)
    for name in ("total_loss", "adam_step", "evaluate", "export_embeddings"):
        patch(tr, name, timed(f"trainer.{name}"))

    # autodiff: primitives called through the module
    def conv_block(x, k, *args, **kwargs):
        block = tracer.kernel_blocks.get(id(k))
        return f"autodiff.conv2d.enc{block[0] if block else '_'}"

    def conv_counts(out, x, k, *args, **kwargs):
        name = conv_block(x, k)
        flops = conv_flops(x.shape, k.shape, out.values.shape)
        tracer.count(name + ".fwd_flops", flops)
        if out._vjp is not None:
            # weight gradient always; input gradient when x is on the tape
            wants_x = isinstance(x, ad.Tensor) and x.tape_id is not None
            tracer.count(name + ".bwd_flops", flops * (2 if wants_x else 1))
    patch(ad, "conv2d", lambda fn: _primitive(tracer, conv_block, fn, conv_counts))
    patch(ad, "dense", lambda fn: _primitive(tracer, "autodiff.dense", fn))
    for name in OTHER_PRIMITIVES:
        patch(ad, name, lambda fn: _primitive(tracer, "autodiff.other", fn))

    def backward(fn):
        inner = _timed(tracer, "autodiff.backward", fn)

        def wrapper(loss):
            tracer.count("autodiff.tape_nodes", len(loss.tape.nodes))
            return inner(loss)
        return wrapper
    patch(ad, "backward", backward)
    try:
        yield tracer
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)
