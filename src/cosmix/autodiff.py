"""Minimal reverse-mode autodiff on numpy arrays.

Exactly the primitives the keyword model and its losses need: dense,
relu, a fused conv -> bias -> relu block and global average pooling
(both channels-last, [B, H, W, C]), row normalization, softmax cross
entropy, stop_gradient, and a finite-difference harness to check every
gradient rule. ``sigmoid_bce_rowwise``, ``sub`` and ``channel_bias_add``
serve no training path; bench/tracing.py still patches them by name, and
the ``sigmoid_bce_grad`` verify suite audits the first. Ops are taped only
while a ``Tape`` context is active, so plain calls are inference.

Row blocks. ``conv2d`` does its per-row work in row blocks of
``BLOCK_CLIPS`` clips (``_in_blocks`` states how spans are cut and when
they run inline): the padding, the im2col copy, the forward GEMM, the
bias add, the finiteness check and the relu, and in backward the mask,
each clip's bias-gradient partial, the input-gradient GEMM and col2im.
Every output row depends on its own input rows only, so blocks give the
same bits as one whole-batch call.
Whole: the weight GEMM and the final sum of the per-clip bias partials,
which reduce over rows. The weight GEMM may be split in two along an
output axis, which leaves each element's sum over rows whole. Each bias
partial sums one clip's channels-first map, so adding the partials clip
by clip keeps the order of one sum over the whole channels-first map: a
row-wise sum rounds differently, and training results follow those
roundings. Workers run numpy into preallocated slices only: they create
no ``Tensor``, call neither ``_sabotage`` nor ``_check_finite``, and reach
no module attribute that bench/tracing.py patches, so neither the tracer
nor the thread-local recording stack sees them. A block that sees a
non-finite pre-activation only notes it; the caller raises once every
block is done.

``features.log_fbank_batch`` hands its rows to the same worker through
``_in_blocks``, in spans of ``BLOCK_CLIPS`` rows too; there is one
executor, one worker and one span size for both.
"""
from __future__ import annotations

import contextvars
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericError, ShapeError

# Mutation-testing hook: name an op here (e.g. "conv2d") and the whole
# upstream gradient its vjp receives is scaled by 1.05, which the
# verification suite must detect.
SABOTAGE_ENV = "COSMIX_SABOTAGE_GRAD"


def _sabotage(op, g):
    if os.environ.get(SABOTAGE_ENV, "") == op:
        return g * 1.05
    return g


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse mode.

    Leaves are created directly (``requires_grad=True`` for trainables);
    interior nodes are created by ops and carry a vjp closure. A tensor
    that never landed on a tape (``tape_id is None``) never receives a
    gradient.

    The link to the tape is weak: the tape holds its nodes, so a strong
    link back would make every recorded graph a reference cycle that
    only the cycle collector frees. ``backward`` drops each node's vjp
    closure, and with it the arrays the op saved, as it sweeps; the
    values and edges go as soon as the tape and the tensors computed on
    it are no longer referenced.
    """

    __slots__ = ("values", "requires_grad", "grad", "_tape", "tape_id",
                 "op", "_parents", "_vjp", "__weakref__")

    def __init__(self, values, requires_grad=False):
        self._setup(np.asarray(values), requires_grad)
        if not np.all(np.isfinite(self.values)):
            raise NumericError("non-finite values in tensor literal")

    def _setup(self, arr, requires_grad=False):
        """Fill the slots; non-float arrays become float64."""
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None
        self.tape_id = None
        self.op = "leaf"
        self._parents = ()
        self._vjp = None

    @property
    def tape(self):
        """The tape this tensor was recorded on, or None once it is gone."""
        return None if self._tape is None else self._tape()

    @property
    def shape(self):
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.values.shape}, grad={self.grad is not None})"


class _Recording(threading.local):
    """Per-thread stack of active tapes; None marks a paused region."""

    def __init__(self):
        self.stack = []


_recording = _Recording()


class Tape:
    """Append-only op recording; node inputs always precede the node."""

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _recording.stack.append(self)
        return self

    def __exit__(self, *exc):
        _recording.stack.pop()
        return False

    @staticmethod
    def current():
        stack = _recording.stack
        return stack[-1] if stack else None

    def _append(self, t):
        t._tape = weakref.ref(self)
        t.tape_id = len(self.nodes)
        self.nodes.append(t)

    def dump(self):
        """Text DAG of the recorded graph, one node per line."""
        lines = []
        for n in self.nodes:
            ps = ",".join(str(p.tape_id) for p in n._parents)
            lines.append(f"{n.tape_id}: {n.op} shape={n.values.shape} <- [{ps}]")
        return "\n".join(lines)


@contextmanager
def pause_recording():
    """Context manager: ops inside run as plain forwards, nothing is taped."""
    _recording.stack.append(None)
    try:
        yield
    finally:
        _recording.stack.pop()


def _tracked_on(t, tape):
    return t.tape is tape and t.tape_id is not None


def _check_finite(op, values):
    if not np.all(np.isfinite(values)):
        raise NumericError(f"non-finite forward values in op '{op}'")


def _record(op, values, parents, vjp):
    _check_finite(op, values)
    return _node(op, values, parents, vjp)


def _node(op, values, parents, vjp):
    """Wrap an op's output, already checked finite, and tape it if needed."""
    out = Tensor.__new__(Tensor)
    out._setup(np.asarray(values))
    out.op = op
    tape = Tape.current()
    if tape is None:
        return out
    live = False
    for p in parents:
        if _tracked_on(p, tape):
            live = True
        elif p.requires_grad and p._vjp is None:
            # leaf joining this tape (possibly left over from an older one)
            tape._append(p)
            live = True
    if live:
        out._parents = tuple(parents)
        out._vjp = vjp
        tape._append(out)
    return out


def _accum(t, g, owned=False):
    """Add ``g`` into ``t.grad``. A first gradient is copied, since later
    accumulation writes into ``t.grad`` in place, unless the vjp passes
    ``owned``: ``g`` is an array it built for ``t`` alone."""
    if t.tape_id is None:
        return
    if t.grad is None:
        if owned and g.dtype == t.values.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.values.dtype, copy=True)
    else:
        t.grad += g


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _want(t, shape, op, role):
    if t.values.shape != tuple(shape):
        raise ShapeError(f"{op}: {role} has shape {t.values.shape}, expected {tuple(shape)}")


def _want_rank(t, rank, op, role):
    if t.values.ndim != rank:
        raise ShapeError(f"{op}: {role} has shape {t.values.shape}, expected rank {rank}")


# ---------------------------------------------------------------------------
# elementwise and reduction primitives

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ShapeError(f"add: {a.values.shape} vs {b.values.shape}")

    def vjp(g):
        _accum(a, g)
        _accum(b, g)
    return _record("add", a.values + b.values, (a, b), vjp)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ShapeError(f"sub: {a.values.shape} vs {b.values.shape}")

    def vjp(g):
        _accum(a, g)
        _accum(b, -g)
    return _record("sub", a.values - b.values, (a, b), vjp)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ShapeError(f"mul: {a.values.shape} vs {b.values.shape}")
    av, bv = a.values, b.values

    def vjp(g):
        _accum(a, g * bv)
        _accum(b, g * av)
    return _record("mul", av * bv, (a, b), vjp)


def scale(a, s):
    a = as_tensor(a)
    s = float(s)

    def vjp(g):
        _accum(a, g * s)
    return _record("scale", a.values * s, (a,), vjp)


def reshape(a, shape):
    a = as_tensor(a)
    shape = tuple(shape)
    if int(np.prod(shape)) != a.values.size:
        raise ShapeError(f"reshape: {a.values.shape} to {shape}")
    in_shape = a.values.shape

    def vjp(g):
        _accum(a, g.reshape(in_shape))
    return _record("reshape", a.values.reshape(shape), (a,), vjp)


def rowsum(a):
    """Sum over the last axis of a [B, D] tensor -> [B]."""
    a = as_tensor(a)
    _want_rank(a, 2, "rowsum", "input")
    d = a.values.shape[1]

    def vjp(g):
        _accum(a, np.repeat(g[:, None], d, axis=1))
    return _record("rowsum", a.values.sum(axis=1), (a,), vjp)


def sum_all(a):
    a = as_tensor(a)
    shape = a.values.shape

    def vjp(g):
        _accum(a, np.full(shape, g, dtype=a.values.dtype))
    return _record("sum_all", np.asarray(a.values.sum()), (a,), vjp)


def mean_all(a):
    a = as_tensor(a)
    shape = a.values.shape
    n = a.values.size

    def vjp(g):
        _accum(a, np.full(shape, g / n, dtype=a.values.dtype))
    return _record("mean_all", np.asarray(a.values.mean()), (a,), vjp)


def relu(a):
    a = as_tensor(a)
    mask = a.values > 0  # subgradient 0 at 0

    def vjp(g):
        _accum(a, g * mask)
    return _record("relu", np.maximum(a.values, 0), (a,), vjp)


def stop_gradient(a):
    """Identity forward; contributes nothing to any ancestor in backward.

    Recorded as a sink node so a graph downstream of it stays on the tape.
    """
    a = as_tensor(a)

    def vjp(g):
        pass
    return _record("stop_gradient", a.values, (a,), vjp)


# ---------------------------------------------------------------------------
# linear / convolutional primitives

def _wants_grad(t):
    return t.tape_id is not None


def dense(x, w, b):
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _want_rank(x, 2, "dense", "x")
    _want_rank(w, 2, "dense", "w")
    if x.values.shape[1] != w.values.shape[0]:
        raise ShapeError(f"dense: x {x.values.shape} vs w {w.values.shape}")
    _want(b, (w.values.shape[1],), "dense", "b")
    xv, wv = x.values, w.values

    def vjp(g):
        g = _sabotage("dense", g)
        if _wants_grad(x):
            _accum(x, g @ wv.T, owned=True)
        if _wants_grad(w):
            _accum(w, xv.T @ g, owned=True)
        if _wants_grad(b):
            _accum(b, g.sum(axis=0), owned=True)
    return _record("dense", xv @ wv + b.values, (x, w, b), vjp)


def conv2d(x, k, b, stride=1, padding=0):
    """One conv block, channels-last: ``relu(x ⋆ k + b)``.

    [B, H, W, C] input, [O, C, kh, kw] kernels, [O] bias -> [B, Ho, Wo, O].
    Computed as im2col plus one GEMM per product. With ``kmat`` the kernel
    as [O, kh*kw*C], each row block of ``BLOCK_CLIPS`` clips is padded
    into its own [n, Hp, Wp, C] buffer, whose strided window view is
    copied into the block's rows of the [B*Ho*Wo, kh*kw*C] ``cols``
    matrix; ``cols @ kmat.T`` for those rows goes into the block's rows
    of the [B*Ho*Wo, O] output, and the bias is added there. The block
    then checks its pre-activation for finiteness, before the relu it
    applies in place, so a non-finite value raises (``NumericError``,
    once all blocks are done) even where the relu would clamp it.

    In backward, ``g2`` is the output gradient masked by ``out > 0``, as
    [B*Ho*Wo, O]. Per row block: the mask; each clip's bias-gradient
    partial, the sum of a channels-first copy of its ``g2`` rows, into
    a [B, O] array; and the input gradient ``g2 @ kmat``, scattered into
    the block's zeroed slice of the unpadded input gradient by one
    strided add per kernel offset (col2im), each offset clipped to the
    taps that land inside the input. Whole: the sum of the bias partials
    over clips, and the weight gradient ``g2.T @ cols``, which reduces
    over rows, and may run as two halves on the pool. The vjp closure
    keeps ``cols``, ``kmat`` and the output until ``backward`` has run
    it. Blocks and halves are described in the module docstring.
    """
    x, k, b = as_tensor(x), as_tensor(k), as_tensor(b)
    _want_rank(x, 4, "conv2d", "x")
    _want_rank(k, 4, "conv2d", "k")
    if x.values.shape[3] != k.values.shape[1]:
        raise ShapeError(f"conv2d: x {x.values.shape} vs k {k.values.shape}")
    _want(b, (k.values.shape[0],), "conv2d", "b")
    stride, padding = int(stride), int(padding)
    bsz, h, w, cin = x.values.shape
    cout, _, kh, kw = k.values.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh or wp < kw:
        raise ShapeError(f"conv2d: padded input {(hp, wp)} smaller than kernel {(kh, kw)}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    rows = ho * wo  # im2col rows per clip
    width = kh * kw * cin  # im2col columns

    xv, bv = x.values, b.values
    kmat = k.values.transpose(0, 2, 3, 1).reshape(cout, width)
    cols = np.empty((bsz * rows, width), dtype=xv.dtype)
    out = np.empty((bsz * rows, cout), dtype=np.result_type(cols, kmat))

    nonfinite = []  # blocks whose pre-activation holds a nan or an inf

    def forward_block(lo, hi):
        xp = np.zeros((hi - lo, hp, wp, cin), dtype=xv.dtype)
        xp[:, padding:padding + h, padding:padding + w] = xv[lo:hi]
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        cols[lo * rows:hi * rows].reshape(hi - lo, ho, wo, kh, kw, cin)[...] = \
            windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
        out_blk = out[lo * rows:hi * rows]
        np.matmul(cols[lo * rows:hi * rows], kmat.T, out=out_blk)
        out_blk += bv
        if not np.isfinite(out_blk).all():
            nonfinite.append((lo, hi))
        np.maximum(out_blk, 0, out=out_blk)

    _in_blocks(forward_block, bsz, BLOCK_CLIPS, rows * width * cout)
    if nonfinite:
        raise NumericError("non-finite forward values in op 'conv2d'")
    out = out.reshape(bsz, ho, wo, cout)

    def vjp(g):
        g = _sabotage("conv2d", g)
        g2 = np.empty((bsz * rows, cout), dtype=g.dtype)
        want_b, want_x = _wants_grad(b), _wants_grad(x)
        if want_b:
            b_parts = np.empty((bsz, cout), dtype=g.dtype)
        if want_x:
            dx = np.empty((bsz, h, w, cin), dtype=np.result_type(g2, kmat))
            # per kernel row i (column j): the output rows whose tap lands
            # inside the unpadded input, and the input rows it lands on
            taps_h = [_tap_span(i, ho, h, stride, padding) for i in range(kh)]
            taps_w = [_tap_span(j, wo, w, stride, padding) for j in range(kw)]

        def backward_block(lo, hi):
            g2_blk = g2[lo * rows:hi * rows]
            g4_blk = g2_blk.reshape(hi - lo, ho, wo, cout)
            np.multiply(g[lo:hi], out[lo:hi] > 0, out=g4_blk)
            if want_b:
                # each clip's sum over a channels-first copy: the partials
                # of the whole [B, O, Ho, Wo] map's sum, in its order
                g4_blk.transpose(0, 3, 1, 2).copy().sum(axis=(2, 3), out=b_parts[lo:hi])
            if want_x:
                dcols = (g2_blk @ kmat).reshape(hi - lo, ho, wo, kh, kw, cin)
                dx_blk = dx[lo:hi]
                dx_blk[...] = 0
                for i, (hlo, hhi, hs) in enumerate(taps_h):
                    for j, (wlo, whi, ws) in enumerate(taps_w):
                        dx_blk[:, hs, ws] += dcols[:, hlo:hhi, wlo:whi, i, j]

        _in_blocks(backward_block, bsz, BLOCK_CLIPS, rows * width * cout)
        if want_b:
            _accum(b, b_parts.sum(axis=0), owned=True)
        if _wants_grad(k):
            dk = np.empty((cout, width), dtype=np.result_type(g2, cols))
            # each half of the product reads all of one operand and half of
            # the other, so halve the larger: g2 by output channel, or cols
            # by column
            by_channel = cout >= width
            n, other = (cout, width) if by_channel else (width, cout)

            def weight_part(lo, hi):
                if by_channel:
                    np.matmul(g2[:, lo:hi].T, cols, out=dk[lo:hi])
                else:
                    np.matmul(g2.T, cols[:, lo:hi], out=dk[:, lo:hi])

            # a half one row or column wide goes to numpy's gemv, which sums
            # in another order than the whole product does: keep it whole
            _in_blocks(weight_part, n, n // 2 if other >= 2 and n >= 4 else n,
                       bsz * rows * other)
            _accum(k, dk.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2), owned=True)
        if want_x:
            _accum(x, dx, owned=True)
    return _node("conv2d", out, (x, k, b), vjp)


# ---------------------------------------------------------------------------
# row blocks on a two-thread pool

# clips per row block, and rows per span of features.log_fbank_batch. On
# a two-vCPU Sapphire Rapids VM, blocks of 8 and 16 timed alike and 32
# leaves a 32-clip call one block; 8 gives a 32-clip call four blocks, so
# a thread whose CPU the hypervisor stalls holds up one small block while
# the other thread takes the rest. The front end's spans timed alike from
# 2 to 16 rows.
BLOCK_CLIPS = 8
# multiply-adds in each span of a GEMM split by _in_blocks, at least. A
# smaller product can take OpenBLAS's small-matrix kernels, which sum in
# another order than the kernels of the whole product; in a sweep of conv
# shapes with OpenBLAS 0.3.31 on Sapphire Rapids, at 1 and 2 BLAS threads,
# every block or half that differed from the whole product had under 2**20.
MIN_MADDS = 1 << 21
# pool workers besides the calling thread: one where a second CPU is ours
POOL_WORKERS = min(2, len(os.sched_getaffinity(0))) - 1

# The single pool worker. Its thread starts on the first submit and then
# stays idle between calls: handing it a task costs less than starting and
# joining a thread (about 110 against 180 microseconds on a two-vCPU VM),
# and a step makes a dozen conv calls. concurrent.futures joins it at
# interpreter exit.
_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="cosmix-pool")


def _share(fn, spans):
    """Call ``fn(lo, hi)`` for every span, taken one at a time from one
    shared iterator by the calling thread and by the pool worker, and
    return once both are done. The worker runs in a copy of the caller's
    context, so numpy's error state (``np.errstate``) holds there too. A
    worker's exception is raised here; the first error stops both threads
    from taking further spans."""
    spans = iter(spans)
    lock = threading.Lock()
    failed = False

    def take_all():
        nonlocal failed
        while True:
            with lock:
                span = None if failed else next(spans, None)
            if span is None:
                return
            try:
                fn(*span)
            except BaseException:
                failed = True
                raise

    future = _pool.submit(contextvars.copy_context().run, take_all)
    try:
        take_all()
    finally:
        wait([future])
    future.result()


def _in_blocks(fn, n, size, item_madds=None):
    """Call ``fn(lo, hi)`` over items [0, n) in ``n // size`` spans of
    ``size`` items, the last span taking the remainder, shared between the
    calling thread and the pool worker (``_share``); or call ``fn(0, n)``
    once, inline, when ``POOL_WORKERS`` is 0 (one CPU is ours), when there
    are fewer than two spans, or when a span's GEMM, at ``item_madds``
    multiply-adds per item, would be under ``MIN_MADDS``.

    Every caller writes each output element from one span only, so spans
    give the bits of one whole call, as long as each span's GEMM is large
    enough for BLAS to use the kernels it uses for the whole product."""
    if POOL_WORKERS == 0 or n < 2 * size or \
            (item_madds is not None and size * item_madds < MIN_MADDS):
        fn(0, n)
    else:
        bounds = [i * size for i in range(n // size)] + [n]
        _share(fn, zip(bounds[:-1], bounds[1:]))


def _tap_span(i, n_out, n_in, stride, padding):
    """For kernel offset ``i`` along one axis: the output positions [lo, hi)
    whose tap lands inside the unpadded input of ``n_in``, and the strided
    input slice those taps land on."""
    lo = max(0, -((i - padding) // stride))
    hi = max(lo, min(n_out, (n_in - 1 + padding - i) // stride + 1))
    start = lo * stride + i - padding
    return lo, hi, slice(start, start + (hi - lo) * stride, stride)


def channel_bias_add(x, b):
    """Add a per-channel bias [C] to a [B, C, H, W] map."""
    x, b = as_tensor(x), as_tensor(b)
    _want_rank(x, 4, "channel_bias_add", "x")
    _want(b, (x.values.shape[1],), "channel_bias_add", "b")

    def vjp(g):
        _accum(x, g)
        _accum(b, g.sum(axis=(0, 2, 3)))
    return _record("channel_bias_add", x.values + b.values[None, :, None, None], (x, b), vjp)


def global_avg_pool(x):
    """Mean over the spatial axes of channels-last [B, H, W, C] -> [B, C].

    The mean is taken over a [B, C, H, W] copy, which sums each channel
    in the order of a channels-first map, so the result equals a
    channels-first pool's bit for bit; the encoder's last map is 7x4.
    """
    x = as_tensor(x)
    _want_rank(x, 4, "global_avg_pool", "x")
    _, h, w, _ = x.values.shape

    def vjp(g):
        _accum(x, np.broadcast_to(g[:, None, None, :] / (h * w), x.values.shape))
    pooled = np.ascontiguousarray(x.values.transpose(0, 3, 1, 2)).mean(axis=(2, 3))
    return _record("global_avg_pool", pooled, (x,), vjp)


# ---------------------------------------------------------------------------
# normalization and similarity

NORM_EPS = 1e-12


def l2_normalize(x):
    """Divide each row of [B, D] by its Euclidean norm (floored at NORM_EPS)."""
    x = as_tensor(x)
    _want_rank(x, 2, "l2_normalize", "x")
    norms = np.linalg.norm(x.values, axis=1)
    floored = norms < NORM_EPS
    n = np.maximum(norms, NORM_EPS)
    y = x.values / n[:, None]

    def vjp(g):
        # rows at the floor behave as plain division by NORM_EPS
        dx = (g - y * (g * y).sum(axis=1, keepdims=True)) / n[:, None]
        if floored.any():
            dx[floored] = g[floored] / NORM_EPS
        _accum(x, dx)
    return _record("l2_normalize", y, (x,), vjp)


def cosine_similarity(a, b):
    """Per-row cosine of two [B, D] tensors -> [B], each value in [-1, 1]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.shape != b.values.shape:
        raise ShapeError(f"cosine_similarity: {a.values.shape} vs {b.values.shape}")
    return rowsum(mul(l2_normalize(a), l2_normalize(b)))


# ---------------------------------------------------------------------------
# classification losses

def _check_simplex(target, op):
    t = target.values
    if t.ndim != 2:
        raise ShapeError(f"{op}: target has shape {t.shape}, expected rank 2")
    if (t < -1e-9).any() or np.abs(t.sum(axis=1) - 1.0).max() > 1e-6:
        raise ValueError(f"{op}: target rows must be probability vectors")


def _log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def softmax_cross_entropy_rowwise(logits, target):
    """Per-row cross entropy of softmax(logits) against soft targets -> [B]."""
    logits, target = as_tensor(logits), as_tensor(target)
    if logits.values.shape != target.values.shape:
        raise ShapeError(f"softmax_cross_entropy: {logits.values.shape} vs {target.values.shape}")
    _check_simplex(target, "softmax_cross_entropy")
    logp = _log_softmax(logits.values)
    rows = -(target.values * logp).sum(axis=1)
    sm = np.exp(logp)
    tv = target.values

    def vjp(g):
        _accum(logits, g[:, None] * (sm - tv))
        _accum(target, g[:, None] * (-logp))
    return _record("softmax_cross_entropy_rowwise", rows, (logits, target), vjp)


def softmax_cross_entropy(logits, target):
    """Batch-mean softmax cross entropy against soft targets -> scalar."""
    return mean_all(softmax_cross_entropy_rowwise(logits, target))


def sigmoid_bce_rowwise(logits, target):
    """Per-row mean of elementwise binary cross entropy on logits -> [B]."""
    logits, target = as_tensor(logits), as_tensor(target)
    if logits.values.shape != target.values.shape:
        raise ShapeError(f"sigmoid_bce_rowwise: {logits.values.shape} vs {target.values.shape}")
    t = target.values
    if (t < -1e-9).any() or (t > 1 + 1e-9).any():
        raise ValueError("sigmoid_bce_rowwise: target entries must lie in [0, 1]")
    z = logits.values
    k = z.shape[1]
    elem = np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))
    sig = 1.0 / (1.0 + np.exp(-z))

    def vjp(g):
        _accum(logits, g[:, None] * (sig - t) / k)
        _accum(target, g[:, None] * (-z) / k)
    return _record("sigmoid_bce_rowwise", elem.mean(axis=1), (logits, target), vjp)


# ---------------------------------------------------------------------------
# backward sweep

def backward(loss):
    """Reverse sweep from a scalar tensor; grads land on tape-tracked leaves.

    Each op's vjp closure and gradient are dropped once the vjp has run,
    so the arrays an op saved for backward are freed as the sweep passes
    it, while the tape still lives. Values, parents and leaf gradients
    stay, so a graph can be swept once: a sweep that reaches an op a
    previous sweep ran raises.
    """
    if not isinstance(loss, Tensor) or loss.values.shape != ():
        got = getattr(loss, "values", np.asarray(loss)).shape
        raise ContractError(f"backward: loss must be a scalar tensor, got shape {got}")
    if loss.tape is None:
        raise ContractError("backward: loss is not on a live tape")
    if loss.op != "leaf" and loss._vjp is None:
        raise ContractError("backward: this loss's graph was already swept")
    loss.grad = np.ones((), dtype=loss.values.dtype)
    for node in reversed(loss.tape.nodes[:loss.tape_id + 1]):
        vjp, g = node._vjp, node.grad
        if g is None or node.op == "leaf":
            continue
        if vjp is None:
            raise ContractError(f"backward: op '{node.op}' was already swept")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient at op '{node.op}'")
        node._vjp = node.grad = None
        vjp(g)


# ---------------------------------------------------------------------------
# trainable parameter collections

class ParameterSet:
    """Named trainable tensors with deterministic (insertion) order."""

    def __init__(self):
        self._params = {}

    def add(self, name, values, dtype=None):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(values, dtype=dtype), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return self._params.values()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def copy_values(self):
        return {name: t.values.copy() for name, t in self._params.items()}

    def load_values(self, values):
        """Copy in each parameter's array from ``values``; other keys
        (a checkpoint's optimizer state) are ignored."""
        for name, t in self._params.items():
            v = np.asarray(values[name], dtype=t.values.dtype)
            if v.shape != t.values.shape:
                raise ShapeError(f"parameter {name}: {v.shape} vs {t.values.shape}")
            t.values = v.copy()


# ---------------------------------------------------------------------------
# finite-difference harness

FD_MAX_COORDS = 200


def finite_difference_check(f, params, h=1e-5):
    """Max relative error between backward() grads and central differences.

    ``f`` rebuilds the scalar loss from the current parameter values on
    every call; when there are more than ``FD_MAX_COORDS`` coordinates, a
    fixed random subset of that many is probed instead of all of them.
    """
    v1 = float(f().values)
    v2 = float(f().values)
    if v1 != v2:
        raise ContractError("finite_difference_check: f is not deterministic")

    params.zero_grad()
    with Tape():
        loss = f()
        backward(loss)
    analytic = {}
    for name, t in params.items():
        analytic[name] = np.zeros_like(t.values) if t.grad is None else t.grad.copy()

    coords = [(name, i) for name, t in params.items() for i in range(t.values.size)]
    if len(coords) > FD_MAX_COORDS:
        picks = np.random.default_rng(0).choice(len(coords), FD_MAX_COORDS, replace=False)
        coords = [coords[i] for i in picks]

    max_rel = 0.0
    for name, i in coords:
        flat = params[name].values.reshape(-1)
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f().values)
        flat[i] = orig - h
        fm = float(f().values)
        flat[i] = orig
        numeric = (fp - fm) / (2 * h)
        ana = float(analytic[name].reshape(-1)[i])
        rel = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return max_rel
