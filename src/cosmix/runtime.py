"""The two-core runtime: the process settings and the one pool worker.

Imported first by the package, before any module that imports numpy.
In this order it defaults ``OPENBLAS_NUM_THREADS`` to 1, sets glibc's
malloc to keep freed memory (``_keep_freed_memory``), and sets numpy's
OpenBLAS to one thread in case numpy was imported before the package
(``_one_blas_thread``).

The span rule. ``in_blocks`` is the one scheduler for work split over
the two cores. It calls ``fn(lo, hi)`` over items [0, n) in spans of
``size`` items, taken by the calling thread and the single pool worker
(``_share``), or calls ``fn(0, n)`` once, inline, when one CPU is ours
(``POOL_WORKERS`` 0), when there are fewer than two spans, or when a
span's GEMM would be under ``MIN_MADDS`` multiply-adds. Every caller
writes each output element from one span only, so spans give the bits
of one whole call, as long as each span's GEMM is large enough for BLAS
to use the kernels it uses for the whole product. Two callers use it:
``autodiff.conv2d`` runs its per-row work in blocks of ``BLOCK_CLIPS``
clips and may halve its weight GEMM, and ``features.log_fbank_batch``
featurizes its rows in spans of ``BLOCK_CLIPS`` rows; there is one
executor, one worker and one span size for both.

Workers run numpy into preallocated slices only: they create no autodiff
``Tensor``, call neither ``_sabotage`` nor ``_check_finite``, and reach no
module attribute that bench/tracing.py patches, so neither the tracer
nor the thread-local recording stack sees them. A span that sees a
non-finite value only notes it; its caller raises once every span is
done.
"""
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# One BLAS thread unless the caller chose otherwise: conv2d already runs
# its row blocks on both cores (POOL_WORKERS), and BLAS threads on top of
# that contend for the same two CPUs (see _one_blas_thread).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _keep_freed_memory():
    """Have glibc's malloc keep the memory a training step frees, unless the
    caller set malloc's mmap or trim threshold (``MALLOC_MMAP_THRESHOLD_``,
    ``MALLOC_TRIM_THRESHOLD_``, or ``glibc.malloc.mmap_threshold`` or
    ``glibc.malloc.trim_threshold`` in ``GLIBC_TUNABLES``) or the C library
    is not glibc. Other malloc settings, such as ``MALLOC_ARENA_MAX``, are
    kept alongside.

    A step allocates and frees the same large scratch every batch (im2col
    columns, conv outputs, masked gradients). By default glibc maps each
    array above its threshold afresh and unmaps it on free, and trims the
    heap top, so every step faults the same pages in again. A fixed 32 MiB
    mmap threshold, glibc's largest, and a 1 GiB trim threshold leave that
    memory on the heap for the next step to reuse; the process keeps its
    peak resident size instead of shrinking between steps."""
    env = os.environ
    tunables = {item.partition("=")[0] for item in env.get("GLIBC_TUNABLES", "").split(":")}
    if {"glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold"} & tunables or \
            {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & env.keys():
        return
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory()


def _one_blas_thread():
    """A numpy imported before cosmix read the variable's old value; set its
    OpenBLAS to one thread too. Process-wide; other BLASes are left alone."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return
    import ctypes
    import numpy
    core = getattr(numpy, "_core", None) or numpy.core
    blas = ctypes.CDLL(core._multiarray_umath.__file__)
    for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads"):
        if hasattr(blas, name):
            return getattr(blas, name)(1)


_one_blas_thread()

# clips per row block, and rows per span of features.log_fbank_batch. On
# a two-vCPU Sapphire Rapids VM, blocks of 8 and 16 timed alike and 32
# leaves a 32-clip call one block; 8 gives a 32-clip call four blocks, so
# a thread whose CPU the hypervisor stalls holds up one small block while
# the other thread takes the rest. The front end's spans timed alike from
# 2 to 16 rows.
BLOCK_CLIPS = 8
# multiply-adds in each span of a GEMM split by in_blocks, at least. A
# smaller product can take OpenBLAS's small-matrix kernels, which sum in
# another order than the kernels of the whole product; in a sweep of conv
# shapes with OpenBLAS 0.3.31 on Sapphire Rapids, at 1 and 2 BLAS threads,
# every block or half that differed from the whole product had under 2**20.
MIN_MADDS = 1 << 21
# pool workers besides the calling thread: one where a second CPU is ours
# (macOS and Windows have no sched_getaffinity; count every CPU there)
POOL_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1) - 1

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


def in_blocks(fn, n, size, item_madds):
    """Call ``fn(lo, hi)`` over items [0, n) in ``n // size`` spans of
    ``size`` items, the last span taking the remainder, on both threads;
    or ``fn(0, n)`` once, inline, as the span rule above says. Pass
    ``item_madds=None`` when ``fn`` runs no GEMM whose kernels depend on
    its size."""
    if POOL_WORKERS == 0 or n < 2 * size or \
            (item_madds is not None and size * item_madds < MIN_MADDS):
        fn(0, n)
    else:
        bounds = [i * size for i in range(n // size)] + [n]
        _share(fn, zip(bounds[:-1], bounds[1:]))
