"""Low-resource keyword-spotting training toolkit.

Mixup augmentation plus an auxiliary contrastive loss that pulls each
mixed utterance's projection toward its two pre-mix sources, end to
end: WAV ingestion, log-mel features, augmentation, a minimal
reverse-mode autodiff engine, a small convolutional model, training,
and evaluation.
"""
import os as _os

# One BLAS thread unless the caller chose otherwise: conv2d already runs
# its row blocks on both cores (autodiff.POOL_WORKERS), and BLAS threads
# on top of that contend for the same two CPUs (see _one_blas_thread).
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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
    env = _os.environ
    tunables = {item.partition("=")[0] for item in env.get("GLIBC_TUNABLES", "").split(":")}
    if {"glibc.malloc.mmap_threshold", "glibc.malloc.trim_threshold"} & tunables or \
            {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & env.keys():
        return
    try:
        if not _os.confstr("CS_GNU_LIBC_VERSION"):
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

from .augment import AugmentConfig, BetaParams, mixup_waveforms, sample_beta, \
    spec_augment, time_shift, time_stretch
from .autodiff import ParameterSet, Tape, Tensor, backward, \
    finite_difference_check, stop_gradient
from .dataset import DatasetManifest, KEYWORDS, build_manifest, load_wav, \
    pad_or_trim, read_manifest, synth_dataset, trim_by_speaker, write_manifest, \
    write_wav
from .features import log_fbank_batch, mel_filterbank, stft_power
from .model import Checkpoint, ModelConfig, classifier_forward, encoder_forward, \
    init_params, load_checkpoint, projector_forward, save_checkpoint
from .runconfig import RunSettings, default_settings, format_config, load_config
from .trainer import AdamState, ClipStore, EpochMetrics, MixedBatch, TrainConfig, \
    adam_step, compose_batch, evaluate, export_embeddings, lambda_weight, \
    loss_cos, loss_mix, lr_at_epoch, total_loss, train
from .verify import run_all as run_verification


def _one_blas_thread():
    """A numpy imported before cosmix read the variable's old value; set its
    OpenBLAS to one thread too. Process-wide; other BLASes are left alone."""
    if _os.environ.get("OPENBLAS_NUM_THREADS") != "1":
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
