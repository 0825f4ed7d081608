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
# on top of that contend for the same two CPUs. This only takes effect
# when numpy has not been imported yet.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
