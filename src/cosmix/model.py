"""The acoustic encoder, classifier head, and contrastive projector.

The reference "tinyconv" encoder is four 3x3 stride-2 conv -> bias ->
relu blocks (channels 32-64-64-128) and a global average pool, run
channels-last and sized to roughly 0.13M inference parameters; kernels
are stored [O, C, kh, kw]. The projector maps the embedding
into the 128-dimensional space where the contrastive loss lives through
dense -> relu -> dense (hidden width 128), so its output is not
relu-clipped.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dataset import KEYWORDS, atomic_write
from .errors import CheckpointError, ConfigError, ShapeError
from .features import FRAME_COUNT, N_MELS

N_CLASSES = len(KEYWORDS)
PROJ_DIM = 128
PROJ_HIDDEN = 128
FEAT_SHAPE = (FRAME_COUNT, N_MELS)
KERNEL_SIZE = 3
STRIDE = 2
PADDING = 1

CHECKPOINT_MAGIC = b"CMX1"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    channels: tuple = (32, 64, 64, 128)
    init_seed: int = 0

    def __post_init__(self):
        if not self.channels or min(self.channels) < 1:
            raise ValueError(f"model_channels must list positive counts, got {self.channels}")
        if self.init_seed < 0:
            raise ValueError(f"model_init_seed must be >= 0, got {self.init_seed}")

    @property
    def embed_dim(self):
        return self.channels[-1]


def init_params(config, dtype=np.float32):
    """Fan-in-scaled uniform weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(config.init_seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params = ad.ParameterSet()
    c_in = 1
    k = KERNEL_SIZE
    for i, c_out in enumerate(config.channels):
        params.add(f"enc{i}.w", uniform((c_out, c_in, k, k), c_in * k * k), dtype=dtype)
        params.add(f"enc{i}.b", np.zeros(c_out), dtype=dtype)
        c_in = c_out
    d = config.embed_dim
    params.add("cls.w", uniform((d, N_CLASSES), d), dtype=dtype)
    params.add("cls.b", np.zeros(N_CLASSES), dtype=dtype)
    params.add("proj.w1", uniform((d, PROJ_HIDDEN), d), dtype=dtype)
    params.add("proj.b1", np.zeros(PROJ_HIDDEN), dtype=dtype)
    params.add("proj.w2", uniform((PROJ_HIDDEN, PROJ_DIM), PROJ_HIDDEN), dtype=dtype)
    params.add("proj.b2", np.zeros(PROJ_DIM), dtype=dtype)
    return params


def count_params(params, prefix):
    return sum(t.values.size for name, t in params.items() if name.startswith(prefix))


def inference_param_count(params):
    """Encoder + classifier sizes; the projector is train-time only."""
    return count_params(params, "enc") + count_params(params, "cls")


def n_blocks(params):
    i = 0
    while f"enc{i}.w" in params:
        i += 1
    return i


def encoder_forward(feats, params):
    """[B, 98, 64] features -> [B, D] embeddings through the conv stack.

    The stack runs channels-last: the features enter as a one-channel
    [B, 98, 64, 1] map and each block is one fused conv2d op.
    """
    feats = ad.as_tensor(feats)
    if feats.values.ndim != 3 or feats.values.shape[1:] != FEAT_SHAPE:
        raise ShapeError(f"encoder expects [B, 98, 64], got {feats.values.shape}")
    b = feats.values.shape[0]
    x = ad.reshape(feats, (b,) + FEAT_SHAPE + (1,))
    for i in range(n_blocks(params)):
        x = ad.conv2d(x, params[f"enc{i}.w"], params[f"enc{i}.b"],
                      stride=STRIDE, padding=PADDING)
    return ad.global_avg_pool(x)


def classifier_forward(embedding, params):
    """[B, D] -> [B, 10] logits through the dense head."""
    return ad.dense(embedding, params["cls.w"], params["cls.b"])


def projector_forward(embedding, params):
    """[B, D] -> [B, 128] projection for the contrastive loss."""
    h = ad.relu(ad.dense(embedding, params["proj.w1"], params["proj.b1"]))
    return ad.dense(h, params["proj.w2"], params["proj.b2"])


# ---------------------------------------------------------------------------
# checkpoint file: CMX1, version, config text, run state, parameter records

@dataclass(frozen=True)
class Checkpoint:
    config: ModelConfig
    parameters: dict  # name -> float32 ndarray (model and optimizer state)
    epoch: int
    rng_state: bytes
    metrics_tail: dict


def _pack_str(s):
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, data, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n):
        if self.off + n > len(self.data):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def string(self):
        return self.take(self.u32()).decode("utf-8")


def save_checkpoint(path, ckpt):
    from .runconfig import format_model_config  # runconfig imports this module
    chunks = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    chunks.append(_pack_str(format_model_config(ckpt.config)))
    chunks.append(struct.pack("<I", ckpt.epoch))
    chunks.append(struct.pack("<I", len(ckpt.rng_state)))
    chunks.append(ckpt.rng_state)
    chunks.append(_pack_str(json.dumps(ckpt.metrics_tail, sort_keys=True)))
    chunks.append(struct.pack("<I", len(ckpt.parameters)))
    for name, values in ckpt.parameters.items():
        arr = np.asarray(values, dtype="<f4")
        chunks.append(_pack_str(name))
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes(order="C"))
    atomic_write(path, b"".join(chunks))


def load_checkpoint(path):
    from .runconfig import parse_model_config  # runconfig imports this module
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    try:
        config = parse_model_config(r.string(), source=str(path))
        epoch = r.u32()
        rng_state = r.take(r.u32())
        metrics_tail = json.loads(r.string())
    except ConfigError as exc:
        raise CheckpointError(str(exc)) from None
    except ValueError as exc:  # a text field that is not UTF-8, or a tail not JSON
        raise CheckpointError(f"{path}: corrupt text field ({exc})") from None
    n_records = r.u32()
    parameters = {}
    for _ in range(n_records):
        name = r.string()
        rank = r.u32()
        shape = struct.unpack(f"<{rank}I", r.take(4 * rank))
        count = math.prod(shape)
        values = np.frombuffer(r.take(4 * count), dtype="<f4").reshape(shape)
        parameters[name] = values.astype(np.float32)
    if r.off != len(data):
        raise CheckpointError(f"{path}: {len(data) - r.off} trailing bytes")
    return Checkpoint(config=config, parameters=parameters, epoch=epoch,
                      rng_state=rng_state, metrics_tail=metrics_tail)
