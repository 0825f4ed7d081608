"""Run configuration files: flat ``key = value`` text covering every
training, augmentation, and model field. Unknown keys are errors, and a
resolved copy (all defaults materialized) is written into each run
directory so a run can be replayed bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .augment import AugmentConfig
from .errors import ConfigError
from .model import N_CLASSES, PROJ_DIM, PROJ_HIDDEN, ModelConfig
from .trainer import TrainConfig

# Keys that files written before their removal still carry, each at its one
# value; compared after the cast, so both `true` and `True` match a bool.
_RETIRED = {"model_kernel_size": 3, "model_stride": 2, "model_n_classes": N_CLASSES,
            "model_proj_dim": PROJ_DIM, "model_proj_hidden": PROJ_HIDDEN,
            "model_proj_two_layer": True, "cls_loss": "softmax_ce"}


@dataclass(frozen=True)
class RunSettings:
    train: TrainConfig
    augment: AugmentConfig
    model: ModelConfig


def _cast_for(default):
    if isinstance(default, bool):
        def cast(s):
            if s not in ("true", "false", "True", "False"):
                raise ValueError(f"expected true/false, got {s!r}")
            return s in ("true", "True")
        return cast
    if isinstance(default, int):
        return int
    if isinstance(default, float):
        return float
    if isinstance(default, tuple):
        return lambda s: tuple(int(x.strip()) for x in s.split(","))
    return str


def _key_table():
    table = {}
    for section, cls in (("train", TrainConfig), ("augment", AugmentConfig),
                         ("model", ModelConfig)):
        for f in fields(cls):
            key = f.name if section != "model" else f"model_{f.name}"
            if key in table:
                raise AssertionError(f"duplicate config key {key}")
            table[key] = (section, f.name, _cast_for(f.default))
    return table


_KEYS = _key_table()


def parse_config(text, source="<config>"):
    """Parse ``key = value`` lines; '#' starts a comment; keys may appear once."""
    values = {"train": {}, "augment": {}, "model": {}}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS and key not in _RETIRED:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key in _RETIRED:
                if _cast_for(_RETIRED[key])(value) != _RETIRED[key]:
                    raise ValueError(f"retired key, can only be {_RETIRED[key]}")
                continue
            section, field_name, cast = _KEYS[key]
            values[section][field_name] = cast(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    try:
        return RunSettings(train=TrainConfig(**values["train"]),
                           augment=AugmentConfig(**values["augment"]),
                           model=ModelConfig(**values["model"]))
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path):
    return parse_config(Path(path).read_text(encoding="utf-8"), source=str(path))


def _format_section(prefix, cfg):
    out = []
    for f in fields(type(cfg)):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(str(x) for x in v)
        elif isinstance(v, bool):
            v = "true" if v else "false"
        out.append(f"{prefix}{f.name} = {v}\n")
    return "".join(out)


def format_config(settings):
    """All keys with their resolved values, one per line, definition order."""
    return (_format_section("", settings.train) + _format_section("", settings.augment)
            + format_model_config(settings.model))


def format_model_config(model):
    """The ``model_*`` lines of ``format_config``: a checkpoint's config text."""
    return _format_section("model_", model)


def parse_model_config(text, source):
    """ModelConfig from ``format_model_config`` text. Checkpoints written
    before that format name the fields without the ``model_`` prefix."""
    lines = [line if line.startswith("model_") or not line.strip() else "model_" + line
             for line in text.splitlines()]
    return parse_config("\n".join(lines), source).model


def default_settings():
    return RunSettings(train=TrainConfig(), augment=AugmentConfig(), model=ModelConfig())
