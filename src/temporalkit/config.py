"""Run configuration: a key=value text file merged with CLI overrides.

Unknown keys are rejected, values are type-checked against the schema below,
and flags always win over file values. `data_root` falls back to the
X_TEMPORAL_DATA_ROOT environment variable when neither source sets it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .checkpoint import decimal_float, decimal_int, text_lines
from .losses import LossConfig
from .model import ModelConfig
from .ops import ConfigError
from .optim import Schedule, SgdConfig
from .sampling import ClipSamplerSpec

DATA_ROOT_ENV = "X_TEMPORAL_DATA_ROOT"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    value = decimal_float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma-separated decimal integers. An empty value is (); a blank entry
    anywhere else ("8,,16", ",32,") is an error."""
    return tuple(decimal_int(tok.strip()) for tok in text.split(",")) if text.strip() else ()


@dataclass
class RunConfig:
    temporal_mode: str = "none"
    groups: int = 2
    delta_max: float = 0.0  # 0 means half the clip's frame count
    fold: float = 0.25
    frames: int = 16
    segments: int = 5
    stride: int = 1
    sampler: str = "strided"  # strided | segments
    crop: int = 32
    scales: tuple[int, ...] = (32, 36, 40)
    scale_min: int = 32
    scale_max: int = 40
    flip: bool = False
    head: str = "pool"
    channels: tuple[int, ...] = (8, 16, 32)
    classes: int = 6
    dropout: float = 0.5
    loss: str = "bce"
    loss_scale: float = 160.0
    weight_rule: str = "none"
    lr: float = 3e-4
    momentum: float = 0.9
    weight_decay: float = 1e-4
    schedule: str = "cosine"
    milestones: tuple[int, ...] = (10, 20)
    lr_factor: float = 0.1
    warmup_iters: int = 100
    warmup_start_factor: float = 0.1
    max_iters: int = 2000
    batch: int = 8
    seed: int = 0
    data_root: str = ""
    train_manifest: str = ""
    val_manifest: str = ""
    out_dir: str = "run"
    eval_interval: int = 250
    checkpoint_interval: int = 500

    def __post_init__(self):
        # The rules no object built from these settings has. The model, the
        # clip samplers (the unused one too), the loss, the optimizer and the
        # schedule own the others: each is built here, so that a bad value
        # fails now, named with the settings its failing rule read.
        for key in ("crop", "batch", "eval_interval", "checkpoint_interval"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", (key,))
        if self.crop > min(self.scales, default=0):
            raise ConfigError("crop must fit the smallest eval scale", ("crop", "scales"))
        if self.crop > self.scale_min:
            raise ConfigError("crop must fit scale_min", ("crop", "scale_min"))
        if self.scale_min > self.scale_max:
            raise ConfigError("scale_min must be <= scale_max", ("scale_min", "scale_max"))
        for kind, table in _SAMPLER_FIELDS.items():
            _build(ClipSamplerSpec, self, table, kind=kind)
        model_config_from_run(self, 1)
        loss_config_from_run(self)
        sgd_config_from_run(self)
        schedule_from_run(self)

    def resolve_data_root(self) -> str:
        if self.data_root:
            return self.data_root
        env = os.environ.get(DATA_ROOT_ENV, "")
        if env:
            return env
        raise ConfigError(f"data_root not set (flag, config file, or ${DATA_ROOT_ENV})")


def _build(owner, cfg: RunConfig, table: dict, **values):
    """`owner` built from `values` and, for each of its fields that `table`
    maps to a run key, that key's setting. A ConfigError it raises is raised
    again naming the run keys of the fields its rule read."""
    try:
        return owner(**{f: getattr(cfg, key) for f, key in table.items()}, **values)
    except ConfigError as exc:
        raise ConfigError(str(exc), tuple(table[f] for f in exc.keys if f in table)) from None


# Each owner's fields -> the run keys they are set from. Both sampler kinds
# are checked; the run's clips use the one `sampler` names.
_SAMPLER_FIELDS = {"strided": {"frames": "frames", "stride": "stride"},
                   "segments": {"frames": "segments"}}
_MODEL_FIELDS = {"height": "crop", "width": "crop", "num_classes": "classes",
                 "temporal_mode": "temporal_mode", "num_groups": "groups",
                 "delta_max": "delta_max", "fold": "fold", "channels": "channels",
                 "dropout": "dropout", "head": "head"}
_LOSS_FIELDS = {"kind": "loss", "scale": "loss_scale", "weight_rule": "weight_rule"}
_SGD_FIELDS = {"base_lr": "lr", "momentum": "momentum", "weight_decay": "weight_decay"}
_SCHEDULE_FIELDS = {"kind": "schedule", "max_iter": "max_iters", "milestones": "milestones",
                    "factor": "lr_factor", "warmup_iters": "warmup_iters",
                    "warmup_start_factor": "warmup_start_factor"}


def clip_spec_from_config(cfg: RunConfig) -> ClipSamplerSpec:
    # an unknown kind is built too, so that the spec's own rule rejects it
    table = _SAMPLER_FIELDS.get(cfg.sampler, _SAMPLER_FIELDS["strided"])
    return _build(ClipSamplerSpec, cfg, {"kind": "sampler", **table})


def model_config_from_run(cfg: RunConfig, in_channels: int) -> ModelConfig:
    return _build(ModelConfig, cfg, _MODEL_FIELDS, frames=clip_spec_from_config(cfg).frames,
                  in_channels=in_channels)


def loss_config_from_run(cfg: RunConfig) -> LossConfig:
    return _build(LossConfig, cfg, _LOSS_FIELDS)


def sgd_config_from_run(cfg: RunConfig) -> SgdConfig:
    return _build(SgdConfig, cfg, _SGD_FIELDS)


def schedule_from_run(cfg: RunConfig) -> Schedule:
    return _build(Schedule, cfg, _SCHEDULE_FIELDS)


# field annotations are strings under `from __future__ import annotations`
_PARSERS = {
    "str": lambda s: s,
    "int": decimal_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_list,
}

SCHEMA = {f.name: f.type for f in fields(RunConfig)}


def parse_value(key: str, text: str, where: str = ""):
    """`text` as `key`'s type. An error starts with `where`, the file line or
    flag that gave the value, when one is given."""
    try:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return _PARSERS[SCHEMA[key]](text)
    except ValueError as exc:
        message = str(exc) if isinstance(exc, ConfigError) else f"bad value for {key!r}: {exc}"
        raise ConfigError(f"{where}: {message}" if where else message) from exc


def _read_config_file(path) -> tuple[dict, dict]:
    """The file's values, and the line each key was last set on."""
    values, lines = {}, {}
    for lineno, line in text_lines(path, ConfigError):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, text = line.partition("=")
        key = key.strip()
        values[key] = parse_value(key, text.strip(), f"{path}:{lineno}")
        lines[key] = lineno
    return values, lines


def build_config(file_path=None, overrides=None) -> RunConfig:
    """File values first, CLI overrides on top, then validate as a whole. A
    validation error names the file lines and the flags that set the
    settings its rule read."""
    merged, lines = {}, {}
    overrides = overrides or {}
    if file_path:
        merged, lines = _read_config_file(file_path)
    for key, value in overrides.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
        lines.pop(key, None)
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    except ConfigError as exc:
        where = sorted(lines[key] for key in exc.keys if key in lines)
        sources = [f"{file_path}:{','.join(map(str, where))}"] if where else []
        sources += [f"--{key.replace('_', '-')}" for key in exc.keys if key in overrides]
        if not sources:
            raise
        raise ConfigError(f"{', '.join(sources)}: {exc}", exc.keys) from None
