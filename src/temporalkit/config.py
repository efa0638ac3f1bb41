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
from .losses import LOSS_KINDS, WEIGHT_RULES
from .model import HEAD_MODES, TEMPORAL_MODES, ModelConfig
from .optim import SCHEDULE_KINDS
from .sampling import SAMPLER_KINDS, ClipSamplerSpec

DATA_ROOT_ENV = "X_TEMPORAL_DATA_ROOT"


class ConfigError(ValueError):
    """A bad setting; `keys` names the settings a validation error is about."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


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
    return tuple(decimal_int(tok.strip()) for tok in text.split(",") if tok.strip() != "")


@dataclass
class RunConfig:
    temporal_mode: str = "none"
    groups: int = 2
    delta_max: float = 0.0  # 0 means frames/2
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
        for key, allowed in (("temporal_mode", TEMPORAL_MODES), ("sampler", SAMPLER_KINDS),
                             ("head", HEAD_MODES), ("loss", LOSS_KINDS),
                             ("weight_rule", WEIGHT_RULES), ("schedule", SCHEDULE_KINDS)):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}", (key,))
        for key in ("frames", "segments", "stride", "crop", "classes", "max_iters", "batch"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", (key,))
        if self.loss_scale <= 0 or self.lr <= 0:
            raise ConfigError("loss_scale and lr must be positive", ("loss_scale", "lr"))
        if not self.scales or self.crop > min(self.scales):
            raise ConfigError("crop must fit the smallest eval scale", ("crop", "scales"))
        if not 1 <= self.scale_min <= self.scale_max or self.crop > self.scale_min:
            raise ConfigError("need crop <= scale_min <= scale_max",
                              ("crop", "scale_min", "scale_max"))

    @property
    def resolved_delta_max(self) -> float:
        return self.delta_max if self.delta_max > 0 else self.frames / 2.0

    def resolve_data_root(self) -> str:
        if self.data_root:
            return self.data_root
        env = os.environ.get(DATA_ROOT_ENV, "")
        if env:
            return env
        raise ConfigError(f"data_root not set (flag, config file, or ${DATA_ROOT_ENV})")


def clip_spec_from_config(cfg: RunConfig) -> ClipSamplerSpec:
    if cfg.sampler == "strided":
        return ClipSamplerSpec.strided(cfg.frames, cfg.stride)
    return ClipSamplerSpec.segments(cfg.segments)


def model_config_from_run(cfg: RunConfig, in_channels: int) -> ModelConfig:
    spec = clip_spec_from_config(cfg)
    return ModelConfig(
        frames=spec.frames,
        in_channels=in_channels,
        height=cfg.crop,
        width=cfg.crop,
        num_classes=cfg.classes,
        temporal_mode=cfg.temporal_mode,
        num_groups=cfg.groups,
        delta_max=cfg.resolved_delta_max,
        fold=cfg.fold,
        channels=cfg.channels,
        dropout=cfg.dropout,
        head=cfg.head,
    )


# field annotations are strings under `from __future__ import annotations`
_PARSERS = {
    "str": lambda s: s,
    "int": decimal_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_list,
}

SCHEMA = {f.name: f.type for f in fields(RunConfig)}


def parse_value(key: str, text: str):
    if key not in SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return _PARSERS[SCHEMA[key]](text)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


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
        try:
            values[key] = parse_value(key, text.strip())
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        lines[key] = lineno
    return values, lines


def parse_config_file(path) -> dict:
    return _read_config_file(path)[0]


def build_config(file_path=None, overrides=None) -> RunConfig:
    """File values first, CLI overrides on top, then validate as a whole. A
    validation error about settings the file made names the file and lines."""
    merged, lines = {}, {}
    if file_path:
        merged, lines = _read_config_file(file_path)
    if overrides:
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
        if not where:
            raise
        raise ConfigError(f"{file_path}:{','.join(map(str, where))}: {exc}", exc.keys) from None
