"""SGD with momentum and decoupled-from-nothing weight decay, plus learning
rate schedules: half-period cosine, milestone step decay, constant, each with
optional linear warmup.

Momentum convention (pinned): velocity accumulates gradient-plus-decay, the
learning rate multiplies the velocity only at the update. No Nesterov.
The warmup ramp ends exactly at the underlying schedule's value at k_w, so
cosine-plus-warmup is continuous at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import ConfigError

SCHEDULE_KINDS = ("cosine", "step", "constant")


@dataclass(frozen=True)
class SgdConfig:
    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}", ("base_lr",))
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}", ("momentum",))
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}",
                              ("weight_decay",))


@dataclass(frozen=True)
class Schedule:
    kind: str = "cosine"  # one of SCHEDULE_KINDS
    max_iter: int = 1
    milestones: tuple[int, ...] = ()
    factor: float = 0.1
    warmup_iters: int = 0
    warmup_start_factor: float = 0.1

    def __post_init__(self):
        # an error names the fields its rule checks, not the kind that selects it
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigError(f"schedule kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}",
                              ("kind",))
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}", ("max_iter",))
        if self.kind == "step":
            if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
                raise ConfigError(f"milestones must be strictly increasing: {self.milestones}",
                                  ("milestones",))
            if not 0.0 < self.factor < 1.0:
                raise ConfigError(f"step factor must be in (0,1), got {self.factor}", ("factor",))
        for name in ("warmup_iters", "warmup_start_factor"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}", (name,))


def _base_lr_at(schedule: Schedule, cfg: SgdConfig, k: int) -> float:
    if schedule.kind == "cosine":
        if k > schedule.max_iter:
            return 0.0
        # divide first: k/n_max hits 0.5 and 1.0 exactly, so the half-period
        # anchors come out as exact 0.5*base and 0
        return cfg.base_lr * 0.5 * (math.cos(math.pi * (k / schedule.max_iter)) + 1.0)
    if schedule.kind == "step":
        hits = sum(1 for m in schedule.milestones if m <= k)
        return cfg.base_lr * schedule.factor**hits
    return cfg.base_lr


def lr_at(schedule: Schedule, cfg: SgdConfig, k: int) -> float:
    """Learning rate at iteration k, warmup ramp included."""
    if k < 0:
        raise ValueError(f"iteration must be >= 0, got {k}")
    if schedule.warmup_iters > 0 and k < schedule.warmup_iters:
        start = schedule.warmup_start_factor * cfg.base_lr
        target = _base_lr_at(schedule, cfg, schedule.warmup_iters)
        return start + (target - start) * k / schedule.warmup_iters
    return _base_lr_at(schedule, cfg, k)


def sgd_step(params, grads, cfg: SgdConfig, lr: float, velocity) -> None:
    """In-place update over aligned dicts of arrays:

        g' = g + weight_decay * w
        v <- momentum * v + g'
        w <- w - lr * v
    """
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {w.shape} for {name!r}")
        gp = g + cfg.weight_decay * w if cfg.weight_decay else g
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(w)
            velocity[name] = v
        v *= cfg.momentum
        v += gp
        w -= lr * v
