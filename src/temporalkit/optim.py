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

SCHEDULE_KINDS = ("cosine", "step", "constant")


@dataclass(frozen=True)
class SgdConfig:
    base_lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class Schedule:
    kind: str = "cosine"  # one of SCHEDULE_KINDS
    max_iter: int = 1
    milestones: tuple[int, ...] = ()
    factor: float = 0.1
    warmup_iters: int = 0
    warmup_start_factor: float = 0.1

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "cosine" and self.max_iter < 1:
            raise ValueError(f"cosine schedule needs max_iter >= 1, got {self.max_iter}")
        if self.kind == "step":
            if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
                raise ValueError(f"milestones must be strictly increasing: {self.milestones}")
            if not 0.0 < self.factor < 1.0:
                raise ValueError(f"step factor must be in (0,1), got {self.factor}")
        if self.warmup_iters < 0:
            raise ValueError("warmup_iters must be >= 0")
        if self.warmup_start_factor < 0:
            raise ValueError(f"warmup_start_factor must be >= 0, got {self.warmup_start_factor}")


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
