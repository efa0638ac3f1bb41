"""Deterministic mini-batch training loop.

Every random choice an iteration makes (batch membership, augmentation,
dropout) is seeded from (config seed, iteration index), never from mutable
generator state. Two consequences the tests lean on: identical configs give
byte-identical checkpoints, and a run resumed from a mid-run checkpoint
replays the exact arithmetic of the uninterrupted run.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from . import ops
from .checkpoint import load_checkpoint, pack_training_state, save_checkpoint, unpack_training_state
from .config import (ConfigError, RunConfig, clip_spec_from_config, loss_config_from_run,
                     model_config_from_run, schedule_from_run, sgd_config_from_run)
from .evaluate import evaluate_predictions
from .losses import bce_scaled, class_weights, lsep, warp
from .metrics import LabelMatrix, map_eval
from .model import ModelConfig, ParamStore, backbone_backward, backbone_forward, init_params
from .optim import lr_at, sgd_step
from .sampling import ClipSamplerSpec, train_augment_view
from .synth import labels_to_matrix, read_manifest
from .videofile import load_video, materialize_view


class NonFiniteLossError(ArithmeticError):
    """A training step's loss is NaN or infinite; the run stopped before
    that step's backward pass and update."""


def _iter_seed(seed: int, iteration: int, stream: int) -> list[int]:
    return [seed & 0x7FFFFFFF, iteration, stream]


class Dataset:
    """Manifest-backed video set, decoded once and cached in memory as the
    files' u8 pixels (see `videofile`); views convert what they use."""

    def __init__(self, manifest_path, data_root, num_classes: int):
        self.rows = read_manifest(manifest_path)
        self.root = Path(data_root)
        self.labels = labels_to_matrix(self.rows, num_classes)
        self.ids = tuple(name for name, _, _ in self.rows)
        self._cache: dict[int, np.ndarray] = {}
        self.in_channels = None  # the first video's; every other must match it
        self.in_channels = self.frames(0).shape[3]

    def __len__(self) -> int:
        return len(self.rows)

    def num_frames(self, index: int) -> int:
        return self.rows[index][1]

    def frames(self, index: int) -> np.ndarray:
        got = self._cache.get(index)
        if got is None:
            path = self.root / self.rows[index][0]
            got = load_video(path)
            if got.shape[0] != self.rows[index][1]:
                raise ValueError(
                    f"{self.rows[index][0]}: manifest says {self.rows[index][1]} frames, "
                    f"file has {got.shape[0]}"
                )
            if self.in_channels not in (None, got.shape[3]):
                raise ValueError(f"{path}: {got.shape[3]} channels, "
                                 f"the first video has {self.in_channels}")
            self._cache[index] = got
        return got

    def label_matrix(self) -> LabelMatrix:
        return LabelMatrix(self.ids, self.labels)


def make_loss_fn(cfg: RunConfig, train_labels: np.ndarray):
    """loss(logits, targets) -> (value, logit gradient) of the run's loss. The
    BCE's class weights come from the training labels' per-class counts."""
    lcfg = loss_config_from_run(cfg)
    if lcfg.weight_rule != "none":  # LossConfig allows a rule for bce alone
        try:
            lcfg.class_weights = class_weights(train_labels.sum(axis=0), lcfg.weight_rule)
        except ValueError as exc:
            raise ConfigError(f"{cfg.train_manifest}: weight_rule = {lcfg.weight_rule}: {exc}",
                              ("weight_rule", "train_manifest")) from None
    return {"bce": lambda logits, targets: bce_scaled(logits, targets, lcfg),
            "lsep": lsep, "warp": warp}[lcfg.kind]


def _build_batch(cfg: RunConfig, data: Dataset, spec: ClipSamplerSpec, iteration: int,
                 clips: np.ndarray | None = None):
    """(clips, targets) of one step. The [N,T,C,H,W] clips are batch-innermost,
    so the stem reads them in order, and are written into `clips` when given."""
    rng = np.random.default_rng(_iter_seed(cfg.seed, iteration, 1))
    replace = len(data) < cfg.batch
    indices = rng.choice(len(data), size=cfg.batch, replace=replace)
    if clips is None:
        shape = (cfg.batch, spec.frames, data.in_channels, cfg.crop, cfg.crop)
        clips = ops.empty_batch_innermost(shape, 2)
    for j, idx in enumerate(indices):
        view = train_augment_view(
            data.num_frames(idx), spec, (cfg.scale_min, cfg.scale_max), cfg.crop,
            seed=_iter_seed(cfg.seed, iteration, 100 + j), flip=cfg.flip,
        )
        clips[j] = materialize_view(data.frames(idx), view)
    return clips, data.labels[indices]


def run_training(cfg: RunConfig, resume: str | None = None, log_fn=None) -> Path:
    """Train per config; writes checkpoints and a metrics log under out_dir.

    Returns the final checkpoint path. Log lines are
    iter<TAB>lr<TAB>loss<TAB>val_map with "-" when no eval ran that iteration.
    """
    root = cfg.resolve_data_root()
    if not cfg.train_manifest:
        raise ConfigError("train_manifest is required", ("train_manifest",))
    data = Dataset(cfg.train_manifest, root, cfg.classes)
    val = Dataset(cfg.val_manifest, root, cfg.classes) if cfg.val_manifest else None

    spec = clip_spec_from_config(cfg)
    mcfg = model_config_from_run(cfg, data.in_channels)
    params = init_params(mcfg, cfg.seed)
    velocity = {name: np.zeros_like(params[name]) for name in params.names()}
    start_iter = 0
    if resume:
        values, vel, start_iter = unpack_training_state(load_checkpoint(resume), resume)
        _load_into(params, values)
        for name in params.names():
            if name in vel:
                velocity[name][...] = vel[name]

    loss_fn = make_loss_fn(cfg, data.labels)
    sgd_cfg = sgd_config_from_run(cfg)
    schedule = schedule_from_run(cfg)

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "metrics.log"
    ckpt_path = out_dir / "checkpoint.xtck"
    if resume and log_path.exists():
        # the resumed run writes every line from its checkpoint's iteration on
        # again; a last line cut short by a crash has no newline and goes too
        lines = log_path.read_text().splitlines(keepends=True)
        log_path.write_text("".join(ln for ln in lines if ln.endswith("\n")
                                    and int(ln.split("\t")[0]) < start_iter))

    with open(log_path, "a" if resume else "w") as log:
        clips = None  # one batch buffer, refilled in place every step
        for k in range(start_iter, cfg.max_iters):
            clips, targets = _build_batch(cfg, data, spec, k, clips)
            logits, cache = backbone_forward(
                clips, params, mcfg, training=True,
                seed=_iter_seed(cfg.seed, k, 2), return_cache=True,
            )
            loss, g_logits = loss_fn(logits, targets)
            if not math.isfinite(loss):
                raise NonFiniteLossError(f"iteration {k}: loss is {loss}; "
                                         f"stopped before its update, checkpoints kept")
            params.zero_grads()
            backbone_backward(g_logits, cache, params, mcfg, clip_grad=False)
            lr = lr_at(schedule, sgd_cfg, k)
            sgd_step(params.values, params.grads, sgd_cfg, lr, velocity)

            val_map = "-"
            done = k + 1
            if val is not None and (done % cfg.eval_interval == 0 or done == cfg.max_iters):
                preds = evaluate_predictions(cfg, params, mcfg, val, mode="clip")
                val_map = f"{map_eval(preds, val.label_matrix(), 'sample'):.6f}"
            line = f"{k}\t{lr:.8g}\t{loss:.8g}\t{val_map}"
            log.write(line + "\n")
            if log_fn:
                log_fn(line)
            if done % cfg.checkpoint_interval == 0 and done != cfg.max_iters:
                save_checkpoint(out_dir / f"checkpoint_{done:06d}.xtck",
                                pack_training_state(params, velocity, done))
            if done == cfg.max_iters:
                save_checkpoint(ckpt_path, pack_training_state(params, velocity, done))
    return ckpt_path


def _load_into(params: ParamStore, values: dict) -> None:
    missing = [n for n in params.names() if n not in values]
    extra = [n for n in values if n not in params.values]
    if missing or extra:
        raise ValueError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
    for name in params.names():
        if values[name].shape != params[name].shape:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {values[name].shape}, "
                f"model expects {params[name].shape}"
            )
        params.values[name][...] = values[name]


def load_params_for_eval(cfg: RunConfig, mcfg: ModelConfig, checkpoint_path) -> ParamStore:
    params = init_params(mcfg, cfg.seed)
    values, _, _ = unpack_training_state(load_checkpoint(checkpoint_path), checkpoint_path)
    _load_into(params, values)
    return params
