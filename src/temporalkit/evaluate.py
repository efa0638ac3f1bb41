"""Clip and dense evaluation plus the text prediction interchange format.

Clip mode scores one centered view per video. Dense mode runs the full
multi-clip/multi-crop/multi-scale plan and averages class probabilities over
views, so the ensemble lives in probability space. Prediction files are
plain text, one line per video: id,p_0,...,p_{C-1} with 9 significant digits.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import ops, videofile
from .checkpoint import atomic_write, decimal_float, text_lines
from .config import clip_spec_from_config
from .metrics import LabelMatrix, PredictionMatrix
from .model import backbone_forward, predict_clip
from .sampling import dense_test_plan
from .videofile import materialize_view

# Clips per backbone_forward call. At 16 a chunk's im2col columns reach
# 19 MB, past the TLB's reach with 4 KiB pages, and the forward ran 25-30%
# faster or slower with whether transparent huge pages happened to back
# them, which differs from run to run. At 8 they stay under 10 MB, and the
# forward is faster and moves little either way. The chunk does not change
# the bits of any clip's probabilities.
_FORWARD_CHUNK = 8


def _view_probs(frames, views, params, mcfg) -> np.ndarray:
    """[num_views, C] probabilities for one video's views.

    A plan repeats views (clips that all start at frame 0, crops that all sit
    at the same spot on the smallest scale), so each distinct view is
    forwarded once and its row copied to every place it holds in the plan.
    The caller's mean then sees the same rows in the same order as if every
    view had been forwarded.
    The frames the views use are picked once, as float64 and T innermost
    (see `videofile`: u8 frames are converted there), and resized once per
    scale; a chunk of views spans scales, so every scale's frames are kept.
    Each chunk is then cut just before its forward: a view's crop and flip is
    a view of its scale's resized frames, copied in one pass into its row of a
    batch-innermost array (see `ops`) as runs of T values. resize_frames
    treats every frame on its own, so the clips carry the same bits as
    resizing view by view.
    """
    distinct = list(dict.fromkeys(views))
    used = sorted({i for v in distinct for i in v.frame_indices})
    at = {frame: k for k, frame in enumerate(used)}
    picked = videofile.pick_frames(frames, used)
    scaled = {s: videofile.resize_frames(picked, s) for s in dict.fromkeys(v.scale for v in distinct)}
    t, c, size = len(views[0].frame_indices), frames.shape[3], views[0].crop[2]
    probs = []
    for lo in range(0, len(distinct), _FORWARD_CHUNK):
        chunk = distinct[lo : lo + _FORWARD_CHUNK]
        clips = ops.empty_batch_innermost((len(chunk), t, c, size, size), 2)
        for k, v in enumerate(chunk):
            local = dataclasses.replace(v, frame_indices=tuple(at[i] for i in v.frame_indices))
            clips[k] = materialize_view(scaled[v.scale], local)
        probs.append(predict_clip(backbone_forward(clips, params, mcfg, training=False)))
    row = {v: k for k, v in enumerate(distinct)}
    return np.concatenate(probs, axis=0)[[row[v] for v in views]]


def evaluate_predictions(cfg, params, mcfg, data, mode: str = "clip") -> PredictionMatrix:
    """Score every video in `data` with the configured test plan."""
    if mode not in ("clip", "dense"):
        raise ValueError(f"unknown eval mode {mode!r}")
    spec = clip_spec_from_config(cfg)
    rows = []
    for idx in range(len(data)):
        f = data.num_frames(idx)
        if mode == "clip":
            plan = dense_test_plan(f, spec, num_clips=1, crops_per_clip=1,
                                   scales=(cfg.scales[0],), crop_size=cfg.crop)
        else:
            plan = dense_test_plan(f, spec, num_clips=10, crops_per_clip=3,
                                   scales=cfg.scales, crop_size=cfg.crop)
        probs = _view_probs(data.frames(idx), list(plan), params, mcfg)
        rows.append(probs.mean(axis=0))
    return PredictionMatrix(data.ids, np.stack(rows))


def check_prediction_ids(ids, path) -> None:
    """Refuse the first id that `read_predictions` would not read back from
    `path` as itself."""
    for sample_id in ids:
        if any(ch in sample_id for ch in ",\r\n") or sample_id != sample_id.lstrip():
            raise ValueError(f"prediction id {sample_id!r} would not read back from {path}: "
                             "ids may hold no comma or line break, nor start with white space")


def write_predictions(path, preds: PredictionMatrix) -> None:
    """Write `preds` in the text format; an id that `read_predictions` would
    not read back as itself fails before anything is written, so a previous
    file at `path` stays as it was."""
    check_prediction_ids(preds.ids, path)
    with atomic_write(path, text=True) as fh:
        for sample_id, row in zip(preds.ids, preds.probs):
            fh.write(sample_id + "," + ",".join(f"{p:.9g}" for p in row) + "\n")


def read_predictions(path) -> PredictionMatrix:
    first_line, rows = {}, []  # id -> the line it was read on, in file order
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: expected id,p_0,...")
        if rows and len(parts) - 1 != len(rows[0]):
            raise ValueError(
                f"{path}:{lineno}: {len(parts) - 1} probabilities, expected {len(rows[0])}"
            )
        try:
            row = [decimal_float(tok) for tok in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if not np.all(np.isfinite(row)):
            raise ValueError(f"{path}:{lineno}: probabilities must be finite")
        if min(row) < 0 or max(row) > 1:
            raise ValueError(f"{path}:{lineno}: probabilities must lie in [0, 1]")
        sample_id = parts[0]
        if sample_id in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate id {sample_id!r}, "
                             f"first on line {first_line[sample_id]}")
        first_line[sample_id] = lineno
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no prediction rows")
    return PredictionMatrix(tuple(first_line), np.array(rows))


def labels_for_ids(label_matrix: LabelMatrix, ids) -> LabelMatrix:
    """Reorder a label matrix to a prediction file's id order."""
    index = {sid: i for i, sid in enumerate(label_matrix.ids)}
    try:
        order = [index[sid] for sid in ids]
    except KeyError as exc:
        raise ValueError(f"no labels for prediction id {exc.args[0]!r}") from exc
    return LabelMatrix(tuple(ids), label_matrix.labels[order])
