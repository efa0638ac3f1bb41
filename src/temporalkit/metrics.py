"""Average precision, sample- and class-level mAP, and probability ensembling.

Tie handling is pinned: scores are ranked descending with ties broken by
ascending original index, so every result is deterministic. Rows or columns
without a single positive are skipped (not scored zero) when averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import as_f64


@dataclass
class PredictionMatrix:
    """[S, C] class probabilities keyed by unique sample ids."""

    ids: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        self.ids = tuple(self.ids)
        self.probs = as_f64(self.probs)
        if self.probs.ndim != 2 or self.probs.shape[0] != len(self.ids):
            raise ValueError(
                f"probs shape {self.probs.shape} does not match {len(self.ids)} ids"
            )
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("sample ids must be unique")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probs < 0) or np.any(self.probs > 1):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass
class LabelMatrix:
    """Binary [S, C] targets aligned with a PredictionMatrix by id."""

    ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        self.ids = tuple(self.ids)
        self.labels = as_f64(self.labels)
        if self.labels.ndim != 2 or self.labels.shape[0] != len(self.ids):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {len(self.ids)} ids"
            )
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be binary")


def average_precision(scores, labels) -> float | None:
    """AP of one ranking: mean precision at each positive's rank.

    Returns None when there are no positives (undefined, reported as a skip).
    """
    scores = as_f64(np.asarray(scores).ravel())
    labels = as_f64(np.asarray(labels).ravel())
    if scores.shape != labels.shape:
        raise ValueError(f"scores shape {scores.shape} != labels shape {labels.shape}")
    npos = int(labels.sum())
    if npos == 0:
        return None
    # lexsort: last key is primary -> descending score, then ascending index
    order = np.lexsort((np.arange(scores.size), -scores))
    hits = labels[order] == 1.0
    cum = np.cumsum(hits)
    ranks = np.flatnonzero(hits) + 1
    return float((cum[hits.nonzero()] / ranks).mean())


def _check_aligned(preds: PredictionMatrix, labels: LabelMatrix):
    if preds.probs.shape != labels.labels.shape:
        raise ValueError(
            f"prediction matrix {preds.probs.shape} vs label matrix {labels.labels.shape}"
        )
    for pid, lid in zip(preds.ids, labels.ids):
        if pid != lid:
            raise ValueError(f"misaligned ids: prediction {pid!r} vs label {lid!r}")
    if len(preds.ids) != len(labels.ids):
        raise ValueError("prediction and label id counts differ")


def map_eval(preds: PredictionMatrix, labels: LabelMatrix, mode: str = "sample") -> float:
    """Mean AP: per-sample class ranking ("sample") or per-class sample ranking
    ("class"). Rows/columns with no positives are excluded from the mean."""
    if mode not in ("sample", "class"):
        raise ValueError(f"unknown mAP mode {mode!r}")
    _check_aligned(preds, labels)
    p, y = preds.probs, labels.labels
    if mode == "sample":
        aps = [average_precision(p[s], y[s]) for s in range(p.shape[0])]
    else:
        aps = [average_precision(p[:, c], y[:, c]) for c in range(p.shape[1])]
    aps = [a for a in aps if a is not None]
    if not aps:
        raise ValueError("no positives anywhere; mAP undefined")
    return float(np.mean(aps))


def ensemble_average(preds: list[PredictionMatrix], weights=None) -> PredictionMatrix:
    """Per-cell weighted mean of probability matrices over identical id sets."""
    if not preds:
        raise ValueError("nothing to ensemble")
    first = preds[0]
    for pm in preds[1:]:
        if pm.ids != first.ids:
            bad = next((a for a, b in zip(pm.ids, first.ids) if a != b), "<count mismatch>")
            raise ValueError(f"ensemble id mismatch at {bad!r}")
        if pm.probs.shape != first.probs.shape:
            raise ValueError("ensemble inputs must share the class count")
    if weights is None:
        w = np.full(len(preds), 1.0 / len(preds))
    else:
        w = as_f64(weights)
        if w.shape != (len(preds),):
            raise ValueError(f"need one weight per input, got {w.shape}")
        for i, wi in enumerate(w):
            if not 0.0 <= wi < np.inf:  # NaN fails too
                raise ValueError(f"ensemble weight {i} is {wi}; "
                                 "weights must be finite and non-negative")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights must sum to 1, got {float(w.sum())}")
    out = np.zeros_like(first.probs)
    for wi, pm in zip(w, preds):
        out += wi * pm.probs
    return PredictionMatrix(first.ids, np.clip(out, 0.0, 1.0))
