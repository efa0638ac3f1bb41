"""Multi-label classification losses and class-frequency weighting.

Every loss returns (scalar, gradient w.r.t. its score/logit argument) so the
trainer never re-derives gradients. The scaled BCE multiplies the mean-reduced
loss by a constant factor; that factor interacts with momentum and weight
decay, which is exactly why it is not the same thing as raising the learning
rate (see the trajectory tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import ConfigError, as_f64, sigmoid

LOSS_KINDS = ("bce", "lsep", "warp")
# weight rule -> the class weights it makes from the ratios N_i / mean(N) of
# the per-class video counts; "none" weighs every class 1 and reads no count
_RATIO_WEIGHTS = {"ratio": lambda r: r, "sqrt_ratio": np.sqrt,
                  "inv_ratio": lambda r: 1.0 / r, "inv_sqrt_ratio": lambda r: 1.0 / np.sqrt(r)}
WEIGHT_RULES = ("none", *_RATIO_WEIGHTS)


def class_weights(counts, rule: str) -> np.ndarray:
    """Per-class weights from the vector of per-class video counts N_i."""
    counts = as_f64(counts)
    if rule == "none":
        return np.ones_like(counts)
    empty = np.flatnonzero(counts <= 0).tolist()
    if empty:
        raise ValueError(f"classes {empty} have no video; ratio rules need every count positive")
    return _RATIO_WEIGHTS[rule](counts / counts.mean())


@dataclass
class LossConfig:
    """The training loss: its kind, and the scaled BCE's scale and class
    weights. `weight_rule` names how a run makes the weights from its counts;
    the rank losses take no weights, so their rule must be "none"."""

    kind: str = "bce"
    scale: float = 160.0
    weight_rule: str = "none"
    class_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}",
                              ("kind",))
        if self.weight_rule not in WEIGHT_RULES:
            raise ConfigError(f"weight_rule must be one of {WEIGHT_RULES}, "
                              f"got {self.weight_rule!r}", ("weight_rule",))
        if self.kind != "bce" and self.weight_rule != "none":
            raise ConfigError(f"loss kind {self.kind!r} takes no class weights: weight_rule "
                              f"must be 'none', got {self.weight_rule!r}", ("kind", "weight_rule"))
        if self.scale <= 0:
            raise ConfigError(f"loss scale must be positive, got {self.scale}", ("scale",))
        if self.class_weights is not None:
            self.class_weights = as_f64(self.class_weights)
            if np.any(self.class_weights <= 0):
                raise ConfigError("class weights must all be positive", ("class_weights",))


def _check_targets(targets) -> np.ndarray:
    targets = as_f64(targets)
    if not np.all((targets == 0.0) | (targets == 1.0)):
        raise ValueError("targets must be exactly 0 or 1")
    return targets


def bce_scaled(logits, targets, cfg: LossConfig):
    """Scaled, optionally class-weighted binary cross-entropy with logits.

    L = scale * mean(w_c * [-y log s(z) - (1-y) log(1 - s(z))]) over all N*C
    entries, computed in the overflow-free form max(z,0) - z*y + log1p(e^-|z|).
    """
    z = as_f64(logits)
    y = _check_targets(targets)
    if z.shape != y.shape:
        raise ValueError(f"logits shape {z.shape} != targets shape {y.shape}")
    w = np.ones(z.shape[1]) if cfg.class_weights is None else cfg.class_weights
    if w.shape != (z.shape[1],):
        raise ValueError(f"class weights shape {w.shape} does not match C={z.shape[1]}")
    per_entry = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = cfg.scale * float((w[None, :] * per_entry).mean())
    grad = cfg.scale * w[None, :] * (sigmoid(z) - y) / z.size
    return loss, grad


def lsep(scores, targets):
    """Smooth pairwise rank loss: log(1 + sum_{p,n} exp(s_n - s_p)) per sample.

    Samples lacking a positive or a negative contribute zero. Mean over all
    samples. Stabilized through log-sum-exp so huge score gaps cannot overflow.
    """
    s = as_f64(scores)
    y = _check_targets(targets)
    n_samples = s.shape[0]
    total = 0.0
    grad = np.zeros_like(s)
    for i in range(n_samples):
        pos = np.flatnonzero(y[i] == 1.0)
        neg = np.flatnonzero(y[i] == 0.0)
        if pos.size == 0 or neg.size == 0:
            continue
        diffs = s[i, neg][None, :] - s[i, pos][:, None]  # [P, Q]
        m = diffs.max()
        lse = m + np.log(np.exp(diffs - m).sum())
        log_total = np.logaddexp(0.0, lse)  # log(1 + sum e^d)
        total += log_total
        coef = np.exp(diffs - log_total)
        grad[i, neg] += coef.sum(axis=0)
        grad[i, pos] -= coef.sum(axis=1)
    return total / n_samples, grad / n_samples


def _harmonic(r: int) -> float:
    return sum(1.0 / j for j in range(1, r + 1))


def warp(scores, targets):
    """Rank-weighted hinge loss with the exact rank (no negative sampling).

    Per positive p: r = #{negatives n : s_n + 1 > s_p}; the contribution
    is H(r) * mean over violating n of (1 - s_p + s_n), where H is the
    harmonic number. Positives with r = 0 contribute nothing. Sample losses
    are the sum of their positives' contributions, averaged over samples.
    """
    s = as_f64(scores)
    y = _check_targets(targets)
    n_samples = s.shape[0]
    total = 0.0
    grad = np.zeros_like(s)
    for i in range(n_samples):
        pos = np.flatnonzero(y[i] == 1.0)
        neg = np.flatnonzero(y[i] == 0.0)
        if pos.size == 0 or neg.size == 0:
            continue
        for p in pos:
            viol = 1.0 - s[i, p] + s[i, neg]
            violating = viol > 0.0
            r = int(violating.sum())
            if r == 0:
                continue
            hr = _harmonic(r)
            total += hr * viol[violating].mean()
            grad[i, neg[violating]] += hr / r
            grad[i, p] -= hr
    return total / n_samples, grad / n_samples
