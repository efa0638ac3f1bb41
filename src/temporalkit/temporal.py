"""Temporal mixing operators: learned fractional interlacing, fixed integer
channel shifting, and segment consensus.

The interlace operator is the differentiable one: per sample and channel
group it shifts frames by a real-valued offset (two-tap linear interpolation,
zero padding outside the clip) and rescales every temporal position by a
learned weight. Sign convention, pinned here and by the tests: a positive
offset samples from the future, y[t] draws on x[t + o].

Both steps are linear in the frames, so per sample and group they form one
T x T frame-mixing matrix M = diag(w) P, where row t of P holds the two
interpolation taps. On the batch-innermost layout (see `ops`) each group's
channels and pixels are N matrices [C'*H*W, T] with the frames contiguous,
and interlacing is one batched GEMM per group: y = x M^T, gx = gy M. The
weight and offset gradients come from the frame Gram matrix gy^T x.
The shift operator moves each channel's contiguous run by one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import ShapeError, as_f64, batch_last


@dataclass(frozen=True)
class GroupSpec:
    """Contiguous, disjoint channel intervals [start, stop) covering [0, C)."""

    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.ranges:
            raise ValueError("GroupSpec needs at least one group")
        prev = 0
        for i, (start, stop) in enumerate(self.ranges):
            if start != prev:
                raise ValueError(f"group {i} starts at {start}, expected {prev} (gaps/overlap)")
            if stop <= start:
                raise ValueError(f"group {i} is empty: [{start}, {stop})")
            prev = stop

    @property
    def num_groups(self) -> int:
        return len(self.ranges)

    @property
    def num_channels(self) -> int:
        return self.ranges[-1][1]

    @classmethod
    def even(cls, channels: int, num_groups: int) -> "GroupSpec":
        """Near-even contiguous split; earlier groups take the remainder."""
        if num_groups < 1 or num_groups > channels:
            raise ValueError(f"cannot split {channels} channels into {num_groups} groups")
        base, rem = divmod(channels, num_groups)
        ranges, start = [], 0
        for g in range(num_groups):
            stop = start + base + (1 if g < rem else 0)
            ranges.append((start, stop))
            start = stop
        return cls(tuple(ranges))


@dataclass
class InterlaceParams:
    """Per-sample fractional offsets [N,G] (frames) and weights [N,G,T]."""

    offsets: np.ndarray
    weights: np.ndarray
    delta_max: float

    def __post_init__(self):
        self.offsets = as_f64(self.offsets)
        self.weights = as_f64(self.weights)
        if self.offsets.ndim != 2:
            raise ShapeError(f"offsets must be [N,G], got rank {self.offsets.ndim}")
        if self.weights.ndim != 3:
            raise ShapeError(f"weights must be [N,G,T], got rank {self.weights.ndim}")
        if self.weights.shape[:2] != self.offsets.shape:
            raise ShapeError(
                f"weights N,G axes {self.weights.shape[:2]} do not match offsets {self.offsets.shape}"
            )
        if self.delta_max <= 0:
            raise ValueError(f"delta_max must be positive, got {self.delta_max}")
        if np.any(np.abs(self.offsets) > self.delta_max):
            worst = float(np.max(np.abs(self.offsets)))
            raise ValueError(f"offset magnitude {worst} exceeds delta_max {self.delta_max}")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")


@dataclass(frozen=True)
class ShiftSpec:
    """Fraction of channels shifted one frame each direction."""

    fold: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.fold <= 0.5:
            raise ValueError(f"fold fraction must be in (0, 0.5], got {self.fold}")

    def fold_channels(self, channels: int) -> int:
        fc = math.ceil(channels * self.fold)
        if 2 * fc > channels:
            raise ValueError(
                f"fold {self.fold} shifts 2*{fc} channels but only {channels} exist"
            )
        return fc


def _check_interlace_shapes(x, groups: GroupSpec, params: InterlaceParams):
    if x.ndim != 5:
        raise ShapeError(f"interlace input must be [N,T,C,H,W], got rank {x.ndim}")
    n, t, c = x.shape[:3]
    if groups.num_channels != c:
        raise ShapeError(
            f"group ranges cover {groups.num_channels} channels, input has {c}"
        )
    if params.offsets.shape != (n, groups.num_groups):
        raise ShapeError(
            f"offsets shape {params.offsets.shape} does not match (N,G)=({n},{groups.num_groups})"
        )
    if params.weights.shape != (n, groups.num_groups, t):
        raise ShapeError(
            f"weights shape {params.weights.shape} does not match (N,G,T)=({n},{groups.num_groups},{t})"
        )


def _per_sample(xm: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """Channels [c0, c1) of (C,H,W,N,T) memory as N matrices [C'*H*W, T]."""
    return xm[c0:c1].reshape(-1, *xm.shape[3:]).transpose(1, 0, 2)


def _mixing(params: InterlaceParams, t: int):
    """Unweighted interpolation matrices P and their offset derivative dP, [N,G,T,T].

    With k = floor(o) and a = o - k, row t of P holds 1-a at column t+k and a
    at column t+k+1 (columns outside [0, T) dropped: zero padding); row t of
    dP holds -1 and +1 there. dP is the derivative of P on [k, k+1), so at an
    integer offset it is the one-sided derivative from above.
    """
    k = np.floor(params.offsets)  # mathematical floor keeps a in [0,1) for o < 0
    a = (params.offsets - k)[:, :, None, None]
    src = np.arange(t)[:, None] + k[:, :, None, None]  # [N,G,T,1]: frame t+k
    cols = np.arange(t)
    near, far = cols == src, cols == src + 1
    return (1.0 - a) * near + a * far, far.astype(np.float64) - near


def interlace_forward(x, groups: GroupSpec, params: InterlaceParams) -> np.ndarray:
    """Shift each channel group by its fractional offset, then reweight frames.

    For offset o with k = floor(o), a = o - k:
        y[t] = w[t] * ((1-a) * x~[t+k] + a * x~[t+k+1])
    where x~ is x zero-padded outside the clip. Per sample and group that is
    one T x T frame-mixing matrix M = w * P (see `_mixing`) applied to every
    channel and pixel: y = x @ M.T over the frame axis, one batched GEMM per
    group on the batch-innermost layout. Output shape equals input.
    """
    x = as_f64(x)
    _check_interlace_shapes(x, groups, params)
    t = x.shape[1]
    mix = params.weights[:, :, :, None] * _mixing(params, t)[0]
    xm = batch_last(x, 2)
    ym = np.empty_like(xm)
    for g, (c0, c1) in enumerate(groups.ranges):
        np.matmul(_per_sample(xm, c0, c1), mix[:, g].transpose(0, 2, 1),
                  out=_per_sample(ym, c0, c1))
    return ym.transpose(3, 4, 0, 1, 2)


def interlace_backward(gy, x, groups: GroupSpec, params: InterlaceParams):
    """Gradients (gx, goffsets, gweights) through interlace_forward.

    gx = gy @ M per sample and group. With the frame Gram matrix
    G[t,s] = <gy[t], x[s]> summed over the group's channels and pixels,
    gweights[t] = sum_s P[t,s] G[t,s] and goffsets = sum_{t,s} w[t] dP[t,s] G[t,s];
    at exact integer offsets dP is the floor branch's one-sided derivative.
    """
    x = as_f64(x)
    _check_interlace_shapes(x, groups, params)
    t = x.shape[1]
    interp, d_interp = _mixing(params, t)
    w = params.weights[:, :, :, None]
    mix = w * interp
    xm, gym = batch_last(x, 2), batch_last(gy, 2)
    gxm = np.empty_like(xm)
    gram = np.empty(interp.shape)
    for g, (c0, c1) in enumerate(groups.ranges):
        gy_g = _per_sample(gym, c0, c1)
        np.matmul(gy_g, mix[:, g], out=_per_sample(gxm, c0, c1))
        np.matmul(gy_g.transpose(0, 2, 1), _per_sample(xm, c0, c1), out=gram[:, g])
    gw = (interp * gram).sum(axis=3)
    goff = (w * d_interp * gram).sum(axis=(2, 3))
    return gxm.transpose(3, 4, 0, 1, 2), goff, gw


def tsm_shift(x, spec: ShiftSpec) -> np.ndarray:
    """Shift the first fold of channels from t+1, the second fold from t-1."""
    x = as_f64(x)
    if x.ndim != 5:
        raise ShapeError(f"tsm_shift input must be [N,T,C,H,W], got rank {x.ndim}")
    return _shift_folds(x, spec.fold_channels(x.shape[2]), 1)


def tsm_shift_backward(gy, spec: ShiftSpec) -> np.ndarray:
    """Transpose shift: routes gradients back to their source frames."""
    gy = as_f64(gy)
    return _shift_folds(gy, spec.fold_channels(gy.shape[2]), -1)


def _shift_folds(x: np.ndarray, fc: int, k: int) -> np.ndarray:
    """out[t] = x[t+k] on the first fold, x[t-k] on the second, zero-padded;
    k is +1 or -1.

    In (C, H*W*N*T) memory a frame shift is a shift of each channel's run by
    one place; the frames it carries across a sample boundary are zeroed.
    """
    t = x.shape[1]
    xm = batch_last(x, 2)
    ym = np.empty_like(xm)
    src, dst = xm.reshape(xm.shape[0], -1), ym.reshape(ym.shape[0], -1)
    for fold, step in ((slice(0, fc), k), (slice(fc, 2 * fc), -k)):
        if step > 0:
            dst[fold, :-step] = src[fold, step:]
        else:
            dst[fold, -step:] = src[fold, :step]
        ym[fold, ..., t - 1 if step > 0 else 0] = 0.0
    dst[2 * fc :] = src[2 * fc :]
    return ym.transpose(3, 4, 0, 1, 2)


def segment_consensus(logits) -> np.ndarray:
    """Average per-segment logits [N,K,C] -> [N,C].

    Summation runs in value-sorted order, so the result is bitwise invariant
    under any permutation of the segments.
    """
    logits = as_f64(logits)
    if logits.ndim != 3:
        raise ShapeError(f"segment_consensus expects [N,K,C], got rank {logits.ndim}")
    return np.sort(logits, axis=1).mean(axis=1)


def segment_consensus_backward(gy, num_segments: int) -> np.ndarray:
    gy = as_f64(gy)
    return np.broadcast_to(gy[:, None, :] / num_segments, (gy.shape[0], num_segments, gy.shape[1])).copy()
