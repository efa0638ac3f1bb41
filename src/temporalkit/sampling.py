"""Frame-index and spatial-view generation.

Covers sparse segment sampling, strided clips in T-by-tau notation, seeded
training augmentation, and dense multi-clip/multi-crop/multi-scale test
plans. Everything here is index bookkeeping: plans are pure functions of
their arguments, views carry no pixels.

Spatial convention: views are expressed on a frame whose short side has been
resized to `scale`. Crop positions assume square scaled frames (the synthetic
data is square); the materializer clamps crops for anything else. Test-time
crops are placed deterministically at left/center/right rather than randomly,
so evaluation is reproducible. A dense plan is a plain tuple of views and
has no flipped views; only training views flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import ConfigError

SAMPLER_KINDS = ("strided", "segments")


@dataclass(frozen=True)
class ClipSamplerSpec:
    """Either `segments(K)` (one frame per temporal segment) or `strided(T, tau)`."""

    kind: str
    frames: int
    stride: int = 1

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"sampler kind must be one of {SAMPLER_KINDS}, got {self.kind!r}",
                              ("kind",))
        for name in ("frames", "stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"sampler {name} must be >= 1, got {getattr(self, name)}",
                                  (name,))

    @classmethod
    def segments(cls, k: int) -> "ClipSamplerSpec":
        return cls("segments", k)

    @classmethod
    def strided(cls, t: int, tau: int) -> "ClipSamplerSpec":
        return cls("strided", t, tau)

    def span(self, num_frames: int) -> int:
        """Temporal extent: a strided clip covers (T-1)*tau + 1 frames,
        segment sampling always spans the whole video."""
        if self.kind == "strided":
            return (self.frames - 1) * self.stride + 1
        return num_frames


@dataclass(frozen=True)
class View:
    """One spatio-temporal sample of a video: frames, scale, crop, flip."""

    frame_indices: tuple[int, ...]
    scale: int
    crop: tuple[int, int, int]  # (x, y, size) on the scaled frame
    flip: bool


def segment_indices(num_frames: int, k: int, mode: str = "center", seed: int = 0) -> list[int]:
    """One frame index per segment; segment g covers [gF//K, (g+1)F//K).

    Center mode picks gF//K + F//(2K). When F < K some segments are empty;
    each slot then takes its segment's last frame (ceil((g+1)F/K) - 1), which
    repeats frames as needed while staying monotone.
    """
    if k <= 0:
        raise ValueError(f"segment count must be positive, got {k}")
    if num_frames < 1:
        raise ValueError(f"need at least one frame, got {num_frames}")
    if mode not in ("center", "random"):
        raise ValueError(f"unknown segment mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "random" else None
    out = []
    for g in range(k):
        lo = g * num_frames // k
        hi = (g + 1) * num_frames // k
        if mode == "random" and hi > lo:
            idx = int(rng.integers(lo, hi))
        elif mode == "center" and num_frames >= k:
            idx = min(lo + num_frames // (2 * k), hi - 1)
        else:
            idx = ((g + 1) * num_frames + k - 1) // k - 1
        out.append(min(max(idx, 0), num_frames - 1))
    return out


def strided_clip_indices(num_frames: int, start: int, t: int, tau: int) -> list[int]:
    """start, start+tau, ... clamped to the last frame once the clip overruns."""
    if not 0 <= start < num_frames:
        raise ValueError(f"clip start {start} outside [0, {num_frames})")
    return [min(start + i * tau, num_frames - 1) for i in range(t)]


def _clip_frames(num_frames: int, spec: ClipSamplerSpec, start: int) -> tuple[int, ...]:
    if spec.kind == "strided":
        return tuple(strided_clip_indices(num_frames, start, spec.frames, spec.stride))
    return tuple(segment_indices(num_frames, spec.frames, "center"))


def train_augment_view(
    num_frames: int,
    spec: ClipSamplerSpec,
    scale_range: tuple[int, int],
    crop_size: int,
    seed: int,
    flip: bool = True,
) -> View:
    """Seeded training view: random clip position / per-segment frames, random
    short-side scale in [lo, hi], random crop position, and, when `flip`, a
    coin-flip flip. The coin is the last draw, so `flip` moves no other."""
    lo, hi = scale_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad scale range ({lo}, {hi})")
    if crop_size > lo:
        raise ValueError(f"crop {crop_size} larger than smallest scaled short side {lo}")
    rng = np.random.default_rng(seed)
    if spec.kind == "strided":
        start_max = max(0, num_frames - spec.span(num_frames))
        start = int(rng.integers(0, start_max + 1))
        frames = tuple(strided_clip_indices(num_frames, start, spec.frames, spec.stride))
    else:
        sub_seed = int(rng.integers(0, 2**63))
        frames = tuple(segment_indices(num_frames, spec.frames, "random", sub_seed))
    scale = int(rng.integers(lo, hi + 1))
    max_off = scale - crop_size
    x = int(rng.integers(0, max_off + 1))
    y = int(rng.integers(0, max_off + 1))
    return View(frames, scale, (x, y, crop_size), flip and bool(rng.random() < 0.5))


def _crop_positions(scale: int, crop_size: int, crops_per_clip: int) -> list[tuple[int, int]]:
    # Deterministic left/center/right placement along x; y stays centered.
    max_off = scale - crop_size
    mid = max_off // 2
    if crops_per_clip == 1:
        xs = [mid]
    elif crops_per_clip == 2:
        xs = [0, max_off]
    elif crops_per_clip == 3:
        xs = [0, mid, max_off]
    else:
        raise ValueError(f"crops_per_clip must be 1..3, got {crops_per_clip}")
    return [(x, mid) for x in xs]


def dense_test_plan(
    num_frames: int,
    spec: ClipSamplerSpec,
    num_clips: int = 10,
    crops_per_clip: int = 3,
    scales: tuple[int, ...] = (128, 144, 160),
    crop_size: int = 112,
) -> tuple[View, ...]:
    """Deterministic test plan of num_clips x crops x scales unflipped views.

    Clip i starts at i*(F - span) // (num_clips - 1); a single clip is
    centered. Clips overrunning short videos fall back to clamped indices.
    """
    if num_clips < 1:
        raise ValueError(f"num_clips must be >= 1, got {num_clips}")
    if not scales:
        raise ValueError("need at least one scale")
    if crop_size > min(scales):
        raise ValueError(f"crop {crop_size} larger than smallest scale {min(scales)}")
    span = spec.span(num_frames)
    room = max(0, num_frames - span)
    if num_clips == 1:
        starts = [room // 2]
    else:
        starts = [i * room // (num_clips - 1) for i in range(num_clips)]
    views = []
    for start in starts:
        frames = _clip_frames(num_frames, spec, min(start, num_frames - 1))
        for scale in scales:
            for x, y in _crop_positions(scale, crop_size, crops_per_clip):
                views.append(View(frames, scale, (x, y, crop_size), False))
    return tuple(views)
