"""Frames laid out T innermost: the view cutters give the bytes of the
frame-major formulas.

Decoded frames are [T,H,W,C] u8 arrays whose memory is (H,W,C,T). Dense
eval's `_view_probs` and training's `_build_batch` convert, resize and copy
in that order. For seeded random views they must give, byte for byte, what
`materialize_view` gives one view at a time on C-ordered frames, and what
the frame-major resize below (each frame resized whole, then cropped and
flipped) gives. On u8 frames they must give the bytes they give on the
frames' float64 pixels /255.
"""

import dataclasses

import numpy as np
import pytest

from temporalkit import evaluate, train, videofile
from temporalkit.config import RunConfig, clip_spec_from_config
from temporalkit.sampling import View, segment_indices, strided_clip_indices
from temporalkit.synth import generate_dataset
from temporalkit.videofile import load_video, materialize_view, resize_frames, write_video


def t_innermost(frames: np.ndarray) -> np.ndarray:
    """[T,H,W,C] frames with the memory of a C-contiguous (H,W,C,T) array."""
    return np.ascontiguousarray(frames.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_t_innermost(frames: np.ndarray) -> bool:
    return frames.transpose(1, 2, 3, 0).flags.c_contiguous


def frame_major_resize(frames, short_side):
    """Resize C-ordered [T,H,W,C] frames whole: half-pixel bilinear, rows
    first, frame axis outermost."""
    _, h, w, _ = frames.shape
    oh, ow = videofile._scaled_size(h, w, short_side)
    if (oh, ow) == (h, w):
        return frames

    def axis_weights(n_in, n_out):
        pos = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
        lo = np.clip(np.floor(pos), 0, n_in - 1).astype(int)
        return lo, np.minimum(lo + 1, n_in - 1), np.clip(pos - lo, 0.0, 1.0)

    rlo, rhi, rf = axis_weights(h, oh)
    clo, chi, cf = axis_weights(w, ow)
    top = frames[:, rlo] * (1 - rf)[None, :, None, None] + frames[:, rhi] * rf[None, :, None, None]
    return top[:, :, clo] * (1 - cf)[None, None, :, None] + top[:, :, chi] * cf[None, None, :, None]


def frame_major_view(frames, view):
    full = frame_major_resize(frames[list(view.frame_indices)], view.scale)
    h, w = full.shape[1:3]
    x, y, size = view.crop
    x, y = min(x, w - size), min(y, h - size)
    clip = full[:, y : y + size, x : x + size]
    if view.flip:
        clip = clip[:, :, ::-1]
    return clip.transpose(0, 3, 1, 2)


def random_views(rng, num_frames, kind, t, tau, scales, size, count):
    """Seeded views of one clip length and crop size: any start (clips that
    run past the end are clamped), any scale, any crop position (past the
    edge is clamped too), either flip."""
    views = []
    for _ in range(count):
        if kind == "strided":
            frames = strided_clip_indices(num_frames, int(rng.integers(num_frames)), t, tau)
        else:
            frames = segment_indices(num_frames, t, "random", int(rng.integers(2**31)))
        scale = int(rng.choice(scales))
        x, y = (int(v) for v in rng.integers(0, 2 * scale, size=2))
        views.append(View(tuple(frames), scale, (x, y, size), bool(rng.integers(2))))
    return views


SHAPES = [(20, 36, 44, 3), (12, 40, 32, 1), (24, 32, 32, 2)]
SAMPLERS = [("strided", 1), ("strided", 2), ("segments", 1)]


def _bytes(clip):
    return np.ascontiguousarray(clip).tobytes()


def forwarded_clips(monkeypatch, frames, views) -> list:
    """The clip chunks dense eval's `_view_probs` passes to `backbone_forward`
    for `views`, in call order, through a stand-in forward."""
    chunks = []

    def forward(clips, params, mcfg, training):
        chunks.append(clips)
        return np.zeros((len(clips), 1))

    monkeypatch.setattr(evaluate, "backbone_forward", forward)
    evaluate._view_probs(frames, views, None, None)
    return chunks


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind,tau", SAMPLERS)
def test_cut_clips_give_the_bytes_of_view_by_view_cuts(monkeypatch, shape, kind, tau):
    rng = np.random.default_rng([shape[0], shape[1], tau, len(kind)])
    frames = rng.random(shape)
    short = min(shape[1:3])
    views = random_views(rng, shape[0], kind, 6, tau, (short, short + 4, short + 9), 28, 40)
    views += [dataclasses.replace(views[0], frame_indices=tuple(strided_clip_indices(
        shape[0], shape[0] - 2, 6, tau)))]  # clamped at the end of the video
    distinct = list(dict.fromkeys(views))
    chunks = forwarded_clips(monkeypatch, t_innermost(frames), views)
    assert [c.shape for c in chunks] == [
        (min(evaluate._FORWARD_CHUNK, len(distinct) - lo), 6, shape[3], 28, 28)
        for lo in range(0, len(distinct), evaluate._FORWARD_CHUNK)]
    clips = [clip for chunk in chunks for clip in chunk]
    for k, v in enumerate(distinct):
        want = _bytes(frame_major_view(frames, v))
        assert _bytes(materialize_view(frames, v)) == want, v
        assert _bytes(clips[k]) == want, v


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind,tau", SAMPLERS)
def test_views_of_t_innermost_frames_give_the_bytes_of_c_ordered_ones(shape, kind, tau):
    rng = np.random.default_rng([shape[0], shape[2], tau, 8])
    frames = rng.random(shape)
    short = min(shape[1:3])
    inner = t_innermost(frames)
    for v in random_views(rng, shape[0], kind, 5, tau, (short, short + 3, short + 8), 24, 30):
        want = _bytes(frame_major_view(frames, v))
        assert _bytes(materialize_view(frames, v)) == want, v
        assert _bytes(materialize_view(inner, v)) == want, v
    for scale in (short - 5, short + 7):
        assert _bytes(resize_frames(inner, scale)) == _bytes(frame_major_resize(frames, scale))


class _Frames:
    """The slice of a Dataset that _build_batch reads, over in-memory videos."""

    def __init__(self, videos, num_classes):
        self.videos = videos
        self.labels = np.eye(num_classes)[np.arange(len(videos)) % num_classes]
        self.in_channels = videos[0].shape[3]

    def __len__(self):
        return len(self.videos)

    def num_frames(self, index):
        return self.videos[index].shape[0]

    def frames(self, index):
        return self.videos[index]


@pytest.mark.parametrize("sampler,stride", [("strided", 1), ("strided", 2), ("segments", 1)])
def test_build_batch_gives_the_bytes_of_view_by_view_cuts(monkeypatch, sampler, stride):
    rng = np.random.default_rng(stride + len(sampler))
    videos = [rng.random((int(rng.integers(16, 24)), 36, 44, 3)) for _ in range(5)]
    cfg = RunConfig(sampler=sampler, frames=6, stride=stride, segments=6, batch=7, flip=True,
                    crop=32, scale_min=32, scale_max=40)
    data = _Frames([t_innermost(v) for v in videos], cfg.classes)
    seen = []
    real = train.materialize_view

    def record(frames, view):
        seen.append((next(i for i, v in enumerate(data.videos) if v is frames), view))
        return real(frames, view)

    monkeypatch.setattr(train, "materialize_view", record)
    spec = clip_spec_from_config(cfg)
    buffer = None
    for iteration in range(4):
        seen.clear()
        clips, _ = train._build_batch(cfg, data, spec, iteration, buffer)
        assert buffer is None or clips is buffer
        buffer = clips
        assert len(seen) == cfg.batch
        for j, (index, view) in enumerate(seen):
            want = _bytes(frame_major_view(videos[index], view))
            assert _bytes(materialize_view(videos[index], view)) == want, view
            assert _bytes(clips[j]) == want, view


def test_load_video_holds_one_t_innermost_copy(tmp_path):
    raw = np.random.default_rng(8).integers(0, 256, size=(5, 6, 7, 3), dtype=np.uint8)
    write_video(tmp_path / "v.xvid", raw)
    frames = load_video(tmp_path / "v.xvid")
    assert frames.shape == raw.shape and is_t_innermost(frames)
    # the u8 frames are the only buffer: no other decoded copy stays behind them
    assert frames.dtype == np.uint8 and frames.tobytes() == raw.tobytes()
    assert frames.base.flags.owndata and frames.base.nbytes == frames.nbytes == raw.nbytes
    # a view's frames are the float64 pixels /255, T innermost
    for indices in (range(5), [4, 0, 2, 2]):  # the slice and the gather path
        picked = videofile.pick_frames(frames, indices)
        assert is_t_innermost(picked)
        assert picked.tobytes() == (raw[list(indices)].astype(np.float64) / 255.0).tobytes()
    view = View((3, 1), scale=6, crop=(1, 0, 6), flip=True)  # no resize: the picked pixels
    assert _bytes(materialize_view(frames, view)) == _bytes(
        frame_major_view(raw.astype(np.float64) / 255.0, view))


def _evenly_forward(indices):
    steps = {b - a for a, b in zip(indices, indices[1:])}
    return len(steps) <= 1 and min(steps, default=1) > 0


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind,tau", SAMPLERS)
def test_u8_frames_give_the_bytes_of_their_float_pixels(monkeypatch, shape, kind, tau):
    rng = np.random.default_rng([shape[0], shape[3], tau, len(kind), 8])
    raw = rng.integers(0, 256, size=shape, dtype=np.uint8)
    u8, unit = t_innermost(raw), t_innermost(raw.astype(np.float64) / 255.0)
    short = min(shape[1:3])
    views = random_views(rng, shape[0], kind, 6, tau, (short, short + 4, short + 9), 28, 40)
    views += [dataclasses.replace(views[0], frame_indices=tuple(range(0, 12, 2))),
              dataclasses.replace(views[1], frame_indices=(shape[0] - 1, 0, 2, 2, 5, 1))]
    # True: the slice path, False: the gather path
    assert {_evenly_forward(v.frame_indices) for v in views} == {True, False}
    assert {v.flip for v in views} == {True, False}
    for v in views:
        picked = videofile.pick_frames(u8, v.frame_indices)
        assert picked.dtype == np.float64 and is_t_innermost(picked)
        assert _bytes(picked) == _bytes(videofile.pick_frames(unit, v.frame_indices)), v
        assert _bytes(materialize_view(u8, v)) == _bytes(materialize_view(unit, v)), v
    assert [c.tobytes() for c in forwarded_clips(monkeypatch, u8, views)] == \
        [c.tobytes() for c in forwarded_clips(monkeypatch, unit, views)]


def test_dataset_keeps_each_video_as_its_u8_bytes(tmp_path):
    k, t, h, w = 4, 12, 32, 40
    manifest = generate_dataset(tmp_path, k, t=t, h=h, w=w, seed=3)
    data = train.Dataset(manifest, tmp_path, 6)
    videos = [data.frames(i) for i in range(k)]
    assert all(data.frames(i) is videos[i] for i in range(k))  # decoded once
    buffers = {id(v.base): v.base for v in videos}
    assert len(buffers) == k
    for v in videos:
        assert v.dtype == np.uint8 and v.shape == (t, h, w, 1) and is_t_innermost(v)
        assert v.base.flags.owndata and v.base.base is None
    assert sum(b.nbytes for b in buffers.values()) == k * t * h * w * 1

