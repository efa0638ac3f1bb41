"""Raw-frame video container and view materialization.

File layout (all integers little-endian u32):

    magic "XVID" | version | T | H | W | C | T*H*W*C pixel bytes (u8)

Pixels are frame-major, each frame stored H rows by W columns by C channels.
Loading maps u8 to float64 via /255. The format exists so that temporal
reversal pairs can be compared byte for byte, with no codec in the way.

Memory order: decoded frames have the shape [T,H,W,C] but are laid out as a
C-contiguous (H,W,C,T) array, frame index innermost. Every clip is read by
the convolutions batch-innermost, as (C,H,W,N,T) (see `ops`), so a pixel's
T values sit next to each other at every stage: `load_video` moves T
innermost once per video, `resize_frames` blends rows and columns of that
order, and a view's crop window reaches its batch row as runs of T values.
Any [T,H,W,C] array is accepted wherever frames are; frame-major input gives
the same bits, only more slowly.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .sampling import View

MAGIC = b"XVID"
VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


class VideoFormatError(ValueError):
    pass


def write_video(path, frames: np.ndarray) -> None:
    """Write [T,H,W,C] u8 frames."""
    frames = np.ascontiguousarray(frames, dtype=np.uint8)
    if frames.ndim != 4:
        raise VideoFormatError(f"frames must be [T,H,W,C], got rank {frames.ndim}")
    t, h, w, c = frames.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, t, h, w, c))
        fh.write(frames.tobytes())


def read_header(path) -> tuple[int, int, int, int]:
    """(T, H, W, C) from the file header."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise VideoFormatError(f"{path}: truncated header")
    magic, version, t, h, w, c = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise VideoFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise VideoFormatError(f"{path}: unsupported version {version}")
    return t, h, w, c


def read_video(path) -> np.ndarray:
    """Read back [T,H,W,C] u8 frames."""
    t, h, w, c = read_header(path)
    expected = t * h * w * c
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        data = fh.read()
    if len(data) != expected:
        raise VideoFormatError(f"{path}: payload is {len(data)} bytes, header implies {expected}")
    return np.frombuffer(data, dtype=np.uint8).reshape(t, h, w, c)


def load_video(path) -> np.ndarray:
    """Frames as float64 in [0,1], shape [T,H,W,C], laid out T innermost."""
    frames = read_video(path).transpose(1, 2, 3, 0).astype(np.float64, order="C")
    frames /= 255.0
    return frames.transpose(3, 0, 1, 2)


def pick_frames(frames: np.ndarray, indices) -> np.ndarray:
    """frames[indices] for [T,H,W,C] frames, T innermost: a view when T is
    innermost in `frames` already and the indices step evenly forward, else
    a gathered copy."""
    indices = list(indices)
    step = indices[1] - indices[0] if len(indices) > 1 else 1
    if frames.strides[0] == frames.itemsize and step > 0 \
            and all(b - a == step for a, b in zip(indices, indices[1:])):
        return frames[indices[0] : indices[-1] + 1 : step]
    return np.take(frames.transpose(1, 2, 3, 0), indices, axis=3).transpose(3, 0, 1, 2)


# ---------------------------------------------------------------------------
# resizing and view materialization
# ---------------------------------------------------------------------------

def _scaled_size(h: int, w: int, short_side: int) -> tuple[int, int]:
    """(height, width) of an h x w frame resized so its short side is short_side."""
    if h <= w:
        return short_side, max(1, round(w * short_side / h))
    return max(1, round(h * short_side / w)), short_side


def resize_frames(frames: np.ndarray, short_side: int, method: str = "bilinear",
                  window: tuple[int, int, int] | None = None) -> np.ndarray:
    """Resize [T,H,W,C] float frames so the short side equals short_side.

    Bilinear uses half-pixel sample centers; nearest is available when tests
    need exact pixel copies. With `window=(x, y, size)`, in View.crop's
    order, only rows [y, y+size) and columns [x, x+size) of the resized
    frames are computed and returned. Each output pixel reads only its own taps and weights, so
    they are the bits of the same pixels of the full resize.
    """
    if method not in ("bilinear", "nearest"):
        raise ValueError(f"unknown resize method {method!r}")
    _, h, w, _ = frames.shape
    oh, ow = _scaled_size(h, w, short_side)
    rows = cols = slice(None)
    if window is not None:
        x, y, size = window
        rows, cols = slice(y, y + size), slice(x, x + size)
    if (oh, ow) == (h, w):
        return frames if window is None else frames[:, rows, cols]
    src = frames.transpose(1, 2, 3, 0)  # [H,W,C,T]: contiguous for T-innermost frames
    if method == "nearest":
        ri = np.minimum((np.arange(oh)[rows] + 0.5) * h / oh, h - 1).astype(int)
        ci = np.minimum((np.arange(ow)[cols] + 0.5) * w / ow, w - 1).astype(int)
        return np.take(np.take(src, ri, axis=0), ci, axis=1).transpose(3, 0, 1, 2)

    def axis_weights(n_in, n_out, keep):
        pos = (np.arange(n_out)[keep] + 0.5) * n_in / n_out - 0.5
        lo = np.clip(np.floor(pos), 0, n_in - 1).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = np.clip(pos - lo, 0.0, 1.0)
        return lo, hi, frac

    rlo, rhi, rf = axis_weights(h, oh, rows)
    clo, chi, cf = axis_weights(w, ow, cols)
    rf, cf = rf[:, None, None, None], cf[None, :, None, None]
    top = np.take(src, rlo, axis=0) * (1 - rf) + np.take(src, rhi, axis=0) * rf
    out = np.take(top, clo, axis=1) * (1 - cf) + np.take(top, chi, axis=1) * cf
    return out.transpose(3, 0, 1, 2)


def materialize_view(frames: np.ndarray, view: View, method: str = "bilinear") -> np.ndarray:
    """Apply a View to float [T,H,W,C] frames -> clip [T_view, C, size, size].

    Only the crop window of each frame is resized. The clip may be a view of
    `frames` or of the resized window, in their memory order; T stays
    innermost for T-innermost frames, so copying it into a batch row moves
    runs of T values.
    """
    x, y, size = view.crop
    h, w = _scaled_size(*frames.shape[1:3], view.scale)
    x = min(x, w - size)
    y = min(y, h - size)
    if x < 0 or y < 0:
        raise ValueError(f"crop {view.crop} does not fit scaled frame {h}x{w}")
    clip = resize_frames(pick_frames(frames, view.frame_indices), view.scale, method,
                         window=(x, y, size))
    if view.flip:
        clip = clip[:, :, ::-1, :]
    return clip.transpose(0, 3, 1, 2)
