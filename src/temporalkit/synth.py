"""Synthetic temporal benchmark: a bright square drifting over a dark field.

Six classes: motion direction {right, left, down, up} and size trend
{grows, shrinks}; every video carries exactly one of each, two labels total.
Videos are written in reversal pairs: the second of each pair is the first
with its frames played backwards, which flips both the direction label and
the size label. A model that ignores frame order therefore sees identical
inputs for the two halves of a pair and cannot tell their labels apart.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checkpoint import text_lines
from .videofile import write_video

CLASS_NAMES = ("right", "left", "down", "up", "grows", "shrinks")
NUM_CLASSES = len(CLASS_NAMES)

RIGHT, LEFT, DOWN, UP, GROWS, SHRINKS = range(6)
_REVERSED_LABEL = {RIGHT: LEFT, LEFT: RIGHT, DOWN: UP, UP: DOWN, GROWS: SHRINKS, SHRINKS: GROWS}

MANIFEST_NAME = "manifest.tsv"


def _render_square_video(rng, t, h, w, horizontal, growing):
    """Forward-time video: square moving right or down while growing or shrinking."""
    size0, size1 = 6.0, 6.0 + float(rng.uniform(4.0, 6.0))
    if not growing:
        size0, size1 = size1, size0
    max_size = max(size0, size1)
    travel = float(rng.uniform(8.0, 12.0))
    span = min(h, w) - max_size - travel - 2.0
    if span < 0:
        raise ValueError(f"frame {h}x{w} too small for the square animation")
    moving0 = 1.0 + float(rng.uniform(0.0, span))
    fixed = 1.0 + float(rng.uniform(0.0, min(h, w) - max_size - 2.0))
    brightness = float(rng.uniform(200.0, 255.0))
    noise = rng.integers(0, 9, size=(t, h, w, 1)).astype(np.float64)

    ys = np.arange(h, dtype=np.float64)
    xs = np.arange(w, dtype=np.float64)
    frames = np.empty((t, h, w, 1), dtype=np.uint8)
    for k in range(t):
        frac = k / max(t - 1, 1)
        size = size0 + (size1 - size0) * frac
        moving = moving0 + travel * frac
        cx, cy = (moving, fixed) if horizontal else (fixed, moving)
        # per-axis coverage of the square [c, c+size) gives anti-aliased edges
        cov_x = np.clip(np.minimum(xs + 1.0, cx + size) - np.maximum(xs, cx), 0.0, 1.0)
        cov_y = np.clip(np.minimum(ys + 1.0, cy + size) - np.maximum(ys, cy), 0.0, 1.0)
        img = brightness * cov_y[:, None] * cov_x[None, :]
        frames[k, :, :, 0] = np.clip(img + noise[k, :, :, 0], 0.0, 255.0).astype(np.uint8)

    motion = RIGHT if horizontal else DOWN
    size_label = GROWS if growing else SHRINKS
    return frames, (motion, size_label)


def generate_dataset(out_dir, num_videos: int, t: int = 16, h: int = 32, w: int = 32,
                     seed: int = 0, rel_prefix: str = "") -> Path:
    """Write num_videos paired videos plus a manifest; returns the manifest path.

    Manifest rows are `rel_prefix + filename`, so a split written to
    <root>/train with rel_prefix="train/" resolves under data_root=<root>.
    Deterministic for a given seed: identical bytes on every run.
    """
    if num_videos < 2 or num_videos % 2 != 0:
        raise ValueError(f"num_videos must be an even count >= 2, got {num_videos}")
    if t < 2:
        raise ValueError(f"need at least 2 frames, got {t}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for pair in range(num_videos // 2):
        # cycle the four base combinations so classes stay balanced
        frames, labels = _render_square_video(
            rng, t, h, w, horizontal=pair % 2 == 0, growing=(pair // 2) % 2 == 0
        )
        rev_labels = tuple(sorted(_REVERSED_LABEL[c] for c in labels))
        for idx, (fr, labs) in enumerate([(frames, labels), (frames[::-1], rev_labels)]):
            name = f"vid{2 * pair + idx:05d}.xvid"
            write_video(out_dir / name, fr)
            rows.append((rel_prefix + name, t, ",".join(str(c) for c in sorted(labs))))
    manifest = out_dir / MANIFEST_NAME
    with open(manifest, "w") as fh:
        for name, frames_count, labs in rows:
            fh.write(f"{name}\t{frames_count}\t{labs}\n")
    return manifest


def read_manifest(path) -> list[tuple[str, int, tuple[int, ...]]]:
    """Rows of (relative path, frame count, label indices)."""
    rows = []
    for lineno, line in text_lines(path):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        # strip no tabs: an empty label field is a video with no labels
        parts = line.strip(" \r\n").split("\t")
        if len(parts) != 3 or not parts[0]:
            raise ValueError(f"{path}:{lineno}: expected 'path<TAB>frames<TAB>labels'")
        name, count, labels = parts
        # decimal_int's rule, [0-9]+ per token, checked once per field; an
        # empty label field is no labels, and a blank entry in it fails
        tokens = labels.split(",") if labels else []
        digits = "".join(tokens)
        if not (count.isascii() and count.isdigit() and "" not in tokens
                and digits.isascii() and (digits.isdigit() or not tokens)):
            raise ValueError(f"{path}:{lineno}: frame count and labels must be integers, "
                             f"got {count!r} and {labels!r}")
        frames = int(count)
        label_ids = tuple(map(int, tokens))
        if frames < 1:
            raise ValueError(f"{path}:{lineno}: frame count must be >= 1")
        rows.append((name, frames, label_ids))
    if not rows:
        raise ValueError(f"{path}: empty manifest")
    return rows


def labels_to_matrix(rows, num_classes: int) -> np.ndarray:
    out = np.zeros((len(rows), num_classes))
    for i, (name, _, labels) in enumerate(rows):
        for c in labels:
            if not 0 <= c < num_classes:
                raise ValueError(f"{name}: label index {c} out of range for {num_classes} classes")
            out[i, c] = 1.0
    return out
