"""Seeded, bounded mutation of `.xtck` checkpoints and `.xvid` videos.

Each case cuts a valid file short at an offset inside one of its parts, or
flips a byte of its header or dims, or of the iteration counter's value.
Every case must either load with the shapes its own header states or raise
the module's named error, with the path in the message. The CLI must turn
each failure into exit 1 and one `error:` line, never a traceback.
"""

import itertools
import math
import struct

import numpy as np
import pytest

from temporalkit.checkpoint import (
    CheckpointFormatError,
    ITER_KEY,
    load_checkpoint,
    pack_training_state,
    save_checkpoint,
    unpack_training_state,
)
from temporalkit.cli import main
from temporalkit.model import ModelConfig, init_params
from temporalkit.videofile import VideoFormatError, read_video, write_video

CASES_PER_KIND = 40


def _checkpoint_bytes(tmp_path) -> bytes:
    cfg = ModelConfig(frames=4, in_channels=1, height=8, width=8, num_classes=3,
                      channels=(2,), dropout=0.0)
    params = init_params(cfg, seed=3)
    path = tmp_path / "valid.xtck"
    entries = pack_training_state(params, {}, 17)
    entries.insert(1, ("scalar", np.array(2.5)))  # a rank-0 tensor: no dims at all
    save_checkpoint(path, entries)
    return path.read_bytes()


def _checkpoint_layout(data: bytes):
    """Independent reading of the format: the header's shapes, and the byte
    ranges of the non-data parts, of each tensor's data, and of the
    iteration counter's value."""
    count = struct.unpack_from("<I", data, 8)[0]
    pos, shapes, meta, payload, iter_value = 12, [], [range(0, 12)], [], None
    for _ in range(count):
        start = pos
        (name_len,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4 : pos + 4 + name_len].decode()
        pos += 4 + name_len
        (rank,) = struct.unpack_from("<I", data, pos)
        dims = struct.unpack_from(f"<{rank}I", data, pos + 4)
        pos += 4 + 4 * rank
        meta.append(range(start, pos))
        size = 8 * math.prod(dims)
        payload.append(range(pos, pos + size))
        if name == ITER_KEY:
            iter_value = range(pos, pos + size)
        shapes.append(dims)
        pos += size
    return shapes, meta, payload, iter_value


def _flip(data: bytes, offset: int, mask: int) -> bytes:
    mutated = bytearray(data)
    mutated[offset] ^= mask
    return bytes(mutated)


def _cases(data: bytes, meta, payload, flip_too, seed):
    """(label, mutated bytes): cuts at every offset inside the header and dims
    plus seeded cuts in the data; seeded byte flips in `flip_too` ranges."""
    rng = np.random.default_rng(seed)
    cut_at = sorted({o for part in meta for o in part} | {len(data) - 1})
    data_offsets = [o for part in payload for o in part]
    cut_at += sorted(rng.choice(data_offsets, size=CASES_PER_KIND, replace=False).tolist())
    for size in cut_at:
        yield f"cut at {size}", data[:size]
    flippable = [o for part in flip_too for o in part]
    for offset in rng.choice(flippable, size=min(CASES_PER_KIND * 3, len(flippable)), replace=False):
        yield f"flip at {offset}", _flip(data, offset, int(rng.integers(1, 256)))


def test_mutated_checkpoints_load_as_stated_or_fail_by_name(tmp_path, capsys):
    data = _checkpoint_bytes(tmp_path)
    _, meta, payload, iter_value = _checkpoint_layout(data)
    loaded = failed = 0
    # every byte of the iteration count, flipped two ways: fractional, negative and huge counts
    iteration_flips = [(f"flip {mask:#x} at {o}", _flip(data, o, mask))
                       for o in iter_value for mask in (0x01, 0x80)]
    cases = itertools.chain(_cases(data, meta, payload, meta, seed=41), iteration_flips)
    for case, (label, mutated) in enumerate(cases):
        # a fresh file per case: truncating and rewriting one file can force a
        # flush per write on some filesystems
        path = tmp_path / f"mutated{case}.xtck"
        path.write_bytes(mutated)
        try:
            entries = load_checkpoint(path)
            unpack_training_state(entries, path)
        except CheckpointFormatError as exc:
            assert str(path) in str(exc), label
            failed += 1
        else:
            shapes = _checkpoint_layout(mutated)[0]
            assert [arr.shape for _, arr in entries] == [tuple(s) for s in shapes], label
            loaded += 1
        code = main(["inspect", str(path)])
        err = capsys.readouterr().err
        assert (code, err == "") in ((0, True), (1, False)), label
        assert "Traceback" not in err and err.count("\n") <= 1, label
    assert loaded and failed  # both outcomes occur, so the cases reach past the header


def test_mutated_videos_load_as_stated_or_fail_by_name(tmp_path):
    frames = np.random.default_rng(5).integers(0, 256, size=(3, 5, 4, 2), dtype=np.uint8)
    write_video(tmp_path / "valid.xvid", frames)
    data = (tmp_path / "valid.xvid").read_bytes()
    header, pixels = range(0, 24), range(24, len(data))
    loaded = failed = 0
    for case, (label, mutated) in enumerate(_cases(data, [header], [pixels], [header, pixels], seed=42)):
        path = tmp_path / f"mutated{case}.xvid"
        path.write_bytes(mutated)
        try:
            video = read_video(path)
        except VideoFormatError as exc:
            assert str(path) in str(exc), label
            failed += 1
        else:
            assert video.shape == struct.unpack_from("<4I", mutated, 8), label
            loaded += 1
    assert loaded and failed


@pytest.mark.parametrize("value", [np.zeros(0), np.zeros((2, 1)), np.array([np.nan]),
                                   np.array([np.inf]), np.array([-1.0]), np.array([2.5])])
def test_bad_iteration_entry_is_named(tmp_path, capsys, value):
    path = tmp_path / "bad_iter.xtck"
    save_checkpoint(path, [("alpha", np.ones(2)), (ITER_KEY, value)])
    with pytest.raises(CheckpointFormatError,
                       match=rf"{ITER_KEY}' of shape \({value.shape[0]},"):
        unpack_training_state(load_checkpoint(path), path)
    assert main(["inspect", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {path}: entry '{ITER_KEY}'")


def test_rank_beyond_numpy_is_named(tmp_path):
    # 33 dims of 1 and one double: well formed, but numpy 1.x stops at rank 32
    name = b"deep"
    body = struct.pack("<I", len(name)) + name + struct.pack("<34I", 33, *[1] * 33)
    path = tmp_path / "deep.xtck"
    path.write_bytes(b"XTCK" + struct.pack("<II", 1, 1) + body + struct.pack("<d", 1.0))
    with pytest.raises(CheckpointFormatError, match=rf"{path}: tensor 0 'deep' has rank 33"):
        load_checkpoint(path)
