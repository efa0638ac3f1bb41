"""Bit-exact named-tensor checkpoints.

Layout (little-endian):

    magic "XTCK" | version u32 | tensor count u32
    per tensor: name length u32 | UTF-8 name | rank u32 | dims u32... | float64 data

Entry order is preserved on load, so save -> load -> save reproduces the file
byte for byte. Optimizer state (velocity buffers, iteration counter) lives
under the reserved "__opt__/" name prefix next to the parameters.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

MAGIC = b"XTCK"
VERSION = 1
OPT_PREFIX = "__opt__/"
ITER_KEY = OPT_PREFIX + "iter"
VEL_PREFIX = OPT_PREFIX + "vel/"


class CheckpointFormatError(ValueError):
    pass


@contextlib.contextmanager
def atomic_write(path, text: bool = False):
    """Write `path` through a temp file in its directory, moved over it with
    os.replace only once the block finishes; on any error the temp file is
    removed and a previous `path` stays as it was."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x" if text else "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_checkpoint(path, entries: list[tuple[str, np.ndarray]]) -> None:
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for name, arr in entries:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


class _Reader:
    """Bounds-checked cursor over a checkpoint's bytes; `what` names the part
    being read, so a short file reports where it ends."""

    def __init__(self, path, data: bytes):
        self.path, self.view, self.pos, self.what = path, memoryview(data), 0, "header"

    def take(self, size: int) -> memoryview:
        left = len(self.view) - self.pos
        if size > left:
            raise CheckpointFormatError(
                f"{self.path}: truncated in {self.what} at byte offset {self.pos}: "
                f"need {size} bytes, {left} left"
            )
        self.pos += size
        return self.view[self.pos - size : self.pos]

    def u32s(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self.take(4 * count))


def load_checkpoint(path) -> list[tuple[str, np.ndarray]]:
    with open(path, "rb") as fh:
        reader = _Reader(path, fh.read())
    magic = bytes(reader.take(4))
    if magic != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
    version, count = reader.u32s(2)
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    entries = []
    for index in range(count):
        reader.what = f"the name of tensor {index}"
        (name_len,) = reader.u32s(1)
        try:
            name = str(reader.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(
                f"{path}: tensor {index} name is not UTF-8 at byte offset {reader.pos - name_len}"
            ) from exc
        reader.what = f"the dims of tensor {index} {name!r}"
        (rank,) = reader.u32s(1)
        dims = reader.u32s(rank)
        reader.what = f"the data of tensor {index} {name!r}"
        arr = np.frombuffer(reader.take(8 * math.prod(dims)), dtype="<f8").reshape(dims).copy()
        entries.append((name, arr))
    if reader.pos != len(reader.view):
        raise CheckpointFormatError(f"{path}: {len(reader.view) - reader.pos} trailing bytes")
    return entries


def pack_training_state(params, velocity: dict, iteration: int) -> list[tuple[str, np.ndarray]]:
    """Parameters in store order, then the iteration counter and velocities."""
    entries = [(name, params.values[name]) for name in params.names()]
    entries.append((ITER_KEY, np.array([float(iteration)])))
    for name in params.names():
        vel = velocity.get(name)
        entries.append((VEL_PREFIX + name, vel if vel is not None else np.zeros_like(params[name])))
    return entries


def unpack_training_state(entries):
    """Returns (param dict, velocity dict, iteration); plain params get
    everything when no optimizer section is present."""
    param_values, velocity, iteration = {}, {}, 0
    for name, arr in entries:
        if name == ITER_KEY:
            iteration = int(arr.ravel()[0])
        elif name.startswith(VEL_PREFIX):
            velocity[name[len(VEL_PREFIX) :]] = arr
        elif name.startswith(OPT_PREFIX):
            raise CheckpointFormatError(f"unknown reserved entry {name!r}")
        else:
            param_values[name] = arr
    return param_values, velocity, iteration
