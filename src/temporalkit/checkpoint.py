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
import re
import struct

import numpy as np

MAGIC = b"XTCK"
VERSION = 1
OPT_PREFIX = "__opt__/"
ITER_KEY = OPT_PREFIX + "iter"
VEL_PREFIX = OPT_PREFIX + "vel/"
MAX_RANK = 32  # numpy 1.x's limit on an array's rank (2.x allows 64)


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


def text_lines(path, error=ValueError):
    """(line number, line) for each line of a UTF-8 text file; lines end at
    "\n" only. A line that is not UTF-8 raises `error` with path and line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                yield lineno, raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{lineno}: not UTF-8 text "
                            f"(byte {exc.start + 1} of the line)") from None


# inf and nan match too, so that a reader refusing non-finite values says so
_DECIMAL_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[+-]?[0-9]+)?"
                            r"|inf|infinity|nan)", re.IGNORECASE | re.ASCII)


def decimal_int(token: str) -> int:
    """A text token of ASCII digits only, [0-9]+. int() also takes signs,
    spaces, underscores and other scripts' digits ("1_6", a fullwidth "1")."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a decimal integer")
    return int(token)


def decimal_float(token: str) -> float:
    """A text token in plain ASCII decimal notation ("-0.5", "1e-3"), or a
    spelling of inf or nan. float() also takes spaces, underscores and
    other scripts' digits."""
    if not _DECIMAL_FLOAT.fullmatch(token):
        raise ValueError(f"{token!r} is not a decimal number")
    return float(token)


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
        if rank > MAX_RANK:
            raise CheckpointFormatError(
                f"{path}: tensor {index} {name!r} has rank {rank} at byte offset "
                f"{reader.pos - 4}, above the limit of {MAX_RANK}"
            )
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


def unpack_training_state(entries, path=None):
    """Returns (param dict, velocity dict, iteration); plain params get
    everything when no optimizer section is present. `path`, when given,
    starts each error message."""
    where = f"{path}: " if path is not None else ""
    param_values, velocity, iteration = {}, {}, 0
    for name, arr in entries:
        if name == ITER_KEY:
            value = float(arr.ravel()[0]) if arr.size == 1 else math.nan
            if not (math.isfinite(value) and value >= 0 and value == int(value)):
                raise CheckpointFormatError(
                    f"{where}entry {name!r} of shape {arr.shape} must hold one whole, "
                    f"non-negative iteration count, got {arr.ravel()[:4].tolist()}"
                )
            iteration = int(value)
        elif name.startswith(VEL_PREFIX):
            velocity[name[len(VEL_PREFIX) :]] = arr
        elif name.startswith(OPT_PREFIX):
            raise CheckpointFormatError(f"{where}unknown reserved entry {name!r}")
        else:
            param_values[name] = arr
    return param_values, velocity, iteration
