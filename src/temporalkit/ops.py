"""Dense tensor primitives with hand-derived backward passes.

All arrays are float64. Every op is a pure function; the backward companions
take the upstream gradient plus whatever the forward saw, and return
gradients for each differentiable input in argument order. No graph, no
tape: callers chain backwards by hand.

Memory order: video activations are batch-innermost. A [N,T,C,H,W] clip
tensor keeps that shape but is laid out in memory as (C,H,W,N,T), and the
[N*T,C,H,W] stack a convolution sees as (C,H,W,N*T), so every column copy
and tap scatter runs over N*T contiguous values. The ops accept any strides:
an input in another order is transposed once on entry and gives the same
values. conv2d and its backward, the spatial pool's backward and the
temporal ops return batch-innermost arrays; elementwise ops keep the order
they are given.

Second lane: conv2d's forward splits its output rows in two halves, and
interlacing's forward sets its last channel group apart, by size alone
(HANDOFF_MADDS, one threshold); both backwards set their parameter
gradients apart from the input gradient. The lane decides only which thread
runs the part set apart: one private worker thread, on a machine with more
than one usable CPU, while the calling thread does the rest and joins it
before the op returns; otherwise the calling thread runs it inline. Every
result is the same bits with one CPU or two. The worker only runs numpy on
arrays it is handed.

BLAS thread policy: the lane takes the second CPU, so when this process may
use more than one CPU and neither OPENBLAS_NUM_THREADS nor OMP_NUM_THREADS
is set, importing this module gives numpy's bundled OpenBLAS one thread
(BLAS_THREADS_PINNED is then True). Its own threads would otherwise spin on
the core the lane needs. A thread count set in the environment is left as
it is, and where numpy has no bundled scipy-openblas nothing changes.

Heap policy: importing this module (every compute path does) pins glibc's
mmap and trim thresholds to 32 MiB with one `mallopt` call each. The
multi-MB temporaries of a forward or backward are then taken from the heap
and handed back to it, instead of being mapped fresh and unmapped or trimmed
at every call, so a repeated call no longer faults their pages in again (see
HEAP_THRESHOLD_BYTES). It changes no arithmetic. Where the C library has no
mallopt (macOS, Windows) or ignores it (musl) nothing changes, and
HEAP_THRESHOLDS_PINNED is False.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from functools import partial

import numpy as np

# ---------------------------------------------------------------------------
# heap policy
# ---------------------------------------------------------------------------

# glibc's mallopt parameters, and the value both are pinned to. By default
# glibc serves a block above its mmap threshold (128 KiB at start, raised
# dynamically) with a fresh mmap and gives it back with munmap, and trims
# the top of the heap once more than the trim threshold is free there. A
# forward's multi-MB temporaries (im2col columns, padded inputs, the clip
# array) are freed at its end, so every call faulted its pages in again:
# 1,773-2,143 minor faults per repeated eval backbone_forward of 7-8
# 16x32x32 clips, at about 0.7 us each. Pinned, the freed blocks stay in the
# heap and the next call reuses them: 0-1 faults per call. 32 MiB is glibc's
# own cap for its dynamic mmap threshold on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX)
# and above one dense-eval forward's temporaries (the 70-view clip array is
# 9.2 MB). Measured on a 2-vCPU x86-64 host, OpenBLAS at 1 thread, in
# alternating 25 s perfbench pairs: eval-dense-repeat went from 77.5-83.5
# to 118.3-122.3 videos/s at its reference speed (+54% at the median,
# faster in 11 of 11 pairs), with peak RSS +2.2%; train-tin,
# eval-dense-distinct and gradcheck stayed within the spread of their own
# runs. Dropped variants: a 256 MiB trim threshold cost train-tin 1-4% in
# 7 of 7 pairs; a 4 MiB mmap threshold left the columns of 8-clip chunks
# (4.7 MB) on mmap, and dense-distinct then took about 9,400 faults per
# video.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_THRESHOLD_BYTES = 32 << 20


def _pin_heap_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds; False where the C library has no
    mallopt (macOS, Windows) or ignores it (musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(M_MMAP_THRESHOLD, HEAP_THRESHOLD_BYTES) == 1,
                mallopt(M_TRIM_THRESHOLD, HEAP_THRESHOLD_BYTES) == 1])


HEAP_THRESHOLDS_PINNED = _pin_heap_thresholds()


# ---------------------------------------------------------------------------
# BLAS thread policy
# ---------------------------------------------------------------------------

def _lane_cpus() -> bool:
    """True when this process may run on more than one CPU: it has a lane.
    Where the affinity mask cannot be read (macOS, Windows), the machine's
    CPU count stands in for it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _pin_blas_threads() -> bool:
    """Give the bundled OpenBLAS one thread when the lane takes the second
    CPU and the environment sets no thread count; False where it does not
    apply or numpy's OpenBLAS has no such setter."""
    if any(os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        return False
    if not _lane_cpus():
        return False
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    try:  # numpy's wheels bundle OpenBLAS with a symbol suffix
        setter = ctypes.CDLL(libs[0]).scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return False
    setter.argtypes, setter.restype = (ctypes.c_int,), None
    setter(1)
    return True


BLAS_THREADS_PINNED = _pin_blas_threads()


class ShapeError(ValueError):
    """An operand's dimensions do not conform; the message names the axis."""


class ConfigError(ValueError):
    """A bad setting; `keys` names the fields the failing rule read, in the
    terms of the object that raised it."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


def as_f64(x) -> np.ndarray:
    """x as float64, copied only when it has another dtype; any strides."""
    return np.asarray(x, dtype=np.float64)


def batch_last(x, lead: int = 1) -> np.ndarray:
    """The memory of x as a C-contiguous array with its first `lead` axes moved
    last: (C,H,W,B) for [B,C,H,W], (C,H,W,N,T) for [N,T,C,H,W].

    A view when x is batch-innermost already, a copy otherwise.
    """
    x = as_f64(x)
    return np.ascontiguousarray(x.transpose(tuple(range(lead, x.ndim)) + tuple(range(lead))))


def _lead_first(m: np.ndarray, lead: int) -> np.ndarray:
    """The inverse of batch_last's transposition: m's last `lead` axes first."""
    rest = m.ndim - lead
    return m.transpose(tuple(range(rest, m.ndim)) + tuple(range(rest)))


def batch_innermost(x, lead: int = 1) -> np.ndarray:
    """x with its first `lead` axes innermost in memory and its shape unchanged."""
    return _lead_first(batch_last(x, lead), lead)


def empty_batch_innermost(shape, lead: int = 1) -> np.ndarray:
    """An uninitialized float64 array of `shape` with its first `lead` axes
    innermost in memory. Writing a [T,C,H,W] clip into row j of a
    [N,T,C,H,W] one (lead 2) transposes it into place, so a batch assembled
    this way needs no second copy to reach the order the convolutions read.
    """
    return _lead_first(np.empty(tuple(shape[lead:]) + tuple(shape[:lead])), lead)


# ---------------------------------------------------------------------------
# second lane
# ---------------------------------------------------------------------------

# A hand-off pays when the work it moves has at least this many multiply-adds;
# the same number decides, from size alone, whether conv2d's forward splits
# its output rows. Measured on a 2-vCPU x86-64 host, OpenBLAS at 1 thread:
# submitting an empty closure to the idle worker and joining it takes 17 us
# at the median and 42 us at the 90th percentile, the time of 0.5M-2M
# multiply-adds of the weight-gradient GEMMs at the train-tin shapes (11-50
# per ns). Backward: in a tin forward+backward at batch 8, 16x32x32, channels
# 8/16/32, every conv and interlace backward of 2.36M multiply-adds or more
# was 40-410 us faster on the lane, and every one of 1.05M or fewer was not
# (-5 to +96 us); 1.5M lies in that unmeasured gap. Forward, timing
# whole eval backbone_forward calls of 16x32x32 clips with the threshold at
# 1M, 1.5M, 2M and 3M, alternating in one process: at 8 tsm clips the
# forward took 1.66-2.69 ms serial, 13-26% less at 1M-2M and 9-18% less at
# 3M; at 6 clips 17-18% less at 1M-1.5M; at 4 clips 6-12% less in two of
# three runs and 3-8% more in one. At 2 clips (1.18M per conv) a 1M
# threshold cost 15% and 1.5M nothing. Per call, conv splits of 1.8M-4.7M
# multiply-adds were faster in 36 of 49 timings (by up to 140 us), and most
# of 1.2M or fewer were slower (by 5-37 us); interlacing's two groups at 8
# clips of block 0 (4.2M) went 225 -> 136 us.
HANDOFF_MADDS = 1_500_000


_lane_lock = threading.Lock()
_lane_pool = None


def _lane():
    """The second lane: a one-worker pool made at the first hand-off, whose
    thread starts with its first task; None when this process may run on
    one CPU only."""
    global _lane_pool
    with _lane_lock:
        if _lane_pool is None and _lane_cpus():
            # imported here: it takes 3.5 ms, which a run without a hand-off never needs
            from concurrent.futures import ThreadPoolExecutor

            _lane_pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="temporalkit-lane")
        return _lane_pool


def _forget_lane():
    # a forked child has no worker thread; its first hand-off makes its own
    global _lane_lock, _lane_pool
    _lane_lock, _lane_pool = threading.Lock(), None


os.register_at_fork(after_in_child=_forget_lane)


def on_lane(fn, madds: int):
    """Start fn() on the second lane; returns a join that gives its result.

    fn runs inline, before this returns, when `madds` (the multiply-adds of
    its GEMM) is below HANDOFF_MADDS or there is no lane. fn must not call
    into temporalkit: it may only run numpy on the arrays it closes over.
    """
    lane = _lane() if madds >= HANDOFF_MADDS else None
    if lane is None:
        out = fn()
        return lambda: out
    return lane.submit(fn).result


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _unfold(xm: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """The (C,kh,kw,Ho,Wo,B) window view of (C,H,W,B) input; with `pad` it
    views a zero-padded copy.

    Reshaped to [C*kh*kw, Ho*Wo*B] it is the im2col column matrix: rows run
    over (channel, tap), columns over (output pixel, image) with the images
    innermost, so on a batch-innermost input the copy moves runs of B (Wo*B
    at stride 1) values. Any other strides are read as they are; the padding
    or unfolding copy is then also the transposition.
    """
    c, h, w, b = xm.shape
    if pad:
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b))
        xp[:, pad : pad + h, pad : pad + w] = xm
    else:
        xp = xm
    ho, wo = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    sc, sh, sw, sb = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kh, kw, ho, wo, b),
        strides=(sc, sh, sw, sh * stride, sw * stride, sb),
        writeable=False,
    )


def _tap_span(tap: int, size: int, out: int, stride: int, pad: int):
    """Output positions [lo, hi) whose input index o*stride + tap - pad lies in
    [0, size), and the input index of the first of them."""
    lo = max(0, -((tap - pad) // stride))
    hi = min(out, (size - 1 + pad - tap) // stride + 1)
    return lo, hi, lo * stride + tap - pad


def _col2im(gcols: np.ndarray, shape, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Fold column gradients [C*kh*kw, Ho*Wo*B] onto the (C,H,W,B) input.

    Taps accumulate in (i, j) order straight into the unpadded input; each
    one adds only the output pixels whose source lies inside it.
    """
    c, h, w, b = shape
    ho, wo = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    g6 = gcols.reshape(c, kh, kw, ho, wo, b)
    gx = np.zeros(shape)
    rows = [_tap_span(i, h, ho, stride, pad) for i in range(kh)]
    cols = [_tap_span(j, w, wo, stride, pad) for j in range(kw)]
    for i, (r0, r1, hi0) in enumerate(rows):
        for j, (c0, c1, wi0) in enumerate(cols):
            if r1 > r0 and c1 > c0:
                gx[:, hi0 : hi0 + (r1 - r0 - 1) * stride + 1 : stride,
                   wi0 : wi0 + (c1 - c0 - 1) * stride + 1 : stride] += g6[:, i, j, r0:r1, c0:c1]
    return gx


def _check_conv_args(x, kernel, bias, stride, pad):
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4 [N,C,H,W], got rank {x.ndim}")
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d kernel must be rank 4 [Co,Ci,kH,kW], got rank {kernel.ndim}")
    if kernel.shape[1] != x.shape[1]:
        raise ShapeError(
            f"conv2d channel axis mismatch: input C={x.shape[1]}, kernel C_in={kernel.shape[1]}"
        )
    if bias.shape != (kernel.shape[0],):
        raise ShapeError(
            f"conv2d bias axis mismatch: expected ({kernel.shape[0]},), got {bias.shape}"
        )
    if stride < 1:
        raise ValueError(f"conv2d stride must be positive, got {stride}")
    if pad < 0:
        raise ValueError(f"conv2d pad must be non-negative, got {pad}")
    if x.shape[2] + 2 * pad < kernel.shape[2]:
        raise ShapeError(
            f"conv2d height axis too small: H={x.shape[2]} + 2*pad={pad} < kH={kernel.shape[2]}"
        )
    if x.shape[3] + 2 * pad < kernel.shape[3]:
        raise ShapeError(
            f"conv2d width axis too small: W={x.shape[3]} + 2*pad={pad} < kW={kernel.shape[3]}"
        )


def conv2d_with_cols(x, kernel, bias, stride: int = 1, pad: int = 0):
    """conv2d that also returns the unfolded columns for reuse in backward.

    With more than one output row and HANDOFF_MADDS multiply-adds or more,
    the output rows are split in two halves (_conv_rows_split) by size
    alone, so the outputs and columns are the same bits with one CPU or two.
    """
    x, kernel, bias = as_f64(x), as_f64(kernel), as_f64(bias)
    _check_conv_args(x, kernel, bias, stride, pad)
    n, _, h, w = x.shape
    co, _, kh, kw = kernel.shape
    ho, wo = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    if ho > 1 and kernel.size * ho * wo * n >= HANDOFF_MADDS:
        y, cols = _conv_rows_split(x, kernel, bias, stride, pad)
    else:
        cols = _unfold(x.transpose(1, 2, 3, 0), kh, kw, stride, pad).reshape(-1, ho * wo * n)
        y = kernel.reshape(co, -1) @ cols
        y += bias[:, None]
    return y.reshape(co, ho, wo, n).transpose(3, 0, 1, 2), cols


def _conv_rows_split(x, kernel, bias, stride, pad):
    """conv2d_with_cols's unfold, GEMM and bias add in two halves of output
    rows: (y [Co, Ho*Wo*N], cols). on_lane picks only the thread that runs
    the second half, so its bits do not depend on the CPU count.

    Each half copies its rows of the window view into its columns of the
    shared column buffer and runs its GEMM into its columns of the output.
    The padding copy, both buffers and every view the halves use are made
    here, on the calling thread.
    """
    co, _, kh, kw = kernel.shape
    view = _unfold(x.transpose(1, 2, 3, 0), kh, kw, stride, pad)
    c, _, _, ho, wo, b = view.shape
    cols = np.empty((c * kh * kw, ho * wo * b))
    y = np.empty((co, cols.shape[1]))
    cols6, wmat, bias_col = cols.reshape(view.shape), kernel.reshape(co, -1), bias[:, None]
    halves = []
    for rows in (slice(0, (ho + 1) // 2), slice((ho + 1) // 2, ho)):
        part = slice(rows.start * wo * b, rows.stop * wo * b)
        halves.append((cols6[:, :, :, rows], view[:, :, :, rows], cols[:, part], y[:, part]))
    join = on_lane(partial(_conv_rows, wmat, bias_col, *halves[1]), kernel.size * ho * wo * b)
    _conv_rows(wmat, bias_col, *halves[0])
    join()
    return y, cols


def _conv_rows(wmat, bias_col, cols_rows, windows, cols_part, y_part):
    """One half of _conv_rows_split: unfold its rows, then GEMM and bias add."""
    np.copyto(cols_rows, windows)
    np.matmul(wmat, cols_part, out=y_part)
    np.add(y_part, bias_col, out=y_part)


def conv2d(x, kernel, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate [N,Ci,H,W] with [Co,Ci,kH,kW] -> [N,Co,H',W']."""
    return conv2d_with_cols(x, kernel, bias, stride, pad)[0]


def conv2d_backward(gy, x, kernel, stride: int = 1, pad: int = 0, cols=None,
                    input_grad: bool = True):
    """Gradients (gx, gkernel, gbias) of a scalar loss through conv2d.

    `cols` accepts the column matrix from conv2d_with_cols to skip the
    second unfold; results are identical either way. With
    `input_grad=False` gx is None and neither its GEMM nor its fold runs.
    Otherwise the kernel and bias gradients run on the second lane (see the
    module docstring) while this thread computes gx.
    """
    x, kernel = as_f64(x), as_f64(kernel)
    n, c, h, w = x.shape
    co, _, kh, kw = kernel.shape
    if cols is None:
        cols = _unfold(x.transpose(1, 2, 3, 0), kh, kw, stride, pad).reshape(c * kh * kw, -1)
    gy_big = batch_last(gy).reshape(co, -1)

    def param_grads():
        return (cols @ gy_big.T).T.reshape(kernel.shape), gy_big.sum(axis=1)

    # without gx there is nothing to overlap, so the gradients run inline
    join = on_lane(param_grads, cols.size * co if input_grad else 0)
    gx = None
    if input_grad:
        gcols = kernel.reshape(co, -1).T @ gy_big
        gx = _col2im(gcols, (c, h, w, n), kh, kw, stride, pad).transpose(3, 0, 1, 2)
    return (gx, *join())


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def linear(x, weight, bias) -> np.ndarray:
    """out[n,k] = sum_d x[n,d] * weight[k,d] + bias[k]."""
    x, weight, bias = as_f64(x), as_f64(weight), as_f64(bias)
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"linear expects rank-2 operands, got {x.ndim} and {weight.ndim}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"linear feature axis mismatch: input D={x.shape[1]}, weight D={weight.shape[1]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear bias axis mismatch: expected ({weight.shape[0]},), got {bias.shape}")
    return x @ weight.T + bias


def linear_backward(gy, x, weight):
    gy = as_f64(gy)
    return gy @ weight, gy.T @ x, gy.sum(axis=0)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(x) -> np.ndarray:
    # Stable on both tails: never exponentiates a large positive argument.
    x = as_f64(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def activation(x, kind: str) -> np.ndarray:
    x = as_f64(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return np.tanh(x)
    raise ValueError(f"unknown activation kind {kind!r}")


def activation_backward(gy, x, y, kind: str) -> np.ndarray:
    """Chain gy through the activation; y is the saved forward output."""
    gy = as_f64(gy)
    if kind == "relu":
        return gy * (x > 0)
    if kind == "sigmoid":
        return gy * y * (1.0 - y)
    if kind == "tanh":
        return gy * (1.0 - y * y)
    raise ValueError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def global_avg_pool_spatial(x) -> np.ndarray:
    """Mean over H,W of [N,T,C,H,W] -> [N,T,C]."""
    x = as_f64(x)
    if x.ndim != 5:
        raise ShapeError(f"global_avg_pool_spatial expects rank 5, got {x.ndim}")
    return x.mean(axis=(3, 4))


def global_avg_pool_spatial_backward(gy, spatial_shape) -> np.ndarray:
    h, w = spatial_shape
    gy = as_f64(gy)
    return batch_innermost(np.broadcast_to(gy[:, :, :, None, None] / (h * w), gy.shape + (h, w)), 2)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def dropout_mask(shape, rate: float, seed: int) -> np.ndarray:
    """Seeded keep-mask, survivors pre-scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0,1), got {rate}")
    rng = np.random.default_rng(seed)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)
