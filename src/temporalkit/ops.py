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
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """An operand's dimensions do not conform; the message names the axis."""


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


def batch_innermost(x, lead: int = 1) -> np.ndarray:
    """x with its first `lead` axes innermost in memory and its shape unchanged."""
    m = batch_last(x, lead)
    rest = m.ndim - lead
    return m.transpose(tuple(range(rest, m.ndim)) + tuple(range(rest)))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def _out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _im2col(xm: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold (C,H,W,B) input into columns [C*kh*kw, Ho*Wo*B].

    Rows run over (channel, tap), columns over (output pixel, image) with the
    images innermost, so on a batch-innermost input the copy moves runs of B
    (Wo*B at stride 1) values. Any other strides are read as they are; the
    padding or unfolding copy is then also the transposition.
    """
    c, h, w, b = xm.shape
    if pad:
        xp = np.zeros((c, h + 2 * pad, w + 2 * pad, b))
        xp[:, pad : pad + h, pad : pad + w] = xm
    else:
        xp = xm
    ho, wo = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    sc, sh, sw, sb = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kh, kw, ho, wo, b),
        strides=(sc, sh, sw, sh * stride, sw * stride, sb),
        writeable=False,
    )
    return view.reshape(c * kh * kw, ho * wo * b)


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
    """conv2d that also returns the unfolded columns for reuse in backward."""
    x, kernel, bias = as_f64(x), as_f64(kernel), as_f64(bias)
    _check_conv_args(x, kernel, bias, stride, pad)
    n, _, h, w = x.shape
    co, _, kh, kw = kernel.shape
    cols = _im2col(x.transpose(1, 2, 3, 0), kh, kw, stride, pad)
    y = kernel.reshape(co, -1) @ cols
    y += bias[:, None]
    ho, wo = _out_size(h, kh, stride, pad), _out_size(w, kw, stride, pad)
    return y.reshape(co, ho, wo, n).transpose(3, 0, 1, 2), cols


def conv2d(x, kernel, bias, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlate [N,Ci,H,W] with [Co,Ci,kH,kW] -> [N,Co,H',W']."""
    return conv2d_with_cols(x, kernel, bias, stride, pad)[0]


def conv2d_backward(gy, x, kernel, stride: int = 1, pad: int = 0, cols=None):
    """Gradients (gx, gkernel, gbias) of a scalar loss through conv2d.

    `cols` accepts the column matrix from conv2d_with_cols to skip the
    second unfold; results are identical either way.
    """
    x, kernel = as_f64(x), as_f64(kernel)
    n, c, h, w = x.shape
    co, _, kh, kw = kernel.shape
    if cols is None:
        cols = _im2col(x.transpose(1, 2, 3, 0), kh, kw, stride, pad)
    gy_big = batch_last(gy).reshape(co, -1)

    gw = (cols @ gy_big.T).T.reshape(kernel.shape)
    gb = gy_big.sum(axis=1)

    gcols = kernel.reshape(co, -1).T @ gy_big
    gx = _col2im(gcols, (c, h, w, n), kh, kw, stride, pad)
    return gx.transpose(3, 0, 1, 2), gw, gb


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

ACTIVATION_KINDS = ("relu", "sigmoid", "tanh")


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
    if rate == 0.0:
        return np.ones(shape, dtype=np.float64)
    rng = np.random.default_rng(seed)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def dropout(x, rate: float, seed: int, training: bool) -> np.ndarray:
    """Zero elements with probability `rate` and rescale; identity in eval."""
    x = as_f64(x)
    if not training or rate == 0.0:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0,1), got {rate}")
        return x
    return x * dropout_mask(x.shape, rate, seed)
