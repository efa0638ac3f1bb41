"""Toy residual video backbone with pluggable temporal modules.

Each residual block runs `temporal module -> 3x3 conv (stride 2) -> relu ->
3x3 conv`, with a strided 1x1 projection on the skip path; a stride-2 3x3
stem lifts the input to the first stage's width (so grouping/folding
constraints hold even for single-channel video) and halves the resolution
once more, keeping the arithmetic desk-scale. The offset/weight generator
pools a block's input down to one scalar per frame, feeds a small hidden
layer, and emits tanh-bounded group offsets and sigmoid-bounded per-frame
weights.

Heads are zero-initialized, which makes a freshly built interlacing model an
exact no-op: its logits match the temporal-mode-free model bit for bit.

Forward/backward are hand-chained. Every conv and linear layer runs through
`_conv`/`_linear`, whose backward adds the layer's own `.weight`/`.bias`
gradients to the ParamStore, and every relu/tanh/sigmoid through the
gradchecked `ops.activation`/`ops.activation_backward`.
`backbone_forward(..., return_cache=True)` hands back what backward needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import ShapeError, as_f64
from .temporal import (
    GroupSpec,
    InterlaceParams,
    ShiftSpec,
    interlace_backward,
    interlace_forward,
    segment_consensus,
    segment_consensus_backward,
    tsm_shift,
    tsm_shift_backward,
)

TEMPORAL_MODES = ("none", "tsm", "tin")
HEAD_MODES = ("pool", "consensus")


@dataclass
class ModelConfig:
    frames: int
    in_channels: int
    height: int
    width: int
    num_classes: int
    temporal_mode: str = "none"
    num_groups: int = 2
    delta_max: float | None = None
    fold: float = 0.25
    channels: tuple[int, ...] = (8, 16, 32)
    dropout: float = 0.5
    hidden: int = 16
    head: str = "pool"

    def __post_init__(self):
        if self.temporal_mode not in TEMPORAL_MODES:
            raise ValueError(f"unknown temporal_mode {self.temporal_mode!r}")
        if self.head not in HEAD_MODES:
            raise ValueError(f"unknown head mode {self.head!r}")
        if self.frames < 1 or self.num_classes < 1 or not self.channels:
            raise ValueError("frames, num_classes and channels must be non-empty/positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {self.dropout}")
        if self.delta_max is None:
            self.delta_max = self.frames / 2.0
        if self.delta_max <= 0:
            raise ValueError("delta_max must be positive")
        if self.temporal_mode == "tin":
            if not 1 <= self.num_groups <= min(self.block_in_channels):
                raise ValueError(
                    f"{self.num_groups} groups do not fit the narrowest stage "
                    f"({min(self.block_in_channels)} channels)"
                )
        if self.temporal_mode == "tsm":
            spec = ShiftSpec(self.fold)
            for c in self.block_in_channels:
                spec.fold_channels(c)  # raises if the fold cannot fit

    @property
    def num_blocks(self) -> int:
        return len(self.channels)

    @property
    def block_in_channels(self) -> tuple[int, ...]:
        # the stem lifts input to channels[0], so block 0 sees channels[0]
        return (self.channels[0],) + tuple(self.channels[:-1])


class ParamStore:
    """Ordered name -> float64 tensor map with a same-shaped gradient slot each."""

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self.values:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = as_f64(value).copy()
        self.values[name] = arr
        self.grads[name] = np.zeros_like(arr)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def names(self) -> list[str]:
        return list(self.values)

    def add_grad(self, name: str, g) -> None:
        self.grads[name] += g

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


def _rng_for(seed: int, name: str) -> np.random.Generator:
    # Name-keyed streams: adding or removing parameters never shifts the
    # initialization of the others, so tin/tsm/none share backbone weights.
    digest = hashlib.sha256(name.encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(cfg: ModelConfig, seed: int) -> ParamStore:
    """Seeded Glorot-uniform weights, zero biases, zero offset/weight heads."""
    store = ParamStore()

    def conv(name, c_out, c_in, k):
        rng = _rng_for(seed, name)
        store.add(name + ".weight", _glorot(rng, (c_out, c_in, k, k), c_in * k * k, c_out * k * k))
        store.add(name + ".bias", np.zeros(c_out))

    def dense(name, n_out, n_in, zero=False):
        if zero:
            store.add(name + ".weight", np.zeros((n_out, n_in)))
        else:
            rng = _rng_for(seed, name)
            store.add(name + ".weight", _glorot(rng, (n_out, n_in), n_in, n_out))
        store.add(name + ".bias", np.zeros(n_out))

    conv("stem", cfg.channels[0], cfg.in_channels, 3)
    for i, (c_in, c_out) in enumerate(zip(cfg.block_in_channels, cfg.channels)):
        conv(f"block{i}.conv1", c_out, c_in, 3)
        conv(f"block{i}.conv2", c_out, c_out, 3)
        conv(f"block{i}.skip", c_out, c_in, 1)
        if cfg.temporal_mode == "tin":
            dense(f"block{i}.tin.trunk", cfg.hidden, cfg.frames)
            dense(f"block{i}.tin.offs", cfg.num_groups, cfg.hidden, zero=True)
            dense(f"block{i}.tin.wts", cfg.num_groups * cfg.frames, cfg.hidden, zero=True)
    dense("head", cfg.num_classes, cfg.channels[-1])
    return store


# ---------------------------------------------------------------------------
# conv and linear layers that own their parameter gradients
# ---------------------------------------------------------------------------

def _conv(x5, params: ParamStore, name: str, stride: int, pad: int, cache) -> np.ndarray:
    """Per-frame conv2d of [N,T,C,H,W] with `name`.weight/.bias.

    What backward needs goes into `cache[name]`, unless `cache` is None.
    """
    y4, cols = ops.conv2d_with_cols(x5.reshape((-1,) + x5.shape[2:]),
                                    params[name + ".weight"], params[name + ".bias"], stride, pad)
    if cache is not None:
        cache[name] = (x5, cols, stride, pad)
    return y4.reshape(x5.shape[:2] + y4.shape[1:])


def _conv_backward(gy5, cache, params: ParamStore, name: str, input_grad: bool = True):
    """Input gradient of `_conv` (None without `input_grad`); its weight and
    bias gradients accumulate."""
    x5, cols, stride, pad = cache[name]
    gx4, gw, gb = ops.conv2d_backward(gy5.reshape((-1,) + gy5.shape[2:]),
                                      x5.reshape((-1,) + x5.shape[2:]),
                                      params[name + ".weight"], stride, pad, cols=cols,
                                      input_grad=input_grad)
    params.add_grad(name + ".weight", gw)
    params.add_grad(name + ".bias", gb)
    return None if gx4 is None else gx4.reshape(x5.shape)


def _linear(x, params: ParamStore, name: str) -> np.ndarray:
    return ops.linear(x, params[name + ".weight"], params[name + ".bias"])


def _linear_backward(gy, x, params: ParamStore, name: str) -> np.ndarray:
    """Input gradient of `_linear`; its weight and bias gradients accumulate."""
    gx, gw, gb = ops.linear_backward(gy, x, params[name + ".weight"])
    params.add_grad(name + ".weight", gw)
    params.add_grad(name + ".bias", gb)
    return gx


# ---------------------------------------------------------------------------
# offset/weight generator
# ---------------------------------------------------------------------------

def offset_weight_net_forward(feat, params: ParamStore, cfg: ModelConfig, prefix: str):
    """Map block-input features [N,T,C,H,W] to interlace offsets and weights.

    Pipeline: spatial mean -> channel mean -> [N,T] -> hidden relu layer ->
    offsets = delta_max * tanh(head), weights = 2 * sigmoid(head) as [N,G,T].
    `prefix` names the block's generator, e.g. "block0.tin.".
    Returns (InterlaceParams, cache).
    """
    feat = as_f64(feat)
    if feat.ndim != 5:
        raise ShapeError(f"offset net input must be [N,T,C,H,W], got rank {feat.ndim}")
    n, t = feat.shape[:2]
    if t != cfg.frames:
        raise ShapeError(f"feature frame axis {t} does not match config frames {cfg.frames}")
    m = ops.global_avg_pool_spatial(feat).mean(axis=2)  # [N,T]
    t1 = _linear(m, params, prefix + "trunk")
    h = ops.activation(t1, "relu")
    zo = _linear(h, params, prefix + "offs")
    th = ops.activation(zo, "tanh")
    zw = _linear(h, params, prefix + "wts")
    sg = ops.activation(zw, "sigmoid")
    iparams = InterlaceParams(cfg.delta_max * th, (2.0 * sg).reshape(n, cfg.num_groups, t),
                              delta_max=cfg.delta_max)
    return iparams, {"m": m, "t1": t1, "h": h, "zo": zo, "th": th, "zw": zw, "sg": sg,
                     "feat_shape": feat.shape}


def offset_weight_net_backward(g_offsets, g_weights, cache, params: ParamStore,
                               cfg: ModelConfig, prefix: str):
    """Chain gradients back to the feature map; parameter grads accumulate."""
    n, t, c, hh, ww = cache["feat_shape"]
    g_zo = ops.activation_backward(as_f64(g_offsets) * cfg.delta_max,
                                   cache["zo"], cache["th"], "tanh")
    g_zw = ops.activation_backward(as_f64(g_weights).reshape(n, -1) * 2.0,
                                   cache["zw"], cache["sg"], "sigmoid")
    g_h = (_linear_backward(g_zo, cache["h"], params, prefix + "offs")
           + _linear_backward(g_zw, cache["h"], params, prefix + "wts"))
    g_t1 = ops.activation_backward(g_h, cache["t1"], cache["h"], "relu")
    g_m = _linear_backward(g_t1, cache["m"], params, prefix + "trunk")
    g_pooled = np.broadcast_to(g_m[:, :, None] / c, (n, t, c))
    return ops.global_avg_pool_spatial_backward(g_pooled, (hh, ww))


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------

def backbone_forward(clip, params: ParamStore, cfg: ModelConfig,
                     training: bool = False, seed: int = 0, return_cache: bool = False):
    """Run the full model on [N,T,C,H,W]; returns per-class logits [N,classes].

    Activations stay batch-innermost (see `ops`). Without `return_cache` no
    layer's context outlives the layer, so a conv's columns are freed as
    soon as it has run.
    """
    x = as_f64(clip)
    if x.ndim != 5 or x.shape[1:] != (cfg.frames, cfg.in_channels, cfg.height, cfg.width):
        raise ShapeError(f"clip shape {x.shape} does not match config "
                         f"[N,{cfg.frames},{cfg.in_channels},{cfg.height},{cfg.width}]")
    cache = {} if return_cache else None
    x = _conv(x, params, "stem", 2, 1, cache)

    for i in range(cfg.num_blocks):
        name = f"block{i}."
        if cfg.temporal_mode == "tin":
            iparams, ocache = offset_weight_net_forward(x, params, cfg, name + "tin.")
            groups = GroupSpec.even(x.shape[2], cfg.num_groups)
            if cache is not None:
                cache[name + "tin"] = (x, groups, iparams, ocache)
            xt = interlace_forward(x, groups, iparams)
        elif cfg.temporal_mode == "tsm":
            xt = tsm_shift(x, ShiftSpec(cfg.fold))
        else:
            xt = x
        a1 = _conv(xt, params, name + "conv1", 2, 1, cache)
        r1 = ops.activation(a1, "relu")
        if cache is not None:
            cache[name + "relu1"] = (a1, r1)
        a2 = _conv(r1, params, name + "conv2", 1, 1, cache)
        x = a2 + _conv(x, params, name + "skip", 2, 0, cache)

    # each sample's pixels, then its frames, are summed in an order that
    # does not depend on how many clips share the call
    pooled = ops.global_avg_pool_spatial(x)  # [N, T, C_last]
    feat = pooled.mean(axis=1) if cfg.head == "pool" else pooled.reshape(-1, pooled.shape[2])
    mask = ops.dropout_mask(feat.shape, cfg.dropout, seed) if training else None
    fd = feat * mask if mask is not None else feat

    logits = _linear(fd, params, "head")
    if cfg.head == "consensus":
        logits = segment_consensus(logits.reshape(x.shape[0], cfg.frames, -1))
    if cache is None:
        return logits
    cache.update(body_shape=x.shape, mask=mask, fd=fd)
    return logits, cache


def backbone_backward(g_logits, cache, params: ParamStore, cfg: ModelConfig,
                      clip_grad: bool = True):
    """Accumulate parameter gradients; returns the gradient w.r.t. the clip.

    With `clip_grad=False` it returns None and the stem skips its input
    gradient; every parameter gradient is the same bits either way. Conv and
    interlace layers compute their parameter gradients on `ops`' second lane.
    The stem's entry, the cache's only hold on the clip, is dropped at the
    end, so the caller may refill the clip's array while the rest of the
    cache is still alive.
    """
    n, t, c_last, hh, ww = cache["body_shape"]
    g_head_out = as_f64(g_logits)
    if cfg.head == "consensus":
        g_head_out = segment_consensus_backward(g_head_out, t).reshape(n * t, -1)
    g_fd = _linear_backward(g_head_out, cache["fd"], params, "head")
    g_feat = g_fd * cache["mask"] if cache["mask"] is not None else g_fd
    if cfg.head == "pool":
        g_pooled = np.broadcast_to(g_feat[:, None, :] / t, (n, t, c_last))
    else:
        g_pooled = g_feat.reshape(n, t, c_last)
    g_x = ops.global_avg_pool_spatial_backward(g_pooled, (hh, ww))

    for i in reversed(range(cfg.num_blocks)):
        name = f"block{i}."
        g_skip_in = _conv_backward(g_x, cache, params, name + "skip")
        g_r1 = _conv_backward(g_x, cache, params, name + "conv2")
        g_a1 = ops.activation_backward(g_r1, *cache[name + "relu1"], "relu")
        g_xt = _conv_backward(g_a1, cache, params, name + "conv1")
        if cfg.temporal_mode == "tin":
            x_in, groups, iparams, ocache = cache[name + "tin"]
            g_main, g_off, g_wts = interlace_backward(g_xt, x_in, groups, iparams)
            g_net = offset_weight_net_backward(g_off, g_wts, ocache, params, cfg, name + "tin.")
            g_x = g_main + g_net + g_skip_in
        elif cfg.temporal_mode == "tsm":
            g_x = tsm_shift_backward(g_xt, ShiftSpec(cfg.fold)) + g_skip_in
        else:
            g_x = g_xt + g_skip_in

    g_clip = _conv_backward(g_x, cache, params, "stem", input_grad=clip_grad)
    del cache["stem"]
    return g_clip


def predict_clip(logits) -> np.ndarray:
    """Per-class probabilities: elementwise sigmoid of the logits."""
    return ops.sigmoid(logits)
