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

The forward runs in stages: the stem is stage 0, block i is stage i + 1,
and the head (pool, dropout, linear, consensus) is the last. A block runs
in named layers (`BLOCK_LAYERS`): `pool`, the offset net's pooled frame
feature, and `offsets`, its MLP's per-sample interlace offsets and frame
weights (both tin only); `temporal`, the interlacing, the tsm shift or
nothing; `conv1` with its relu; `conv2`; and `skip`, the strided 1x1 conv
of the block's input. Its output is conv2's plus skip's.
A stage reads only its input and its own parameters, and a layer only its
inputs and its own parameters, so `forward_from_stage` can resume at any
stage, or at any layer of a block, from what an earlier forward kept, with
the same bits; `backbone_forward` is the run from stage 0, and `stage_of`
names the stage and layer that read a parameter.

Forward/backward are hand-chained. Every conv and linear layer runs through
`_conv`/`_linear`, whose backward adds the layer's own `.weight`/`.bias`
gradients to the ParamStore, and every relu/tanh/sigmoid through the
gradchecked `ops.activation`/`ops.activation_backward`.
`backbone_forward(..., return_cache=True)` hands back what backward needs,
one entry per layer, and `backbone_backward` spends it: it pops each entry
as it reads it, so a training step holds one step's activations at most.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import ops
from .ops import ConfigError, ShapeError, as_f64
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
OFFSET_NET_HIDDEN = 16  # width of the offset/weight generator's hidden layer
BLOCK_LAYERS = ("pool", "offsets", "temporal", "conv1", "conv2", "skip")


@dataclass
class ModelConfig:
    frames: int
    in_channels: int
    height: int
    width: int
    num_classes: int
    temporal_mode: str = "none"
    num_groups: int = 2
    delta_max: float = 0.0  # 0 means half the frames
    fold: float = 0.25
    channels: tuple[int, ...] = (8, 16, 32)
    dropout: float = 0.5
    head: str = "pool"

    def __post_init__(self):
        # an error names the fields its rule checks, not the mode that selects
        # it; ShiftSpec's name `fold` and `channels`, this config's names too
        for name, allowed in (("temporal_mode", TEMPORAL_MODES), ("head", HEAD_MODES)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}",
                                  (name,))
        for name in ("frames", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}", (name,))
        if not self.channels or min(self.channels) < 1:
            raise ConfigError("channels must be one or more counts >= 1", ("channels",))
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}", ("dropout",))
        if self.delta_max < 0:
            raise ConfigError("delta_max must be >= 0 (0 means half the frames)", ("delta_max",))
        self.delta_max = self.delta_max or self.frames / 2.0
        if self.temporal_mode == "tin" and not 1 <= self.num_groups <= min(self.block_in_channels):
            raise ConfigError(f"{self.num_groups} groups do not fit the narrowest stage "
                              f"({min(self.block_in_channels)} channels)", ("num_groups", "channels"))
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
            dense(f"block{i}.tin.trunk", OFFSET_NET_HIDDEN, cfg.frames)
            dense(f"block{i}.tin.offs", cfg.num_groups, OFFSET_NET_HIDDEN, zero=True)
            dense(f"block{i}.tin.wts", cfg.num_groups * cfg.frames, OFFSET_NET_HIDDEN, zero=True)
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
    x5, cols, stride, pad = cache.pop(name)
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
    t = feat.shape[1]
    if t != cfg.frames:
        raise ShapeError(f"feature frame axis {t} does not match config frames {cfg.frames}")
    m = ops.global_avg_pool_spatial(feat).mean(axis=2)  # [N,T]
    return _offset_weight_mlp(m, feat.shape, params, cfg, prefix)


def _offset_weight_mlp(m, feat_shape, params: ParamStore, cfg: ModelConfig, prefix: str):
    """`offset_weight_net_forward` after its pooling, on the pooled [N,T] m."""
    t1 = _linear(m, params, prefix + "trunk")
    h = ops.activation(t1, "relu")
    offsets, zo, th = _mlp_head(h, params, cfg, prefix, "offs")
    weights, zw, sg = _mlp_head(h, params, cfg, prefix, "wts")
    iparams = InterlaceParams(offsets, weights, delta_max=cfg.delta_max)
    return iparams, {"m": m, "t1": t1, "h": h, "zo": zo, "th": th, "zw": zw, "sg": sg,
                     "feat_shape": feat_shape}


def _mlp_head(h, params: ParamStore, cfg: ModelConfig, prefix: str, head: str):
    """One head of the offset/weight MLP on its trunk output h [N,hidden]:
    "offs" gives the offsets delta_max * tanh(z) [N,G], "wts" the frame
    weights 2 * sigmoid(z) [N,G,T]. Returns the output, z and the activation."""
    z = _linear(h, params, prefix + head)
    if head == "offs":
        th = ops.activation(z, "tanh")
        return cfg.delta_max * th, z, th
    sg = ops.activation(z, "sigmoid")
    return (2.0 * sg).reshape(len(h), cfg.num_groups, -1), z, sg


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
# backbone: the stem (stage 0), one stage per block, the head
# ---------------------------------------------------------------------------

def _block_forward(x, i, params: ParamStore, cfg: ModelConfig, cache, kept=None,
                   layer: int = 0) -> np.ndarray:
    """Block i on its input x [N,T,C,H,W], from its layer BLOCK_LAYERS[layer].

    From layer 0 it runs every layer and stores each one's output in `kept`,
    when given, under "block{i}.<layer>". From a later layer it reruns that
    layer and the layers reading its output, and takes the other outputs
    from `kept`: the skip reruns only from the skip. The relu entry is its
    output `r1` alone: `r1 > 0` exactly where its input `a1 > 0` (NaN fails
    both), so backward passes `r1` as both of the relu's saved tensors and
    `a1` is not kept."""
    name = f"block{i}."
    m = iparams = None
    if layer > 2:
        xt = kept[name + "temporal"]
    elif cfg.temporal_mode == "tin":
        prefix = name + "tin."
        if layer == 2:
            iparams, ocache = kept[name + "offsets"], None
        else:
            iparams, ocache = (_offset_weight_mlp(kept[name + "pool"], x.shape, params, cfg, prefix)
                               if layer else offset_weight_net_forward(x, params, cfg, prefix))
            m = ocache["m"]
        groups = GroupSpec.even(x.shape[2], cfg.num_groups)
        if cache is not None:
            cache[name + "tin"] = (x, groups, iparams, ocache)
        xt = interlace_forward(x, groups, iparams)
    elif cfg.temporal_mode == "tsm":
        xt = tsm_shift(x, ShiftSpec(cfg.fold))
    else:
        xt = x
    if layer > 3:
        r1 = kept[name + "conv1"]
    else:
        r1 = ops.activation(_conv(xt, params, name + "conv1", 2, 1, cache), "relu")
        if cache is not None:
            cache[name + "relu1"] = r1
    a2 = kept[name + "conv2"] if layer > 4 else _conv(r1, params, name + "conv2", 1, 1, cache)
    skip = kept[name + "skip"] if 0 < layer < 5 else _conv(x, params, name + "skip", 2, 0, cache)
    if kept is not None and not layer:
        kept.update((name + k, v) for k, v in zip(BLOCK_LAYERS, (m, iparams, xt, r1, a2, skip)))
    return a2 + skip


def _head_forward(x, params: ParamStore, cfg: ModelConfig, training: bool, seed: int,
                  cache) -> np.ndarray:
    """Pool, dropout, linear and consensus on the last block's output."""
    # each sample's pixels, then its frames, are summed in an order that
    # does not depend on how many clips share the call
    pooled = ops.global_avg_pool_spatial(x)  # [N, T, C_last]
    feat = pooled.mean(axis=1) if cfg.head == "pool" else pooled.reshape(-1, pooled.shape[2])
    mask = ops.dropout_mask(feat.shape, cfg.dropout, seed) if training else None
    fd = feat * mask if mask is not None else feat

    logits = _linear(fd, params, "head")
    if cfg.head == "consensus":
        logits = segment_consensus(logits.reshape(x.shape[0], cfg.frames, -1))
    if cache is not None:
        cache.update(body_shape=x.shape, mask=mask, fd=fd)
    return logits


def forward_from_stage(stage: int, x, params: ParamStore, cfg: ModelConfig,
                       training: bool = False, seed: int = 0, cache=None, kept=None,
                       layer: str | None = None):
    """The logits of the stages from `stage` on, given that stage's input x.

    Stage 0 is the stem, stage i + 1 block i and stage num_blocks + 1 the
    head. A run from stage 0 stores each stage's input in the dict `kept`,
    when given, under its stage number, and each block layer's output under
    its name (see `_block_forward`). With `layer`, one of BLOCK_LAYERS, the
    block at `stage` resumes at that layer, taking the outputs of the layers
    it does not rerun from `kept`. A resumed run stores nothing. A stage
    reads nothing but its input and its own parameters, and a layer nothing
    but its inputs and its own parameters, so resuming from what an earlier
    forward kept yields the same bits as the whole forward, as long as no
    parameter read before the resume point has changed.
    """
    last = cfg.num_blocks + 1
    if not 0 <= stage <= last:
        raise ValueError(f"stage {stage} is not one of the model's stages 0..{last}")
    if layer is not None and (layer not in BLOCK_LAYERS or not 0 < stage < last):
        raise ValueError(f"layer {layer!r} at stage {stage}: a resume layer is one of "
                         f"{BLOCK_LAYERS}, in a block stage 1..{last - 1}")
    k = 0 if layer is None else BLOCK_LAYERS.index(layer)
    keep = kept if stage == 0 else None
    for s in range(stage, last + 1):
        if keep is not None:
            keep[s] = x
        if s == last:
            return _head_forward(x, params, cfg, training, seed, cache)
        x = (_conv(x, params, "stem", 2, 1, cache) if s == 0
             else _block_forward(x, s - 1, params, cfg, cache, kept if k else keep, k))
        k = 0


def stage_of(name: str, cfg: ModelConfig) -> tuple[int, str | None]:
    """The stage that reads parameter `name` and, in a block, the layer
    (None for the stem and the head): the resume point of its FD loss."""
    first, part = (name.split(".") + [""])[:2]
    stages = {"stem": 0, "head": cfg.num_blocks + 1} | {f"block{i}": i + 1
                                                        for i in range(cfg.num_blocks)}
    layer = {"conv1": "conv1", "conv2": "conv2", "skip": "skip", "tin": "offsets"}.get(part)
    if first not in stages or first.startswith("block") != (layer is not None):
        raise ValueError(f"{name!r} is not a parameter of the model: stem, head and "
                         f"block0..block{cfg.num_blocks - 1}'s conv1, conv2, skip and tin")
    return stages[first], layer


def backbone_forward(clip, params: ParamStore, cfg: ModelConfig,
                     training: bool = False, seed: int = 0, return_cache: bool = False):
    """Run the full model on [N,T,C,H,W]; returns per-class logits [N,classes].

    The stages run in order from the stem (see `forward_from_stage`).
    Activations stay batch-innermost (see `ops`). Without `return_cache` no
    layer's context outlives the layer, so a conv's columns are freed as
    soon as it has run. With it, the cache maps each layer to what its
    backward reads and is spent by `backbone_backward`.
    """
    x = as_f64(clip)
    if x.ndim != 5 or x.shape[1:] != (cfg.frames, cfg.in_channels, cfg.height, cfg.width):
        raise ShapeError(f"clip shape {x.shape} does not match config "
                         f"[N,{cfg.frames},{cfg.in_channels},{cfg.height},{cfg.width}]")
    cache = {} if return_cache else None
    logits = forward_from_stage(0, x, params, cfg, training, seed, cache)
    return logits if cache is None else (logits, cache)


def backbone_backward(g_logits, cache, params: ParamStore, cfg: ModelConfig,
                      clip_grad: bool = True):
    """Accumulate parameter gradients; returns the gradient w.r.t. the clip.

    With `clip_grad=False` it returns None and the stem skips its input
    gradient; every parameter gradient is the same bits either way. Conv and
    interlace layers compute their parameter gradients on `ops`' second lane.

    Backward spends the cache: it pops each layer's entry as it reads it,
    and the dict is empty on return. So a layer's columns and activations
    are freed while the rest of the backward runs, between its gradient
    allocations; nothing of the step outlives the call, and the caller may
    refill the clip's array. The heap never frees a whole cache at once: a
    free heap top over the 32 MiB trim threshold `ops` pins would be
    trimmed, and the next step would fault it in again.
    """
    n, t, c_last, hh, ww = cache.pop("body_shape")
    g_head_out = as_f64(g_logits)
    if cfg.head == "consensus":
        g_head_out = segment_consensus_backward(g_head_out, t).reshape(n * t, -1)
    g_fd = _linear_backward(g_head_out, cache.pop("fd"), params, "head")
    mask = cache.pop("mask")
    g_feat = g_fd * mask if mask is not None else g_fd
    if cfg.head == "pool":
        g_pooled = np.broadcast_to(g_feat[:, None, :] / t, (n, t, c_last))
    else:
        g_pooled = g_feat.reshape(n, t, c_last)
    g_x = ops.global_avg_pool_spatial_backward(g_pooled, (hh, ww))

    for i in reversed(range(cfg.num_blocks)):
        name = f"block{i}."
        g_skip_in = _conv_backward(g_x, cache, params, name + "skip")
        g_r1 = _conv_backward(g_x, cache, params, name + "conv2")
        r1 = cache.pop(name + "relu1")  # stands in for a1: see _block_forward
        g_a1 = ops.activation_backward(g_r1, r1, r1, "relu")
        g_xt = _conv_backward(g_a1, cache, params, name + "conv1")
        if cfg.temporal_mode == "tin":
            x_in, groups, iparams, ocache = cache.pop(name + "tin")
            g_x, g_off, g_wts = interlace_backward(g_xt, x_in, groups, iparams)
            g_x += offset_weight_net_backward(g_off, g_wts, ocache, params, cfg, name + "tin.")
        elif cfg.temporal_mode == "tsm":
            g_x = tsm_shift_backward(g_xt, ShiftSpec(cfg.fold))
        else:
            g_x = g_xt
        g_x += g_skip_in  # in place, in the order (main + net) + skip

    return _conv_backward(g_x, cache, params, "stem", input_grad=clip_grad)


def predict_clip(logits) -> np.ndarray:
    """Per-class probabilities: elementwise sigmoid of the logits."""
    return ops.sigmoid(logits)
