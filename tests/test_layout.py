"""Batch-innermost memory order: the ops give the same bytes whatever order
their inputs come in, the backbone keeps its activations and gradients in
that order, and an eval forward frees each conv's columns as it goes."""

import tracemalloc

import numpy as np
import pytest

from temporalkit import model, ops
from temporalkit.model import ModelConfig, backbone_backward, backbone_forward, init_params
from temporalkit.temporal import (
    GroupSpec,
    InterlaceParams,
    ShiftSpec,
    interlace_backward,
    interlace_forward,
    tsm_shift,
    tsm_shift_backward,
)


def is_batch_innermost(a) -> bool:
    """[B,C,H,W] laid out as (C,H,W,B), or [N,T,C,H,W] as (C,H,W,N,T)."""
    lead = a.ndim - 3
    return a.transpose(tuple(range(lead, a.ndim)) + tuple(range(lead))).flags.c_contiguous


def both_orders(x):
    lead = x.ndim - 3
    inner = ops.batch_innermost(x, lead)
    assert x.flags.c_contiguous and is_batch_innermost(inner) and not is_batch_innermost(x)
    return x, inner


def assert_same_bytes(outs_c, outs_inner):
    for a, b in zip(outs_c, outs_inner, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("stride,pad,k", [(1, 1, 3), (2, 1, 3), (2, 0, 1), (1, 0, 2)])
def test_conv_gives_the_same_bytes_for_either_input_order(stride, pad, k):
    rng = np.random.default_rng(stride * 10 + pad + k)
    x_c, x_in = both_orders(rng.normal(size=(6, 3, 7, 5)))
    kernel, bias = rng.normal(size=(4, 3, k, k)), rng.normal(size=4)
    y = ops.conv2d(x_c, kernel, bias, stride, pad)
    assert is_batch_innermost(y)
    assert_same_bytes([y], [ops.conv2d(x_in, kernel, bias, stride, pad)])
    gy_c, gy_in = both_orders(rng.normal(size=y.shape))
    got_c = ops.conv2d_backward(gy_c, x_c, kernel, stride, pad)
    assert is_batch_innermost(got_c[0])
    assert_same_bytes(got_c, ops.conv2d_backward(gy_in, x_in, kernel, stride, pad))


def test_interlace_gives_the_same_bytes_for_either_input_order():
    rng = np.random.default_rng(5)
    x_c, x_in = both_orders(rng.normal(size=(3, 5, 5, 2, 3)))
    gy_c, gy_in = both_orders(rng.normal(size=x_c.shape))
    groups = GroupSpec.even(5, 2)
    params = InterlaceParams(rng.uniform(-2.4, 2.4, (3, 2)), rng.uniform(0, 2, (3, 2, 5)), 2.5)
    y = interlace_forward(x_c, groups, params)
    assert is_batch_innermost(y)
    assert_same_bytes([y], [interlace_forward(x_in, groups, params)])
    got_c = interlace_backward(gy_c, x_c, groups, params)
    assert is_batch_innermost(got_c[0])
    assert_same_bytes(got_c, interlace_backward(gy_in, x_in, groups, params))


def test_tsm_gives_the_same_bytes_for_either_input_order():
    rng = np.random.default_rng(6)
    x_c, x_in = both_orders(rng.normal(size=(3, 5, 8, 2, 3)))
    spec = ShiftSpec(0.25)
    for fn in (tsm_shift, tsm_shift_backward):
        y = fn(x_c, spec)
        assert is_batch_innermost(y)
        assert_same_bytes([y], [fn(x_in, spec)])


@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_backbone_keeps_activations_and_gradients_batch_innermost(monkeypatch, mode):
    cfg = ModelConfig(frames=4, in_channels=1, height=16, width=16, num_classes=3,
                      temporal_mode=mode, channels=(4, 6, 8), dropout=0.0)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(1)
    for name in params.names():
        if ".tin.offs." in name or ".tin.wts." in name:
            params.values[name][...] = rng.normal(scale=0.5, size=params[name].shape)
    clip = rng.normal(size=(2, 4, 1, 16, 16))

    seen = []  # (layer, array) for every activation or gradient crossing a layer boundary

    def record(label, fn, inputs):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            first = out[0] if isinstance(out, tuple) else out
            seen.extend((label, a) for a in (*args[:inputs], first))
            return out
        return wrapped

    # (x) -> (y, cols); (gy, x, ...) -> (gx, gw, gb); interlace (x | gy, x); tsm (x | gy)
    monkeypatch.setattr(ops, "conv2d_with_cols", record("conv fwd", ops.conv2d_with_cols, 1))
    monkeypatch.setattr(ops, "conv2d_backward", record("conv bwd", ops.conv2d_backward, 2))
    for name, inputs in (("interlace_forward", 1), ("interlace_backward", 2),
                         ("tsm_shift", 1), ("tsm_shift_backward", 1)):
        monkeypatch.setattr(model, name, record(name, getattr(model, name), inputs))

    logits, cache = backbone_forward(clip, params, cfg, return_cache=True)
    g_clip = backbone_backward(rng.normal(size=logits.shape), cache, params, cfg)
    assert is_batch_innermost(g_clip)
    # the stem reads the caller's clip in the order it came; everything else is ours
    checked = [(label, a) for label, a in seen if not np.shares_memory(a, clip)]
    # ten convs: x and y forward, gy, x and gx backward, less the stem's clip twice;
    # three temporal ops per pass: x and y (tsm: gy and gx; interlace: gy, x and gx)
    assert len(checked) == 10 * 5 - 2 + {"none": 0, "tsm": 3 * 4, "tin": 3 * 5}[mode]
    for label, a in checked:
        assert is_batch_innermost(a), (label, a.shape, a.strides)


def test_eval_forward_frees_each_conv_once_it_has_run(monkeypatch):
    cfg = ModelConfig(frames=16, in_channels=1, height=32, width=32, num_classes=4,
                      temporal_mode="tin")
    params = init_params(cfg, 0)
    clip = np.random.default_rng(2).normal(size=(4, 16, 1, 32, 32))
    col_bytes = []
    real = ops.conv2d_with_cols

    def sizing(*args, **kwargs):
        y, cols = real(*args, **kwargs)
        col_bytes.append(cols.nbytes)
        return y, cols

    with monkeypatch.context() as patch:
        patch.setattr(ops, "conv2d_with_cols", sizing)
        backbone_forward(clip, params, cfg)
    assert len(col_bytes) == 1 + 3 * cfg.num_blocks

    tracemalloc.start()
    try:
        backbone_forward(clip, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one layer's columns at a time, never all of them
    assert max(col_bytes) < peak < sum(col_bytes)
