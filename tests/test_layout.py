"""Batch-innermost memory order: the ops give the same bytes whatever order
their inputs come in, batch assembly builds clips in that order, the
backbone keeps its activations and gradients in it, and an eval forward
frees each conv's columns as it goes.

The sha256 table pins prediction files and a training checkpoint end to end.
To print it for the code at hand:
    PYTHONPATH=src python tests/test_layout.py
"""

import hashlib
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from temporalkit import evaluate, model, ops, train
from temporalkit.config import RunConfig, clip_spec_from_config, model_config_from_run
from temporalkit.model import ModelConfig, backbone_backward, backbone_forward, init_params
from temporalkit.sampling import dense_test_plan
from temporalkit.synth import generate_dataset
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


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

GOLDEN = {
    "clip predictions": "832505718884349e8970daea14bf5b83bf4d7809a23708df2474c441bcd26d94",
    "dense predictions": "55ea1f47d6937c4d2b3d03e98df3677d2706b4f8228edc3fdad996000a753e0a",
    "tin checkpoint": "c426f1c75a7b0aa0c5f2188938bd2251b04e79d2e19bde833d913c71e8fa646c",
}


def _make_data(root: Path) -> Path:
    generate_dataset(root / "train", 8, seed=41, rel_prefix="train/")
    generate_dataset(root / "val", 2, t=64, seed=42, rel_prefix="val/")
    return root


def _run_config(root: Path, mode: str, **overrides) -> RunConfig:
    return RunConfig(temporal_mode=mode, data_root=str(root), flip=True,
                     train_manifest=str(root / "train" / "manifest.tsv"),
                     val_manifest=str(root / "val" / "manifest.tsv"), **overrides)


def _eval_model(root: Path, mode: str):
    cfg = _run_config(root, mode)
    data = train.Dataset(cfg.val_manifest, root, cfg.classes)
    mcfg = model_config_from_run(cfg, data.in_channels)
    params = init_params(mcfg, 5)
    rng = np.random.default_rng(6)
    for name in params.names():
        if ".tin.offs." in name or ".tin.wts." in name:
            params.values[name][...] = rng.normal(scale=0.5, size=params[name].shape)
    return cfg, data, mcfg, params


def golden_digests(root: Path) -> dict[str, str]:
    """sha256 of a clip-mode and a dense prediction file, and of the
    checkpoint of a short tin training with flips and scales 32-40."""
    cfg, data, mcfg, params = _eval_model(root, "tin")
    out = {}
    for mode in ("clip", "dense"):
        path = root / f"{mode}.csv"
        evaluate.write_predictions(path, evaluate.evaluate_predictions(cfg, params, mcfg, data, mode))
        out[f"{mode} predictions"] = hashlib.sha256(path.read_bytes()).hexdigest()
    cfg = _run_config(root, "tin", out_dir=str(root / "run"), max_iters=6, batch=4,
                      warmup_iters=2, eval_interval=6, checkpoint_interval=6)
    out["tin checkpoint"] = hashlib.sha256(train.run_training(cfg).read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    return _make_data(tmp_path_factory.mktemp("layout_data"))


def _assembled(root: Path):
    """(name, clips) from training's batch assembly and from each chunk that
    dense eval cuts and passes to `backbone_forward`."""
    cfg = _run_config(root, "none", batch=5)
    data = train.Dataset(cfg.train_manifest, root, cfg.classes)
    spec = clip_spec_from_config(cfg)
    built, targets = train._build_batch(cfg, data, spec, 3)
    assert targets.shape == (5, cfg.classes)
    val = train.Dataset(cfg.val_manifest, root, cfg.classes)
    plan = dense_test_plan(val.num_frames(0), spec, num_clips=10, crops_per_clip=3,
                           scales=cfg.scales, crop_size=cfg.crop)
    chunks = []

    def forward(clips, params, mcfg, training):
        chunks.append(clips)
        return np.zeros((len(clips), cfg.classes))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "backbone_forward", forward)
        evaluate._view_probs(val.frames(0), list(plan), None, None)
    assert sum(len(c) for c in chunks) == len(set(plan))
    return [("_build_batch", built)] + [(f"_view_probs chunk {k}", c) for k, c in enumerate(chunks)]


def test_batch_assembly_builds_clips_batch_innermost(data_root):
    for name, clips in _assembled(data_root):
        assert clips.ndim == 5 and clips.shape[2:] == (1, 32, 32), name
        assert is_batch_innermost(clips), name
        # the stem's view of the batch is its memory, not a transposed copy
        assert np.shares_memory(ops.batch_last(clips, 2), clips), name


@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_assembled_clips_give_the_logits_of_their_c_order_copy(data_root, mode):
    _, _, mcfg, params = _eval_model(data_root, mode)
    for name, clips in _assembled(data_root):
        c_order = np.ascontiguousarray(clips)
        assert not is_batch_innermost(c_order)
        got = backbone_forward(clips, params, mcfg)
        assert got.tobytes() == backbone_forward(c_order, params, mcfg).tobytes(), name


def test_training_refills_one_batch_buffer_once_the_step_has_dropped_it(data_root, monkeypatch):
    class Cache(dict):  # a dict that a weak reference can watch
        pass

    real_build, real_forward = train._build_batch, train.backbone_forward
    buffers, caches = [], []

    def holds(obj, clips):
        if isinstance(obj, dict):
            return any(holds(v, clips) for v in obj.values())
        if isinstance(obj, (tuple, list)):
            return any(holds(v, clips) for v in obj)
        return isinstance(obj, np.ndarray) and np.shares_memory(obj, clips)

    def build(cfg, data, spec, iteration, clips=None):
        # the last step's forward cache, the only other reader of the clips,
        # has dropped them before they are refilled
        last = caches[-1]() if caches else None
        assert last is None or not holds(last, clips), iteration
        out = real_build(cfg, data, spec, iteration, clips)
        buffers.append(out[0])
        return out

    def forward(*args, **kwargs):
        logits, cache = real_forward(*args, **kwargs)
        cache = Cache(cache)
        caches.append(weakref.ref(cache))
        return logits, cache

    def fresh(cfg, data, spec, iteration, clips=None):
        return real_build(cfg, data, spec, iteration)

    ckpts = []
    for name, builder in (("reused", build), ("fresh", fresh)):
        cfg = _run_config(data_root, "tin", out_dir=str(data_root / name), max_iters=5, batch=4,
                          warmup_iters=2, eval_interval=5, checkpoint_interval=5)
        with monkeypatch.context() as patch:
            patch.setattr(train, "_build_batch", builder)
            patch.setattr(train, "backbone_forward", forward)
            ckpts.append(train.run_training(cfg).read_bytes())
        if name == "reused":
            assert len(buffers) == 5 and all(b is buffers[0] for b in buffers)
            assert is_batch_innermost(buffers[0])
    assert ckpts[0] == ckpts[1]


def test_prediction_files_and_checkpoint_are_bit_identical(data_root):
    assert golden_digests(data_root) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in golden_digests(_make_data(Path(tmp))).items():
            print(f'    "{key}": "{digest}",')
