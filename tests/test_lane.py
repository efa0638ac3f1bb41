"""The second lane: forward halves and parameter gradients computed on a
worker thread are the same bits as the unsplit ops, results do not depend on
whether the process has a lane (one CPU or two), the worker calls none of
the functions the benchmark's tracer wraps, and the lane adds at most one
thread. OpenBLAS gets one thread only when the environment sets none."""

import concurrent.futures
import glob
import importlib
import importlib.util
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from temporalkit import evaluate, ops
from temporalkit.model import ModelConfig, backbone_backward, backbone_forward, init_params
from temporalkit.sampling import ClipSamplerSpec, dense_test_plan
from temporalkit.synth import generate_dataset
from temporalkit.temporal import GroupSpec, InterlaceParams, interlace_forward


class CountingPool(ThreadPoolExecutor):
    """A one-worker pool that counts what it is handed."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def lane_on(monkeypatch):
    """Every forward split and every closure goes to a worker, whatever its
    size or the CPU count; yields the pool."""
    with CountingPool() as pool:
        monkeypatch.setattr(ops, "_lane", lambda: pool)
        monkeypatch.setattr(ops, "HANDOFF_MADDS", 0)
        yield pool


def _serial(monkeypatch):
    """No lane, and no split: the unsplit op the lane is compared with."""
    monkeypatch.setattr(ops, "_lane", lambda: None)
    monkeypatch.setattr(ops, "HANDOFF_MADDS", 1 << 62)


def _model(mode, head):
    cfg = ModelConfig(frames=4, in_channels=2, height=16, width=16, num_classes=3,
                      temporal_mode=mode, num_groups=2, channels=(4, 6), head=head)
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    for name in params.names():
        if ".tin.offs." in name or ".tin.wts." in name:
            params.values[name][...] = rng.normal(scale=0.5, size=params[name].shape)
    return cfg, params, rng.normal(size=(3, 4, 2, 16, 16)), rng.normal(size=(3, 3))


def _gradients(mode, head, clip_grad=True):
    cfg, params, clip, g_logits = _model(mode, head)
    _, cache = backbone_forward(clip, params, cfg, training=True, seed=7, return_cache=True)
    g_clip = backbone_backward(g_logits, cache, params, cfg, clip_grad=clip_grad)
    return g_clip, {name: g.tobytes() for name, g in params.grads.items()}


@pytest.mark.parametrize("head", ["pool", "consensus"])
@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_lane_gradients_are_bit_identical_to_serial(mode, head, lane_on, monkeypatch):
    g_lane, grads_lane = _gradients(mode, head)
    _serial(monkeypatch)
    g_serial, grads_serial = _gradients(mode, head)
    assert g_lane.tobytes() == g_serial.tobytes()
    assert grads_lane == grads_serial


@pytest.mark.parametrize("head", ["pool", "consensus"])
@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_lane_logits_are_bit_identical_to_serial(mode, head, lane_on, monkeypatch):
    cfg, params, clip, _ = _model(mode, head)
    on = backbone_forward(clip, params, cfg)
    assert lane_on.submitted > 0
    _serial(monkeypatch)
    assert on.tobytes() == backbone_forward(clip, params, cfg).tobytes()


def _dense_probs():
    """evaluate._view_probs on a 24-frame video's 4x3x2-view dense plan."""
    cfg = ModelConfig(frames=8, in_channels=1, height=16, width=16, num_classes=4,
                      temporal_mode="tsm", channels=(4, 8))
    params = init_params(cfg, seed=2)
    frames = np.random.default_rng(3).random((24, 20, 20, 1))
    views = list(dense_test_plan(24, ClipSamplerSpec.strided(8, 1), num_clips=4,
                                 crops_per_clip=3, scales=(16, 20), crop_size=16))
    return evaluate._view_probs(frames, views, params, cfg)


def test_dense_view_probs_are_bit_identical_to_serial(lane_on, monkeypatch):
    on = _dense_probs()
    assert lane_on.submitted > 0
    _serial(monkeypatch)
    assert on.tobytes() == _dense_probs().tobytes()


# (C_in, H, C_out, k, stride, pad) of every conv in the default model (channels
# 8/16/32 on 1x32x32 frames): the stem, then each block's conv1, conv2, skip
_DEFAULT_CONVS = [(1, 32, 8, 3, 2, 1),
                  (8, 16, 8, 3, 2, 1), (8, 8, 8, 3, 1, 1), (8, 16, 8, 1, 2, 0),
                  (8, 8, 16, 3, 2, 1), (16, 4, 16, 3, 1, 1), (8, 8, 16, 1, 2, 0),
                  (16, 4, 32, 3, 2, 1), (32, 2, 32, 3, 1, 1), (16, 4, 32, 1, 2, 0)]


# 128 images: a train-tin batch and an 8-clip eval chunk of 16 frames; 96 and
# 112: the dense chunks of 6 and 7 clips
@pytest.mark.parametrize("images", [128, 112, 96])
@pytest.mark.parametrize("shape", _DEFAULT_CONVS)
def test_split_conv_is_bit_identical_to_unsplit(shape, images, lane_on, monkeypatch):
    c, h, co, k, stride, pad = shape
    rng = np.random.default_rng(images + c * h + co)
    x = ops.batch_innermost(rng.normal(size=(images, c, h, h)))
    kernel, bias = rng.normal(size=(co, c, k, k)), rng.normal(size=co)
    y, cols = ops.conv2d_with_cols(x, kernel, bias, stride, pad)
    assert lane_on.submitted == 1
    _serial(monkeypatch)
    y_ref, cols_ref = ops.conv2d_with_cols(x, kernel, bias, stride, pad)
    assert y.strides == y_ref.strides and y.tobytes() == y_ref.tobytes()
    assert cols.tobytes() == cols_ref.tobytes()


def _run_cases():
    """(shape, size) of the batch-invariance test. A GEMM's columns are not
    always the same bits at every column count: this OpenBLAS (0.3.31, AMD
    EPYC) computes a call's last columns with another kernel when the count
    is 1-4 past a multiple of 8, and a split call's halves have half the
    columns. Block 2's convs have 4 output columns an image, so runs of 1-3
    images are expected to differ there."""
    for shape in _DEFAULT_CONVS:
        c, h, co, k, stride, pad = shape
        columns = ((h + 2 * pad - k) // stride + 1) ** 2
        for size in (1, 2, 3, 16, 64):
            marks = [pytest.mark.xfail(reason="GEMM tail columns", strict=False)] \
                if columns * size % 16 else []
            yield pytest.param(shape, size, marks=marks)


@pytest.mark.parametrize("threshold", [ops.HANDOFF_MADDS, 0, 1 << 62])
@pytest.mark.parametrize("shape,size", list(_run_cases()))
def test_forward_conv_is_batch_invariant(shape, size, threshold, monkeypatch):
    """Contiguous runs of `size` of 128 batch-innermost images, at the start,
    the middle, the end and a seeded place, give the bytes of those images in
    the full call, whether the forward splits at its threshold, always or
    never."""
    c, h, co, k, stride, pad = shape
    rng = np.random.default_rng(c * h + co + k)
    x = ops.batch_innermost(rng.normal(size=(128, c, h, h)))
    kernel, bias = rng.normal(size=(co, c, k, k)), rng.normal(size=co)
    with CountingPool() as pool:
        monkeypatch.setattr(ops, "_lane", lambda: pool)
        monkeypatch.setattr(ops, "HANDOFF_MADDS", threshold)
        full = ops.conv2d(x, kernel, bias, stride, pad)
        for lo in sorted({0, (128 - size) // 2, 128 - size, int(rng.integers(129 - size))}):
            part = ops.conv2d(x[lo : lo + size], kernel, bias, stride, pad)
            assert part.tobytes() == full[lo : lo + size].tobytes(), lo
        assert (pool.submitted > 0) == (kernel.size * full[0, 0].size * 128 >= threshold)


@pytest.mark.parametrize("num_groups", [2, 3])
def test_split_interlace_forward_is_bit_identical_to_unsplit(num_groups, lane_on, monkeypatch):
    rng = np.random.default_rng(num_groups)
    n, t, c = 8, 16, 8
    x = ops.batch_innermost(rng.normal(size=(n, t, c, 16, 16)), 2)
    params = InterlaceParams(rng.uniform(-3, 3, size=(n, num_groups)),
                             rng.uniform(0, 2, size=(n, num_groups, t)), delta_max=8.0)
    groups = GroupSpec.even(c, num_groups)
    y = interlace_forward(x, groups, params)
    assert lane_on.submitted == 1
    _serial(monkeypatch)
    assert y.tobytes() == interlace_forward(x, groups, params).tobytes()


# tsm, 5 frames of 40x40, channels 16/32/64: conv shapes whose split halves
# give other GEMM bits than the whole, so a split that depended on the CPU
# count would show here
_SCAN_CONFIG = dict(frames=5, in_channels=1, height=40, width=40, num_classes=6,
                    temporal_mode="tsm", channels=(16, 32, 64))


def _logits_and_gradients(clips):
    cfg = ModelConfig(**_SCAN_CONFIG)
    params = init_params(cfg, seed=1)
    clip = np.random.default_rng(clips).random((clips, 5, 1, 40, 40))
    logits, cache = backbone_forward(clip, params, cfg, training=True, seed=2, return_cache=True)
    backbone_backward(np.ones_like(logits), cache, params, cfg)
    return logits.tobytes(), {name: g.tobytes() for name, g in params.grads.items()}


@pytest.mark.parametrize("clips", [1, 2, 3, 5, 7])
def test_lane_at_its_threshold_changes_no_bit(clips, monkeypatch):
    """At the real HANDOFF_MADDS, a process with a lane and one without give
    the same logits and parameter gradients: the lane picks only the thread."""
    with CountingPool() as pool:
        monkeypatch.setattr(ops, "_lane", lambda: pool)
        on = _logits_and_gradients(clips)
        assert pool.submitted > 0
    monkeypatch.setattr(ops, "_lane", lambda: None)
    assert _logits_and_gradients(clips) == on


_PINNED_TRAINING = """
import os
os.sched_setaffinity(0, {cpus!r})  # before numpy loads, as under taskset
from temporalkit.config import RunConfig
from temporalkit.train import run_training
run_training(RunConfig(**{cfg!r}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="fewer than two CPUs")
@pytest.mark.parametrize("batch", [5, 7])
def test_one_cpu_and_two_write_the_same_checkpoint(batch, tmp_path):
    """run_training in a child pinned to one CPU writes the bytes of a child
    on two CPUs, which has the lane and pins OpenBLAS to one thread."""
    generate_dataset(tmp_path / "data", 8, t=12, seed=4)
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    cpus = sorted(os.sched_getaffinity(0))[:2]
    written = []
    for pinned in (cpus[:1], cpus):
        out = tmp_path / f"cpus{len(pinned)}"
        cfg = dict(sampler="segments", segments=5, crop=40, scales=(40,), scale_min=40,
                   scale_max=48, channels=(16, 32, 64), batch=batch, max_iters=3,
                   warmup_iters=1, seed=batch, data_root=str(tmp_path / "data"),
                   train_manifest=str(tmp_path / "data" / "manifest.tsv"), out_dir=str(out))
        subprocess.run([sys.executable, "-c", _PINNED_TRAINING.format(cpus=set(pinned), cfg=cfg)],
                       timeout=300, check=True, env={**base, "PYTHONPATH": src})
        written.append((out / "checkpoint.xtck").read_bytes())
    assert written[0] == written[1]


def test_tiny_shapes_make_no_lane_submission(monkeypatch):
    with CountingPool() as pool:
        monkeypatch.setattr(ops, "_lane", lambda: pool)
        _gradients("tin", "pool")  # the model of the tests above, forward and backward
        rng = np.random.default_rng(4)
        ops.conv2d(rng.normal(size=(2, 3, 7, 7)), rng.normal(size=(4, 3, 3, 3)), np.zeros(4), 1, 1)
        assert pool.submitted == 0


def _tracer_bindings():
    """The (module, attribute, span name) triples perfbench's tracer wraps."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BINDINGS


def test_worker_calls_no_function_the_tracer_wraps(lane_on, monkeypatch):
    """The tracer's span stack belongs to the main thread; a wrapped function
    entered on the worker would corrupt it."""
    off_main = []
    for module, attr, _ in _tracer_bindings():
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)

        def on_main_only(*args, _fn=fn, _name=f"{module}.{attr}", **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, on_main_only)
    _gradients("tin", "pool")
    _dense_probs()
    assert lane_on.submitted > 0 and off_main == []


@pytest.mark.parametrize("mode", ["none", "tin"])
def test_clip_grad_off_keeps_every_parameter_gradient(mode):
    g_clip, with_clip = _gradients(mode, "pool", clip_grad=True)
    none, without_clip = _gradients(mode, "pool", clip_grad=False)
    assert g_clip is not None and none is None
    assert with_clip == without_clip


def test_conv_backward_without_input_grad(lane_on):
    rng = np.random.default_rng(8)
    x, k = rng.normal(size=(5, 3, 9, 9)), rng.normal(size=(4, 3, 3, 3))
    gy = rng.normal(size=ops.conv2d(x, k, np.zeros(4), 2, 1).shape)
    gx, gw, gb = ops.conv2d_backward(gy, x, k, 2, 1)
    none, gw2, gb2 = ops.conv2d_backward(gy, x, k, 2, 1, input_grad=False)
    assert gx is not None and none is None
    assert gw.tobytes() == gw2.tobytes() and gb.tobytes() == gb2.tobytes()


def test_repeated_backward_adds_at_most_one_thread(monkeypatch):
    monkeypatch.setattr(ops, "HANDOFF_MADDS", 0)
    before = threading.active_count()
    for _ in range(20):
        _gradients("tin", "pool")
        assert threading.active_count() <= before + 1


def test_single_cpu_has_no_lane(monkeypatch):
    monkeypatch.setattr(ops.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(ops, "_lane_pool", None)
    assert ops._lane() is None
    assert ops.on_lane(lambda: 42, 1 << 40)() == 42


def test_lane_error_is_raised_at_the_join(lane_on):
    join = ops.on_lane(lambda: 1 // 0, 1)
    with pytest.raises(ZeroDivisionError):
        join()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable CPU: no lane")
def test_concurrent_callers_make_one_lane(monkeypatch):
    rng = np.random.default_rng(9)
    x, k = rng.normal(size=(6, 3, 12, 12)), rng.normal(size=(5, 3, 3, 3))
    gy = rng.normal(size=(6, 5, 12, 12))
    want = [a.tobytes() for a in ops.conv2d_backward(gy, x, k, 1, 1)]
    pools = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    def slow_affinity(pid):  # widens the window in which two callers could both make a pool
        time.sleep(0.01)
        return {0, 1}

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(ops.os, "sched_getaffinity", slow_affinity)
    monkeypatch.setattr(ops, "HANDOFF_MADDS", 0)
    monkeypatch.setattr(ops, "_lane_pool", None)  # the first hand-off below makes the lane
    got = []
    start = threading.Barrier(4)

    def worker():
        start.wait(timeout=60)
        for _ in range(10):
            got.append([a.tobytes() for a in ops.conv2d_backward(gy, x, k, 1, 1)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 40
    assert len(pools) == 1


def _backward_in_child():
    ops.HANDOFF_MADDS = 0
    _gradients("tin", "pool")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable CPU: no lane to fork")
def test_forked_child_gets_its_own_lane(monkeypatch):
    monkeypatch.setattr(ops, "HANDOFF_MADDS", 0)
    _gradients("tin", "pool")  # the parent's worker thread is running now
    child = multiprocessing.get_context("fork").Process(target=_backward_in_child)
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
    assert not alive and child.exitcode == 0


_BLAS_THREADS = """
import ctypes
from temporalkit import ops
get = getattr(ctypes.CDLL({lib!r}), "scipy_openblas_get_num_threads64_")
get.argtypes, get.restype = (), ctypes.c_int
print(ops.BLAS_THREADS_PINNED, get())
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one usable CPU: no lane")
@pytest.mark.parametrize("env,want", [({}, "True 1"),
                                      ({"OPENBLAS_NUM_THREADS": "2"}, "False 2"),
                                      ({"OMP_NUM_THREADS": "2"}, "False 2")])
def test_blas_threads_are_pinned_only_when_the_environment_sets_none(env, want):
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if not libs:
        pytest.skip("numpy does not bundle scipy-openblas here")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _BLAS_THREADS.format(lib=libs[0])],
                         capture_output=True, text=True, timeout=60, check=True,
                         env={**base, **env, "PYTHONPATH": src})
    assert out.stdout.split() == want.split()


_NO_AFFINITY = """
import os
del os.sched_getaffinity  # as on macOS and Windows
from temporalkit import gradcheck, ops
print(ops._lane_cpus(), (os.cpu_count() or 1) > 1)
"""


def test_ops_and_gradcheck_import_without_an_affinity_mask():
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _NO_AFFINITY], capture_output=True, text=True,
                         timeout=60, check=True, env={**base, "PYTHONPATH": src})
    got, want = out.stdout.split()
    assert got == want
