"""The second lane: parameter gradients computed on a worker thread are the
same bits as the serial order, and the lane adds at most one thread."""

import concurrent.futures
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from temporalkit import ops
from temporalkit.model import ModelConfig, backbone_backward, backbone_forward, init_params


@pytest.fixture
def lane_on(monkeypatch):
    """Every closure goes to a worker, whatever its size or the CPU count."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        monkeypatch.setattr(ops, "_lane", lambda: pool)
        monkeypatch.setattr(ops, "HANDOFF_MADDS", 0)
        yield


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
    monkeypatch.setattr(ops, "_lane", lambda: None)
    g_serial, grads_serial = _gradients(mode, head)
    assert g_lane.tobytes() == g_serial.tobytes()
    assert grads_lane == grads_serial


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
