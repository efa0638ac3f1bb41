"""The heap policy `ops` sets on import: a repeated eval forward takes its
temporaries from the heap instead of faulting fresh pages in.

Under glibc's default thresholds each repeated backbone_forward of 7-8
16x32x32 clips made about 1,800-2,100 minor page faults, as its
multi-MB column and padding buffers were unmapped or trimmed at the end of
one call and faulted in again by the next. The guard also runs with every
forward split onto the second lane.

The warm-up has this thread and the lane's worker each run, at the same
time, a GEMM at least as large as any of the forward's in each dimension
that sets how much of OpenBLAS's packing buffer it fills. OpenBLAS keeps a
process-wide pool of those buffers, and a GEMM takes a second buffer only
while another thread is inside one; so without the warm-up, a call in which
two of the forward's GEMMs first overlap at a new depth touched pages of
the second buffer for the first time: warmed by one forward only, this file
failed 8 of 20 standalone runs, with 23-93 faults in one counted call, taken
on either thread.
"""

import resource
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from temporalkit import ops
from temporalkit.model import ModelConfig, backbone_forward, init_params

MAX_FAULTS_PER_CALL = 16


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("mode,clips", [("none", 8), ("tsm", 8), ("tin", 7)])
def test_repeated_eval_forward_does_not_fault_its_temporaries_in_again(mode, clips):
    _assert_few_faults_per_forward(mode, clips)


@pytest.mark.parametrize("mode,clips", [("none", 8), ("tsm", 8), ("tin", 7)])
def test_forward_split_onto_the_lane_does_not_fault_either(mode, clips, monkeypatch):
    # every forward split goes to a worker, whose allocations count too
    with ThreadPoolExecutor(max_workers=1) as pool:
        monkeypatch.setattr(ops, "_lane", lambda: pool)
        monkeypatch.setattr(ops, "FORWARD_HANDOFF_MADDS", 0)
        _assert_few_faults_per_forward(mode, clips)


def _assert_few_faults_per_forward(mode, clips):
    if not ops.HEAP_THRESHOLDS_PINNED:
        pytest.skip("the C library has no mallopt, so the heap policy is not applied")
    cfg = ModelConfig(frames=16, in_channels=1, height=32, width=32, num_classes=8,
                      temporal_mode=mode)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(1)
    for name in params.names():
        if ".tin.offs." in name or ".tin.wts." in name:
            params.values[name][...] = rng.normal(scale=0.5, size=params[name].shape)
    clip = rng.random((clips, 16, 1, 32, 32))
    _fill_blas_buffers(cfg)
    first = backbone_forward(clip, params, cfg)  # warm-up: the heap grows to its size
    faults = []
    for _ in range(4):
        before = _minor_faults()
        logits = backbone_forward(clip, params, cfg)
        faults.append(_minor_faults() - before)
        assert logits.tobytes() == first.tobytes()
    assert max(faults) <= MAX_FAULTS_PER_CALL, faults


def _fill_blas_buffers(cfg):
    """Run the widest kernel matrix of cfg's convs (max channels by max
    channels * 3 * 3) against 16384 columns, more than OpenBLAS packs at
    once, on this thread and the lane's worker at once, a few times."""
    lane = ops._lane()
    if lane is None:
        return
    width = max(cfg.channels)
    a, b = np.ones((width, 9 * width)), np.ones((9 * width, 16384))
    for _ in range(3):
        join = lane.submit(np.matmul, a, b)
        a @ b
        join.result()
