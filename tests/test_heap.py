"""The heap policy `ops` sets on import: a repeated eval forward takes its
temporaries from the heap instead of faulting fresh pages in.

Under glibc's default thresholds each repeated backbone_forward of 7-8
16x32x32 clips made about 1,800-2,100 minor page faults, as its
multi-MB column and padding buffers were unmapped or trimmed at the end of
one call and faulted in again by the next. The guard also runs with every
forward split onto the second lane.
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
    first = backbone_forward(clip, params, cfg)  # warm-up: the heap grows to its size
    faults = []
    for _ in range(4):
        before = _minor_faults()
        logits = backbone_forward(clip, params, cfg)
        faults.append(_minor_faults() - before)
        assert logits.tobytes() == first.tobytes()
    assert max(faults) <= MAX_FAULTS_PER_CALL, faults
