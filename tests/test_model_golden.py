"""Bit-exact golden hashes of the backbone's forward and backward passes.

Each case hashes the logits, the clip gradient and every parameter gradient
(in ParamStore order) with sha256. A change to how the model chains its
layers must leave every byte of these outputs alone; a change that means to
move them has to say so and replace the table.

To print the table for the code at hand:
    PYTHONPATH=src python tests/test_model_golden.py
"""

import hashlib

import numpy as np
import pytest

from temporalkit.model import ModelConfig, backbone_backward, backbone_forward, init_params

GOLDEN = {
    ("none", "pool", False): "f8ea35932d1832d98061cd47af76d9661f12efd1a4401427f62cb517276daa35",
    ("none", "pool", True): "6bdcdb7c885c8f889d83d7ffe05d71d6967e6b2f823d495a0674baf136e3924a",
    ("none", "consensus", False): "8d5c6b77c4507fd3e63699666809204d9fe5717134968a72b00ecddda177b410",
    ("none", "consensus", True): "2c595c4caea208b4dec75ff579cbc0c27191f687431207b35f68aaff6e4cb7b9",
    ("tsm", "pool", False): "fa05f0ff9c692473f5d943e2451a8021b454938f55cd0e1ebfc0270cea21c453",
    ("tsm", "pool", True): "c124c047a9e3b35e1f2fa6e99565f6eb5b2ec409c9e11e1a895327cec53b7562",
    ("tsm", "consensus", False): "be03949bd269de76df19ef4f7cb382bc3876987a6be23235c510babc6557c5a0",
    ("tsm", "consensus", True): "b88eac76948311fb4ea1ee5d585e81ab0ec9485d168206d87c03083304fcee3b",
    ("tin", "pool", False): "6a4b9cecdfac9eab0fc77a9ba8e5a110ad73837d336be4e2a20375740630725c",
    ("tin", "pool", True): "ecbc954a801acf79584a6b13f65eb6e486a88d133e200a4a18337f0ba8616a7b",
    ("tin", "consensus", False): "72ead2b8b98e49ec1f8f7bc423faa87c1492d0da8cfc6cee6bd034c54044f2de",
    ("tin", "consensus", True): "b55a0bd8a1df0bed0cce22af8689ab72399d97b2a0a825b922f89b871861cfd7",
}


def golden_digest(mode: str, head: str, training: bool) -> str:
    cfg = ModelConfig(frames=4, in_channels=2, height=8, width=8, num_classes=3,
                      temporal_mode=mode, num_groups=2, channels=(4, 6),
                      dropout=0.5, head=head)
    params = init_params(cfg, seed=31)
    rng = np.random.default_rng(32)
    for name in params.names():
        if ".tin.offs." in name or ".tin.wts." in name:
            params.values[name][...] = rng.normal(scale=0.5, size=params[name].shape)
    clip = rng.normal(size=(3, 4, 2, 8, 8))
    g_logits = rng.normal(size=(3, 3))

    logits, cache = backbone_forward(clip, params, cfg, training=training, seed=33,
                                     return_cache=True)
    params.zero_grads()
    g_clip = backbone_backward(g_logits, cache, params, cfg)

    digest = hashlib.sha256(logits.tobytes())
    digest.update(g_clip.tobytes())
    for name in params.names():
        digest.update(name.encode())
        digest.update(params.grads[name].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("mode,head,training", GOLDEN)
def test_logits_and_gradients_are_bit_identical(mode, head, training):
    assert golden_digest(mode, head, training) == GOLDEN[(mode, head, training)]


if __name__ == "__main__":
    for mode, head, training in GOLDEN:
        print(f'    ("{mode}", "{head}", {training}): "{golden_digest(mode, head, training)}",')
