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
    ("none", "pool", False): "c26bd4a5946c59e7efbc605b5bf7dab07a597755ff2fe6cd8cd0241096a0c359",
    ("none", "pool", True): "2cbf50ad42004727eeb427ec6ebdb1667d0828eb985766c68b59d4f11191b634",
    ("none", "consensus", False): "180ababdd3a8d7019b2395a13b7e3a1ed3ccbee458b9de761eb748c65b1e09a2",
    ("none", "consensus", True): "8f78503a2441d1b27b804d1cc35b6810c7d7f86e794327e3234c04045d1c68d0",
    ("tsm", "pool", False): "3b276fb53557b5cdf1aed62cf2b813bf303ecd83211c015502f5c8cd865acb9d",
    ("tsm", "pool", True): "a2d7ba56b809b4ac5da6f2bfd3732f43fa694f4c3aaf1b0542acdaf4ae14fde7",
    ("tsm", "consensus", False): "fc7594938ec64bccad0fa535cf607113630ee3bf0bcffbfb25690565c9c35fb5",
    ("tsm", "consensus", True): "7d91ba056a7b362bb172b77ba8e99117990df909d74a705b7d5e46b0045011a9",
    ("tin", "pool", False): "dcff34b3f77802804532409891bb84ecb3cde600f7309a6cc05d5bbaa0eec5b5",
    ("tin", "pool", True): "261531c0d128f01e5ba981e6e2921b264d186a4b07afaad0105a30b54bb92376",
    ("tin", "consensus", False): "790b311c0393c9b2d2cbfc8250875474f870214e99ec4e36da6c169104df9b33",
    ("tin", "consensus", True): "1e660f19e789de7fe66cf010a2af257716110441615eb994f492f8b90bee5503",
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
