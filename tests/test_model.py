from collections import Counter

import numpy as np
import pytest

from temporalkit import ops
from temporalkit.gradcheck import RTOL, check_model_all_params, check_offset_net, scaled_error
from temporalkit.losses import LossConfig, bce_scaled
from temporalkit.model import (
    ModelConfig,
    ParamStore,
    backbone_backward,
    backbone_forward,
    init_params,
    offset_weight_net_forward,
    predict_clip,
)


def micro_config(mode="none", **kw):
    base = dict(frames=4, in_channels=1, height=8, width=8, num_classes=3,
                temporal_mode=mode, num_groups=2, channels=(4, 6), dropout=0.0)
    base.update(kw)
    return ModelConfig(**base)


def randomize_tin_heads(params, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    for name in params.names():
        if ".tin.offs." in name or ".tin.wts." in name:
            params.values[name][...] = rng.normal(scale=scale, size=params[name].shape)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(3))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.zeros(3))

    def test_grads_match_shapes_and_zero(self):
        store = ParamStore()
        store.add("w", np.ones((2, 3)))
        assert store.grads["w"].shape == (2, 3)
        assert not store.grads["w"].any()
        store.add_grad("w", np.ones((2, 3)))
        store.zero_grads()
        assert not store.grads["w"].any()


class TestModelConfig:
    def test_groups_must_fit_narrowest_stage(self):
        with pytest.raises(ValueError, match="groups"):
            micro_config("tin", num_groups=5)

    def test_tsm_fold_must_fit(self):
        with pytest.raises(ValueError, match="fold"):
            ModelConfig(frames=4, in_channels=1, height=8, width=8, num_classes=2,
                        temporal_mode="tsm", fold=0.5, channels=(1,))

    def test_delta_max_defaults_to_half_frames(self):
        assert micro_config().delta_max == 2.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="temporal_mode"):
            micro_config("trn")


class TestInitParams:
    def test_heads_are_zero_initialized(self):
        params = init_params(micro_config("tin"), seed=0)
        for name in params.names():
            if ".tin.offs." in name or ".tin.wts." in name:
                assert not params[name].any(), name

    def test_backbone_weights_shared_across_modes(self):
        a = init_params(micro_config("none"), seed=5)
        b = init_params(micro_config("tin"), seed=5)
        for name in a.names():
            np.testing.assert_array_equal(a[name], b[name])

    def test_seed_changes_weights(self):
        a = init_params(micro_config(), seed=0)
        b = init_params(micro_config(), seed=1)
        assert not np.array_equal(a["stem.weight"], b["stem.weight"])


class TestOffsetWeightNet:
    def test_zero_heads_give_identity_parameters(self):
        cfg = micro_config("tin")
        params = init_params(cfg, seed=0)
        feat = np.random.default_rng(0).normal(size=(3, 4, 4, 5, 5))
        ip, _ = offset_weight_net_forward(feat, params, cfg, "block0.tin.")
        np.testing.assert_array_equal(ip.offsets, np.zeros((3, 2)))
        np.testing.assert_array_equal(ip.weights, np.ones((3, 2, 4)))

    def test_outputs_respect_bounds(self):
        cfg = micro_config("tin")
        params = init_params(cfg, seed=0)
        randomize_tin_heads(params, seed=1, scale=5.0)
        feat = np.random.default_rng(2).normal(size=(4, 4, 4, 5, 5))
        ip, _ = offset_weight_net_forward(feat, params, cfg, "block0.tin.")
        assert np.all(np.abs(ip.offsets) <= cfg.delta_max)
        assert np.all(ip.weights > 0.0) and np.all(ip.weights < 2.0)

    def test_head_gradients_match_finite_differences(self):
        worst = max(check_offset_net(seed) for seed in range(5))
        assert worst < RTOL

    def test_frame_axis_mismatch_rejected(self):
        cfg = micro_config("tin")
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="frame"):
            offset_weight_net_forward(np.zeros((1, 6, 4, 2, 2)), params, cfg, "block0.tin.")


class TestBackboneForward:
    def test_clip_shape_validated(self):
        cfg = micro_config()
        params = init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="clip shape"):
            backbone_forward(np.zeros((1, 4, 1, 9, 8)), params, cfg)

    def test_batch_independence(self):
        cfg = micro_config("tin")
        params = init_params(cfg, seed=3)
        randomize_tin_heads(params, 4)
        clips = np.random.default_rng(5).normal(size=(2, 4, 1, 8, 8))
        both = backbone_forward(clips, params, cfg)
        one = backbone_forward(clips[:1], params, cfg)
        two = backbone_forward(clips[1:], params, cfg)
        assert np.max(np.abs(both - np.vstack([one, two]))) <= 1e-12

    def test_identity_at_init_matches_none_model(self):
        none_cfg, tin_cfg = micro_config("none"), micro_config("tin")
        none_params = init_params(none_cfg, seed=7)
        tin_params = init_params(tin_cfg, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(5):
            clip = rng.normal(size=(2, 4, 1, 8, 8))
            delta = backbone_forward(clip, tin_params, tin_cfg) - backbone_forward(
                clip, none_params, none_cfg
            )
            assert np.max(np.abs(delta)) <= 1e-12

    @pytest.mark.parametrize("head", ["pool", "consensus"])
    def test_identity_at_init_is_bit_exact(self, head):
        # zero heads give the identity mixing matrix, which the interlace
        # GEMM applies exactly
        cfgs = {mode: micro_config(mode, head=head, height=16, width=16) for mode in ("none", "tin")}
        clip = np.random.default_rng(11).random((3, 4, 1, 16, 16))
        logits = {mode: backbone_forward(clip, init_params(cfg, 12), cfg) for mode, cfg in cfgs.items()}
        assert logits["tin"].tobytes() == logits["none"].tobytes()

    def test_frame_permutation_invariance_without_temporal_module(self):
        cfg = micro_config("none")
        params = init_params(cfg, seed=9)
        rng = np.random.default_rng(10)
        clip = rng.normal(size=(2, 4, 1, 8, 8))
        for _ in range(5):
            perm = rng.permutation(4)
            delta = backbone_forward(clip[:, perm], params, cfg) - backbone_forward(clip, params, cfg)
            assert np.max(np.abs(delta)) <= 1e-12

    @pytest.mark.parametrize("mode", ["tin", "tsm"])
    def test_temporal_modes_break_frame_permutation_invariance(self, mode):
        broke = 0
        for seed in range(20):
            cfg = micro_config(mode)
            params = init_params(cfg, seed=seed)
            if mode == "tin":
                randomize_tin_heads(params, seed + 100, scale=1.0)
            rng = np.random.default_rng(seed + 200)
            clip = rng.normal(size=(2, 4, 1, 8, 8))
            perm = np.array([1, 3, 0, 2])
            delta = backbone_forward(clip[:, perm], params, cfg) - backbone_forward(
                clip, params, cfg
            )
            if np.max(np.abs(delta)) > 1e-3:
                broke += 1
        assert broke >= 19

    def test_training_dropout_is_seeded(self):
        cfg = micro_config(dropout=0.5)
        params = init_params(cfg, seed=11)
        clip = np.random.default_rng(12).normal(size=(2, 4, 1, 8, 8))
        a = backbone_forward(clip, params, cfg, training=True, seed=1)
        b = backbone_forward(clip, params, cfg, training=True, seed=1)
        c = backbone_forward(clip, params, cfg, training=True, seed=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_consensus_head_matches_pool_head_shape_and_invariance(self):
        cfg = micro_config("none", head="consensus")
        params = init_params(cfg, seed=13)
        clip = np.random.default_rng(14).normal(size=(2, 4, 1, 8, 8))
        logits = backbone_forward(clip, params, cfg)
        assert logits.shape == (2, 3)
        perm = np.random.default_rng(15).permutation(4)
        delta = backbone_forward(clip[:, perm], params, cfg) - logits
        assert np.max(np.abs(delta)) <= 1e-12


class TestBackboneBackward:
    @pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
    def test_every_parameter_matches_finite_differences(self, mode):
        assert check_model_all_params(mode, seed=7) < RTOL

    def test_clip_gradient_matches_finite_differences(self):
        cfg = micro_config("tin")
        params = init_params(cfg, seed=16)
        randomize_tin_heads(params, 17)
        rng = np.random.default_rng(18)
        clip = rng.normal(size=(2, 4, 1, 8, 8))
        targets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        lcfg = LossConfig(scale=2.0)

        logits, cache = backbone_forward(clip, params, cfg, return_cache=True)
        _, g_logits = bce_scaled(logits, targets, lcfg)
        params.zero_grads()
        g_clip = backbone_backward(g_logits, cache, params, cfg)

        h = 1e-5
        idxs = [tuple(rng.integers(0, s) for s in clip.shape) for _ in range(20)]
        for idx in idxs:
            old = clip[idx]
            clip[idx] = old + h
            fp, _ = bce_scaled(backbone_forward(clip, params, cfg), targets, lcfg)
            clip[idx] = old - h
            fm, _ = bce_scaled(backbone_forward(clip, params, cfg), targets, lcfg)
            clip[idx] = old
            num = (fp - fm) / (2 * h)
            assert scaled_error(np.array([g_clip[idx]]), np.array([num])) < RTOL

    def test_consensus_head_gradients_match_finite_differences(self):
        cfg = micro_config("none", head="consensus", channels=(3, 4))
        params = init_params(cfg, seed=19)
        rng = np.random.default_rng(20)
        clip = rng.normal(size=(2, 4, 1, 8, 8))
        targets = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        lcfg = LossConfig(scale=1.0)
        logits, cache = backbone_forward(clip, params, cfg, return_cache=True)
        _, g_logits = bce_scaled(logits, targets, lcfg)
        params.zero_grads()
        backbone_backward(g_logits, cache, params, cfg)
        h = 1e-5
        for name in ("head.weight", "block0.conv1.weight", "stem.bias"):
            arr = params.values[name]
            flat_idx = [tuple(rng.integers(0, s) for s in arr.shape) for _ in range(5)]
            for idx in flat_idx:
                old = arr[idx]
                arr[idx] = old + h
                fp, _ = bce_scaled(backbone_forward(clip, params, cfg), targets, lcfg)
                arr[idx] = old - h
                fm, _ = bce_scaled(backbone_forward(clip, params, cfg), targets, lcfg)
                arr[idx] = old
                num = (fp - fm) / (2 * h)
                analytic = params.grads[name][idx]
                assert scaled_error(np.array([analytic]), np.array([num])) < RTOL


def test_backbone_runs_the_gradchecked_activations(monkeypatch):
    calls = {"forward": Counter(), "backward": Counter()}
    activation, activation_backward = ops.activation, ops.activation_backward

    def counted(x, kind):
        calls["forward"][kind] += 1
        return activation(x, kind)

    def counted_backward(gy, x, y, kind):
        calls["backward"][kind] += 1
        return activation_backward(gy, x, y, kind)

    monkeypatch.setattr(ops, "activation", counted)
    monkeypatch.setattr(ops, "activation_backward", counted_backward)
    cfg = micro_config("tin")
    params = init_params(cfg, seed=21)
    clip = np.random.default_rng(22).normal(size=(2, 4, 1, 8, 8))
    logits, cache = backbone_forward(clip, params, cfg, return_cache=True)
    backbone_backward(np.ones_like(logits), cache, params, cfg)
    # per block: the relu after conv1, and the offset net's relu, tanh and sigmoid
    per_block = {"relu": 2, "tanh": 1, "sigmoid": 1}
    expected = {kind: n * cfg.num_blocks for kind, n in per_block.items()}
    assert calls == {"forward": expected, "backward": expected}


class TestPredictClip:
    def test_zero_logit_is_half(self):
        assert predict_clip(np.array([[0.0]]))[0, 0] == 0.5

    def test_monotone_in_logits(self):
        logits = np.linspace(-4, 4, 9).reshape(1, -1)
        probs = predict_clip(logits)[0]
        assert np.all(np.diff(probs) > 0)

    def test_logit_two(self):
        assert abs(predict_clip(np.array([[2.0]]))[0, 0] - 0.880797) < 1e-6

    def test_open_unit_interval(self):
        # float64 saturates to exactly 1.0 past z ~ 37; stay inside that range
        probs = predict_clip(np.array([[-30.0, 0.0, 30.0]]))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)
