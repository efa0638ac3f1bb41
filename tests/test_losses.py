import math

import numpy as np
import pytest

from temporalkit.config import ConfigError, RunConfig
from temporalkit.losses import (
    LossConfig,
    bce_scaled,
    class_weights,
    lsep,
    warp,
)
from temporalkit.train import make_loss_fn


class TestBceScaled:
    def test_single_entry_ln2(self):
        loss, _ = bce_scaled(np.array([[0.0]]), np.array([[1.0]]), LossConfig(scale=1.0))
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-12)

    def test_scale_160(self):
        loss, _ = bce_scaled(np.array([[0.0]]), np.array([[1.0]]), LossConfig(scale=160.0))
        assert abs(loss - 110.9035) < 1e-3

    def test_gradient_at_zero_logit(self):
        _, grad = bce_scaled(np.array([[0.0]]), np.array([[1.0]]), LossConfig(scale=1.0))
        np.testing.assert_allclose(grad, [[-0.5]], rtol=1e-12)

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            bce_scaled(np.zeros((1, 2)), np.array([[0.5, 1.0]]), LossConfig())

    def test_no_overflow_at_large_logits(self):
        z = np.array([[50.0, -50.0]])
        y = np.array([[0.0, 1.0]])
        loss, grad = bce_scaled(z, y, LossConfig(scale=160.0))
        assert np.isfinite(loss) and np.all(np.isfinite(grad))
        # both entries are maximally wrong: per-entry loss is ~|z|
        np.testing.assert_allclose(loss, 160.0 * 50.0, rtol=1e-6)

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 6))
        y = (rng.random((5, 6)) < 0.4).astype(float)
        perm = rng.permutation(6)
        cfg = LossConfig(scale=160.0)
        loss_a, grad_a = bce_scaled(z, y, cfg)
        loss_b, grad_b = bce_scaled(z[:, perm], y[:, perm], cfg)
        np.testing.assert_allclose(loss_a, loss_b, rtol=1e-12)
        np.testing.assert_allclose(grad_a[:, perm], grad_b, rtol=1e-12)

    def test_class_weights_scale_per_class_terms(self):
        z = np.zeros((1, 2))
        y = np.array([[1.0, 1.0]])
        w = np.array([2.0, 1.0])
        loss, grad = bce_scaled(z, y, LossConfig(scale=1.0, class_weights=w))
        np.testing.assert_allclose(loss, (2.0 + 1.0) * math.log(2.0) / 2.0, rtol=1e-12)
        np.testing.assert_allclose(grad, [[-0.5, -0.25]], rtol=1e-12)


class TestLsep:
    def test_one_pair(self):
        s = np.array([[2.0, 1.0]])
        y = np.array([[1.0, 0.0]])
        loss, _ = lsep(s, y)
        np.testing.assert_allclose(loss, math.log(1.0 + math.exp(-1.0)), rtol=1e-12)

    def test_huge_gap_vanishes(self):
        s = np.array([[50.0, 0.0]])
        y = np.array([[1.0, 0.0]])
        loss, _ = lsep(s, y)
        assert loss <= 1e-20

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(3, 5))
        y = np.array(
            [[1, 0, 0, 1, 0], [0, 1, 1, 0, 0], [1, 1, 0, 0, 1]], dtype=float
        )
        base, _ = lsep(s, y)
        shifted, _ = lsep(s + np.array([[3.0], [-2.0], [7.5]]), y)
        assert abs(base - shifted) <= 1e-12

    def test_degenerate_rows_contribute_zero(self):
        s = np.array([[1.0, 2.0], [3.0, 0.0]])
        y = np.array([[1.0, 1.0], [1.0, 0.0]])  # first row has no negatives
        loss_two, _ = lsep(s, y)
        loss_one, _ = lsep(s[1:], y[1:])
        np.testing.assert_allclose(loss_two, loss_one / 2.0, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(4, 6))
        y = (rng.random((4, 6)) < 0.5).astype(float)
        y[:, 0], y[:, 1] = 1.0, 0.0  # guarantee a pos and a neg everywhere
        _, grad = lsep(s, y)
        h = 1e-5
        for idx in np.ndindex(s.shape):
            old = s[idx]
            s[idx] = old + h
            fp, _ = lsep(s, y)
            s[idx] = old - h
            fm, _ = lsep(s, y)
            s[idx] = old
            num = (fp - fm) / (2 * h)
            assert abs(grad[idx] - num) <= 1e-4 * max(abs(num), abs(grad[idx])) + 1e-7


class TestWarp:
    def test_single_violation(self):
        s = np.array([[0.5, 1.2]])
        y = np.array([[1.0, 0.0]])
        loss, _ = warp(s, y)
        np.testing.assert_allclose(loss, 1.7, rtol=1e-12)

    def test_satisfied_margin_is_zero(self):
        s = np.array([[5.0, 1.0, 0.0]])
        y = np.array([[1.0, 0.0, 0.0]])
        loss, grad = warp(s, y)
        assert loss == 0.0
        assert not grad.any()

    def test_margin_is_one(self):
        y = np.array([[1.0, 0.0]])
        loss, grad = warp(np.array([[1.0, 0.0]]), y)  # a gap of exactly the margin
        assert loss == 0.0 and not grad.any()
        loss, grad = warp(np.array([[0.75, 0.0]]), y)
        assert loss == 0.25
        np.testing.assert_array_equal(grad, [[-1.0, 1.0]])

    def test_two_equal_violators_use_harmonic_weight(self):
        s = np.array([[0.0, 0.5, 0.5]])
        y = np.array([[1.0, 0.0, 0.0]])
        loss, _ = warp(s, y)
        np.testing.assert_allclose(loss, 1.5 * 1.5, rtol=1e-12)  # H(2) * mean violation

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        while True:
            s = rng.normal(size=(4, 6))
            y = (rng.random((4, 6)) < 0.5).astype(float)
            y[:, 0], y[:, 1] = 1.0, 0.0
            gaps = []
            for i in range(4):
                pos, neg = s[i, y[i] == 1], s[i, y[i] == 0]
                gaps.append(np.min(np.abs(1.0 - pos[:, None] + neg[None, :])))
            if min(gaps) > 1e-3:
                break
        _, grad = warp(s, y)
        h = 1e-5
        for idx in np.ndindex(s.shape):
            old = s[idx]
            s[idx] = old + h
            fp, _ = warp(s, y)
            s[idx] = old - h
            fm, _ = warp(s, y)
            s[idx] = old
            num = (fp - fm) / (2 * h)
            assert abs(grad[idx] - num) <= 1e-4 * max(abs(num), abs(grad[idx])) + 1e-7


class TestClassWeights:
    def test_mean_count_gives_unit_weight(self):
        counts = np.array([7.0, 7.0, 7.0])
        for rule in ("none", "ratio", "sqrt_ratio", "inv_ratio", "inv_sqrt_ratio"):
            np.testing.assert_allclose(class_weights(counts, rule), np.ones(3))

    def test_sqrt_ratio_of_four(self):
        counts = np.array([4.0, 1.0, 1.0])  # mean 2 -> first ratio 2
        w = class_weights(counts, "sqrt_ratio")
        np.testing.assert_allclose(w[0], math.sqrt(2.0))

    def test_extreme_two_class_counts(self):
        counts = np.array([48060.0, 504.0])
        w = class_weights(counts, "ratio")
        np.testing.assert_allclose(w, [1.9792, 0.020756], rtol=1e-4)

    def test_inverse_rules_flip_the_ratio(self):
        counts = np.array([8.0, 2.0])  # mean 5
        np.testing.assert_allclose(class_weights(counts, "inv_ratio"), [5 / 8, 5 / 2])
        np.testing.assert_allclose(
            class_weights(counts, "inv_sqrt_ratio"), np.sqrt([5 / 8, 5 / 2])
        )

    def test_zero_count_rejected_for_ratio_rules(self):
        counts = np.array([3.0, 0.0, 2.0, 0.0])
        with pytest.raises(ValueError, match=r"classes \[1, 3\] have no video.*positive"):
            class_weights(counts, "ratio")
        np.testing.assert_allclose(class_weights(counts, "none"), np.ones(4))


class TestMakeLossFn:
    # 5 training videos, 4 classes: per-class counts 4, 1, 2, 1 (mean 2)
    LABELS = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 1], [1, 0, 1, 0], [0, 0, 0, 0]],
                      dtype=float)
    RATIO = np.array([2.0, 0.5, 1.0, 0.5])
    WEIGHTS = {"none": None, "ratio": RATIO, "sqrt_ratio": np.sqrt(RATIO),
               "inv_ratio": 1.0 / RATIO, "inv_sqrt_ratio": 1.0 / np.sqrt(RATIO)}

    def _batch(self):
        rng = np.random.default_rng(5)
        return rng.normal(size=(3, 4)), (rng.random((3, 4)) < 0.5).astype(float)

    @pytest.mark.parametrize("rule", sorted(WEIGHTS))
    def test_bce_weights_come_from_the_training_label_counts(self, rule):
        logits, targets = self._batch()
        cfg = RunConfig(loss="bce", weight_rule=rule, loss_scale=3.0, classes=4)
        got = make_loss_fn(cfg, self.LABELS)(logits, targets)
        want = bce_scaled(logits, targets, LossConfig(scale=3.0, class_weights=self.WEIGHTS[rule]))
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("kind,loss", [("lsep", lsep), ("warp", warp)])
    def test_rank_losses_are_the_direct_call(self, kind, loss):
        logits, targets = self._batch()
        got = make_loss_fn(RunConfig(loss=kind, weight_rule="none", classes=4),
                           self.LABELS)(logits, targets)
        want = loss(logits, targets)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])

    def test_a_class_without_a_video_names_the_classes_the_rule_and_the_manifest(self):
        cfg = RunConfig(weight_rule="inv_ratio", classes=4, train_manifest="train.tsv")
        labels = self.LABELS * [1, 0, 1, 0]  # classes 1 and 3 lose their videos
        with pytest.raises(ConfigError) as info:
            make_loss_fn(cfg, labels)
        assert str(info.value).startswith("train.tsv: weight_rule = inv_ratio: classes [1, 3] ")
        assert info.value.keys == ("weight_rule", "train_manifest")
        make_loss_fn(RunConfig(classes=4), labels)  # the rule "none" reads no count


class TestLossConfig:
    def test_nonpositive_scale(self):
        with pytest.raises(ValueError, match="scale"):
            LossConfig(scale=0.0)

    def test_nonpositive_class_weight(self):
        with pytest.raises(ValueError, match="positive"):
            LossConfig(class_weights=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("kind", ["lsep", "warp"])
    @pytest.mark.parametrize("rule", ["ratio", "sqrt_ratio", "inv_ratio", "inv_sqrt_ratio"])
    def test_rank_losses_refuse_a_weight_rule(self, kind, rule):
        with pytest.raises(ConfigError, match=f"'{kind}' takes no class weights.*'{rule}'") as info:
            LossConfig(kind=kind, weight_rule=rule)
        assert info.value.keys == ("kind", "weight_rule")
        assert LossConfig(kind=kind).weight_rule == "none"

    @pytest.mark.parametrize("field,value", [("kind", "focal"), ("weight_rule", "log")])
    def test_unknown_kind_names_its_field(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be one of .*{value}") as info:
            LossConfig(**{field: value})
        assert info.value.keys == (field,)
