import numpy as np
import pytest

from temporalkit.losses import LossConfig, bce_scaled
from temporalkit.optim import Schedule, SgdConfig, lr_at, sgd_step


class TestCosineSchedule:
    def test_paper_anchors_exact(self):
        cfg = SgdConfig(base_lr=0.2, momentum=0.9)
        sch = Schedule(kind="cosine", max_iter=180_000)
        assert lr_at(sch, cfg, 0) == 0.2
        assert lr_at(sch, cfg, 90_000) == 0.1
        assert lr_at(sch, cfg, 180_000) == 0.0
        assert lr_at(sch, cfg, 180_001) == 0.0

    def test_non_increasing(self):
        cfg = SgdConfig(base_lr=0.2)
        sch = Schedule(kind="cosine", max_iter=1000)
        values = [lr_at(sch, cfg, k) for k in range(0, 1001, 13)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestStepSchedule:
    def test_milestone_decades(self):
        cfg = SgdConfig(base_lr=0.01)
        sch = Schedule(kind="step", milestones=(10, 20), factor=0.1)
        assert lr_at(sch, cfg, 9) == pytest.approx(0.01)
        assert lr_at(sch, cfg, 10) == pytest.approx(0.001)
        assert lr_at(sch, cfg, 19) == pytest.approx(0.001)
        assert lr_at(sch, cfg, 20) == pytest.approx(0.0001)

    def test_milestones_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Schedule(kind="step", milestones=(20, 10))


class TestWarmup:
    def test_linear_ramp_on_constant(self):
        cfg = SgdConfig(base_lr=0.2)
        sch = Schedule(kind="constant", warmup_iters=1000, warmup_start_factor=0.1)
        assert lr_at(sch, cfg, 0) == pytest.approx(0.02)
        assert lr_at(sch, cfg, 500) == pytest.approx(0.11)
        assert lr_at(sch, cfg, 1000) == pytest.approx(0.2)

    def test_continuous_at_boundary_with_cosine(self):
        cfg = SgdConfig(base_lr=0.2)
        sch = Schedule(kind="cosine", max_iter=2000, warmup_iters=100, warmup_start_factor=0.1)
        ramp_end = lr_at(sch, cfg, 99) + (lr_at(sch, cfg, 99) - lr_at(sch, cfg, 98))
        assert abs(ramp_end - lr_at(sch, cfg, 100)) <= 1e-12

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            lr_at(Schedule(kind="constant"), SgdConfig(base_lr=0.1), -1)

    def test_negative_start_factor_rejected(self):
        # it would step with a negative learning rate: -0.5 at step 0 here
        with pytest.raises(ValueError, match="warmup_start_factor"):
            Schedule(kind="constant", warmup_iters=10, warmup_start_factor=-5.0)
        sch = Schedule(kind="constant", warmup_iters=10, warmup_start_factor=0.0)
        assert lr_at(sch, SgdConfig(base_lr=0.1), 0) == 0.0


class TestSgdStep:
    def _step(self, w, g, cfg, lr, velocity=None):
        params = {"w": np.array([w])}
        grads = {"w": np.array([g])}
        velocity = velocity if velocity is not None else {}
        sgd_step(params, grads, cfg, lr, velocity)
        return params["w"][0], velocity

    def test_plain_step(self):
        w, _ = self._step(1.0, 1.0, SgdConfig(base_lr=0.1, momentum=0.0), 0.1)
        assert w == pytest.approx(0.9)

    def test_weight_decay_enters_gradient(self):
        w, _ = self._step(1.0, 1.0, SgdConfig(base_lr=0.1, momentum=0.0, weight_decay=0.1), 0.1)
        assert w == pytest.approx(0.89)

    def test_two_momentum_steps(self):
        cfg = SgdConfig(base_lr=0.1, momentum=0.9)
        w, vel = self._step(1.0, 1.0, cfg, 0.1)
        assert w == pytest.approx(0.9)
        w, _ = self._step(w, 1.0, cfg, 0.1, vel)
        assert w == pytest.approx(0.71)  # v: 1.0 then 1.9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, SgdConfig(base_lr=0.1), 0.1, {})


def _train_toy(scale, lr, weight_decay, steps=50, momentum=0.0):
    """Tiny fixed-data logistic trainer used for the trajectory property."""
    rng = np.random.default_rng(123)
    x = rng.normal(size=(16, 4))
    y = (rng.random((16, 3)) < 0.5).astype(float)
    w = rng.normal(scale=0.2, size=(3, 4))
    b = np.zeros(3)
    params = {"w": w.copy(), "b": b.copy()}
    velocity = {}
    cfg = SgdConfig(base_lr=lr, momentum=momentum, weight_decay=weight_decay)
    lcfg = LossConfig(scale=scale)
    for _ in range(steps):
        logits = x @ params["w"].T + params["b"]
        _, g = bce_scaled(logits, y, lcfg)
        grads = {"w": g.T @ x, "b": g.sum(axis=0)}
        sgd_step(params, grads, cfg, lr, velocity)
    return params


class TestLossScaleEquivalence:
    def test_scale_160_equals_lr_times_160_without_decay(self):
        eta = 1e-3
        a = _train_toy(scale=160.0, lr=eta, weight_decay=0.0)
        b = _train_toy(scale=1.0, lr=160.0 * eta, weight_decay=0.0)
        for key in a:
            assert np.max(np.abs(a[key] - b[key])) <= 1e-9

    def test_weight_decay_breaks_the_equivalence(self):
        eta = 1e-3
        a = _train_toy(scale=160.0, lr=eta, weight_decay=5e-4)
        b = _train_toy(scale=1.0, lr=160.0 * eta, weight_decay=5e-4)
        drift = max(np.max(np.abs(a[k] - b[k])) for k in a)
        assert drift > 1e-6

    def test_determinism(self):
        a = _train_toy(scale=160.0, lr=1e-3, weight_decay=1e-4, momentum=0.9)
        b = _train_toy(scale=160.0, lr=1e-3, weight_decay=1e-4, momentum=0.9)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
