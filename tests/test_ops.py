import numpy as np
import pytest

from temporalkit import ops


def naive_conv2d(x, kernel, bias, stride, pad):
    """Reference cross-correlation, written loop-by-loop on purpose."""
    n, ci, h, w = x.shape
    co, _, kh, kw = kernel.shape
    xp = np.zeros((n, ci, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    y = np.zeros((n, co, ho, wo))
    for b in range(n):
        for c in range(co):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    y[b, c, i, j] = (patch * kernel[c]).sum() + bias[c]
    return y


def fd_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        old = x[idx]
        x[idx] = old + h
        fp = f()
        x[idx] = old - h
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * h)
    return g


def assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    diff = np.abs(analytic - numeric)
    bound = rtol * np.maximum(np.abs(analytic), np.abs(numeric)) + atol
    assert np.all(diff <= bound), f"max excess {np.max(diff - bound)}"


class TestConv2d:
    def test_all_ones_sums_to_four(self):
        y = ops.conv2d(np.ones((1, 1, 2, 2)), np.ones((1, 1, 2, 2)), np.zeros(1))
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 4.0

    def test_identity_kernel_is_exact_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5))
        kernel = np.zeros((3, 3, 1, 1))
        for c in range(3):
            kernel[c, c, 0, 0] = 1.0
        y = ops.conv2d(x, kernel, np.zeros(3))
        assert np.max(np.abs(y - x)) <= 1e-15

    def test_center_of_padded_sum_kernel(self):
        x = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        y = ops.conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1), stride=1, pad=1)
        assert y[0, 0, 1, 1] == 45.0

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_naive_reference(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        for _ in range(5):
            x = rng.normal(size=(2, 3, 7, 6))
            k = rng.normal(size=(4, 3, 3, 3))
            b = rng.normal(size=4)
            got = ops.conv2d(x, k, b, stride, pad)
            want = naive_conv2d(x, k, b, stride, pad)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ops.ShapeError, match="channel"):
            ops.conv2d(np.ones((1, 2, 4, 4)), np.ones((1, 3, 3, 3)), np.zeros(1))

    def test_too_small_input_names_axis(self):
        with pytest.raises(ops.ShapeError, match="height"):
            ops.conv2d(np.ones((1, 1, 2, 8)), np.ones((1, 1, 3, 3)), np.zeros(1))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(2, 2, 6, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=ops.conv2d(x, k, b, 2, 1).shape)
        gx, gw, gb = ops.conv2d_backward(r, x, k, 2, 1)
        loss = lambda: float((ops.conv2d(x, k, b, 2, 1) * r).sum())
        assert_grads_close(gx, fd_grad(loss, x))
        assert_grads_close(gw, fd_grad(loss, k))
        assert_grads_close(gb, fd_grad(loss, b))

    def test_backward_with_cached_cols_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y, cols = ops.conv2d_with_cols(x, k, b, 1, 1)
        r = rng.normal(size=y.shape)
        plain = ops.conv2d_backward(r, x, k, 1, 1)
        cached = ops.conv2d_backward(r, x, k, 1, 1, cols=cols)
        for a, bb in zip(plain, cached):
            np.testing.assert_array_equal(a, bb)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 2, 6, 6))
        k = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        np.testing.assert_array_equal(ops.conv2d(x, k, b, 1, 1), ops.conv2d(x, k, b, 1, 1))


class TestLinear:
    def test_zero_weight_gives_bias_rows(self):
        x = np.random.default_rng(0).normal(size=(4, 3))
        b = np.array([1.5, -2.0])
        y = ops.linear(x, np.zeros((2, 3)), b)
        np.testing.assert_array_equal(y, np.tile(b, (4, 1)))

    def test_identity(self):
        y = ops.linear(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(y, [[1.0, 2.0]])

    def test_hand_example(self):
        y = ops.linear(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]), np.array([1.0]))
        assert y[0, 0] == 12.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ops.ShapeError, match="feature"):
            ops.linear(np.ones((2, 3)), np.ones((4, 5)), np.zeros(4))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        r = rng.normal(size=(3, 2))
        gx, gw, gb = ops.linear_backward(r, x, w)
        loss = lambda: float((ops.linear(x, w, b) * r).sum())
        assert_grads_close(gx, fd_grad(loss, x))
        assert_grads_close(gw, fd_grad(loss, w))
        assert_grads_close(gb, fd_grad(loss, b))


class TestActivations:
    def test_relu_example(self):
        np.testing.assert_array_equal(
            ops.activation(np.array([-1.0, 0.0, 2.0]), "relu"), [0.0, 0.0, 2.0]
        )

    def test_sigmoid_zero(self):
        assert ops.activation(np.array([0.0]), "sigmoid")[0] == 0.5

    def test_tanh_zero(self):
        assert ops.activation(np.array([0.0]), "tanh")[0] == 0.0

    def test_sigmoid_stable_at_extremes(self):
        y = ops.activation(np.array([-750.0, 750.0]), "sigmoid")
        assert np.all(np.isfinite(y))
        assert y[0] >= 0.0 and y[1] <= 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            ops.activation(np.zeros(2), "gelu")

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
    def test_backward_matches_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 4))
        if kind == "relu":
            x = np.where(np.abs(x) < 0.05, x + 0.3, x)  # keep away from the kink
        r = rng.normal(size=x.shape)
        y = ops.activation(x, kind)
        ga = ops.activation_backward(r, x, y, kind)
        assert_grads_close(ga, fd_grad(lambda: float((ops.activation(x, kind) * r).sum()), x))


class TestGlobalAvgPoolSpatial:
    def test_constant_input(self):
        x = np.full((2, 3, 4, 5, 6), 2.5)
        np.testing.assert_array_equal(ops.global_avg_pool_spatial(x), np.full((2, 3, 4), 2.5))

    def test_single_pixel_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 4, 1, 1))
        np.testing.assert_array_equal(ops.global_avg_pool_spatial(x), x[..., 0, 0])

    def test_hand_mean(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 1, 2, 2)
        assert ops.global_avg_pool_spatial(x)[0, 0, 0] == 4.0

    def test_backward_distributes_evenly(self):
        gy = np.ones((1, 1, 1))
        gx = ops.global_avg_pool_spatial_backward(gy, (2, 2))
        np.testing.assert_array_equal(gx, np.full((1, 1, 1, 2, 2), 0.25))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 3, 3, 4))
        r = rng.normal(size=(2, 2, 3))
        ga = ops.global_avg_pool_spatial_backward(r, (3, 4))
        assert_grads_close(
            ga, fd_grad(lambda: float((ops.global_avg_pool_spatial(x) * r).sum()), x)
        )


class TestDropout:
    """The model's dropout: it multiplies by ops.dropout_mask in training."""

    def test_rate_zero_is_identity(self):
        np.testing.assert_array_equal(ops.dropout_mask((5, 5), 0.0, seed=1), np.ones((5, 5)))

    def test_same_seed_same_mask(self):
        a = ops.dropout_mask((64, 64), 0.5, seed=77)
        np.testing.assert_array_equal(a, ops.dropout_mask((64, 64), 0.5, seed=77))
        assert not np.array_equal(a, ops.dropout_mask((64, 64), 0.5, seed=78))

    def test_survivors_scaled(self):
        y = ops.dropout_mask((256, 256), 0.25, seed=3)
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs((y != 0).mean() - 0.75) < 0.02

    def test_rate_bounds(self):
        for rate in (1.0, -0.1):
            with pytest.raises(ValueError, match="rate"):
                ops.dropout_mask((3,), rate, seed=0)
