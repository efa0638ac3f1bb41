import numpy as np
import pytest

from temporalkit.temporal import (
    GroupSpec,
    InterlaceParams,
    ShiftSpec,
    interlace_backward,
    interlace_forward,
    segment_consensus,
    segment_consensus_backward,
    tsm_shift,
    tsm_shift_backward,
)


def scalar_track(values):
    """[T] list -> [1,T,1,1,1] tensor with a single 1x1 channel."""
    values = np.asarray(values, dtype=np.float64)
    return values.reshape(1, -1, 1, 1, 1)


def integer_shift_oracle(x, k):
    """Independent zero-padded shift along T: y[t] = x[t+k]."""
    t = x.shape[1]
    y = np.zeros_like(x)
    for dst in range(t):
        src = dst + k
        if 0 <= src < t:
            y[:, dst] = x[:, src]
    return y


def unit_params(n, g, t, offsets, delta_max=None):
    off = np.broadcast_to(np.asarray(offsets, dtype=float), (n, g)).copy()
    return InterlaceParams(off, np.ones((n, g, t)), delta_max or t)


class TestGroupSpec:
    def test_even_split(self):
        assert GroupSpec.even(8, 3).ranges == ((0, 3), (3, 6), (6, 8))

    def test_single_group(self):
        assert GroupSpec.even(5, 1).ranges == ((0, 5),)

    def test_too_many_groups(self):
        with pytest.raises(ValueError):
            GroupSpec.even(2, 3)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gaps"):
            GroupSpec(((0, 2), (3, 4)))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GroupSpec(((0, 2), (2, 2)))


class TestInterlaceForward:
    def test_identity_at_zero_offset_unit_weight(self):
        x = scalar_track([1, 2, 3])
        y = interlace_forward(x, GroupSpec.even(1, 1), unit_params(1, 1, 3, 0.0))
        np.testing.assert_array_equal(y, x)

    def test_half_offset_interpolates_with_zero_pad(self):
        x = scalar_track([1, 2, 3])
        y = interlace_forward(x, GroupSpec.even(1, 1), unit_params(1, 1, 3, 0.5))
        np.testing.assert_allclose(y.ravel(), [1.5, 2.5, 1.5])

    def test_integer_offset_shifts_toward_future(self):
        x = scalar_track([1, 2, 3])
        y = interlace_forward(x, GroupSpec.even(1, 1), unit_params(1, 1, 3, 1.0))
        np.testing.assert_array_equal(y.ravel(), [2.0, 3.0, 0.0])

    def test_per_frame_weights_modulate(self):
        x = scalar_track([1, 2, 3])
        p = InterlaceParams(np.zeros((1, 1)), np.array([[[2.0, 1.0, 1.0]]]), 2.0)
        y = interlace_forward(x, GroupSpec.even(1, 1), p)
        np.testing.assert_array_equal(y.ravel(), [2.0, 2.0, 3.0])

    def test_negative_fraction_uses_floor_split(self):
        # o = -0.5: floor -1, alpha 0.5 -> y[t] = (x[t-1] + x[t]) / 2
        x = scalar_track([2, 4, 8])
        y = interlace_forward(x, GroupSpec.even(1, 1), unit_params(1, 1, 3, -0.5))
        np.testing.assert_allclose(y.ravel(), [1.0, 3.0, 6.0])

    def test_offset_beyond_delta_max_rejected(self):
        with pytest.raises(ValueError, match="exceeds delta_max"):
            unit_params(1, 1, 3, 2.5, delta_max=2.0)

    def test_group_channel_mismatch_rejected(self):
        x = np.zeros((1, 3, 4, 1, 1))
        with pytest.raises(ValueError, match="channels"):
            interlace_forward(x, GroupSpec.even(3, 1), unit_params(1, 1, 3, 0.0))

    def test_weight_shape_mismatch_rejected(self):
        x = np.zeros((1, 3, 2, 1, 1))
        bad = InterlaceParams(np.zeros((1, 1)), np.ones((1, 1, 4)), 2.0)
        with pytest.raises(ValueError, match="weights"):
            interlace_forward(x, GroupSpec.even(2, 1), bad)


class TestInterlaceProperties:
    def test_exact_identity_on_random_tensors(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 6, 2, 2))
        p = InterlaceParams(np.zeros((3, 2)), np.ones((3, 2, 5)), 2.5)
        y = interlace_forward(x, GroupSpec.even(6, 2), p)
        assert np.max(np.abs(y - x)) <= 1e-15

    @pytest.mark.parametrize("offset", [-3, -1, 0, 1, 2, 5])
    def test_integer_offsets_equal_pure_shifts(self, offset):
        rng = np.random.default_rng(offset + 10)
        x = rng.normal(size=(2, 4, 3, 2, 2))
        y = interlace_forward(x, GroupSpec.even(3, 1), unit_params(2, 1, 4, float(offset), 8))
        np.testing.assert_array_equal(y, integer_shift_oracle(x, offset))

    def test_linear_in_input(self):
        rng = np.random.default_rng(1)
        x1 = rng.normal(size=(2, 4, 4, 2, 2))
        x2 = rng.normal(size=(2, 4, 4, 2, 2))
        groups = GroupSpec.even(4, 2)
        p = InterlaceParams(rng.uniform(-1.5, 1.5, (2, 2)), rng.uniform(0, 2, (2, 2, 4)), 2.0)
        lhs = interlace_forward(3.0 * x1 - 2.0 * x2, groups, p)
        rhs = 3.0 * interlace_forward(x1, groups, p) - 2.0 * interlace_forward(x2, groups, p)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_offset_gradient_is_weighted_tap_difference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 2, 2, 2))
        groups = GroupSpec.even(2, 1)
        p = InterlaceParams(np.array([[0.3]]), rng.uniform(0.5, 1.5, (1, 1, 4)), 2.0)
        gy = rng.normal(size=x.shape)
        _, goff, _ = interlace_backward(gy, x, groups, p)
        expected = 0.0  # sum_t w[t] * gy[t] . (x~[t+1] - x~[t])
        for t in range(4):
            far = x[0, t + 1] if t + 1 < 4 else np.zeros_like(x[0, 0])
            expected += p.weights[0, 0, t] * float((gy[0, t] * (far - x[0, t])).sum())
        np.testing.assert_allclose(goff[0, 0], expected, rtol=1e-12)

    def test_matches_the_per_sample_loop(self):
        # the two-tap formula sample by sample and group by group, as written
        # in interlace_forward's docstring; the mixing-matrix GEMMs sum in
        # another order, so agreement is to 1e-12 of the largest magnitude
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 6, 5, 2, 3))
        gy = rng.normal(size=x.shape)
        groups = GroupSpec.even(5, 2)
        offsets = np.array([[0.7, -1.3], [2.0, -2.6], [-0.25, 2.9]])
        p = InterlaceParams(offsets, rng.uniform(0.2, 1.8, (3, 2, 6)), 3.0)
        y = np.zeros_like(x)
        gx, goff, gw = np.zeros_like(x), np.zeros((3, 2)), np.zeros((3, 2, 6))
        for i in range(3):
            for g, (c0, c1) in enumerate(groups.ranges):
                k = int(np.floor(offsets[i, g]))
                a = offsets[i, g] - k
                for t in range(6):
                    near = x[i, t + k, c0:c1] if 0 <= t + k < 6 else 0.0
                    far = x[i, t + k + 1, c0:c1] if 0 <= t + k + 1 < 6 else 0.0
                    w = p.weights[i, g, t]
                    y[i, t, c0:c1] = w * ((1 - a) * near + a * far)
                    gw[i, g, t] = float((gy[i, t, c0:c1] * ((1 - a) * near + a * far)).sum())
                    goff[i, g] += w * float((gy[i, t, c0:c1] * (far - near)).sum())
                    if 0 <= t + k < 6:
                        gx[i, t + k, c0:c1] += w * (1 - a) * gy[i, t, c0:c1]
                    if 0 <= t + k + 1 < 6:
                        gx[i, t + k + 1, c0:c1] += w * a * gy[i, t, c0:c1]
        got = (interlace_forward(x, groups, p),) + interlace_backward(gy, x, groups, p)
        for want, have in zip((y, gx, goff, gw), got):
            assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 4, 2, 2))
        groups = GroupSpec.even(4, 2)
        offsets = np.array([[0.7, -1.3], [1.45, 0.25]])
        weights = rng.uniform(0.2, 1.8, (2, 2, 5))
        p = InterlaceParams(offsets, weights, 2.5)
        gy = rng.normal(size=x.shape)
        gx, goff, gw = interlace_backward(gy, x, groups, p)

        h = 1e-5

        def loss(off=offsets, wts=weights, xx=x):
            return float((interlace_forward(xx, groups, InterlaceParams(off, wts, 2.5)) * gy).sum())

        for arr, analytic in ((x, gx), (offsets, goff), (weights, gw)):
            for idx in np.ndindex(arr.shape):
                old = arr[idx]
                arr[idx] = old + h
                fp = loss()
                arr[idx] = old - h
                fm = loss()
                arr[idx] = old
                num = (fp - fm) / (2 * h)
                assert abs(analytic[idx] - num) <= 1e-4 * max(abs(analytic[idx]), abs(num)) + 1e-7


class TestTsmShift:
    def test_spec_example(self):
        x = np.zeros((1, 3, 4, 1, 1))
        for t in range(3):
            for c in range(4):
                x[0, t, c] = 10 * t + c
        y = tsm_shift(x, ShiftSpec(0.25))
        np.testing.assert_array_equal(y[0, :, 0].ravel(), [10, 20, 0])
        np.testing.assert_array_equal(y[0, :, 1].ravel(), [0, 1, 11])
        np.testing.assert_array_equal(y[0, :, 2:], x[0, :, 2:])

    def test_zeros_stay_zeros(self):
        assert not tsm_shift(np.zeros((2, 3, 8, 2, 2)), ShiftSpec(0.25)).any()

    def test_fold_too_large_rejected(self):
        with pytest.raises(ValueError, match="fold"):
            tsm_shift(np.zeros((1, 2, 3, 1, 1)), ShiftSpec(0.5))

    def test_fold_fraction_bounds(self):
        with pytest.raises(ValueError):
            ShiftSpec(0.0)
        with pytest.raises(ValueError):
            ShiftSpec(0.6)

    def test_equals_interlace_with_plus_minus_one_offsets(self):
        rng = np.random.default_rng(4)
        groups = GroupSpec(((0, 1), (1, 2), (2, 4)))
        for trial in range(20):
            x = rng.normal(size=(2, 4, 4, 3, 3))
            offsets = np.tile(np.array([1.0, -1.0, 0.0]), (2, 1))
            p = InterlaceParams(offsets, np.ones((2, 3, 4)), 2.0)
            diff = tsm_shift(x, ShiftSpec(0.25)) - interlace_forward(x, groups, p)
            assert np.max(np.abs(diff)) <= 1e-15

    def test_backward_is_transpose_shift(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 4, 4, 2, 2))
        gy = rng.normal(size=x.shape)
        spec = ShiftSpec(0.25)
        gx = tsm_shift_backward(gy, spec)
        # inner-product test: <gy, shift(x)> == <transpose_shift(gy), x>
        lhs = float((gy * tsm_shift(x, spec)).sum())
        rhs = float((gx * x).sum())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestSegmentConsensus:
    def test_single_segment_is_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 1, 5))
        np.testing.assert_array_equal(segment_consensus(x), x[:, 0])

    def test_mean_example(self):
        y = segment_consensus(np.array([[[0.0, 2.0], [2.0, 0.0]]]))
        np.testing.assert_array_equal(y, [[1.0, 1.0]])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 4))
        perm = rng.permutation(6)
        np.testing.assert_array_equal(segment_consensus(x), segment_consensus(x[:, perm]))

    def test_backward_distributes(self):
        gy = np.ones((2, 3))
        gx = segment_consensus_backward(gy, 4)
        np.testing.assert_array_equal(gx, np.full((2, 4, 3), 0.25))
