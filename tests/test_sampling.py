import dataclasses

import numpy as np
import pytest

from temporalkit.sampling import (
    ClipSamplerSpec,
    View,
    dense_test_plan,
    segment_indices,
    strided_clip_indices,
    train_augment_view,
)


class TestSegmentIndices:
    def test_ninety_frames_five_segments(self):
        assert segment_indices(90, 5) == [9, 27, 45, 63, 81]

    def test_one_frame_per_segment(self):
        assert segment_indices(5, 5) == [0, 1, 2, 3, 4]

    def test_fewer_frames_than_segments_clamps_monotone(self):
        assert segment_indices(3, 5) == [0, 1, 1, 2, 2]

    def test_single_frame(self):
        assert segment_indices(1, 4) == [0, 0, 0, 0]

    def test_bad_segment_count(self):
        with pytest.raises(ValueError):
            segment_indices(10, 0)

    def test_random_mode_deterministic_per_seed(self):
        a = segment_indices(100, 8, "random", seed=5)
        b = segment_indices(100, 8, "random", seed=5)
        c = segment_indices(100, 8, "random", seed=6)
        assert a == b
        assert a != c

    def test_random_mode_stays_in_segments(self):
        for seed in range(20):
            idx = segment_indices(90, 5, "random", seed=seed)
            for g, i in enumerate(idx):
                assert g * 18 <= i < (g + 1) * 18

    @pytest.mark.parametrize("mode", ["center", "random"])
    def test_bounds_and_monotonicity_exhaustive(self, mode):
        for f in range(1, 201):
            for k in (1, 3, 5, 7, 16):
                idx = segment_indices(f, k, mode, seed=f * 31 + k)
                assert all(0 <= i <= f - 1 for i in idx), (f, k, idx)
                assert all(a <= b for a, b in zip(idx, idx[1:])), (f, k, idx)


class TestStridedClipIndices:
    def test_eight_by_eight(self):
        assert strided_clip_indices(90, 0, 8, 8) == [0, 8, 16, 24, 32, 40, 48, 56]

    def test_eleven_by_eight_spans_whole_video(self):
        idx = strided_clip_indices(90, 0, 11, 8)
        assert idx == list(range(0, 81, 8))
        assert idx[-1] == 80

    def test_overflow_clamps_to_last_frame(self):
        idx = strided_clip_indices(90, 60, 32, 2)
        assert idx[:15] == list(range(60, 89, 2))
        assert all(i == 89 for i in idx[15:])

    def test_bad_start(self):
        with pytest.raises(ValueError):
            strided_clip_indices(10, 10, 4, 1)

    def test_bounds_exhaustive(self):
        for f in range(1, 201, 7):
            idx = strided_clip_indices(f, min(f - 1, 3), 16, 3)
            assert all(0 <= i <= f - 1 for i in idx)


class TestTrainAugmentView:
    SPEC = ClipSamplerSpec.strided(8, 2)

    def test_same_seed_same_view(self):
        a = train_augment_view(90, self.SPEC, (128, 160), 112, seed=3)
        b = train_augment_view(90, self.SPEC, (128, 160), 112, seed=3)
        assert a == b

    def test_fixed_scale_range(self):
        for seed in range(10):
            v = train_augment_view(90, self.SPEC, (128, 128), 112, seed=seed)
            assert v.scale == 128

    def test_crop_larger_than_short_side_rejected(self):
        with pytest.raises(ValueError, match="crop"):
            train_augment_view(90, self.SPEC, (100, 160), 112, seed=0)

    def test_crop_fits_scaled_frame(self):
        for seed in range(50):
            v = train_augment_view(90, self.SPEC, (128, 160), 112, seed=seed)
            x, y, size = v.crop
            assert size == 112
            assert 0 <= x <= v.scale - size
            assert 0 <= y <= v.scale - size
            assert all(0 <= i < 90 for i in v.frame_indices)

    def test_flip_rate_near_half(self):
        flips = [
            train_augment_view(90, self.SPEC, (128, 160), 112, seed=s).flip
            for s in range(400)
        ]
        assert 0.4 < np.mean(flips) < 0.6

    @pytest.mark.parametrize("spec", [SPEC, ClipSamplerSpec.segments(5)])
    def test_no_flip_skips_only_the_coin(self, spec):
        for seed in range(50):
            flipped = train_augment_view(90, spec, (128, 160), 112, seed=seed)
            plain = train_augment_view(90, spec, (128, 160), 112, seed=seed, flip=False)
            assert plain == dataclasses.replace(flipped, flip=False)

    def test_segment_sampler_draws_random_frames(self):
        spec = ClipSamplerSpec.segments(5)
        views = {train_augment_view(90, spec, (128, 160), 112, seed=s).frame_indices
                 for s in range(10)}
        assert len(views) > 1


class TestDenseTestPlan:
    SPEC = ClipSamplerSpec.strided(8, 2)

    def test_default_plan_has_ninety_views(self):
        plan = dense_test_plan(90, self.SPEC)
        assert len(plan) == 90

    def test_single_clip_is_centered(self):
        plan = dense_test_plan(90, self.SPEC, num_clips=1, crops_per_clip=1, scales=(128,),
                               crop_size=112)
        (view,) = plan
        span = self.SPEC.span(90)  # 15 frames
        assert view.frame_indices[0] == (90 - span) // 2

    def test_clip_starts_spread_uniformly(self):
        plan = dense_test_plan(90, self.SPEC, num_clips=10, crops_per_clip=1, scales=(128,),
                               crop_size=112)
        starts = [v.frame_indices[0] for v in plan]
        room = 90 - self.SPEC.span(90)
        assert starts == [i * room // 9 for i in range(10)]

    def test_crops_left_center_right(self):
        plan = dense_test_plan(90, self.SPEC, num_clips=1, crops_per_clip=3, scales=(128,),
                               crop_size=112)
        xs = [v.crop[0] for v in plan]
        assert xs == [0, 8, 16]
        assert all(v.crop[1] == 8 for v in plan)

    def test_pure_function(self):
        a = dense_test_plan(77, self.SPEC)
        b = dense_test_plan(77, self.SPEC)
        assert a == b

    def test_plan_is_a_tuple_of_unflipped_views(self):
        plan = dense_test_plan(90, self.SPEC)
        assert isinstance(plan, tuple)
        assert all(isinstance(v, View) and not v.flip for v in plan)
        assert len(set(plan)) == 90

    def test_clips_of_a_video_shorter_than_the_span_coincide(self):
        # no room to spread the clips: all start at frame 0, and the set of
        # views (what evaluation forwards) holds one per scale and crop
        plan = dense_test_plan(15, self.SPEC)  # span 15
        assert {v.frame_indices[0] for v in plan} == {0}
        assert len(plan) == 90 and len(set(plan)) == 9

    def test_short_video_clamps_instead_of_failing(self):
        plan = dense_test_plan(4, self.SPEC)  # span 15 > 4 frames
        for view in plan:
            assert all(0 <= i <= 3 for i in view.frame_indices)

    def test_image_preset_counts(self):
        spec = ClipSamplerSpec.segments(5)
        plan = dense_test_plan(90, spec, num_clips=5, crops_per_clip=3, scales=(256,),
                               crop_size=224)
        assert len(plan) == 15

    def test_crop_must_fit_scales(self):
        with pytest.raises(ValueError, match="crop"):
            dense_test_plan(90, self.SPEC, scales=(128, 96), crop_size=112)

    def test_bad_crop_count(self):
        with pytest.raises(ValueError, match="crops_per_clip"):
            dense_test_plan(90, self.SPEC, crops_per_clip=4)

    def test_bad_clip_count(self):
        with pytest.raises(ValueError, match="num_clips"):
            dense_test_plan(90, self.SPEC, num_clips=0)

    def test_needs_a_scale(self):
        with pytest.raises(ValueError, match="scale"):
            dense_test_plan(90, self.SPEC, scales=())


class TestClipSamplerSpec:
    def test_span_strided(self):
        assert ClipSamplerSpec.strided(8, 8).span(1000) == 57

    def test_span_segments_is_whole_video(self):
        assert ClipSamplerSpec.segments(5).span(90) == 90

    def test_validation(self):
        with pytest.raises(ValueError):
            ClipSamplerSpec("windowed", 8)
        with pytest.raises(ValueError):
            ClipSamplerSpec.strided(0, 1)
