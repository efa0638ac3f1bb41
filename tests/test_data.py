import numpy as np
import pytest

from temporalkit.sampling import View
from temporalkit.synth import (
    CLASS_NAMES,
    NUM_CLASSES,
    generate_dataset,
    labels_to_matrix,
    read_manifest,
)
from temporalkit.videofile import (
    VideoFormatError,
    load_video,
    materialize_view,
    pick_frames,
    read_header,
    read_video,
    resize_frames,
    write_video,
)


class TestVideoFile:
    def test_round_trip(self, tmp_path):
        frames = np.random.default_rng(0).integers(0, 256, size=(4, 6, 5, 2), dtype=np.uint8)
        path = tmp_path / "clip.xvid"
        write_video(path, frames)
        np.testing.assert_array_equal(read_video(path), frames)
        assert read_header(path) == (4, 6, 5, 2)

    def test_load_scales_to_unit_interval(self, tmp_path):
        # loading keeps the u8 pixels; picking a view's frames scales them
        frames = np.full((2, 3, 3, 1), 255, dtype=np.uint8)
        path = tmp_path / "clip.xvid"
        write_video(path, frames)
        loaded = load_video(path)
        assert loaded.dtype == np.uint8
        np.testing.assert_array_equal(loaded, frames)
        for indices in ([0, 1], [1, 0]):  # the slice and the gather path
            picked = pick_frames(loaded, indices)
            assert picked.dtype == np.float64
            np.testing.assert_array_equal(picked, np.ones((2, 3, 3, 1)))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.xvid"
        path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxxxxxx")
        with pytest.raises(VideoFormatError, match="magic"):
            read_video(path)

    def test_truncated_payload_rejected(self, tmp_path):
        frames = np.zeros((2, 4, 4, 1), dtype=np.uint8)
        path = tmp_path / "short.xvid"
        write_video(path, frames)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(VideoFormatError, match="payload"):
            read_video(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "tiny.xvid"
        path.write_bytes(b"XVID")
        with pytest.raises(VideoFormatError, match="header"):
            read_header(path)


class TestResize:
    def test_same_size_is_identity(self):
        frames = np.random.default_rng(1).random((2, 8, 8, 1))
        assert resize_frames(frames, 8) is frames

    def test_constant_image_stays_constant(self):
        frames = np.full((1, 4, 4, 1), 0.6)
        out = resize_frames(frames, 7)
        np.testing.assert_allclose(out, 0.6)
        assert out.shape == (1, 7, 7, 1)

    def test_half_pixel_bilinear_upscale(self):
        # 1D row [a, b] -> positions (i+.5)/2 - .5 = [-.25, .25, .75, 1.25]
        frames = np.array([0.0, 1.0]).reshape(1, 1, 2, 1)
        out = resize_frames(np.repeat(frames, 2, axis=1), 4)
        np.testing.assert_allclose(out[0, 0, :, 0], [0.0, 0.25, 0.75, 1.0])

    def test_aspect_ratio_preserved(self):
        frames = np.zeros((1, 10, 20, 1))
        assert resize_frames(frames, 5).shape == (1, 5, 10, 1)
        assert resize_frames(np.zeros((1, 20, 10, 1)), 5).shape == (1, 10, 5, 1)


class TestMaterializeView:
    def test_frame_selection_crop_and_flip(self):
        rng = np.random.default_rng(2)
        frames = rng.random((6, 8, 8, 2))
        view = View(frame_indices=(1, 3, 3), scale=8, crop=(2, 1, 4), flip=True)
        clip = materialize_view(frames, view)
        assert clip.shape == (3, 2, 4, 4)
        want = frames[3, 1:5, 2:6, 0][:, ::-1]
        np.testing.assert_allclose(clip[1, 0], want)

    def test_resizing_only_the_crop_window_keeps_the_bits(self):
        # training's augmentation: scales 32-40, a 32x32 crop anywhere, either flip
        frames = np.random.default_rng(3).random((3, 32, 32, 1))
        for scale in range(32, 41):
            full = resize_frames(frames[[2, 0]], scale)
            for y in range(scale - 31):
                for x in range(scale - 31):
                    for flip in (False, True):
                        want = full[:, y : y + 32, x : x + 32]
                        want = want[:, :, ::-1] if flip else want
                        clip = materialize_view(frames, View((2, 0), scale, (x, y, 32), flip))
                        assert clip.tobytes() == want.transpose(0, 3, 1, 2).tobytes()

    def test_crop_that_does_not_fit_rejected(self):
        frames = np.zeros((2, 8, 8, 1))
        with pytest.raises(ValueError, match="crop"):
            materialize_view(frames, View((0,), scale=8, crop=(-1, 0, 4), flip=False))


class TestSyntheticDataset:
    def test_determinism(self, tmp_path):
        m1 = generate_dataset(tmp_path / "a", 8, seed=3)
        m2 = generate_dataset(tmp_path / "b", 8, seed=3)
        assert m1.read_text() == m2.read_text()
        for row_a, row_b in zip(read_manifest(m1), read_manifest(m2)):
            assert row_a == row_b
            a = (tmp_path / "a" / row_a[0]).read_bytes()
            b = (tmp_path / "b" / row_b[0]).read_bytes()
            assert a == b

    def test_reversal_pairs_are_byte_mirrors(self, tmp_path):
        manifest = generate_dataset(tmp_path, 12, seed=4)
        rows = read_manifest(manifest)
        for first, second in zip(rows[::2], rows[1::2]):
            fwd = read_video(tmp_path / first[0])
            rev = read_video(tmp_path / second[0])
            assert fwd[::-1].tobytes() == rev.tobytes()

    def test_reversal_flips_both_labels(self, tmp_path):
        manifest = generate_dataset(tmp_path, 16, seed=5)
        rows = read_manifest(manifest)
        mirror = {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4}
        for first, second in zip(rows[::2], rows[1::2]):
            assert tuple(sorted(mirror[c] for c in first[2])) == second[2]

    def test_every_video_has_exactly_two_labels(self, tmp_path):
        manifest = generate_dataset(tmp_path, 16, seed=6)
        for _, _, labels in read_manifest(manifest):
            assert len(labels) == 2
            motion = [c for c in labels if c < 4]
            size = [c for c in labels if c >= 4]
            assert len(motion) == 1 and len(size) == 1

    def test_classes_are_balanced_within_groups(self, tmp_path):
        # every video carries one of 4 motion labels and one of 2 size labels;
        # pair cycling balances each group exactly on multiples of 8 videos
        manifest = generate_dataset(tmp_path, 32, seed=7)
        counts = labels_to_matrix(read_manifest(manifest), NUM_CLASSES).sum(axis=0)
        assert len(CLASS_NAMES) == NUM_CLASSES == 6
        np.testing.assert_array_equal(counts[:4], np.full(4, 8.0))
        np.testing.assert_array_equal(counts[4:], np.full(2, 16.0))

    def test_odd_video_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="even"):
            generate_dataset(tmp_path, 7, seed=0)

    def test_manifest_round_trip_and_matrix(self, tmp_path):
        manifest = generate_dataset(tmp_path, 8, seed=8)
        rows = read_manifest(manifest)
        assert len(rows) == 8
        mat = labels_to_matrix(rows, NUM_CLASSES)
        assert mat.shape == (8, 6)
        np.testing.assert_array_equal(mat.sum(axis=1), np.full(8, 2.0))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            labels_to_matrix([("v", 4, (9,))], 6)

    def test_bad_manifest_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("only_one_field\n")
        with pytest.raises(ValueError, match="expected"):
            read_manifest(path)
