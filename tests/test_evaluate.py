"""Dense evaluation against a one-view-at-a-time reference, the work it does
per video, the prediction-file reader's input checks, the ids the writer
refuses, and that evaluation imports without the training loop."""

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from temporalkit import evaluate, videofile
from temporalkit.config import RunConfig, clip_spec_from_config, model_config_from_run
from temporalkit.metrics import PredictionMatrix
from temporalkit.model import backbone_forward, init_params, predict_clip
from temporalkit.sampling import dense_test_plan
from temporalkit.synth import generate_dataset
from temporalkit.train import Dataset


def _setup(root, frames, mode, sampler):
    manifest = generate_dataset(root / f"v{frames}", 2, t=frames, seed=frames,
                                rel_prefix=f"v{frames}/")
    cfg = RunConfig(temporal_mode=mode, sampler=sampler, data_root=str(root),
                    val_manifest=str(manifest))
    data = Dataset(cfg.val_manifest, cfg.data_root, cfg.classes)
    mcfg = model_config_from_run(cfg, data.in_channels)
    params = init_params(mcfg, 3)
    if mode == "tin":
        # non-zero heads, so interlacing takes its fractional two-tap path
        rng = np.random.default_rng(4)
        for name in params.names():
            if ".tin.offs." in name or ".tin.wts." in name:
                params.values[name][...] = rng.normal(scale=0.5, size=params[name].shape)
    return cfg, data, mcfg, params


def _brute_force(cfg, data, mcfg, params):
    spec = clip_spec_from_config(cfg)
    rows = []
    for idx in range(len(data)):
        frames = data.frames(idx)
        plan = dense_test_plan(frames.shape[0], spec, num_clips=10, crops_per_clip=3,
                               scales=cfg.scales, crop_size=cfg.crop)
        probs = [predict_clip(backbone_forward(videofile.materialize_view(frames, v)[None],
                                               params, mcfg, training=False))
                 for v in plan]
        rows.append(np.concatenate(probs).mean(axis=0))
    return np.stack(rows)


@pytest.mark.parametrize("frames", [16, 64])
@pytest.mark.parametrize("sampler", ["strided", "segments"])
@pytest.mark.parametrize("mode", ["none", "tsm", "tin"])
def test_dense_matches_view_by_view_reference(tmp_path, frames, sampler, mode):
    cfg, data, mcfg, params = _setup(tmp_path, frames, mode, sampler)
    got = evaluate.evaluate_predictions(cfg, params, mcfg, data, mode="dense")
    np.testing.assert_allclose(got.probs, _brute_force(cfg, data, mcfg, params),
                               rtol=0, atol=1e-12)


def test_dense_forward_chunk_does_not_change_the_bits(tmp_path, monkeypatch):
    cfg, data, mcfg, params = _setup(tmp_path, 64, "tsm", "strided")
    got = {}
    for chunk in (1, evaluate._FORWARD_CHUNK, 16, 90):
        monkeypatch.setattr(evaluate, "_FORWARD_CHUNK", chunk)
        got[chunk] = evaluate.evaluate_predictions(cfg, params, mcfg, data, mode="dense").probs
    assert len({probs.tobytes() for probs in got.values()}) == 1


def test_dense_resizes_once_per_scale_and_forwards_distinct_views(tmp_path, monkeypatch):
    cfg, data, mcfg, params = _setup(tmp_path, 16, "tin", "strided")
    calls = {"resize": [], "inside_view": 0, "rows": 0, "copied": 0}
    real_resize, real_view = videofile.resize_frames, evaluate.materialize_view
    real_forward = evaluate.backbone_forward

    def resize(frames, short_side, window=None):
        out = real_resize(frames, short_side, window)
        # a resize to the size it has already only cuts its window out
        calls["resize"].append((calls["inside_view"] > 0, np.shares_memory(out, frames)))
        return out

    def view(frames, v):
        calls["inside_view"] += 1
        try:
            clip = real_view(frames, v)
        finally:
            calls["inside_view"] -= 1
        # a view is cut out of its scale's frames; the batch row is its only copy
        calls["copied"] += not np.shares_memory(clip, frames)
        return clip

    def forward(clip, *args, **kwargs):
        calls["rows"] += clip.shape[0]
        return real_forward(clip, *args, **kwargs)

    monkeypatch.setattr(videofile, "resize_frames", resize)
    monkeypatch.setattr(evaluate, "materialize_view", view)
    monkeypatch.setattr(evaluate, "backbone_forward", forward)
    evaluate.evaluate_predictions(cfg, params, mcfg, data, mode="dense")
    videos = len(data)
    # 10 clips all start at frame 0; scale 32 fits one crop, 36 and 40 fit three
    video_resizes = [c for c in calls["resize"] if not c[0]]
    view_resizes = [c for c in calls["resize"] if c[0]]
    assert len(video_resizes) == len(cfg.scales) * videos == 3 * videos
    assert len(view_resizes) == 7 * videos and all(unchanged for _, unchanged in view_resizes)
    assert calls["copied"] == 0
    assert calls["rows"] == 7 * videos


def test_dense_holds_one_chunk_of_cut_clips_at_a_time(tmp_path, monkeypatch):
    cfg, data, mcfg, params = _setup(tmp_path, 64, "tsm", "strided")
    clip_bytes = cfg.frames * data.in_channels * cfg.crop * cfg.crop * 8
    forwarded = []

    def forward(clips, *args, **kwargs):
        # the buffer the clips live in, not a reference that would keep it alive
        owner = clips
        while owner.base is not None:
            owner = owner.base
        forwarded.append((len(clips), owner.nbytes))
        return np.zeros((len(clips), cfg.classes))

    monkeypatch.setattr(evaluate, "backbone_forward", forward)
    tracemalloc.start()
    try:
        evaluate.evaluate_predictions(cfg, params, mcfg, data, mode="dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10 strided clips, 3 scales, 3 crops at each of the two larger: 70 distinct views
    assert sum(rows for rows, _ in forwarded) == 70 * len(data)
    # each chunk is cut into its own buffer, of at most _FORWARD_CHUNK clips
    for rows, nbytes in forwarded:
        assert rows <= evaluate._FORWARD_CHUNK and nbytes == rows * clip_bytes
    # no array holding every distinct view of a video's plan ever exists
    assert peak < 70 * clip_bytes


class TestReadPredictions:
    def test_ragged_row_names_the_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,0.1,0.2\nb,0.3\n")
        with pytest.raises(ValueError, match=r"ragged\.csv:2: 1 probabilities, expected 2"):
            evaluate.read_predictions(path)

    def test_non_numeric_token_names_the_line(self, tmp_path):
        path = tmp_path / "word.csv"
        path.write_text("a,0.1,0.2\n\nb,0.3,high\n")
        with pytest.raises(ValueError, match=r"word\.csv:3: .*'high'"):
            evaluate.read_predictions(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_token_names_the_line(self, tmp_path, token):
        path = tmp_path / "nan.csv"
        path.write_text(f"a,0.1,{token}\n")
        with pytest.raises(ValueError, match=r"nan\.csv:1: probabilities must be finite"):
            evaluate.read_predictions(path)

    def test_empty_file_names_the_path(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match=r"empty\.csv: no prediction rows"):
            evaluate.read_predictions(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,0.1,0.2\nb,0.3,0.4\n\na,0.5,0.6\n")
        with pytest.raises(ValueError, match=r"dup\.csv:4: duplicate id 'a', first on line 1"):
            evaluate.read_predictions(path)


class TestWritePredictions:
    @pytest.mark.parametrize("bad", ["a,b.xvid", "a\nb.xvid", "a\rb.xvid", " a.xvid"])
    def test_an_id_that_would_not_read_back_keeps_the_previous_file(self, tmp_path, bad):
        path = tmp_path / "p.csv"
        evaluate.write_predictions(path, PredictionMatrix(("x.xvid",), np.full((1, 2), 0.5)))
        before = path.read_bytes()
        preds = PredictionMatrix(("ok.xvid", bad, "b,c.xvid"), np.full((3, 2), 0.25))
        with pytest.raises(ValueError, match=rf"^prediction id {re.escape(repr(bad))} would not"):
            evaluate.write_predictions(path, preds)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_ids_read_back_as_written(self, tmp_path):
        ids = ("v/a b.xvid", "v/c;d\t.xvid")
        path = tmp_path / "p.csv"
        evaluate.write_predictions(path, PredictionMatrix(ids, np.full((2, 2), 0.5)))
        assert evaluate.read_predictions(path).ids == ids


# Scores one in-memory video; the training loop must stay unloaded throughout.
_EVAL_WITHOUT_TRAIN = """
import sys
import numpy as np
from temporalkit import evaluate
from temporalkit.config import RunConfig
from temporalkit.model import ModelConfig, init_params

class Video:
    ids = ("v0",)
    def __len__(self): return 1
    def num_frames(self, idx): return 16
    def frames(self, idx): return np.zeros((16, 32, 32, 1))

cfg = RunConfig()
mcfg = ModelConfig(frames=16, in_channels=1, height=32, width=32, num_classes=cfg.classes)
evaluate.evaluate_predictions(cfg, init_params(mcfg, 0), mcfg, Video())
print("temporalkit.train" in sys.modules)
"""


def test_evaluation_runs_without_importing_train():
    src = str(Path(evaluate.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _EVAL_WITHOUT_TRAIN], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "False"
