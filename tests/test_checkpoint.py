import numpy as np
import pytest

from temporalkit.checkpoint import (
    CheckpointFormatError,
    ITER_KEY,
    load_checkpoint,
    pack_training_state,
    save_checkpoint,
    unpack_training_state,
)
from temporalkit.model import ModelConfig, backbone_forward, init_params


def test_save_load_save_is_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    entries = [
        ("alpha.weight", rng.normal(size=(3, 4))),
        ("alpha.bias", rng.normal(size=3)),
        ("zeta", rng.normal(size=(2, 2, 2))),
    ]
    p1, p2 = tmp_path / "a.xtck", tmp_path / "b.xtck"
    save_checkpoint(p1, entries)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_order_and_values_preserved(tmp_path):
    rng = np.random.default_rng(1)
    entries = [(f"t{i}", rng.normal(size=(i + 1,))) for i in range(5)]
    path = tmp_path / "c.xtck"
    save_checkpoint(path, entries)
    loaded = load_checkpoint(path)
    assert [n for n, _ in loaded] == [n for n, _ in entries]
    for (_, want), (_, got) in zip(entries, loaded):
        np.testing.assert_array_equal(want, got)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.xtck"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "d.xtck"
    save_checkpoint(path, [("x", np.zeros(2))])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(path)


def test_training_state_round_trip(tmp_path):
    cfg = ModelConfig(frames=4, in_channels=1, height=8, width=8, num_classes=3,
                      channels=(3, 4), dropout=0.0)
    params = init_params(cfg, seed=2)
    velocity = {n: np.random.default_rng(3).normal(size=v.shape)
                for n, v in params.values.items()}
    path = tmp_path / "state.xtck"
    save_checkpoint(path, pack_training_state(params, velocity, iteration=123))
    values, vel, iteration = unpack_training_state(load_checkpoint(path))
    assert iteration == 123
    assert set(values) == set(params.values)
    for name in params.names():
        np.testing.assert_array_equal(values[name], params[name])
        np.testing.assert_array_equal(vel[name], velocity[name])


def test_reserved_iteration_key_prefix():
    assert ITER_KEY.startswith("__opt__/")


def test_forward_identical_after_round_trip(tmp_path):
    cfg = ModelConfig(frames=4, in_channels=1, height=8, width=8, num_classes=3,
                      channels=(3, 4), dropout=0.0)
    params = init_params(cfg, seed=4)
    clip = np.random.default_rng(5).normal(size=(2, 4, 1, 8, 8))
    before = backbone_forward(clip, params, cfg)

    path = tmp_path / "model.xtck"
    save_checkpoint(path, pack_training_state(params, {}, 0))
    values, _, _ = unpack_training_state(load_checkpoint(path))
    fresh = init_params(cfg, seed=99)  # different init, then overwritten
    for name in fresh.names():
        fresh.values[name][...] = values[name]
    after = backbone_forward(clip, fresh, cfg)
    assert np.max(np.abs(after - before)) <= 1e-15


def _cut_points(path):
    """Byte counts that end a one-tensor file inside each of its parts."""
    # "XTCK" | version | count | name length | "alpha" | rank | dims 2, 3 | 6 doubles
    save_checkpoint(path, [("alpha", np.arange(6.0).reshape(2, 3))])
    return path.read_bytes(), {
        "header": (7, "header at byte offset 4"),
        "name": (18, "the name of tensor 0 at byte offset 16"),
        "dims": (27, "the dims of tensor 0 'alpha' at byte offset 25"),
        "data": (60, "the data of tensor 0 'alpha' at byte offset 33"),
    }


@pytest.mark.parametrize("part", ["header", "name", "dims", "data"])
def test_truncated_file_names_tensor_and_offset(tmp_path, part):
    path = tmp_path / "cut.xtck"
    data, cuts = _cut_points(path)
    size, where = cuts[part]
    path.write_bytes(data[:size])
    with pytest.raises(CheckpointFormatError, match=f"truncated in {where}"):
        load_checkpoint(path)


def test_truncated_checkpoint_is_cli_validation_error(tmp_path, capsys):
    from temporalkit.cli import main
    from temporalkit.synth import generate_dataset

    manifest = generate_dataset(tmp_path / "val", 2, seed=1, rel_prefix="val/")
    path = tmp_path / "cut.xtck"
    data, cuts = _cut_points(path)
    path.write_bytes(data[: cuts["data"][0]])
    assert main(["eval", "--checkpoint", str(path), "--val-manifest", str(manifest),
                 "--data-root", str(tmp_path)]) == 1
    assert "truncated in the data of tensor 0 'alpha'" in capsys.readouterr().err


class _FailingFile:
    """A file that takes `writes_ok` writes, then fails every one, as on a full disk."""

    def __init__(self, fh, writes_ok):
        self.fh, self.left = fh, writes_ok

    def write(self, data):
        if self.left == 0:
            raise OSError(28, "No space left on device")
        self.left -= 1
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _fail_midway(monkeypatch, writes_ok):
    import builtins

    from temporalkit import checkpoint

    monkeypatch.setattr(checkpoint, "open",
                        lambda *a, **k: _FailingFile(builtins.open(*a, **k), writes_ok),
                        raising=False)


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.xtck"
    save_checkpoint(path, [("alpha", np.arange(6.0).reshape(2, 3))])
    before = path.read_bytes()
    _fail_midway(monkeypatch, writes_ok=4)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, [("alpha", np.ones((2, 3))), ("beta", np.ones(4))])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.xtck"]


def test_failed_prediction_write_keeps_the_previous_file(tmp_path, monkeypatch):
    from temporalkit.evaluate import write_predictions
    from temporalkit.metrics import PredictionMatrix

    path = tmp_path / "preds.csv"
    write_predictions(path, PredictionMatrix(("a", "b"), np.array([[0.1, 0.2], [0.3, 0.4]])))
    before = path.read_bytes()
    _fail_midway(monkeypatch, writes_ok=1)
    with pytest.raises(OSError, match="No space left"):
        write_predictions(path, PredictionMatrix(("c", "d"), np.array([[0.5, 0.6], [0.7, 0.8]])))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["preds.csv"]
