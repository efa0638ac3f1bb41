import pytest

from temporalkit.config import (
    DATA_ROOT_ENV,
    ConfigError,
    RunConfig,
    _read_config_file,
    build_config,
    model_config_from_run,
    parse_value,
)


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.loss_scale == 160.0
    assert cfg.momentum == 0.9
    assert cfg.schedule == "cosine"


def test_parse_file_with_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        """
        # experiment settings
        temporal_mode = tin
        lr = 0.01        # inline comment
        scales = 32,36,40
        flip = true
        """
    )
    values, _ = _read_config_file(path)
    assert values == {"temporal_mode": "tin", "lr": 0.01, "scales": (32, 36, 40), "flip": True}

    cfg = build_config(path, {"lr": 0.5})
    assert cfg.lr == 0.5  # flag wins
    assert cfg.temporal_mode == "tin"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config(path)


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_value("lr", "fast")
    with pytest.raises(ConfigError, match="boolean"):
        parse_value("flip", "maybe")


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("temporal_mode tin\n")
    with pytest.raises(ConfigError, match="key=value"):
        build_config(path)


def test_validation_crop_vs_scales():
    with pytest.raises(ConfigError, match="crop"):
        RunConfig(crop=64, scales=(32,), scale_min=64, scale_max=64)


def test_validation_enum_fields():
    with pytest.raises(ConfigError):
        RunConfig(temporal_mode="trn")
    with pytest.raises(ConfigError):
        RunConfig(loss="focal")
    with pytest.raises(ConfigError):
        RunConfig(schedule="poly")
    with pytest.raises(ConfigError):
        RunConfig(sampler="dense")


def test_data_root_env_fallback(monkeypatch):
    cfg = RunConfig(data_root="")
    monkeypatch.delenv(DATA_ROOT_ENV, raising=False)
    with pytest.raises(ConfigError, match="data_root"):
        cfg.resolve_data_root()
    monkeypatch.setenv(DATA_ROOT_ENV, "/videos")
    assert cfg.resolve_data_root() == "/videos"
    assert RunConfig(data_root="/explicit").resolve_data_root() == "/explicit"


def test_delta_max_resolution():
    def resolved(**settings):
        return model_config_from_run(RunConfig(**settings), 1).delta_max

    assert resolved(frames=10) == 5.0
    assert resolved(frames=10, delta_max=0.0) == 5.0
    assert resolved(frames=10, delta_max=2.5) == 2.5
    # 0 means half the model's frames: under segment sampling, the segments
    assert resolved(sampler="segments", segments=5, temporal_mode="tin") == 2.5


@pytest.mark.parametrize("text,want", [("frames = 8\n", 4.0),
                                       ("sampler = segments\nsegments = 5\n", 2.5),
                                       ("sampler = segments\nsegments = 3\nframes = 16\n", 1.5),
                                       ("sampler = segments\nsegments = 5\ndelta_max = 4\n", 4.0)])
def test_delta_max_from_a_file_bounds_the_models_frames(tmp_path, text, want):
    # the frames key sizes only strided clips: under segment sampling the
    # model sees one frame per segment, and delta_max = 0 halves that count
    path = tmp_path / "run.cfg"
    path.write_text("temporal_mode = tin\n" + text)
    cfg = build_config(path)
    assert model_config_from_run(cfg, 1).delta_max == want


def test_build_config_rejects_unknown_override():
    with pytest.raises(ConfigError, match="unknown"):
        build_config(None, {"turbo": True})
