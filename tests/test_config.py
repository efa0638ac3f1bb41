import pytest

from temporalkit.config import (
    DATA_ROOT_ENV,
    ConfigError,
    RunConfig,
    build_config,
    parse_config_file,
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
    values = parse_config_file(path)
    assert values == {"temporal_mode": "tin", "lr": 0.01, "scales": (32, 36, 40), "flip": True}

    cfg = build_config(path, {"lr": 0.5})
    assert cfg.lr == 0.5  # flag wins
    assert cfg.temporal_mode == "tin"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_file(path)


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_value("lr", "fast")
    with pytest.raises(ConfigError, match="boolean"):
        parse_value("flip", "maybe")


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("temporal_mode tin\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(path)


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
    assert RunConfig(frames=10).resolved_delta_max == 5.0
    assert RunConfig(frames=10, delta_max=0.0).resolved_delta_max == 5.0
    assert RunConfig(frames=10, delta_max=2.5).resolved_delta_max == 2.5


def test_build_config_rejects_unknown_override():
    with pytest.raises(ConfigError, match="unknown"):
        build_config(None, {"turbo": True})
