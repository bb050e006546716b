"""Config parsing, serialization, and validation."""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import meshgaze
from meshgaze.config import (ConfigError, MeshgazeError, RunConfig,
                             apply_overrides, load_config, parse_config,
                             serialize_config)
from meshgaze.io import write_text


def test_defaults_validate():
    RunConfig().validate()


def test_roundtrip_preserves_every_field():
    cfg = RunConfig(d_screen=0.06, ivt_h=0.01, rw_max_iter=640,
                    bias_squared_distance=True, se_variant="minmax", seed=7)
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config("# a comment\n\nivt_h = 0.01\n  # indented comment\n")
    assert cfg.ivt_h == 0.01
    # untouched fields keep defaults
    assert cfg.sigma_fdm == RunConfig().sigma_fdm


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("no_such_option=1\n")


@pytest.mark.parametrize("key", ["cam_width", "cam_height"])
def test_retired_raster_keys_rejected(key):
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(f"{key}=1080\n")
    with pytest.raises(ConfigError, match="unknown"):
        apply_overrides(RunConfig(), [f"{key}=1080"])


def test_retired_sample_rate_key_rejected():
    """Nothing read sample_rate_hz (timing comes from each sample's t), so
    the key is gone and a config naming it is an unknown-key error."""
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("sample_rate_hz=120\n")
    with pytest.raises(ConfigError, match="unknown"):
        apply_overrides(RunConfig(), ["sample_rate_hz=90"])


def test_malformed_line_rejected():
    with pytest.raises(ConfigError):
        parse_config("just a bare token\n")


@pytest.mark.parametrize("text,value", [
    ("true", True), ("false", False), ("1", True), ("0", False),
])
def test_bool_parsing(text, value):
    assert parse_config(f"bias_squared_distance={text}").bias_squared_distance is value


def test_int_field_rejects_float_text():
    with pytest.raises(ConfigError):
        parse_config("rw_max_iter=1000.5")


def test_validate_rejects_nonpositive_scales():
    for key in ("d_screen", "sigma_fdm", "ivt_h", "sigma_c", "rw_sigma"):
        cfg = dataclasses.replace(RunConfig(), **{key: 0.0})
        with pytest.raises(ConfigError):
            cfg.validate()


def test_validate_rejects_bad_variant():
    cfg = dataclasses.replace(RunConfig(), se_variant="fancy")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_apply_overrides():
    cfg = apply_overrides(RunConfig(), ["ivt_h=0.02", "uniqueness_exact_limit=256"])
    assert cfg.ivt_h == 0.02 and cfg.uniqueness_exact_limit == 256


def test_apply_overrides_missing_equals():
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), ["ivt_h"])


def test_file_roundtrip(tmp_path):
    cfg = RunConfig(rw_lambda=0.9, fpfh_radius_frac=0.05)
    path = tmp_path / "run.cfg"
    write_text(path, serialize_config(cfg))
    assert load_config(path) == cfg
    # atomic write leaves no temp droppings
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_float_serialization_is_lossless():
    cfg = RunConfig(sigma_fdm=0.1 + 0.2)  # 0.30000000000000004
    assert parse_config(serialize_config(cfg)).sigma_fdm == cfg.sigma_fdm


def test_scene_center_and_translate_helpers():
    cfg = RunConfig(mesh_translate_x=1.0, scene_center_y=2.0)
    assert cfg.mesh_translate() == (1.0, 0.0, 0.0)
    assert cfg.scene_center() == (0.0, 2.0, 0.0)


def test_every_error_class_derives_from_meshgaze_error():
    """One base class lets the CLI report every input error the same way."""
    errors = []
    for info in pkgutil.iter_modules(meshgaze.__path__):
        module = importlib.import_module(f"meshgaze.{info.name}")
        errors += [obj for obj in vars(module).values()
                   if inspect.isclass(obj) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__]
    assert len(errors) == 10                 # the base and nine errors
    assert all(issubclass(e, MeshgazeError) for e in errors)
