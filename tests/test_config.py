"""Config parsing, serialization, and validation."""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import re

import numpy as np
import pytest
from conftest import serialize_config
from hypothesis import given, settings
from hypothesis import strategies as st

import meshgaze
from meshgaze.config import (ConfigError, MeshgazeError, RunConfig,
                             apply_overrides, load_config, parse_config,
                             raise_first)
from meshgaze.io import write_text
from meshgaze.synth import (ScenarioError, SyntheticScenario,
                            scenario_from_json)


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


def test_validate_reports_the_first_bad_field_in_declaration_order():
    cfg = dataclasses.replace(RunConfig(), seed=-1, cam_hfov_deg=0.0,
                              sigma_fdm=0.0, rw_lambda=2.0)
    with pytest.raises(ConfigError, match=r"^rw_lambda must lie in \(0, 1\)$"):
        cfg.validate()


@pytest.mark.parametrize("override, message", [
    ("cam_near=inf", "cam_near must be a finite number, got inf"),
    ("baseline_guard=nan", "baseline_guard must be a finite number, got nan"),
    ("rw_lambda=1", "rw_lambda must lie in (0, 1)"),
    ("cam_vfov_deg=180", "cam_vfov_deg must lie in (0, 180) degrees"),
    ("uniqueness_sample_size=0", "uniqueness_sample_size must be >= 1"),
    ("scene_center_y=-2e9", "scene_center_y must lie within +-1e+09"),
    ("se_variant=fancy", "unknown se_variant 'fancy'"),
])
def test_override_out_of_its_domain_names_the_key(override, message):
    with pytest.raises(ConfigError) as err:
        apply_overrides(RunConfig(), [override])
    assert str(err.value) == message


EXTREMES = [math.inf, -math.inf, math.nan, 0, -1, 1e308]
# checks that involve more than one scenario field, and so may name another
CROSS_FIELD = ("duration_s * rate_hz", "orbit radius must exceed the height")


def numeric_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.type in ("int", "float")]


def outcome(call, error):
    """None when call returns, else the message of the error it raises."""
    try:
        call()
    except error as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("value", EXTREMES)
def test_every_numeric_setting_takes_or_names_an_extreme_value(value):
    """Each numeric field of RunConfig and of a scenario file, set to an
    extreme value, is taken or rejected by a message that starts with its
    name; a non-finite value is always rejected.  A finite value may instead
    fail a check of several fields, whose message names the field too."""
    def scenario(name):
        raw = json.dumps({"mesh_id": "m", "targets": [1], name: value})
        return lambda: scenario_from_json(raw).validate((0.0, 1.5, 0.0))

    cases = [(name, dataclasses.replace(RunConfig(), **{name: value}).validate,
              ConfigError) for name in numeric_fields(RunConfig)]
    cases += [(name, scenario(name), ScenarioError)
              for name in numeric_fields(SyntheticScenario)]
    assert len(cases) == 37 + 11
    for name, call, error in cases:
        message = outcome(call, error)
        if not math.isfinite(value):
            assert message is not None, name
        assert message is None or message.startswith(name) or (
            math.isfinite(value) and message.startswith(CROSS_FIELD)
            and name in message), (name, message)


def readme_defaults():
    """{key: default text} of each row of README's Configuration table; a
    row that names keys `a` / `b` gives its defaults as `x` / `y` or as one
    `x` for both."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    out = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if not line.startswith("| `") or len(cells) != 3:
            continue
        keys = re.findall(r"`([^`]+)`", cells[0])
        defaults = re.findall(r"`([^`]+)`", cells[1])
        out.update(zip(keys, defaults * len(keys) if len(defaults) == 1
                       else defaults))
    return out


def test_readme_configuration_defaults_match_runconfig():
    documented = readme_defaults()
    assert len(documented) >= 10
    cfg = RunConfig()
    for key, text in documented.items():
        value = getattr(cfg, key)
        if isinstance(value, str):
            assert text == value, key
        else:
            assert float(text) == value, key


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


class _Failed(Exception):
    """The error of check j at row i, with args (i, j)."""


@st.composite
def _masks(draw):
    """k boolean masks over n rows, n = 0 included.  Over 0 rows every mask
    after the first may have length 1, as load_recording's timestamp mask
    has on a header-only file; the first carries the row count."""
    n = draw(st.integers(0, 12))
    k = draw(st.integers(0, 4))
    lengths = [1 if n == 0 and j and draw(st.booleans()) else n
               for j in range(k)]
    return n, [np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)),
                        dtype=bool) for m in lengths]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_masks(), st.booleans())
def test_raise_first_matches_the_row_loop(case, with_stop):
    """raise_first raises what a loop over rows, then over checks, raises
    first; with no failing row it raises stop, or returns without one."""
    n, masks = case
    stop = KeyError("stop") if with_stop else None
    want = next(((i, j) for i in range(n) for j, mask in enumerate(masks)
                 if mask[i]), None)
    checks = [(mask, lambda i, j=j: _Failed(i, j)) for j, mask in enumerate(masks)]
    try:
        raise_first(checks, stop)
    except _Failed as err:
        assert err.args == want
    except KeyError as err:
        assert want is None and err is stop
    else:
        assert want is None and stop is None
