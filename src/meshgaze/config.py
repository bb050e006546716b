"""Run configuration: every tunable of the pipeline in one flat record.

The on-disk format is plain ``key=value`` text, one pair per line, with
``#`` comments and blank lines allowed.  Unknown keys are rejected so a
typo cannot silently fall back to a default.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .io import read_text


class MeshgazeError(Exception):
    """Base of every error meshgaze raises for bad input files or settings."""


# largest coordinate magnitude (meters) of a mesh, recording, fixation or
# pose: far beyond any scene, and squared distances stay finite
MAX_COORD = 1e9


class ConfigError(MeshgazeError):
    """Malformed config file, unknown key, or out-of-range value."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:               # an integer beyond float range
        return False


# A domain is (test, message): the message, formatted with the field's name
# and value, is the error when test(value) is false.
POSITIVE = (lambda v: v > 0, "{name} must be positive")
AT_LEAST_1 = (lambda v: v >= 1, "{name} must be >= 1")
NON_NEGATIVE = (lambda v: v >= 0, "{name} must be >= 0")
UNIT = (lambda v: 0 < v < 1, "{name} must lie in (0, 1)")
ANGLE = (lambda v: 0 < v < 180, "{name} must lie in (0, 180) degrees")
COORD = (lambda v: abs(v) <= MAX_COORD, f"{{name}} must lie within +-{MAX_COORD:g}")
SE_VARIANT = (lambda v: v in ("unit_mean", "minmax"), "unknown {name} {value!r}")

# the check of each annotated type, run before the field's domain
_TYPE_CHECKS = {
    "int": (_is_int, "{name} must be an integer, got {value!r}"),
    "float": (_is_finite_real, "{name} must be a finite number, got {value!r}"),
    "str": (lambda v: isinstance(v, str), "{name} must be a string, got {value!r}"),
}


def within(domain, default=dataclasses.MISSING):
    """A dataclass field whose values check_fields tests against domain."""
    return dataclasses.field(default=default, metadata={"domain": domain})


def check_fields(obj, error) -> None:
    """Raise error for the first field of dataclass obj, in declaration
    order, whose value has the wrong type (an int field takes an integer
    that is not a bool, a float field a finite real) or lies outside the
    domain that within declared for it."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        checks = (_TYPE_CHECKS.get(getattr(f.type, "__name__", f.type)),
                  f.metadata.get("domain"))
        for test, message in filter(None, checks):
            if not test(value):
                raise error(message.format(name=f.name, value=value))


def raise_first(checks, stop=None) -> None:
    """Raise make(i) for the lowest row i that fails one of checks, a list
    of (mask over rows, make) pairs in the order a row is checked, taking
    the first failing check; with no failing row, raise stop if given.
    The masks are or-ed with broadcasting, so a length-1 mask beside masks
    over no rows fails no row.  Only the raised error is made, so a good
    input formats no message."""
    failing = functools.reduce(np.logical_or, (m for m, _ in checks), np.False_)
    if failing.any():
        i = int(np.argmax(failing))
        raise next(make(i) for mask, make in checks if mask[i])
    if stop is not None:
        raise stop


@dataclass
class RunConfig:
    # recording / gaze geometry
    d_screen: float = within(POSITIVE, 0.05)  # head-to-screen distance, meters
    screen_half_extent: float = within(POSITIVE, 0.15)  # |sx|,|sy| bound, meters

    # fixation classification and clustering
    ivt_h: float = within(POSITIVE, 0.0075)  # adaptive velocity-threshold gain
    min_fixation_s: float = within(POSITIVE, 0.1)
    cluster_interval: float = within(POSITIVE, 0.03)  # AOI spatial interval, meters
    rw_sigma: float = within(POSITIVE, 0.03)  # random-walk affinity scale (= interval)
    rw_lambda: float = within(UNIT, 0.85)  # random-walk damping
    rw_rho_radius: float = within(POSITIVE, 0.015)  # density-count radius (interval / 2)
    rw_tol: float = within(POSITIVE, 1e-9)
    rw_max_iter: int = within(AT_LEAST_1, 1000)

    # fixation density maps
    sigma_fdm: float = within(POSITIVE, 0.035)  # splat std-dev, meters
    fdm_cutoff_sigmas: float = within(POSITIVE, 4.0)  # splat cut-off radius, in sigmas

    # saliency
    sigma_c: float = within(POSITIVE, 0.2)  # visual-bias controlling constant
    bias_squared_distance: bool = False  # False = literal unsquared exponent
    fpfh_radius_frac: float = within(POSITIVE, 0.02)  # FPFH radius / bbox diagonal
    uniqueness_exact_limit: int = within(AT_LEAST_1, 5000)  # exact O(n^2) up to this many
    uniqueness_sample_size: int = within(AT_LEAST_1, 5000)
    eps_bhattacharyya: float = within(POSITIVE, 1e-12)  # coefficient clamp floor
    baseline_eps_frac: float = within(POSITIVE, 0.003)  # baseline base scale / diagonal
    baseline_guard: float = 1.0  # flat-map contrast guard (dimensionless)

    # evaluation
    eps_kl_floor: float = within(POSITIVE, 1e-12)
    se_variant: str = within(SE_VARIANT, "unit_mean")  # or "minmax"

    # camera / visibility
    cam_hfov_deg: float = within(ANGLE, 110.0)
    cam_vfov_deg: float = within(ANGLE, 110.0)
    cam_near: float = within(POSITIVE, 0.05)
    # a hit on a vertex's sight line hides it only when nearer than the
    # vertex by more than this fraction of the bbox diagonal
    depth_tol_frac: float = within(POSITIVE, 0.001)

    # pose bucketing
    pose_grid_m: float = within(POSITIVE, 0.25)
    pose_angle_bin_deg: float = within(POSITIVE, 30.0)

    # scene / load transform
    mesh_scale: float = within(POSITIVE, 1.0)
    mesh_translate_x: float = within(COORD, 0.0)
    mesh_translate_y: float = within(COORD, 0.0)
    mesh_translate_z: float = within(COORD, 0.0)
    scene_center_x: float = within(COORD, 0.0)
    scene_center_y: float = within(COORD, 1.5)
    scene_center_z: float = within(COORD, 0.0)

    # studies
    vdd_repetitions: int = within(AT_LEAST_1, 100)
    vdd_max_angle_deg: float = within(POSITIVE, 90.0)
    move_gate_m: float = within(POSITIVE, 0.15)

    seed: int = within(NON_NEGATIVE, 0)

    def validate(self) -> None:
        check_fields(self, ConfigError)

    def scene_center(self):
        return (self.scene_center_x, self.scene_center_y, self.scene_center_z)

    def mesh_translate(self):
        return (self.mesh_translate_x, self.mesh_translate_y, self.mesh_translate_z)


_FIELD_TYPES = get_type_hints(RunConfig)


def _parse_value(key: str, raw: str):
    typ = _FIELD_TYPES[key]
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse boolean for {key}: {raw!r}")
    try:
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {typ.__name__} for {key}: {raw!r}") from exc
    return raw


def _set_key(cfg: RunConfig, pair: str, where: str = "") -> None:
    """Set one ``key=value`` pair on cfg; where prefixes an unknown key."""
    key, _, raw = pair.partition("=")
    key = key.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"{where}unknown config key {key!r}")
    setattr(cfg, key, _parse_value(key, raw))


def parse_config(text: str) -> RunConfig:
    """Parse flat key=value text into a RunConfig; unknown keys are errors."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        _set_key(cfg, stripped, f"line {lineno}: ")
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(read_text(path, "config file", ConfigError))


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply ``key=value`` override strings (CLI --set) on top of cfg."""
    out = dataclasses.replace(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        _set_key(out, item)
    out.validate()
    return out
