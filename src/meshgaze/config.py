"""Run configuration: every tunable of the pipeline in one flat record.

The on-disk format is plain ``key=value`` text, one pair per line, with
``#`` comments and blank lines allowed.  Unknown keys are rejected so a
typo cannot silently fall back to a default.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import get_type_hints

from .io import read_text


class MeshgazeError(Exception):
    """Base of every error meshgaze raises for bad input files or settings."""


# largest coordinate magnitude (meters) of a mesh, recording, fixation or
# pose: far beyond any scene, and squared distances stay finite
MAX_COORD = 1e9


class ConfigError(MeshgazeError):
    """Malformed config file, unknown key, or out-of-range value."""


@dataclass
class RunConfig:
    # recording / gaze geometry
    d_screen: float = 0.05              # head-to-screen distance, meters
    screen_half_extent: float = 0.15    # |sx|,|sy| bound, meters

    # fixation classification and clustering
    ivt_h: float = 0.0075               # adaptive velocity-threshold gain
    min_fixation_s: float = 0.1
    cluster_interval: float = 0.03      # AOI spatial interval, meters
    rw_sigma: float = 0.03              # random-walk affinity scale (= interval)
    rw_lambda: float = 0.85             # random-walk damping
    rw_rho_radius: float = 0.015        # density-count radius (= interval / 2)
    rw_tol: float = 1e-9
    rw_max_iter: int = 1000

    # fixation density maps
    sigma_fdm: float = 0.035            # splat std-dev, meters
    fdm_cutoff_sigmas: float = 4.0      # splat truncation radius, in sigmas

    # saliency
    sigma_c: float = 0.2                # visual-bias controlling constant
    bias_squared_distance: bool = False # False = literal unsquared exponent
    fpfh_radius_frac: float = 0.02      # FPFH radius as fraction of bbox diagonal
    uniqueness_exact_limit: int = 5000  # exact O(n^2) up to this visible count
    uniqueness_sample_size: int = 5000
    eps_bhattacharyya: float = 1e-12    # coefficient clamp floor
    baseline_eps_frac: float = 0.003    # curvature-baseline base scale / diagonal
    baseline_guard: float = 1.0         # flat-map contrast guard (dimensionless)

    # evaluation
    eps_kl_floor: float = 1e-12
    se_variant: str = "unit_mean"       # or "minmax"

    # camera / visibility
    cam_hfov_deg: float = 110.0
    cam_vfov_deg: float = 110.0
    cam_near: float = 0.05
    # a hit on a vertex's sight line hides it only when nearer than the
    # vertex by more than this fraction of the bbox diagonal
    depth_tol_frac: float = 0.001

    # pose bucketing
    pose_grid_m: float = 0.25
    pose_angle_bin_deg: float = 30.0

    # scene / load transform
    mesh_scale: float = 1.0
    mesh_translate_x: float = 0.0
    mesh_translate_y: float = 0.0
    mesh_translate_z: float = 0.0
    scene_center_x: float = 0.0
    scene_center_y: float = 1.5
    scene_center_z: float = 0.0

    # studies
    vdd_repetitions: int = 100
    vdd_max_angle_deg: float = 90.0
    move_gate_m: float = 0.15

    seed: int = 0

    def validate(self) -> None:
        positive = (
            "d_screen", "screen_half_extent", "ivt_h", "min_fixation_s",
            "cluster_interval", "rw_sigma", "rw_rho_radius",
            "rw_tol", "sigma_fdm", "fdm_cutoff_sigmas", "sigma_c",
            "fpfh_radius_frac", "eps_bhattacharyya", "baseline_eps_frac",
            "eps_kl_floor", "cam_near", "depth_tol_frac", "pose_grid_m",
            "pose_angle_bin_deg", "mesh_scale", "vdd_max_angle_deg",
            "move_gate_m",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 < self.rw_lambda < 1.0:
            raise ConfigError("rw_lambda must lie in (0, 1)")
        if self.rw_max_iter < 1:
            raise ConfigError("rw_max_iter must be >= 1")
        if self.uniqueness_exact_limit < 1 or self.uniqueness_sample_size < 1:
            raise ConfigError("uniqueness limits must be >= 1")
        if self.se_variant not in ("unit_mean", "minmax"):
            raise ConfigError(f"unknown se_variant {self.se_variant!r}")
        if not 0.0 < self.cam_hfov_deg < 180.0 or not 0.0 < self.cam_vfov_deg < 180.0:
            raise ConfigError("camera FoV must lie in (0, 180) degrees")
        if self.vdd_repetitions < 1:
            raise ConfigError("vdd_repetitions must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

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
