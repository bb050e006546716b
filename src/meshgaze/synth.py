"""Synthetic 6DoF recordings with planted gaze targets.

The observer orbits the scene center at a fixed 3D distance and a fixed
head height, always facing the center; eye offsets are solved by the
inverse of the screen-plane gaze mapping so that each sample's actual
sight-line passes through the scheduled target vertex, then perturbed by
temporally correlated angular noise.  The planted target set is emitted
alongside the recordings so downstream recovery can be checked against
ground truth.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .config import (AT_LEAST_1, COORD, MAX_COORD, NON_NEGATIVE, POSITIVE,
                     MeshgazeError, _is_int, check_fields, raise_first, within)
from .gaze import (GazeError, Recording, cast_hits, head_orientations,
                   rowdot, screen_frames, screen_point, sightlines)
from .io import read_text, unique_keys
from .mesh import Mesh


class ScenarioError(MeshgazeError):
    pass


MAX_SAMPLES = 10 ** 7     # samples of one scenario: about 23 h at 120 Hz
_DEGENERATE = "degenerate screen frame: facing parallel to Y axis"
VERTEX_IDS = (lambda v: isinstance(v, list) and all(map(_is_int, v)),
              "{name} must be a list of integer vertex ids, got {value!r}")
RADIUS = (lambda v: 0 < v <= MAX_COORD,
          f"{{name}} must be positive and at most {MAX_COORD:g}")


@dataclass
class SyntheticScenario:
    mesh_id: str
    targets: list[int] = within(VERTEX_IDS)
    radius: float = within(RADIUS, 1.5)        # 3D distance from scene center, meters
    height: float = within(COORD, 1.6)         # head height, meters
    start_angle_deg: float = 250.0
    span_deg: float = 40.0                     # orbit arc swept over the recording
    noise_deg: float = within(NON_NEGATIVE, 0.0)   # stationary angular noise std
    noise_tau_s: float = within(POSITIVE, 0.1)     # noise correlation time constant
    duration_s: float = within(POSITIVE, 10.0)
    rate_hz: float = within(POSITIVE, 120.0)
    dwell_s: float = within(POSITIVE, 0.5)     # time spent per target before switching
    subjects: int = within(AT_LEAST_1, 1)
    seed: int = within(NON_NEGATIVE, 0)

    def validate(self, scene_center) -> None:
        check_fields(self, ScenarioError)
        if not self.targets:
            raise ScenarioError("scenario needs at least one target vertex")
        n = self.duration_s * self.rate_hz
        if not (math.isfinite(n) and round(n) >= 1):
            raise ScenarioError(
                "duration_s * rate_hz must give a finite count of at least one sample")
        if round(n) > MAX_SAMPLES:
            raise ScenarioError(
                f"duration_s * rate_hz gives {n:.4g} samples per recording; "
                f"at most {MAX_SAMPLES} are allowed")
        if self.subjects * round(n) > MAX_SAMPLES:
            raise ScenarioError(
                f"{self.subjects} subjects of {round(n)} samples each give "
                f"{self.subjects * round(n)} samples; at most {MAX_SAMPLES} "
                "are allowed")
        dy = self.height - scene_center[1]
        if self.radius <= abs(dy):
            raise ScenarioError(
                "orbit radius must exceed the height offset from scene center")


_FIELDS = [f.name for f in fields(SyntheticScenario)]


def scenario_to_json(sc: SyntheticScenario) -> str:
    values = {name: getattr(sc, name) for name in _FIELDS}
    values["targets"] = list(map(int, sc.targets))
    return json.dumps(values, indent=2, sort_keys=True)


def scenario_from_json(text: str) -> SyntheticScenario:
    """Parse a scenario; raises ScenarioError on malformed JSON, a repeated,
    unknown or missing field, or a field of the wrong type or out of its
    domain."""
    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario JSON must be an object")
    known = {f: raw[f] for f in _FIELDS if f in raw}
    extra = set(raw) - set(known)
    if extra:
        raise ScenarioError(f"unknown scenario fields: {sorted(extra)}")
    if "mesh_id" not in known or "targets" not in known:
        raise ScenarioError("scenario requires mesh_id and targets")
    scenario = SyntheticScenario(**known)
    check_fields(scenario, ScenarioError)
    return scenario


def load_scenario(path) -> SyntheticScenario:
    return scenario_from_json(read_text(path, "scenario file", ScenarioError))


def euler_facings(directions) -> np.ndarray:
    """Euler angles (n, 3), degrees, zero roll, whose facing vectors are the
    rows of `directions` (n, 3).

    Inverse of the head-orientation mapping on the cos(yaw) >= 0 branch:
    yaw = atan2(d_x, hypot(d_y, d_z)), pitch = atan2(-d_y, d_z), in
    `math` per row (numpy's vector atan2 and hypot round differently).
    Total over unit directions; facing exactly +-X leaves pitch
    unconstrained and atan2(0, 0) = 0 picks the zero-pitch representative.
    """
    d = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    norm = np.sqrt(rowdot(d, d))
    if (norm < 1e-12).any():
        raise ScenarioError("facing direction must be nonzero")
    d = d / norm[:, None]
    return np.array([(math.degrees(math.atan2(-y, z)),
                      math.degrees(math.atan2(x, math.hypot(y, z))), 0.0)
                     for x, y, z in d.tolist()]).reshape(-1, 3)


def euler_facing(direction) -> np.ndarray:
    """Euler angles (degrees, zero roll) whose facing vector is `direction`."""
    return euler_facings(direction)[0]


def inverse_gaze_offsets(p, o_vec, target, d_screen: float):
    """Eye offsets (n, 2) whose actual sight-lines from p (n, 3), facing
    o_vec (n, 3), pass through target (n, 3); also each row's distance
    along the facing to its target (a row at or below 0 has its target
    behind the screen plane) and the mask of degenerate screen frames."""
    p = np.asarray(p, dtype=np.float64).reshape(-1, 3)
    o = np.asarray(o_vec, dtype=np.float64).reshape(-1, 3)
    rel_t = np.asarray(target, dtype=np.float64).reshape(-1, 3) - p
    along = rowdot(rel_t, o)
    b = screen_point(p, o, d_screen)
    with np.errstate(divide="ignore", invalid="ignore"):
        y_star = p + (d_screen / along)[:, None] * rel_t
    e_sx, e_sy, degenerate = screen_frames(o)
    rel = y_star - b
    return (np.stack([rowdot(rel, e_sx), rowdot(rel, e_sy)], axis=1),
            along, degenerate)


def _raise_unaimable(o_vec, along, degenerate, *more) -> None:
    """raise_first over the aiming checks, in the chain's order: a non-finite
    facing, then a target behind the screen plane, then a degenerate screen
    frame; then the checks in more."""
    raise_first([
        (np.isnan(o_vec[:, 0]), lambda k: GazeError("non-finite Euler angles")),
        (along <= 0, lambda k: ScenarioError("target behind the screen plane")),
        (degenerate, lambda k: GazeError(_DEGENERATE)), *more])


def _ar1_noise(rng, n: int, std: float, phi: float) -> np.ndarray:
    """Stationary AR(1) series: x_k = phi x_{k-1} + xi, Var = std^2."""
    if std == 0.0:
        return np.zeros(n)
    xi_std = std * math.sqrt(1.0 - phi * phi)
    out = np.empty(n)
    out[0] = rng.normal(0.0, std)
    steps = rng.normal(0.0, xi_std, size=n - 1) if n > 1 else ()
    for k in range(1, n):
        out[k] = phi * out[k - 1] + steps[k - 1]
    return out


def _dwell_samples(scenario: SyntheticScenario, n: int) -> int:
    """Samples spent on each target; a dwell longer than the recording's n
    samples aims at the first target throughout, as a dwell of n does."""
    return max(1, int(round(min(scenario.dwell_s * scenario.rate_hz, n))))


def target_positions(scenario: SyntheticScenario, mesh: Mesh) -> np.ndarray:
    """The planted targets' vertex positions; an id outside the mesh raises."""
    for t in scenario.targets:
        if not 0 <= int(t) < len(mesh.vertices):
            raise ScenarioError(f"target vertex {t} out of range")
    return mesh.vertices[[int(t) for t in scenario.targets]]


def generate_recording(scenario: SyntheticScenario, mesh: Mesh, cfg,
                       subject: int = 0) -> Recording:
    """One subject's recording; deterministic in (scenario, cfg, subject)."""
    center = np.asarray(cfg.scene_center(), dtype=np.float64)
    scenario.validate(center)
    targets = target_positions(scenario, mesh)
    n = int(round(scenario.duration_s * scenario.rate_hz))
    dt = 1.0 / scenario.rate_hz
    dy = scenario.height - center[1]
    r_h = math.sqrt(scenario.radius ** 2 - dy ** 2)

    # distinct subjects start at staggered orbit angles
    start = math.radians(scenario.start_angle_deg + 7.0 * subject)
    span = math.radians(scenario.span_deg)

    per_dwell = _dwell_samples(scenario, n)

    rng = np.random.default_rng(scenario.seed * 100003 + subject)
    phi = math.exp(-dt / scenario.noise_tau_s)
    s_std = cfg.d_screen * math.tan(math.radians(scenario.noise_deg))
    noise_x = _ar1_noise(rng, n, s_std, phi)
    noise_y = _ar1_noise(rng, n, s_std, phi)

    idx = np.arange(n)
    theta = (start + span * (idx / (n - 1) if n > 1 else np.zeros(n))).tolist()
    ring = np.array([(r_h * math.cos(x), dy, r_h * math.sin(x)) for x in theta])
    p = center + ring.reshape(-1, 3)
    face = center - p
    o_deg = euler_facings(face / np.sqrt(rowdot(face, face))[:, None])
    target = targets[idx // per_dwell % len(targets)]
    o_vec = head_orientations(o_deg)
    s, along, degenerate = inverse_gaze_offsets(p, o_vec, target, cfg.d_screen)
    s = s + np.stack([noise_x, noise_y], axis=1)
    # the lowest failing sample raises, with the per-sample loop's message
    _raise_unaimable(o_vec, along, degenerate, (
        np.abs(s).max(axis=1) > cfg.screen_half_extent, lambda k: ScenarioError(
            f"sample {k}: eye offset {s[k]} exceeds the screen half-extent; "
            "bring targets nearer the view center or widen the screen")))
    return Recording(t=idx * dt, p=p, o=o_deg, s=s)


def check_targets_reachable(scenario: SyntheticScenario, mesh: Mesh, cfg,
                            recording: Recording) -> None:
    """Error when some planted target is never the first surface hit.

    Casts each sample's noise-free sight-line; a target no sample reaches
    (within twice cfg.cluster_interval of the target position) was never
    visible along the trajectory.
    """
    tol = 2.0 * cfg.cluster_interval
    targets = target_positions(scenario, mesh)
    p, o_deg = recording.p, recording.o
    aimed = (np.arange(len(recording))
             // _dwell_samples(scenario, len(recording)) % len(targets))
    reached = np.zeros(len(targets), dtype=bool)

    def cast(ks):
        aim = targets[aimed[ks]]
        o_vec = head_orientations(o_deg[ks])
        s, along, degenerate = inverse_gaze_offsets(p[ks], o_vec, aim,
                                                    cfg.d_screen)
        _raise_unaimable(o_vec, along, degenerate)
        points = cast_hits(mesh, *sightlines(p[ks], o_deg[ks], s,
                                             cfg.d_screen))
        miss = points - aim
        reached[aimed[ks][np.sqrt(rowdot(miss, miss)) <= tol]] = True

    # each target's first sample usually reaches it; a second batch casts
    # every sample of the targets the first one left unreached
    first = np.unique(aimed, return_index=True)[1]
    cast(first)
    rest = ~reached[aimed]
    rest[first] = False
    cast(np.flatnonzero(rest))
    missing = [int(scenario.targets[i]) for i, ok in enumerate(reached) if not ok]
    if missing:
        raise ScenarioError(
            f"target vertices never visible along the trajectory: {missing}")
