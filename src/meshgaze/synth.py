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
from dataclasses import dataclass, field

import numpy as np

from .config import MeshgazeError
from .gaze import (PoseSample, cast_sightlines, head_orientation,
                   screen_frame, screen_point, sightlines)
from .mesh import Mesh


class ScenarioError(MeshgazeError):
    pass


@dataclass
class SyntheticScenario:
    mesh_id: str
    targets: list[int]
    radius: float = 1.5            # 3D distance from scene center, meters
    height: float = 1.6            # head height, meters
    start_angle_deg: float = 250.0
    span_deg: float = 40.0         # orbit arc swept over the recording
    noise_deg: float = 0.0         # stationary angular noise std
    noise_tau_s: float = 0.1       # noise correlation time constant
    duration_s: float = 10.0
    rate_hz: float = 120.0
    dwell_s: float = 0.5           # time spent per target before switching
    subjects: int = 1
    seed: int = 0

    def validate(self, scene_center) -> None:
        if not self.targets:
            raise ScenarioError("scenario needs at least one target vertex")
        if self.radius <= 0 or self.duration_s <= 0 or self.rate_hz <= 0:
            raise ScenarioError("radius, duration, and rate must be positive")
        if self.dwell_s <= 0:
            raise ScenarioError("dwell must be positive")
        if self.noise_deg < 0 or self.noise_tau_s <= 0:
            raise ScenarioError("noise parameters out of range")
        if self.subjects < 1:
            raise ScenarioError("subjects must be >= 1")
        dy = self.height - scene_center[1]
        if self.radius <= abs(dy):
            raise ScenarioError(
                "orbit radius must exceed the height offset from scene center")


def scenario_to_json(sc: SyntheticScenario) -> str:
    return json.dumps({
        "mesh_id": sc.mesh_id, "targets": list(map(int, sc.targets)),
        "radius": sc.radius, "height": sc.height,
        "start_angle_deg": sc.start_angle_deg, "span_deg": sc.span_deg,
        "noise_deg": sc.noise_deg, "noise_tau_s": sc.noise_tau_s,
        "duration_s": sc.duration_s, "rate_hz": sc.rate_hz,
        "dwell_s": sc.dwell_s, "subjects": sc.subjects, "seed": sc.seed,
    }, indent=2, sort_keys=True)


def scenario_from_json(text: str) -> SyntheticScenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
    known = {f: raw[f] for f in (
        "mesh_id", "targets", "radius", "height", "start_angle_deg",
        "span_deg", "noise_deg", "noise_tau_s", "duration_s", "rate_hz",
        "dwell_s", "subjects", "seed") if f in raw}
    extra = set(raw) - set(known)
    if extra:
        raise ScenarioError(f"unknown scenario fields: {sorted(extra)}")
    if "mesh_id" not in known or "targets" not in known:
        raise ScenarioError("scenario requires mesh_id and targets")
    return SyntheticScenario(**known)


def euler_facing(direction) -> np.ndarray:
    """Euler angles (degrees, zero roll) whose facing vector is `direction`.

    Inverse of the head-orientation mapping on the cos(yaw) >= 0 branch:
    yaw = atan2(d_x, hypot(d_y, d_z)), pitch = atan2(-d_y, d_z).  Total
    over unit directions; facing exactly +-X leaves pitch unconstrained
    and atan2(0, 0) = 0 picks the zero-pitch representative.
    """
    d = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(d))
    if norm < 1e-12:
        raise ScenarioError("facing direction must be nonzero")
    d = d / norm
    oy = math.degrees(math.atan2(d[0], math.hypot(d[1], d[2])))
    ox = math.degrees(math.atan2(-d[1], d[2]))
    return np.array([ox, oy, 0.0])


def inverse_gaze_offset(p, o_vec, target, d_screen: float) -> np.ndarray:
    """Eye offset (sx, sy) whose actual sight-line from p passes through target."""
    p = np.asarray(p, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    o = np.asarray(o_vec, dtype=np.float64)
    along = float(np.dot(target - p, o))
    if along <= 0:
        raise ScenarioError("target behind the screen plane")
    b = screen_point(p, o, d_screen)
    y_star = p + (d_screen / along) * (target - p)
    e_sx, e_sy = screen_frame(o)
    rel = y_star - b
    return np.array([float(np.dot(rel, e_sx)), float(np.dot(rel, e_sy))])


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


def generate_recording(scenario: SyntheticScenario, mesh: Mesh, cfg,
                       subject: int = 0) -> list[PoseSample]:
    """One subject's recording; deterministic in (scenario, cfg, subject)."""
    center = np.asarray(cfg.scene_center(), dtype=np.float64)
    scenario.validate(center)
    n = int(round(scenario.duration_s * scenario.rate_hz))
    dt = 1.0 / scenario.rate_hz
    dy = scenario.height - center[1]
    r_h = math.sqrt(scenario.radius ** 2 - dy ** 2)

    # distinct subjects start at staggered orbit angles
    start = math.radians(scenario.start_angle_deg + 7.0 * subject)
    span = math.radians(scenario.span_deg)

    targets = [np.asarray(mesh.vertices[int(t)], dtype=np.float64)
               for t in scenario.targets]
    per_dwell = max(1, int(round(scenario.dwell_s * scenario.rate_hz)))

    rng = np.random.default_rng(scenario.seed * 100003 + subject)
    phi = math.exp(-dt / scenario.noise_tau_s)
    s_std = cfg.d_screen * math.tan(math.radians(scenario.noise_deg))
    noise_x = _ar1_noise(rng, n, s_std, phi)
    noise_y = _ar1_noise(rng, n, s_std, phi)

    samples: list[PoseSample] = []
    for k in range(n):
        frac = k / (n - 1) if n > 1 else 0.0
        theta = start + span * frac
        p = center + np.array([r_h * math.cos(theta), dy, r_h * math.sin(theta)])
        face = (center - p) / np.linalg.norm(center - p)
        o_deg = euler_facing(face)
        o_vec = head_orientation(o_deg)
        target = targets[(k // per_dwell) % len(targets)]
        s = inverse_gaze_offset(p, o_vec, target, cfg.d_screen)
        s = s + np.array([noise_x[k], noise_y[k]])
        if np.abs(s).max() > cfg.screen_half_extent:
            raise ScenarioError(
                f"sample {k}: eye offset {s} exceeds the screen half-extent; "
                "bring targets nearer the view center or widen the screen")
        samples.append(PoseSample(t=k * dt, p=p, o_deg=o_deg, s=s, index=k))
    return samples


def check_targets_reachable(scenario: SyntheticScenario, mesh: Mesh, cfg,
                            samples, tol: float | None = None) -> None:
    """Error when some planted target is never the first surface hit.

    Casts each sample's noise-free sight-line; a target no sample reaches
    (within tol of the target position) was never visible along the
    trajectory.
    """
    if tol is None:
        tol = 2.0 * cfg.cluster_interval
    per_dwell = max(1, int(round(scenario.dwell_s * scenario.rate_hz)))
    targets = mesh.vertices[np.asarray(scenario.targets, dtype=np.int64)]
    aimed = np.arange(len(samples)) // per_dwell % len(targets)
    reached = [False] * len(targets)

    def cast(ks):
        offsets = [inverse_gaze_offset(samples[k].p,
                                       head_orientation(samples[k].o_deg),
                                       targets[aimed[k]], cfg.d_screen)
                   for k in ks]
        origins, directions = sightlines(
            [samples[k].p for k in ks], [samples[k].o_deg for k in ks],
            offsets, cfg.d_screen)
        for k, rec in zip(ks, cast_sightlines(mesh, origins, directions)):
            target = targets[aimed[k]]
            if rec is not None and float(np.linalg.norm(rec.point - target)) <= tol:
                reached[aimed[k]] = True

    # each target's first sample usually reaches it; a second batch casts
    # every sample of the targets the first one left unreached
    first = np.unique(aimed, return_index=True)[1]
    cast(first)
    cast([k for k in range(len(samples))
          if not reached[aimed[k]] and k not in first])
    missing = [int(scenario.targets[i]) for i, ok in enumerate(reached) if not ok]
    if missing:
        raise ScenarioError(
            f"target vertices never visible along the trajectory: {missing}")
