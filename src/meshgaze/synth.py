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
from .gaze import (GazeError, PoseSample, cast_hits, head_orientations, rowdot,
                   screen_frames, screen_point, sightlines)
from .io import read_text
from .mesh import Mesh


class ScenarioError(MeshgazeError):
    pass


MAX_SAMPLES = 10 ** 7     # samples of one scenario: about 23 h at 120 Hz
_DEGENERATE = "degenerate screen frame: facing parallel to Y axis"


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

    def check_types(self) -> None:
        """ScenarioError unless every field has its declared type: mesh_id a
        string, targets a list of integer vertex ids, subjects and seed
        integers, and every other field a finite number (a JSON true or
        false is not a number here)."""
        if not isinstance(self.mesh_id, str):
            raise ScenarioError(f"mesh_id must be a string, got {self.mesh_id!r}")
        if not (isinstance(self.targets, list)
                and all(_is_int(t) for t in self.targets)):
            raise ScenarioError(
                f"targets must be a list of integer vertex ids, got {self.targets!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ScenarioError(
                    f"{name} must be a finite number, got {value!r}")

    def validate(self, scene_center) -> None:
        self.check_types()
        if not self.targets:
            raise ScenarioError("scenario needs at least one target vertex")
        if self.radius <= 0 or self.duration_s <= 0 or self.rate_hz <= 0:
            raise ScenarioError("radius, duration, and rate must be positive")
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
        if self.dwell_s <= 0:
            raise ScenarioError("dwell must be positive")
        if self.noise_deg < 0 or self.noise_tau_s <= 0:
            raise ScenarioError("noise parameters out of range")
        if self.subjects < 1:
            raise ScenarioError("subjects must be >= 1")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        dy = self.height - scene_center[1]
        if self.radius <= abs(dy):
            raise ScenarioError(
                "orbit radius must exceed the height offset from scene center")


_INT_FIELDS = ("subjects", "seed")
_REAL_FIELDS = ("radius", "height", "start_angle_deg", "span_deg", "noise_deg",
                "noise_tau_s", "duration_s", "rate_hz", "dwell_s")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if not (_is_int(value) or isinstance(value, (float, np.floating))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:               # an integer beyond float range
        return False


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
    """Parse a scenario; raises ScenarioError on malformed JSON, unknown or
    missing fields, or a field of the wrong type."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario JSON must be an object")
    known = {f: raw[f] for f in (
        "mesh_id", "targets", "radius", "height", "start_angle_deg",
        "span_deg", "noise_deg", "noise_tau_s", "duration_s", "rate_hz",
        "dwell_s", "subjects", "seed") if f in raw}
    extra = set(raw) - set(known)
    if extra:
        raise ScenarioError(f"unknown scenario fields: {sorted(extra)}")
    if "mesh_id" not in known or "targets" not in known:
        raise ScenarioError("scenario requires mesh_id and targets")
    scenario = SyntheticScenario(**known)
    scenario.check_types()
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


def _raise_unaimable(o_vec, along, degenerate) -> None:
    """Raise the aiming error of the first row that has one, checked in the
    chain's order: a non-finite facing, then a target behind the screen
    plane, then a degenerate screen frame."""
    facing = np.isnan(o_vec[:, 0])
    behind = along <= 0
    failed = facing | behind | degenerate
    if failed.any():
        k = int(np.argmax(failed))
        if facing[k]:
            raise GazeError("non-finite Euler angles")
        if behind[k]:
            raise ScenarioError("target behind the screen plane")
        raise GazeError(_DEGENERATE)


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

    targets = mesh.vertices[[int(t) for t in scenario.targets]]
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
    wide = np.abs(s).max(axis=1) > cfg.screen_half_extent
    # the lowest failing sample raises, with the per-sample loop's message:
    # the first unaimable one, unless an offset beyond the screen comes first
    k = int(np.argmax(wide)) if wide.any() else n - 1
    _raise_unaimable(o_vec[:k + 1], along[:k + 1], degenerate[:k + 1])
    if wide[k]:
        raise ScenarioError(
            f"sample {k}: eye offset {s[k]} exceeds the screen half-extent; "
            "bring targets nearer the view center or widen the screen")
    return [PoseSample(t=t_k, p=p_k, o_deg=o_k, s=s_k, index=i)
            for i, (t_k, p_k, o_k, s_k) in enumerate(zip(
                (idx * dt).tolist(), p, o_deg, s))]


def check_targets_reachable(scenario: SyntheticScenario, mesh: Mesh, cfg,
                            samples, tol: float | None = None) -> None:
    """Error when some planted target is never the first surface hit.

    Casts each sample's noise-free sight-line; a target no sample reaches
    (within tol of the target position) was never visible along the
    trajectory.
    """
    if tol is None:
        tol = 2.0 * cfg.cluster_interval
    targets = mesh.vertices[np.asarray(scenario.targets, dtype=np.int64)]
    samples = list(samples)
    per_dwell = _dwell_samples(scenario, len(samples))
    p = np.asarray([x.p for x in samples], dtype=np.float64).reshape(-1, 3)
    o_deg = np.asarray([x.o_deg for x in samples],
                       dtype=np.float64).reshape(-1, 3)
    aimed = np.arange(len(samples)) // per_dwell % len(targets)
    reached = np.zeros(len(targets), dtype=bool)

    def cast(ks):
        aim = targets[aimed[ks]]
        o_vec = head_orientations(o_deg[ks])
        s, along, degenerate = inverse_gaze_offsets(p[ks], o_vec, aim,
                                                    cfg.d_screen)
        _raise_unaimable(o_vec, along, degenerate)
        points = cast_hits(mesh, *sightlines(p[ks], o_deg[ks], s,
                                             cfg.d_screen))[0]
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
