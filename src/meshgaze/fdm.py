"""Fixation density maps: Gaussian splatting, correlation, ground truth.

A fixation of weight w adds w * exp(-d^2 / (2 sigma^2)) to every vertex
within the truncation radius (cutoff_sigmas * sigma) of its position;
distances are 3D Euclidean.  Per-view ground truth pools the fixations
of one pose bucket (those whose representative pose falls into it),
zeroes the result outside the visible set, and counts distinct
contributing subjects as the view's weight A_w.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .config import MeshgazeError
from .gaze import head_orientations
from .io import read_vertex_csv, write_csv
from .mesh import Mesh, save_ply
from .visibility import (ViewPose, VisibleSet, camera_from_config,
                         visible_points)


class FdmError(MeshgazeError):
    pass


@dataclass
class FixationDensityMap:
    values: np.ndarray
    flagged: bool = False   # True when the map carries no positive mass

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if (self.values < 0).any():
            raise FdmError("density values must be nonnegative")


@dataclass
class ViewGroundTruth:
    pose_id: str
    map: FixationDensityMap
    a_w: int


# fixation-vertex pairs per splat block: 3 MB of coordinate differences
_SPLAT_BLOCK = 2 ** 17


def splat_fdm(mesh: Mesh, fixations, sigma: float,
              cutoff_sigmas: float = 4.0) -> FixationDensityMap:
    """Sum truncated Gaussian contributions of all fixations (a Fixations
    table) per vertex, each vertex's in table order."""
    if not sigma > 0:
        raise FdmError("sigma must be positive")
    values = np.zeros(len(mesh.vertices))
    radius = cutoff_sigmas * sigma
    step = max(1, _SPLAT_BLOCK // max(len(values), 1))
    for lo in range(0, len(fixations), step):
        position = fixations.position[lo:lo + step, None, :]
        d2 = np.sum((mesh.vertices - position) ** 2, axis=2)
        f, v = np.nonzero(d2 <= radius * radius)
        np.add.at(values, v, fixations.weight[lo + f]
                  * np.exp(-d2[f, v] / (2.0 * sigma * sigma)))
    # an all-zero map (no fixations, or none within reach of any vertex)
    # is structurally valid but carries no signal; flag it for callers
    return FixationDensityMap(values=values,
                              flagged=not bool((values > 0.0).any()))


def plcc(map_a, map_b, domain=None) -> float:
    """Pearson correlation of two per-vertex fields on an optional domain."""
    a = map_a.values if isinstance(map_a, FixationDensityMap) else np.asarray(map_a, dtype=np.float64)
    b = map_b.values if isinstance(map_b, FixationDensityMap) else np.asarray(map_b, dtype=np.float64)
    if len(a) != len(b):
        raise FdmError("maps are not aligned")
    if domain is not None:
        domain = np.asarray(domain)
        a, b = a[domain], b[domain]
    if len(a) < 2:
        raise FdmError("correlation needs at least 2 values")
    da = a - a.mean()
    db = b - b.mean()
    sa = float(np.dot(da, da))
    sb = float(np.dot(db, db))
    if sa == 0.0 or sb == 0.0:
        raise FdmError("undefined correlation: zero variance on domain")
    # sqrt(sa * sb) instead of norm(da) * norm(db): the latter squares an
    # already-rounded sqrt and drags self-correlation a couple ulps under 1.
    return float(np.clip(np.dot(da, db) / np.sqrt(sa * sb), -1.0, 1.0))


def pose_buckets(pose_p, pose_o_deg, grid_m: float = 0.25,
                 angle_bin_deg: float = 30.0) -> list[str]:
    """Quantize n 6DoF poses, rows of (n, 3) positions and Euler angles,
    into equivalence-class keys, one per pose.

    Position snaps to a cubic grid; the facing vector to azimuth and
    elevation bins.  Poses sharing a key are "the same 6DoF data" for
    ground-truth pooling and visit counting.
    """
    p = np.asarray(pose_p, dtype=np.float64).reshape(-1, 3)
    o = head_orientations(pose_o_deg)
    az = np.degrees(np.arctan2(o[:, 2], o[:, 0])) % 360.0
    el = np.degrees(np.arcsin(np.clip(o[:, 1], -1.0, 1.0)))
    n_az = max(int(np.ceil(360.0 / angle_bin_deg)), 1)
    top = int(np.ceil(180.0 / angle_bin_deg)) - 1
    bins = np.column_stack([np.floor(p / grid_m), np.floor(az / angle_bin_deg),
                            np.floor((el + 90.0) / angle_bin_deg)])
    return [f"{int(x)}_{int(y)}_{int(z)}_a{int(a) % n_az}_e{min(int(e), top)}"
            for x, y, z, a, e in bins.tolist()]


def pose_groups(fixations, cfg, per_recording: bool = False) -> dict:
    """Row indices of a Fixations table by pose bucket, or by (recording
    id, bucket), in sorted key order; each keeps the table's row order."""
    keys = pose_buckets(fixations.pose_p, fixations.pose_o, cfg.pose_grid_m,
                        cfg.pose_angle_bin_deg)
    if per_recording:
        keys = list(zip(fixations.recording.tolist(), keys))
    groups = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return {key: np.array(groups[key]) for key in sorted(groups)}


def bucket_views(mesh: Mesh, fixations, cfg, min_fixations: int = 1):
    """(bucket, row indices, pose, VisibleSet) for each pose bucket of at
    least min_fixations rows, in key order.  The bucket's first row gives
    its representative pose; a smaller bucket casts no rays."""
    cam = camera_from_config(cfg)
    for bucket, rows in pose_groups(fixations, cfg).items():
        if len(rows) >= min_fixations:
            pose = ViewPose(p=fixations.pose_p[rows[0]],
                            o_deg=fixations.pose_o[rows[0]], camera=cam)
            yield bucket, rows, pose, visible_points(mesh, pose,
                                                     cfg.depth_tol_frac)


def build_ground_truth(mesh: Mesh, fixations, pose_id: str,
                       vs: VisibleSet, sigma: float,
                       cutoff_sigmas: float = 4.0) -> ViewGroundTruth:
    """Ground truth for one pose bucket from its Fixations table; A_w is
    the count of distinct recordings among them."""
    if not len(fixations):
        raise FdmError(f"no fixations in pose bucket {pose_id!r}")
    fdm = splat_fdm(mesh, fixations, sigma, cutoff_sigmas)
    values = np.where(vs.mask, fdm.values, 0.0)
    gated = FixationDensityMap(values=values, flagged=not (values > 0).any())
    return ViewGroundTruth(pose_id=pose_id, map=gated,
                           a_w=len(set(fixations.recording.tolist())))


# ---------------------------------------------------------------------------
# exports

def values_to_colors(values) -> np.ndarray:
    """Min-max normalize and map low->blue, high->red."""
    v = np.asarray(values, dtype=np.float64)
    lo, hi = float(v.min()), float(v.max())
    norm = np.zeros_like(v) if hi <= lo else (v - lo) / (hi - lo)
    colors = np.zeros((len(v), 3), dtype=np.uint8)
    colors[:, 0] = np.round(255.0 * norm).astype(np.uint8)
    colors[:, 2] = np.round(255.0 * (1.0 - norm)).astype(np.uint8)
    return colors


def save_map_csv(path, values) -> None:
    values = np.asarray(values, dtype=np.float64).tolist()
    write_csv(path, ["vertex_id", "value"], ((i, repr(v)) for i, v in enumerate(values)))


def load_map_csv(path) -> np.ndarray:
    """Per-vertex values of a map CSV: plain (vertex_id,value) maps and
    diagnostic exports (vertex_id,S,U,C), whose value is column 1."""
    return read_vertex_csv(path, ["vertex_id"], "map file", FdmError)


def save_map_ply(path, mesh: Mesh, values) -> None:
    save_ply(mesh, path, colors=values_to_colors(values))
