"""Fixation density maps: Gaussian splatting, correlation, ground truth.

A fixation of weight w adds w * exp(-d^2 / (2 sigma^2)) to every vertex
within the truncation radius (cutoff_sigmas * sigma) of its position;
distances are 3D Euclidean.  Per-view ground truth pools the fixations
whose representative pose falls into the view's pose bucket, zeroes the
result outside the visible set, and counts distinct contributing subjects
as the view's weight A_w.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .config import MeshgazeError
from .gaze import head_orientation
from .mesh import Mesh, _atomic_write, read_vertex_csv, save_ply
from .visibility import VisibleSet


class FdmError(MeshgazeError):
    pass


@dataclass
class FixationDensityMap:
    values: np.ndarray
    provenance: dict = field(default_factory=dict)
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


def splat_fdm(mesh: Mesh, fixations, sigma: float,
              cutoff_sigmas: float = 4.0, provenance=None) -> FixationDensityMap:
    """Sum truncated Gaussian contributions of all fixations per vertex."""
    if not sigma > 0:
        raise FdmError("sigma must be positive")
    values = np.zeros(len(mesh.vertices))
    fixations = list(fixations)
    radius = cutoff_sigmas * sigma
    for fp in fixations:
        d2 = np.sum((mesh.vertices - fp.position) ** 2, axis=1)
        ids = np.nonzero(d2 <= radius * radius)[0]
        if len(ids):
            values[ids] += fp.weight * np.exp(-d2[ids] / (2.0 * sigma * sigma))
    # an all-zero map (no fixations, or none within reach of any vertex)
    # is structurally valid but carries no signal; flag it for callers
    return FixationDensityMap(values=values,
                              provenance=dict(provenance or {}),
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


def pose_bucket(pose_p, pose_o_deg, grid_m: float = 0.25,
                angle_bin_deg: float = 30.0) -> str:
    """Quantize a 6DoF pose into an equivalence-class key.

    Position snaps to a cubic grid; the facing vector to azimuth and
    elevation bins.  Poses sharing a key are "the same 6DoF data" for
    ground-truth pooling and visit counting.
    """
    p = np.asarray(pose_p, dtype=np.float64)
    o = head_orientation(pose_o_deg)
    gx, gy, gz = (int(np.floor(c / grid_m)) for c in p)
    az = np.degrees(np.arctan2(o[2], o[0])) % 360.0
    el = np.degrees(np.arcsin(np.clip(o[1], -1.0, 1.0)))
    ia = int(np.floor(az / angle_bin_deg)) % max(int(np.ceil(360.0 / angle_bin_deg)), 1)
    ie = min(int(np.floor((el + 90.0) / angle_bin_deg)),
             int(np.ceil(180.0 / angle_bin_deg)) - 1)
    return f"{gx}_{gy}_{gz}_a{ia}_e{ie}"


def build_ground_truth(mesh: Mesh, tagged_fixations, pose_id: str,
                       vs: VisibleSet, sigma: float,
                       cutoff_sigmas: float = 4.0,
                       grid_m: float = 0.25,
                       angle_bin_deg: float = 30.0) -> ViewGroundTruth:
    """Ground truth for one pose bucket.

    tagged_fixations: iterable of (subject_id, FixationPoint).  Only
    fixations whose representative pose buckets to pose_id contribute.
    """
    chosen = []
    subjects = set()
    for subject_id, fp in tagged_fixations:
        if pose_bucket(fp.pose_p, fp.pose_o, grid_m, angle_bin_deg) == pose_id:
            chosen.append(fp)
            subjects.add(subject_id)
    if not chosen:
        raise FdmError(f"no fixations fall into pose bucket {pose_id!r}")
    fdm = splat_fdm(mesh, chosen, sigma, cutoff_sigmas,
                    provenance={"pose_id": pose_id, "subject": "pooled"})
    values = np.where(vs.mask, fdm.values, 0.0)
    gated = FixationDensityMap(values=values, provenance=fdm.provenance,
                               flagged=not (values > 0).any())
    return ViewGroundTruth(pose_id=pose_id, map=gated, a_w=len(subjects))


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
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex_id", "value"])
    for i, v in enumerate(np.asarray(values, dtype=np.float64)):
        w.writerow([i, repr(float(v))])
    _atomic_write(os.fspath(path), buf.getvalue())


def load_map_csv(path) -> np.ndarray:
    """Per-vertex values of a map CSV: plain (vertex_id,value) maps and
    diagnostic exports (vertex_id,S,U,C), whose value is column 1."""
    return read_vertex_csv(path, ["vertex_id"], "map file", FdmError)


def save_map_ply(path, mesh: Mesh, values) -> None:
    save_ply(mesh, path, colors=values_to_colors(values))
