"""Visible-vertex determination by ray casting.

For one 6DoF pose, a vertex is a candidate when it lies inside the
perspective frustum along the head's facing direction and its normal
faces the eye.  One batch of rays goes from the eye toward the
candidates on the mesh's BVH; a candidate is visible unless the nearest
hit on its ray lies more than a tolerance before it, the tolerance being
a fraction of the mesh's bounding-box diagonal.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_COORD, MeshgazeError
from .gaze import rotation_matrix
from .io import read_vertex_csv, write_csv
from .mesh import Mesh, bounding_box_diagonal


class VisibilityError(MeshgazeError):
    pass


@dataclass
class CameraModel:
    hfov_deg: float = 110.0
    vfov_deg: float = 110.0
    near: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.hfov_deg < 180.0 or not 0.0 < self.vfov_deg < 180.0:
            raise VisibilityError("FoV must lie in (0, 180) degrees")
        if not self.near > 0:
            raise VisibilityError("near plane must be positive")


def camera_from_config(cfg) -> CameraModel:
    return CameraModel(hfov_deg=cfg.cam_hfov_deg, vfov_deg=cfg.cam_vfov_deg,
                       near=cfg.cam_near)


@dataclass
class ViewPose:
    p: np.ndarray
    o_deg: np.ndarray
    camera: CameraModel = field(default_factory=CameraModel)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.o_deg = np.asarray(self.o_deg, dtype=np.float64)
        if not (np.isfinite(self.p).all() and np.isfinite(self.o_deg).all()):
            raise VisibilityError(f"non-finite pose {self.p} {self.o_deg}")
        if (np.abs(self.p) > MAX_COORD).any():
            raise VisibilityError(
                f"pose position {self.p} has a coordinate beyond +-{MAX_COORD:g}")


@dataclass
class VisibleSet:
    ids: np.ndarray        # sorted member vertex ids
    mask: np.ndarray       # boolean per-vertex field
    center: np.ndarray | None  # mean member position; None when empty

    @property
    def empty(self) -> bool:
        return len(self.ids) == 0


def pose_hash(pose: ViewPose) -> str:
    """Stable 12-hex id for output file naming."""
    cam = pose.camera
    parts = [f"{v:.9f}" for v in np.concatenate([pose.p, pose.o_deg])]
    # "1080" and "1200" are the retired raster size, kept so pose ids stay put
    parts += [f"{cam.hfov_deg:.6f}", f"{cam.vfov_deg:.6f}",
              "1080", "1200", f"{cam.near:.6f}"]
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:12]


def visible_points(mesh: Mesh, pose: ViewPose,
                   depth_tol_frac: float = 1e-3) -> VisibleSet:
    """Cast one ray from the eye toward each candidate vertex.

    Candidates are the vertices at positive distance from the eye that
    project inside the frustum and whose normals face the eye.  A
    candidate is visible unless the nearest hit on its ray comes more than
    depth_tol_frac * bbox diagonal before it, so the vertex's own
    triangles and coplanar neighbours never hide it.
    """
    cam = pose.camera
    eps = depth_tol_frac * bounding_box_diagonal(mesh)
    tan_h = np.tan(np.radians(cam.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(cam.vfov_deg) / 2.0)

    rel = mesh.vertices - pose.p
    rot = rotation_matrix(pose.o_deg)
    # view space (x right, y up, z forward), expanded term by term: the
    # columns of rot are the head frame axes in scene coordinates
    vp = rel[:, 0, None] * rot[0] + rel[:, 1, None] * rot[1] + \
        rel[:, 2, None] * rot[2]
    zs = vp[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        in_frustum = (zs >= cam.near) & \
            (np.abs(vp[:, 0] / (zs * tan_h)) <= 1.0) & \
            (np.abs(vp[:, 1] / (zs * tan_v)) <= 1.0)
    front = np.einsum("ij,ij->i", mesh.normals, -rel) > 0.0
    dist = np.sqrt((rel * rel).sum(axis=1))
    cand = np.nonzero(in_frustum & front & (dist > 0.0))[0]

    mask = np.zeros(len(mesh.vertices), dtype=bool)
    if len(cand):
        # a hit counts only nearer than the vertex by more than eps
        _, tri, _ = mesh.bvh.intersect_many(np.tile(pose.p, (len(cand), 1)),
                                            rel[cand] / dist[cand, None],
                                            tmax=dist[cand] - eps)
        mask[cand] = tri < 0
    ids = np.nonzero(mask)[0].astype(np.int64)
    center = mesh.vertices[ids].mean(axis=0) if len(ids) else None
    return VisibleSet(ids=ids, mask=mask, center=center)


# ---------------------------------------------------------------------------
# visibility files

def save_visibility(path, vs: VisibleSet) -> None:
    write_csv(path, ["vertex_id", "visible"],
              ((i, int(bit)) for i, bit in enumerate(vs.mask)))


def load_visibility(path) -> np.ndarray:
    bits = read_vertex_csv(path, ["vertex_id", "visible"], "visibility file",
                           VisibilityError)
    if not np.isin(bits, (0.0, 1.0)).all():
        raise VisibilityError(f"visibility file {path!r}: values must be 0 or 1")
    return bits == 1.0
