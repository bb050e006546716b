"""Visible-vertex determination by depth-buffer rasterization.

For one 6DoF pose, all triangles are rasterized into a z-buffer with a
perspective projection along the head's facing direction; a vertex is
visible when it projects inside the frustum, its normal faces the eye,
and its depth matches the buffer within a tolerance proportional to the
mesh's bounding-box diagonal.  The painter's-style depth ordering and the
z-buffer compute the same visible surface; the buffer avoids the sorting
pathologies.
"""
from __future__ import annotations

import csv
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .config import MeshgazeError
from .gaze import rotation_matrix
from .mesh import Mesh, _atomic_write, bounding_box_diagonal, read_vertex_csv


class VisibilityError(MeshgazeError):
    pass


@dataclass
class CameraModel:
    hfov_deg: float = 110.0
    vfov_deg: float = 110.0
    width: int = 1080
    height: int = 1200
    near: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.hfov_deg < 180.0 or not 0.0 < self.vfov_deg < 180.0:
            raise VisibilityError("FoV must lie in (0, 180) degrees")
        if self.width < 64 or self.height < 64:
            raise VisibilityError("raster dimensions must be >= 64")
        if not self.near > 0:
            raise VisibilityError("near plane must be positive")


def camera_from_config(cfg) -> CameraModel:
    return CameraModel(hfov_deg=cfg.cam_hfov_deg, vfov_deg=cfg.cam_vfov_deg,
                       width=cfg.cam_width, height=cfg.cam_height,
                       near=cfg.cam_near)


@dataclass
class ViewPose:
    p: np.ndarray
    o_deg: np.ndarray
    camera: CameraModel = field(default_factory=CameraModel)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64)
        self.o_deg = np.asarray(self.o_deg, dtype=np.float64)


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
    parts += [f"{cam.hfov_deg:.6f}", f"{cam.vfov_deg:.6f}",
              str(cam.width), str(cam.height), f"{cam.near:.6f}"]
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:12]


def _view_space(pose: ViewPose, points):
    """Rows of (right, up, forward) coordinates relative to the head."""
    rot = rotation_matrix(pose.o_deg)
    # columns of rot are the head frame axes in scene coordinates
    rel = np.asarray(points, dtype=np.float64) - pose.p
    return rel @ rot  # (n, 3): x right, y up, z forward


def _clip_near(poly, near):
    """Sutherland-Hodgman clip of a view-space polygon against z >= near."""
    out = []
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        ina = a[2] >= near
        inb = b[2] >= near
        if ina:
            out.append(a)
        if ina != inb:
            t = (near - a[2]) / (b[2] - a[2])
            out.append(a + t * (b - a))
    return out


def visible_points(mesh: Mesh, pose: ViewPose,
                   depth_tol_frac: float = 1e-3) -> VisibleSet:
    """Rasterize a depth buffer and gate vertices against it.

    Depth is interpolated perspective-correctly (1/z linear in screen
    space) and the buffer keeps the winning triangle id per pixel.  A
    vertex passes when the winner at its pixel is one of its own
    triangles, or when the winner's plane, evaluated along the vertex's
    exact sight ray, is no more than eps_z nearer.  Evaluating the plane on
    the ray (instead of comparing against the pixel-center depth) keeps
    steeply inclined surfaces from occluding their own vertices.
    """
    cam = pose.camera
    eps_z = depth_tol_frac * bounding_box_diagonal(mesh)
    w, h = cam.width, cam.height
    tan_h = np.tan(np.radians(cam.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(cam.vfov_deg) / 2.0)

    vp = _view_space(pose, mesh.vertices)          # (n, 3)
    zs = vp[:, 2]

    buf = np.full((h, w), np.inf)
    idbuf = np.full((h, w), -1, dtype=np.int64)

    tri_z = zs[mesh.triangles]
    skip_all_behind = (tri_z < cam.near).all(axis=1)
    needs_clip = (tri_z < cam.near).any(axis=1) & ~skip_all_behind

    def raster_poly(pts_view, tri_id):
        """pts_view: (k, 3) view-space polygon, all z >= near; fan-rasterize."""
        for i in range(1, len(pts_view) - 1):
            tri = np.stack([pts_view[0], pts_view[i], pts_view[i + 1]])
            _raster_tri(tri, tri_id)

    def _raster_tri(tri_view, tri_id):
        z = tri_view[:, 2]
        # screen coordinates in pixels (float)
        sx = (tri_view[:, 0] / (z * tan_h) + 1.0) * 0.5 * w
        sy = (tri_view[:, 1] / (z * tan_v) + 1.0) * 0.5 * h
        lox = max(int(np.floor(sx.min())), 0)
        hix = min(int(np.ceil(sx.max())), w - 1)
        loy = max(int(np.floor(sy.min())), 0)
        hiy = min(int(np.ceil(sy.max())), h - 1)
        if lox > hix or loy > hiy:
            return
        px = np.arange(lox, hix + 1) + 0.5
        py = np.arange(loy, hiy + 1) + 0.5
        gx, gy = np.meshgrid(px, py)
        x0, y0 = sx[0], sy[0]
        x1, y1 = sx[1], sy[1]
        x2, y2 = sx[2], sy[2]
        area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        if area == 0.0:
            return
        w0 = ((x1 - gx) * (y2 - gy) - (y1 - gy) * (x2 - gx)) / area
        w1 = ((x2 - gx) * (y0 - gy) - (y2 - gy) * (x0 - gx)) / area
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            return
        inv_z = w0 * (1.0 / z[0]) + w1 * (1.0 / z[1]) + w2 * (1.0 / z[2])
        depth = np.where(inside & (inv_z > 0), 1.0 / inv_z, np.inf)
        region = buf[loy:hiy + 1, lox:hix + 1]
        idreg = idbuf[loy:hiy + 1, lox:hix + 1]
        upd = depth < region          # strict: ties keep the lower id
        region[upd] = depth[upd]
        idreg[upd] = tri_id

    tri_view_all = vp[mesh.triangles]              # (m, 3, 3)
    for t in range(len(mesh.triangles)):
        if skip_all_behind[t]:
            continue
        if needs_clip[t]:
            poly = _clip_near([tri_view_all[t, i] for i in range(3)], cam.near)
            if len(poly) >= 3:
                raster_poly(np.asarray(poly), t)
        else:
            _raster_tri(tri_view_all[t], t)

    # vertex gating
    with np.errstate(divide="ignore", invalid="ignore"):
        ndc_x = vp[:, 0] / (zs * tan_h)
        ndc_y = vp[:, 1] / (zs * tan_v)
    in_frustum = (zs >= cam.near) & (np.abs(ndc_x) <= 1.0) & (np.abs(ndc_y) <= 1.0)
    front = np.einsum("ij,ij->i", mesh.normals, pose.p - mesh.vertices) > 0.0

    mask = np.zeros(len(mesh.vertices), dtype=bool)
    cand = np.nonzero(in_frustum & front)[0]
    if len(cand):
        pxi = np.clip(((ndc_x[cand] + 1.0) * 0.5 * w).astype(np.int64), 0, w - 1)
        pyi = np.clip(((ndc_y[cand] + 1.0) * 0.5 * h).astype(np.int64), 0, h - 1)
        winner = idbuf[pyi, pxi]

        ok = winner < 0                             # uncovered pixel: nothing occludes
        covered = ~ok
        # a vertex can never be hidden by a triangle it belongs to
        own = (mesh.triangles[winner] == cand[:, None]).any(axis=1)
        ok |= covered & own

        rest = np.nonzero(covered & ~own)[0]
        if len(rest):
            tri_pts = vp[mesh.triangles[winner[rest]]]          # (k, 3, 3)
            nrm = np.cross(tri_pts[:, 1] - tri_pts[:, 0],
                           tri_pts[:, 2] - tri_pts[:, 0])
            denom = np.einsum("ij,ij->i", nrm, vp[cand[rest]])
            num = np.einsum("ij,ij->i", nrm, tri_pts[:, 0])
            with np.errstate(divide="ignore", invalid="ignore"):
                t_hit = num / denom
            z_v = zs[cand[rest]]
            # occludes only when the plane crosses the sight ray in front of
            # the vertex by more than the tolerance
            blocked = np.isfinite(t_hit) & (t_hit > 0) & \
                (t_hit * z_v < z_v - eps_z)
            ok[rest] = ~blocked
        mask[cand] = ok

    ids = np.nonzero(mask)[0].astype(np.int64)
    center = mesh.vertices[ids].mean(axis=0) if len(ids) else None
    return VisibleSet(ids=ids, mask=mask, center=center)


# ---------------------------------------------------------------------------
# visibility files

def save_visibility(path, vs: VisibleSet) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["vertex_id", "visible"])
    for i, bit in enumerate(vs.mask):
        w.writerow([i, int(bit)])
    _atomic_write(os.fspath(path), buf.getvalue())


def load_visibility(path) -> np.ndarray:
    bits = read_vertex_csv(path, ["vertex_id", "visible"], "visibility file",
                           VisibilityError)
    if not np.isin(bits, (0.0, 1.0)).all():
        raise VisibilityError(f"visibility file {path!r}: values must be 0 or 1")
    return bits == 1.0
