"""Sight-line reconstruction from 6DoF pose samples and ray-mesh casting.

A recording row carries head position P (meters), head orientation O as
Euler angles (degrees, left-handed Y-up, applied in the order
R_z . R_x . R_y to the rest vector (0,0,1)), and the eye offset S on the
screen plane (meters).  The standard sight-line pierces the screen at
B = P + d_screen * direction; the eye offset shifts that point inside the
screen plane; the actual sight-line runs from P through the shifted point
and is intersected with the mesh.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MeshgazeError
from .io import read_csv, write_csv
from .mesh import Mesh


class GazeError(MeshgazeError):
    """Invalid pose sample, degenerate geometry, or malformed recording."""


@dataclass
class PoseSample:
    __slots__ = ("t", "p", "o_deg", "s", "index")
    t: float
    p: np.ndarray       # head position, (3,)
    o_deg: np.ndarray   # Euler angles, degrees, (3,)
    s: np.ndarray       # eye offset on screen plane, (2,)
    index: int          # row index within the recording


@dataclass
class IntersectionRecord:
    __slots__ = ("point", "triangle", "bary", "distance", "sample_index")
    point: np.ndarray
    triangle: int
    bary: np.ndarray
    distance: float     # |point - head position|
    sample_index: int


def rotation_matrix(o_deg) -> np.ndarray:
    """Head rotation R_z(oz) . R_x(ox) . R_y(oy), angles in degrees."""
    ox, oy, oz = np.radians(np.asarray(o_deg, dtype=np.float64))
    cx, sx = np.cos(ox), np.sin(ox)
    cy, sy = np.cos(oy), np.sin(oy)
    cz, sz = np.cos(oz), np.sin(oz)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ rx @ ry


def head_orientation(o_deg) -> np.ndarray:
    """Unit facing vector: the rotated rest direction (0, 0, 1)."""
    if not np.all(np.isfinite(np.asarray(o_deg, dtype=np.float64))):
        raise GazeError("non-finite Euler angles")
    d = rotation_matrix(o_deg) @ np.array([0.0, 0.0, 1.0])
    return d / np.linalg.norm(d)


def screen_point(p, o_vec, d_screen: float) -> np.ndarray:
    """B = P + d_screen * facing direction."""
    if not d_screen > 0:
        raise GazeError("d_screen must be positive")
    return np.asarray(p, dtype=np.float64) + d_screen * np.asarray(o_vec, dtype=np.float64)


def screen_frame(o_vec):
    """Orthonormal in-screen axes (e_sx, e_sy) for facing vector o_vec.

    alpha is the angle between o_vec and +Y, beta the angle of the XoZ
    projection of o_vec against +X; raises when the projection degenerates
    (facing straight up or down).
    """
    o = np.asarray(o_vec, dtype=np.float64)
    cos_a = o[1]
    sin_a = float(np.hypot(o[0], o[2]))
    if sin_a < 1e-9:
        raise GazeError("degenerate screen frame: facing parallel to Y axis")
    cos_b = o[0] / sin_a
    sin_b = o[2] / sin_a
    e_sx = np.array([sin_b, 0.0, -cos_b])
    e_sy = np.array([cos_a * cos_b, -sin_a, cos_a * sin_b])
    return e_sx, e_sy


def gaze_point(b, o_vec, s) -> np.ndarray:
    """Shift the screen intersection B by the eye offset inside the screen plane."""
    s = np.asarray(s, dtype=np.float64)
    e_sx, e_sy = screen_frame(o_vec)
    return np.asarray(b, dtype=np.float64) + s[0] * e_sx + s[1] * e_sy


def actual_sightline(p, y) -> np.ndarray:
    """Unit direction of the sight-line from head position P through gaze point Y."""
    d = np.asarray(y, dtype=np.float64) - np.asarray(p, dtype=np.float64)
    n = float(np.linalg.norm(d))
    if n <= 1e-9:
        raise GazeError("gaze point coincides with head position")
    return d / n


def sightlines(p, o_deg, s, d_screen: float):
    """(origins, directions) of n poses' actual sight-lines, one row each.

    A pose whose sight-line raises GazeError (head facing straight up or
    down, say) gets a NaN direction row.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1, 3)
    directions = np.full_like(p, np.nan)
    for k, (o_k, s_k) in enumerate(zip(o_deg, s)):
        try:
            o = head_orientation(o_k)
            y = gaze_point(screen_point(p[k], o, d_screen), o, s_k)
            directions[k] = actual_sightline(p[k], y)
        except GazeError:
            pass
    return p, directions


def cast_sightlines(mesh: Mesh, origins, directions, sample_indices=None):
    """Nearest mesh intersection of each ray (None on a miss or a NaN
    direction), all cast in one batched BVH traversal."""
    if sample_indices is None:
        sample_indices = [-1] * len(origins)
    records = [None] * len(origins)
    cast = np.nonzero(np.isfinite(directions).all(axis=1))[0]
    _, tri, bary = mesh.bvh.intersect_many(origins[cast], directions[cast], 0.0)
    for k, tri_k, bary_k in zip(cast, tri, bary):
        if tri_k < 0:
            continue
        tv = mesh.vertices[mesh.triangles[tri_k]]
        point = bary_k[0] * tv[0] + bary_k[1] * tv[1] + bary_k[2] * tv[2]
        records[k] = IntersectionRecord(
            point=point, triangle=int(tri_k), bary=bary_k,
            distance=float(np.linalg.norm(point - origins[k])),
            sample_index=sample_indices[k])
    return records


def trace_samples(samples, mesh: Mesh, d_screen: float):
    """[(sample, record-or-None)] for a whole recording, cast in one batch.

    A sample whose screen frame degenerates (head facing straight up or
    down) is treated as a miss rather than aborting the recording.
    """
    samples = list(samples)
    origins, directions = sightlines([x.p for x in samples],
                                     [x.o_deg for x in samples],
                                     [x.s for x in samples], d_screen)
    records = cast_sightlines(mesh, origins, directions,
                              [x.index for x in samples])
    return list(zip(samples, records))


# ---------------------------------------------------------------------------
# recording files

RECORDING_HEADER = ["t", "px", "py", "pz", "ox", "oy", "oz", "sx", "sy"]


def load_recording(path, screen_half_extent: float = 0.15) -> list[PoseSample]:
    """Read one recording CSV; validates ordering and eye-offset bounds."""
    rows = read_csv(path, "recording", GazeError)
    if not rows or [c.strip() for c in rows[0]] != RECORDING_HEADER:
        raise GazeError(f"recording {path!r}: bad or missing header")
    samples: list[PoseSample] = []
    prev_t = None
    for i, row in enumerate(rows[1:]):
        if len(row) != 9:
            raise GazeError(f"recording {path!r}: row {i} has {len(row)} fields")
        try:
            vals = [float(x) for x in row]
        except ValueError as exc:
            raise GazeError(f"recording {path!r}: row {i}: {exc}") from exc
        if not all(np.isfinite(vals)):
            raise GazeError(f"recording {path!r}: row {i}: non-finite value")
        t = vals[0]
        if prev_t is not None and t <= prev_t:
            raise GazeError(f"recording {path!r}: timestamps not strictly increasing at row {i}")
        prev_t = t
        sx, sy = vals[7], vals[8]
        if abs(sx) > screen_half_extent or abs(sy) > screen_half_extent:
            raise GazeError(
                f"recording {path!r}: row {i}: eye offset exceeds screen half-extent "
                f"{screen_half_extent}")
        samples.append(PoseSample(
            t=t, p=np.array(vals[1:4]), o_deg=np.array(vals[4:7]),
            s=np.array(vals[7:9]), index=len(samples)))
    if not samples:
        raise GazeError(f"recording {path!r}: no samples")
    return samples


def save_recording(path, samples) -> None:
    write_csv(path, RECORDING_HEADER,
              ([repr(float(x)) for x in (s.t, *s.p, *s.o_deg, *s.s)]
               for s in samples))
