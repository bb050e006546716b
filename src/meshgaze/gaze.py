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

from .config import MAX_COORD, MeshgazeError
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


_REST = np.array([0.0, 0.0, 1.0])


def rowdot(a, b) -> np.ndarray:
    """Dot product of each row pair of two (n, 3) arrays.

    Each row is one BLAS ddot, the sum that np.dot and a 1-D
    np.linalg.norm form, so the stacked chain keeps the bytes of a
    one-pose-at-a-time chain; a sum over axis=1 rounds differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _rows(x, width: int = 3) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(-1, width)


# R_x, R_y and R_z as indices into one pose's entries
# (cos ox, cos oy, cos oz, sin ox, sin oy, sin oz, -sin ox, -sin oy, -sin oz, 0, 1)
_ROTATION_ENTRIES = np.array([[[10, 9, 9], [9, 0, 6], [9, 3, 0]],
                              [[1, 9, 4], [9, 10, 9], [7, 9, 1]],
                              [[2, 8, 9], [5, 2, 9], [9, 9, 10]]])


def rotation_matrix(o_deg) -> np.ndarray:
    """Head rotation R_z(oz) . R_x(ox) . R_y(oy), angles in degrees.

    One pose (3,) gives a (3, 3) matrix, n poses (n, 3) a (n, 3, 3) stack.
    """
    o = np.radians(np.asarray(o_deg, dtype=np.float64))
    c, s = np.cos(o), np.sin(o)
    entries = np.concatenate([c, s, -s, np.zeros_like(c[..., :1]),
                              np.ones_like(c[..., :1])], axis=-1)
    m = entries[..., _ROTATION_ENTRIES]
    return m[..., 2, :, :] @ m[..., 0, :, :] @ m[..., 1, :, :]


def head_orientations(o_deg) -> np.ndarray:
    """Unit facing vectors (n, 3) of n poses' Euler angles (n, 3): each
    rotated rest direction (0, 0, 1).  A row with a non-finite angle is NaN."""
    o = _rows(o_deg)
    finite = np.isfinite(o).all(axis=1)
    d = rotation_matrix(np.where(finite[:, None], o, 0.0)) @ _REST
    d /= np.sqrt(rowdot(d, d))[:, None]
    d[~finite] = np.nan
    return d


def screen_point(p, o_vec, d_screen: float) -> np.ndarray:
    """B = P + d_screen * facing direction, for one pose or rows of poses."""
    if not d_screen > 0:
        raise GazeError("d_screen must be positive")
    return np.asarray(p, dtype=np.float64) + d_screen * np.asarray(o_vec, dtype=np.float64)


def screen_frames(o_vec):
    """In-screen axes (e_sx, e_sy), each (n, 3), of n facing vectors, and
    the mask of rows whose frame degenerates (facing parallel to Y); those
    rows are NaN.

    alpha is the angle between o_vec and +Y, beta the angle of the XoZ
    projection of o_vec against +X.
    """
    o = _rows(o_vec)
    cos_a = o[:, 1]
    sin_a = np.hypot(o[:, 0], o[:, 2])
    degenerate = sin_a < 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_b = o[:, 0] / sin_a
        sin_b = o[:, 2] / sin_a
    e_sx = np.stack([sin_b, np.zeros_like(sin_b), -cos_b], axis=1)
    e_sy = np.stack([cos_a * cos_b, -sin_a, cos_a * sin_b], axis=1)
    e_sx[degenerate] = e_sy[degenerate] = np.nan
    return e_sx, e_sy, degenerate


def gaze_points(b, o_vec, s):
    """Screen intersections B (n, 3) shifted by eye offsets s (n, 2) inside
    the screen planes of facing vectors o_vec (n, 3), and the mask of
    degenerate frames (NaN rows)."""
    e_sx, e_sy, degenerate = screen_frames(o_vec)
    s = _rows(s, 2)
    return _rows(b) + s[:, :1] * e_sx + s[:, 1:] * e_sy, degenerate


def _unit_rows(d):
    """Rows of d divided by their norms, and the norms."""
    norm = np.sqrt(rowdot(d, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        return d / norm[:, None], norm


def sightlines(p, o_deg, s, d_screen: float):
    """(origins, directions) of n poses' actual sight-lines, one row each,
    computed for the whole stack at once.

    A pose without a sight-line (a non-finite angle, head facing straight
    up or down, gaze point at the head) gets a NaN direction row.
    """
    p = _rows(p)
    if not d_screen > 0:
        return p, np.full_like(p, np.nan)
    o = head_orientations(o_deg)
    y, degenerate = gaze_points(screen_point(p, o, d_screen), o, s)
    directions, norm = _unit_rows(y - p)
    directions[degenerate | (norm <= 1e-9)] = np.nan
    return p, directions


def cast_hits(mesh: Mesh, origins, directions):
    """Nearest mesh hit of each ray as arrays, all cast in one batched BVH
    traversal: points (n, 3), distances (n,) from the origin, triangles
    (n,) and bary (n, 3).  A miss or a NaN direction gives NaN rows and
    triangle -1."""
    origins, directions = _rows(origins), _rows(directions)
    n = len(origins)
    tri = np.full(n, -1, dtype=np.int64)
    bary = np.full((n, 3), np.nan)
    cast = np.flatnonzero(np.isfinite(directions).all(axis=1))
    _, tri[cast], bary[cast] = mesh.bvh.intersect_many(
        origins[cast], directions[cast], 0.0)
    hit = tri >= 0
    tv = mesh.vertices[mesh.triangles[tri[hit]]]
    w = bary[hit]
    points = np.full((n, 3), np.nan)
    points[hit] = w[:, :1] * tv[:, 0] + w[:, 1:2] * tv[:, 1] + w[:, 2:] * tv[:, 2]
    gap = points[hit] - origins[hit]
    distances = np.full(n, np.nan)
    distances[hit] = np.sqrt(rowdot(gap, gap))
    return points, distances, tri, bary


def trace_samples(samples, mesh: Mesh, d_screen: float):
    """[(sample, record-or-None)] for a whole recording, cast in one batch;
    each record views one row of cast_hits' arrays.

    A sample whose screen frame degenerates (head facing straight up or
    down) is treated as a miss rather than aborting the recording.
    """
    samples = list(samples)
    origins, directions = sightlines([x.p for x in samples],
                                     [x.o_deg for x in samples],
                                     [x.s for x in samples], d_screen)
    points, distances, tri, bary = cast_hits(mesh, origins, directions)
    return [(x, None if t < 0 else IntersectionRecord(
                point=y, triangle=t, bary=w, distance=d, sample_index=x.index))
            for x, y, d, t, w in zip(samples, points, distances.tolist(),
                                     tri.tolist(), bary)]


# ---------------------------------------------------------------------------
# recording files

RECORDING_HEADER = ["t", "px", "py", "pz", "ox", "oy", "oz", "sx", "sy"]


def load_recording(path, screen_half_extent: float = 0.15) -> list[PoseSample]:
    """Read one recording CSV; validates ordering and eye-offset bounds.

    Each row is checked for its field count, then that every field parses,
    is finite, that no head coordinate exceeds MAX_COORD in magnitude,
    that t increases and that the eye offset fits the screen;
    the first failing row's first failing check is the error.  The rows
    are parsed into one (n, 9) array and the samples view its rows.
    """
    rows = read_csv(path, "recording", GazeError)
    if not rows or [c.strip() for c in rows[0]] != RECORDING_HEADER:
        raise GazeError(f"recording {path!r}: bad or missing header")
    parsed, stop = [], None
    for i, row in enumerate(rows[1:]):
        if len(row) != 9:
            stop = GazeError(f"recording {path!r}: row {i} has {len(row)} fields")
            break
        try:
            parsed.append([float(x) for x in row])
        except ValueError as exc:
            stop = GazeError(f"recording {path!r}: row {i}: {exc}")
            break
    vals = np.array(parsed, dtype=np.float64).reshape(-1, 9)
    t, s = vals[:, 0], vals[:, 7:9]
    nonfinite = ~np.isfinite(vals).all(axis=1)
    far = (np.abs(vals[:, 1:4]) > MAX_COORD).any(axis=1)
    backwards = np.r_[False, t[1:] <= t[:-1]]
    wide = (np.abs(s) > screen_half_extent).any(axis=1)
    bad = nonfinite | far | backwards | wide
    if bad.any():
        i = int(np.argmax(bad))
        if nonfinite[i]:
            raise GazeError(f"recording {path!r}: row {i}: non-finite value")
        if far[i]:
            raise GazeError(f"recording {path!r}: row {i}: coordinate beyond "
                            f"+-{MAX_COORD:g}")
        if backwards[i]:
            raise GazeError(
                f"recording {path!r}: timestamps not strictly increasing at row {i}")
        raise GazeError(
            f"recording {path!r}: row {i}: eye offset exceeds screen half-extent "
            f"{screen_half_extent}")
    if stop is not None:
        raise stop
    if not len(vals):
        raise GazeError(f"recording {path!r}: no samples")
    return [PoseSample(t=t_i, p=p, o_deg=o, s=s_i, index=i)
            for i, (t_i, p, o, s_i) in enumerate(zip(
                t.tolist(), vals[:, 1:4], vals[:, 4:7], s))]


def save_recording(path, samples) -> None:
    """Write samples as a recording CSV, every value as repr of its float."""
    samples = list(samples)
    table = np.column_stack([
        np.array([x.t for x in samples], dtype=np.float64),
        _rows([x.p for x in samples]), _rows([x.o_deg for x in samples]),
        _rows([x.s for x in samples], 2)])
    write_csv(path, RECORDING_HEADER, table.tolist())
