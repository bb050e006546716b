"""Shared fixtures and the acceptance-criteria summary hook.

Meshes are session-scoped (immutable by convention — tests must not
mutate vertex arrays).  Acceptance tests wrap their bodies in the
`criterion` context manager; the terminal summary then ends with one
PASS/FAIL line per criterion, including criteria that never ran.
"""
from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import meshgaze
from meshgaze import bvh, primitives
from meshgaze.config import MAX_COORD, RunConfig
from meshgaze.gaze import RECORDING_HEADER, GazeError, rotation_matrix
from meshgaze.io import read_csv, read_text
from meshgaze.mesh import Mesh, MeshError, bounding_box_diagonal
from meshgaze.synth import ScenarioError, euler_facing
from meshgaze.visibility import CameraModel, ViewPose

N_CRITERIA = 11
_ACCEPTANCE: dict[int, tuple[str, bool]] = {}


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        _ACCEPTANCE[num] = (label, False)
        raise
    else:
        _ACCEPTANCE[num] = (label, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for num in range(1, N_CRITERIA + 1):
        if num in _ACCEPTANCE:
            label, ok = _ACCEPTANCE[num]
            verdict = "PASS" if ok else "FAIL"
        else:
            label, verdict = "not run", "MISSING"
        tr.write_line(f"criterion {num:2d} [{verdict}] {label}")


def traced_peak(fn):
    """(fn(), the bytes traced at fn's peak): numpy reports its buffers to
    tracemalloc, so this counts what fn allocates, not the heap's layout."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_rss_mb(code: str) -> float:
    """Peak resident set size, in MB, of `code` run in a fresh interpreter
    that imports meshgaze from this checkout, with one BLAS thread.

    The peak is the interpreter's VmHWM, not its ru_maxrss: Linux carries
    the spawning process's peak into ru_maxrss across fork and exec, so
    under a pytest process that has grown to 600 MB every child would read
    600 MB."""
    probe = ("\nfor line in open('/proc/self/status'):\n"
             "    if line.startswith('VmHWM:'):\n"
             "        print(line.split()[1])\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(meshgaze.__file__)))
    out = subprocess.run([sys.executable, "-c", code + probe], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    return int(out.split()[-1]) / 1024.0                  # VmHWM is in kB


# ---------------------------------------------------------------------------
# canonical meshes

@pytest.fixture(scope="session")
def sphere2():
    return primitives.icosphere(2)          # 162 vertices


@pytest.fixture(scope="session")
def sphere3():
    return primitives.icosphere(3)          # 642 vertices


@pytest.fixture(scope="session")
def sphere4():
    return primitives.icosphere(4)          # 2562 vertices


def spike_sphere(subdivisions: int = 3, radius: float = 0.3,
                 center=(0.0, 1.5, 0.0), spike_direction=(0.0, 0.0, -1.0),
                 spike_scale: float = 1.6) -> tuple[Mesh, int]:
    """Icosphere with one vertex pushed radially outward.

    Returns (mesh, apex_vertex_id).  The apex is the vertex nearest the
    given direction from center before displacement.
    """
    base = primitives.icosphere(subdivisions, radius, center)
    c = np.asarray(center, dtype=np.float64)
    d = np.asarray(spike_direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    radial = base.vertices - c
    apex = int(np.argmax(radial @ d))
    v = base.vertices.copy()
    v[apex] = c + radial[apex] * spike_scale
    return Mesh(v, base.triangles.copy()), apex


@pytest.fixture(scope="session")
def spike_pack():
    return spike_sphere()                   # (mesh, apex vertex id)


@pytest.fixture(scope="session")
def bumpy():
    return primitives.bumpy_sphere(seed=5)


@pytest.fixture()
def cfg():
    return RunConfig()


# ---------------------------------------------------------------------------
# mesh helpers

def vertex_rings(mesh, seed_vertex: int, rings: int) -> set[int]:
    """Vertex ids within `rings` edge hops of seed_vertex (BFS over edges)."""
    adj: dict[int, set[int]] = {}
    for a, b, c in mesh.triangles:
        a, b, c = int(a), int(b), int(c)
        adj.setdefault(a, set()).update((b, c))
        adj.setdefault(b, set()).update((a, c))
        adj.setdefault(c, set()).update((a, b))
    frontier = {seed_vertex}
    seen = {seed_vertex}
    for _ in range(rings):
        nxt = set()
        for v in frontier:
            nxt |= adj.get(v, set())
        nxt -= seen
        seen |= nxt
        frontier = nxt
    return seen


def load_ply_oracle(path):
    """An ascii-PLY file parsed one body row at a time, as load_mesh did
    before it parsed whole blocks: the Mesh, or the first row's error."""
    text = read_text(path, "mesh file", MeshError)
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MeshError("not a PLY file")
    counts = {}
    elements: list[str] = []
    vertex_props: list[str] = []
    vertex_list_at = None       # vertex columns before the first list
    face_first_list = None      # whether the face's first property is a list
    body_start = None
    ascii_fmt = False
    for i, line in enumerate(lines[1:], start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "format":
                ascii_fmt = len(parts) >= 2 and parts[1] == "ascii"
            elif parts[0] == "element":
                elements.append(parts[1])
                if parts[1] in ("vertex", "face"):
                    counts[parts[1]] = int(parts[2])
            elif parts[0] == "property":
                is_list = parts[1] == "list"
                if elements[-1:] == ["vertex"]:
                    if not is_list:
                        vertex_props.append(parts[-1])
                    elif vertex_list_at is None:
                        vertex_list_at = len(vertex_props)
                elif elements[-1:] == ["face"] and face_first_list is None:
                    face_first_list = is_list
            elif parts[0] == "end_header":
                body_start = i + 1
                break
        except (IndexError, ValueError):
            raise MeshError(f"PLY header line {i + 1}: malformed {line.strip()!r}") from None
    if not ascii_fmt:
        raise MeshError("only ascii PLY is supported")
    if body_start is None or len(counts) < 2:
        raise MeshError("incomplete PLY header")
    if elements[:2] != ["vertex", "face"]:
        raise MeshError("PLY elements must begin with vertex, then face")
    n_vertex, n_face = counts["vertex"], counts["face"]
    if min(n_vertex, n_face) < 0:
        raise MeshError("PLY element count is negative")
    try:
        ix, iy, iz = (vertex_props.index(k) for k in ("x", "y", "z"))
    except ValueError as exc:
        raise MeshError("PLY vertex element lacks x/y/z properties") from exc
    if vertex_list_at is not None and max(ix, iy, iz) >= vertex_list_at:
        raise MeshError("PLY vertex list property precedes x/y/z")
    if not face_first_list:
        raise MeshError("PLY face element must start with its index list")
    body = [ln for ln in lines[body_start:] if ln.strip()]
    if len(body) < n_vertex + n_face:
        raise MeshError("PLY body shorter than declared element counts")
    vertices = np.empty((n_vertex, 3), dtype=np.float64)
    for k in range(n_vertex):
        parts = body[k].split()
        if len(parts) < len(vertex_props):
            raise MeshError(f"PLY vertex row {k} too short")
        try:
            vertices[k] = (float(parts[ix]), float(parts[iy]), float(parts[iz]))
        except ValueError:
            raise MeshError(f"PLY vertex row {k}: non-numeric coordinate in {body[k]!r}") from None
    faces = []
    for k, line in enumerate(body[n_vertex:n_vertex + n_face]):
        parts = line.split()
        try:
            cnt = int(parts[0])
            idx = [int(p) for p in parts[1:1 + cnt]]
        except ValueError:
            raise MeshError(f"PLY face row {k}: non-integer field in {line!r}") from None
        if len(parts) < 1 + cnt:
            raise MeshError(f"PLY face row {k} too short")
        if cnt < 3:
            raise MeshError(f"PLY face row {k} has fewer than 3 indices")
        faces.extend((idx[0], idx[i], idx[i + 1]) for i in range(1, cnt - 1))
    return Mesh(vertices, faces)


def load_obj_oracle(path):
    """An OBJ file parsed one line at a time, as load_mesh parses it today:
    the Mesh, or the first failing line's error.  Kept to pin OBJ loading
    before a whole-file parse replaces the line loop."""
    text = read_text(path, "mesh file", MeshError)
    vertices = []
    faces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshError(f"line {lineno}: malformed vertex line")
            try:
                vertices.append((float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError:
                raise MeshError(f"line {lineno}: malformed vertex line") from None
        elif parts[0] == "f":
            idx = []
            for token in parts[1:]:
                try:
                    i = int(token.split("/")[0])
                except ValueError:
                    raise MeshError(f"line {lineno}: malformed face line") from None
                if i < 1:
                    raise MeshError(f"line {lineno}: face index must be >= 1")
                idx.append(i - 1)
            if len(idx) < 3:
                raise MeshError(f"line {lineno}: face needs >= 3 indices")
            faces.extend((idx[0], idx[j], idx[j + 1]) for j in range(1, len(idx) - 1))
    return Mesh(vertices, faces)


# ---------------------------------------------------------------------------
# pose helpers

def facing_pose(p, target=(0.0, 1.5, 0.0), camera=None) -> ViewPose:
    """A ViewPose at p with the head turned toward target."""
    p = np.asarray(p, dtype=np.float64)
    d = np.asarray(target, dtype=np.float64) - p
    d = d / np.linalg.norm(d)
    o = np.array(euler_facing(d))
    return ViewPose(p=p, o_deg=o, camera=camera or CameraModel())


def pick_visible_targets(mesh, viewer_p, n, center=(0.0, 1.5, 0.0),
                         min_facing=0.5, min_sep=0.15):
    """Deterministically choose n well-separated vertex ids facing viewer_p.

    Keeps targets away from the silhouette (grazing sight-lines there can
    miss the faceted surface even when aimed exactly at a vertex).
    """
    center = np.asarray(center, dtype=np.float64)
    toward = np.asarray(viewer_p, dtype=np.float64) - center
    toward = toward / np.linalg.norm(toward)
    off = mesh.vertices - center
    rad = np.linalg.norm(off, axis=1)
    rad[rad == 0] = 1.0
    facing = (off @ toward) / rad
    order = np.argsort(-facing)             # most viewer-facing first
    chosen: list[int] = []
    for v in order:
        if facing[v] < min_facing:
            break
        if all(np.linalg.norm(mesh.vertices[v] - mesh.vertices[c]) >= min_sep
               for c in chosen):
            chosen.append(int(v))
        if len(chosen) == n:
            return chosen
    raise AssertionError(
        f"could not place {n} viewer-facing targets (got {len(chosen)})")


# ---------------------------------------------------------------------------
# visibility oracles (no BVH, no watertight kernel, no visibility helper)

def view_candidates(mesh, pose):
    """Vertices inside pose's frustum whose normals face the eye, as
    (ids, unit directions from the eye, distances from the eye)."""
    cam = pose.camera
    rel = mesh.vertices - pose.p
    vp = rel @ rotation_matrix(pose.o_deg)      # x right, y up, z forward
    zs = vp[:, 2]
    tan_h = np.tan(np.radians(cam.hfov_deg) / 2.0)
    tan_v = np.tan(np.radians(cam.vfov_deg) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        in_frustum = (zs >= cam.near) & \
            (np.abs(vp[:, 0] / (zs * tan_h)) <= 1.0) & \
            (np.abs(vp[:, 1] / (zs * tan_v)) <= 1.0)
    front = np.einsum("ij,ij->i", mesh.normals, -rel) > 0.0
    dist = np.linalg.norm(rel, axis=1)
    ids = np.nonzero(in_frustum & front & (dist > 0.0))[0]
    return ids, rel[ids] / dist[ids, None], dist[ids]


def convex_oracle(mesh, pose):
    """Analytic visibility on a convex mesh: every candidate is visible."""
    mask = np.zeros(len(mesh.vertices), dtype=bool)
    mask[view_candidates(mesh, pose)[0]] = True
    return mask


def occlusion_oracle(mesh, pose, eps_frac=1e-3, block=256):
    """Exhaustive reference visibility: a candidate vertex is visible unless
    some triangle crosses the ray from the eye to it more than
    eps_frac * bbox diagonal before it.  Every ray is tested against every
    triangle with Moller-Trumbore, a block of rays at a time.  All rays
    leave the eye, so the cross products that do not involve the direction
    are taken once per triangle: with s = eye - v0, det = d.(e2 x e1),
    u = d.(e2 x s) / det, v = d.(s x e1) / det, t = e2.(s x e1) / det."""
    ids, dirs, dist = view_candidates(mesh, pose)
    eps = eps_frac * bounding_box_diagonal(mesh)
    v0, v1, v2 = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    e1, e2 = v1 - v0, v2 - v0
    s = pose.p - v0
    q = np.cross(s, e1)
    tnum = np.einsum("ij,ij->i", e2, q)
    det_w, u_w, v_w = np.cross(e2, e1).T, np.cross(e2, s).T, q.T
    hidden = np.zeros(len(ids), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, len(ids), block):
            d = dirs[lo:lo + block]
            det = d @ det_w
            u = (d @ u_w) / det
            v = (d @ v_w) / det
            t = tnum / det
            hit = (det != 0.0) & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & \
                (t > 0.0) & (t < dist[lo:lo + block, None] - eps)
            hidden[lo:lo + block] = hit.any(axis=1)
    mask = np.zeros(len(mesh.vertices), dtype=bool)
    mask[ids] = ~hidden
    return mask


# ---------------------------------------------------------------------------
# saliency oracles: the per-point FPFH and the 3-D-temporary uniqueness that
# the radius-pair kernels replaced, kept to pin their bytes

def fpfh_oracle(positions, normals, r):
    """Two Python loops over a k-d tree's neighbor lists, one histogram and
    one blend per point."""
    from scipy.spatial import cKDTree

    from meshgaze.saliency import (DESCRIPTOR_SIZE, N_BINS, N_FEATURES,
                                   _pair_features_batch)
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    n = len(positions)
    neighbor_lists = cKDTree(positions).query_ball_point(positions, r)

    spfh = np.zeros((n, DESCRIPTOR_SIZE))
    flags = np.zeros(n, dtype=bool)
    neighbors = []
    for i in range(n):
        ids = np.asarray([j for j in neighbor_lists[i] if j != i], dtype=np.int64)
        dist = np.linalg.norm(positions[ids] - positions[i], axis=1)
        ids, dist = ids[dist > 0], dist[dist > 0]
        neighbors.append(ids)
        if len(ids) == 0:
            flags[i] = True
            continue
        feats = _pair_features_batch(positions[i], normals[i],
                                     positions[ids], normals[ids], dist)
        for offset, feat, lo, hi in zip((0, N_BINS, 2 * N_BINS), feats,
                                        (-1.0, -1.0, -np.pi), (1.0, 1.0, np.pi)):
            idx = np.floor((feat - lo) / (hi - lo) * N_BINS).astype(np.int64)
            np.add.at(spfh[i], offset + np.clip(idx, 0, N_BINS - 1), 1.0)
        spfh[i] /= N_FEATURES * len(ids)

    uniform = np.full(DESCRIPTOR_SIZE, 1.0 / DESCRIPTOR_SIZE)
    out = np.zeros_like(spfh)
    for i in range(n):
        ids = neighbors[i]
        if len(ids) == 0:
            out[i] = uniform
            continue
        dist = np.linalg.norm(positions[ids] - positions[i], axis=1)
        blended = spfh[i] + (spfh[ids] / dist[:, None]).sum(axis=0) / len(ids)
        total = blended.sum()
        out[i] = blended / total if total > 0 else uniform
    return out, flags


def uniqueness_oracle(positions, descriptors, exact_limit=5000,
                      sample_size=5000, seed=0, eps_b=1e-12, rows=None):
    """Chunked uniqueness with a (chunk, cols, 3) difference temporary, or,
    given rows, a (rows, cols, 3) one per slice of each chunk's product."""
    positions = np.asarray(positions, dtype=np.float64)
    descriptors = np.asarray(descriptors, dtype=np.float64)
    n = len(positions)
    subsampled = n > exact_limit and n > sample_size
    if subsampled:
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(n, size=sample_size, replace=False))
    else:
        cols = np.arange(n)
    sqrt_all = np.sqrt(descriptors)
    sqrt_cols = sqrt_all[cols]
    pos_cols = positions[cols]
    acc = np.zeros(n)
    chunk = max(1, int(2.0e7 // max(len(cols), 1)))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        bc = sqrt_all[s:e] @ sqrt_cols.T
        for a in range(s, e, rows or chunk):
            b = min(e, a + (rows or chunk))
            dis = -np.log(np.maximum(bc[a - s:b - s], eps_b))
            np.maximum(dis, 0.0, out=dis)
            d = np.linalg.norm(positions[a:b, None, :] - pos_cols[None, :, :],
                               axis=2)
            acc[a:b] = (dis / (1.0 + d)).mean(axis=1)
    return 1.0 - np.exp(-acc), subsampled


def gaussian_average_oracle(values, positions, sigma):
    """The curvature baseline's Gaussian average, one vertex at a time over
    a k-d tree's ball of radius 2 sigma, weighted with np.dot."""
    from scipy.spatial import cKDTree
    out = np.empty(len(values))
    balls = cKDTree(positions).query_ball_point(positions, 2.0 * sigma)
    for i, ids in enumerate(balls):
        ids = np.asarray(ids, dtype=np.int64)
        d2 = np.sum((positions[ids] - positions[i]) ** 2, axis=1)
        wts = np.exp(-d2 / (2.0 * sigma * sigma))
        out[i] = np.dot(wts, values[ids]) / wts.sum()
    return out


def radius_pairs_oracle(points, r):
    """(i, j) of every pair i != j with (dx*dx + dy*dy) + dz*dz <= r*r,
    sorted by (i, j): a k-d tree's sorted balls a little wider than r,
    filtered by that rule."""
    from scipy.spatial import cKDTree
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    balls = cKDTree(points).query_ball_point(points, r * (1.0 + 1e-6),
                                             return_sorted=True)
    i = np.repeat(np.arange(len(points)), [len(b) for b in balls])
    j = np.fromiter((k for b in balls for k in b), dtype=np.int64, count=len(i))
    d = points[j] - points[i]
    keep = ((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
            <= r * r) & (i != j)
    return i[keep], j[keep]


def pair_list_averages_oracle(values, positions, sigmas):
    """The curvature baseline's Gaussian averages over the whole radius-pair
    list at once, one sigma after another, each filtered from all pairs."""
    i, j = (np.concatenate([np.arange(len(values)), ids]) for ids in
            radius_pairs_oracle(positions, 2.0 * max(sigmas, default=1.0)))
    d2 = np.sum((positions[j] - positions[i]) ** 2, axis=1)
    for sigma in sigmas:
        keep = d2 <= (2.0 * sigma) * (2.0 * sigma)
        wts = np.exp(-d2[keep] / (2.0 * sigma * sigma))
        yield (np.bincount(i[keep], wts * values[j[keep]], minlength=len(values))
               / np.bincount(i[keep], wts, minlength=len(values)))


# ---------------------------------------------------------------------------
# I-VT oracle: the per-sample labeling loop that the run-length classifier
# replaced, kept to pin its labels

def ivt_oracle(t, points, distances, h, min_fixation_s, dt):
    """Label a stream (NaN distance = miss) one sample at a time: segments
    of consecutive hits, a norm per step, the segment's first sample copies
    its successor, then a scan over each fixation run's duration."""
    n = len(t)
    hit = [not np.isnan(d) for d in distances]
    labels = ["miss" if not h_k else None for h_k in hit]
    segments = []
    start = None
    for i in range(n):
        if not hit[i]:
            if start is not None:
                segments.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        segments.append((start, n))

    for s0, s1 in segments:
        if s1 - s0 == 1:
            labels[s0] = "saccade"
            continue
        for k in range(s0 + 1, s1):
            disp = float(np.linalg.norm(points[k] - points[k - 1]))
            labels[k] = "fixation" if disp <= h * distances[k] else "saccade"
        labels[s0] = labels[s0 + 1]
        k = s0
        while k < s1:
            if labels[k] != "fixation":
                k += 1
                continue
            j = k
            while j < s1 and labels[j] == "fixation":
                j += 1
            if (t[j - 1] - t[k]) + dt < min_fixation_s:
                for m in range(k, j):
                    labels[m] = "saccade"
            k = j
    return labels


# ---------------------------------------------------------------------------
# recording oracles: the per-sample pose chain, hit-record loop, recording
# reader and synthesis loop that the whole-recording array passes replaced,
# kept (with their own per-pose formulas) to pin their bytes and errors

def rotation_oracle(o_deg):
    ox, oy, oz = np.radians(np.asarray(o_deg, dtype=np.float64))
    cx, sx = np.cos(ox), np.sin(ox)
    cy, sy = np.cos(oy), np.sin(oy)
    cz, sz = np.cos(oz), np.sin(oz)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ rx @ ry


def facing_oracle(o_deg):
    if not np.all(np.isfinite(np.asarray(o_deg, dtype=np.float64))):
        raise GazeError("non-finite Euler angles")
    d = rotation_oracle(o_deg) @ np.array([0.0, 0.0, 1.0])
    return d / np.linalg.norm(d)


def screen_frame_oracle(o):
    o = np.asarray(o, dtype=np.float64)
    cos_a = o[1]
    sin_a = float(np.hypot(o[0], o[2]))
    if sin_a < 1e-9:
        raise GazeError("degenerate screen frame: facing parallel to Y axis")
    cos_b = o[0] / sin_a
    sin_b = o[2] / sin_a
    return (np.array([sin_b, 0.0, -cos_b]),
            np.array([cos_a * cos_b, -sin_a, cos_a * sin_b]))


def sightline_oracle(p, o_deg, s, d_screen):
    """One pose's actual sight-line direction; raises where the chain does."""
    p = np.asarray(p, dtype=np.float64)
    o = facing_oracle(o_deg)
    if not d_screen > 0:
        raise GazeError("d_screen must be positive")
    b = p + d_screen * o
    e_sx, e_sy = screen_frame_oracle(o)
    s = np.asarray(s, dtype=np.float64)
    d = (b + s[0] * e_sx + s[1] * e_sy) - p
    n = float(np.linalg.norm(d))
    if n <= 1e-9:
        raise GazeError("gaze point coincides with head position")
    return d / n


def euler_facing_oracle(direction):
    d = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(d))
    if norm < 1e-12:
        raise ScenarioError("facing direction must be nonzero")
    d = d / norm
    oy = math.degrees(math.atan2(d[0], math.hypot(d[1], d[2])))
    ox = math.degrees(math.atan2(-d[1], d[2]))
    return np.array([ox, oy, 0.0])


def inverse_offset_oracle(p, o_vec, target, d_screen):
    p = np.asarray(p, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    o = np.asarray(o_vec, dtype=np.float64)
    along = float(np.dot(target - p, o))
    if along <= 0:
        raise ScenarioError("target behind the screen plane")
    if not d_screen > 0:
        raise GazeError("d_screen must be positive")
    b = p + d_screen * o
    y_star = p + (d_screen / along) * (target - p)
    e_sx, e_sy = screen_frame_oracle(o)
    rel = y_star - b
    return np.array([float(np.dot(rel, e_sx)), float(np.dot(rel, e_sy))])


def hit_records_oracle(mesh, origins, directions):
    """[(point, triangle, bary, distance) or None] per ray, one record at a
    time from intersect_many's nearest hits."""
    out = [None] * len(origins)
    cast = np.nonzero(np.isfinite(directions).all(axis=1))[0]
    _, tri, bary = mesh.bvh.intersect_many(origins[cast], directions[cast])
    for k, tri_k, bary_k in zip(cast, tri, bary):
        if tri_k < 0:
            continue
        tv = mesh.vertices[mesh.triangles[tri_k]]
        point = bary_k[0] * tv[0] + bary_k[1] * tv[1] + bary_k[2] * tv[2]
        out[k] = (point, int(tri_k), bary_k,
                  float(np.linalg.norm(point - origins[k])))
    return out


def ar1_oracle(rng, n, std, phi):
    if std == 0.0:
        return np.zeros(n)
    xi_std = std * math.sqrt(1.0 - phi * phi)
    out = np.empty(n)
    out[0] = rng.normal(0.0, std)
    steps = rng.normal(0.0, xi_std, size=n - 1) if n > 1 else ()
    for k in range(1, n):
        out[k] = phi * out[k - 1] + steps[k - 1]
    return out


def generate_recording_oracle(scenario, mesh, cfg, subject=0):
    """[(t, p, o_deg, s)] of one subject, one sample at a time."""
    center = np.asarray(cfg.scene_center(), dtype=np.float64)
    scenario.validate(center)
    n = int(round(scenario.duration_s * scenario.rate_hz))
    dt = 1.0 / scenario.rate_hz
    dy = scenario.height - center[1]
    r_h = math.sqrt(scenario.radius ** 2 - dy ** 2)
    start = math.radians(scenario.start_angle_deg + 7.0 * subject)
    span = math.radians(scenario.span_deg)
    targets = [np.asarray(mesh.vertices[int(t)], dtype=np.float64)
               for t in scenario.targets]
    per_dwell = max(1, int(round(scenario.dwell_s * scenario.rate_hz)))
    rng = np.random.default_rng(scenario.seed * 100003 + subject)
    phi = math.exp(-dt / scenario.noise_tau_s)
    s_std = cfg.d_screen * math.tan(math.radians(scenario.noise_deg))
    noise_x = ar1_oracle(rng, n, s_std, phi)
    noise_y = ar1_oracle(rng, n, s_std, phi)
    samples = []
    for k in range(n):
        frac = k / (n - 1) if n > 1 else 0.0
        theta = start + span * frac
        p = center + np.array([r_h * math.cos(theta), dy, r_h * math.sin(theta)])
        face = (center - p) / np.linalg.norm(center - p)
        o_deg = euler_facing_oracle(face)
        o_vec = facing_oracle(o_deg)
        target = targets[(k // per_dwell) % len(targets)]
        s = inverse_offset_oracle(p, o_vec, target, cfg.d_screen)
        s = s + np.array([noise_x[k], noise_y[k]])
        if np.abs(s).max() > cfg.screen_half_extent:
            raise ScenarioError(
                f"sample {k}: eye offset {s} exceeds the screen half-extent; "
                "bring targets nearer the view center or widen the screen")
        samples.append((k * dt, p, o_deg, s))
    return samples


def load_recording_oracle(path, screen_half_extent=0.15):
    """[(t, p, o_deg, s)] of a recording CSV, checked one row at a time."""
    rows = read_csv(path, "recording", GazeError)
    if not rows or [c.strip() for c in rows[0]] != RECORDING_HEADER:
        raise GazeError(f"recording {path!r}: bad or missing header")
    samples = []
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
        if max(abs(v) for v in vals[1:4]) > MAX_COORD:
            raise GazeError(f"recording {path!r}: row {i}: coordinate beyond "
                            f"+-{MAX_COORD:g}")
        t = vals[0]
        if prev_t is not None and t <= prev_t:
            raise GazeError(f"recording {path!r}: timestamps not strictly increasing at row {i}")
        prev_t = t
        sx, sy = vals[7], vals[8]
        if abs(sx) > screen_half_extent or abs(sy) > screen_half_extent:
            raise GazeError(
                f"recording {path!r}: row {i}: eye offset exceeds screen half-extent "
                f"{screen_half_extent}")
        samples.append((t, np.array(vals[1:4]), np.array(vals[4:7]),
                        np.array(vals[7:9])))
    if not samples:
        raise GazeError(f"recording {path!r}: no samples")
    return samples


# ---------------------------------------------------------------------------
# ray oracles: the exhaustive scan that traversal must reproduce, on the
# production per-triangle kernel

def intersect_triangles(origin, direction, v0, v1, v2):
    """Watertight ray test against a batch of triangles.

    Returns (t, bary, valid): t is inf where invalid; bary is (m, 3)
    barycentric weights of (v0, v1, v2) rows; valid marks real hits with
    t > 0.
    """
    origin = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64).reshape(1, 3)
    frame = [np.full(len(v0), f[0]) for f in bvh._ray_frames(d)]
    return bvh._watertight(v0 - origin, v1 - origin, v2 - origin, frame)


def intersect_brute(vertices, triangles, origin, direction):
    """Exhaustive per-triangle scan: nearest hit as (t, tri_id, bary) or
    None; equal t settle to the lower triangle id."""
    v0, v1, v2 = (vertices[triangles[:, k]] for k in range(3))
    t, bary, valid = intersect_triangles(origin, direction, v0, v1, v2)
    if not valid.any():
        return None
    ids = np.flatnonzero(valid)
    ids = ids[t[ids] == t[ids].min()]
    pick = ids.min()
    return float(t[pick]), int(pick), bary[pick].copy()


# ---------------------------------------------------------------------------
# BVH oracle: the node-at-a-time tree construction that the level-by-level
# one replaced, kept to pin its arrays

def bvh_tree_oracle(vertices, triangles, leaf_size=8):
    """(order, node_left, node_right, node_start, node_count), one node at a
    time from an explicit stack, with nodes numbered in depth-first
    preorder.  TriangleBVH numbers them by depth instead; the tests
    renumber these arrays breadth first before comparing."""
    tv = np.asarray(vertices, dtype=np.float64)[np.asarray(triangles)]
    centroids = tv.mean(axis=1)
    m = len(centroids)
    order = np.arange(m, dtype=np.int64)
    node_left, node_right, node_start, node_count = [], [], [], []
    stack = [(0, m, -1, False)]
    while stack:
        start, end, parent, is_right = stack.pop()
        idx = order[start:end]
        me = len(node_start)
        node_left.append(-1)
        node_right.append(-1)
        node_start.append(start)
        node_count.append(0)
        if parent >= 0:
            if is_right:
                node_right[parent] = me
            else:
                node_left[parent] = me
        count = end - start
        cen = centroids[idx]
        spread = cen.max(axis=0) - cen.min(axis=0)
        axis = int(np.argmax(spread))
        if count <= leaf_size or spread[axis] <= 0.0:
            node_count[me] = count
            continue
        local = np.argsort(cen[:, axis], kind="stable")
        order[start:end] = idx[local]
        mid = start + count // 2
        stack.append((mid, end, me, True))
        stack.append((start, mid, me, False))
    return (order, np.asarray(node_left), np.asarray(node_right),
            np.asarray(node_start), np.asarray(node_count))


# ---------------------------------------------------------------------------
# viewing-direction dependence oracle: the per-subset loop over the pair
# dictionary that the pair index arrays replaced, kept to pin its bytes; a
# pair with a constant map is left out, as in the inter-observer study

def vdd_oracle(entries, max_angle_deg=90.0, repetitions=100, seed=0,
               subset_frac=0.8):
    from meshgaze.evaluation import EvaluationError
    from meshgaze.fdm import FdmError, plcc
    entries = list(entries)
    if len(entries) < 10:
        raise EvaluationError("need at least 10 pose-tagged maps")
    dirs = [facing_oracle(o) for o, _ in entries]
    maps = [np.asarray(v, dtype=np.float64) for _, v in entries]
    n = len(entries)
    pair_angle = {}
    for i in range(n):
        for j in range(i + 1, n):
            cosang = float(np.clip(np.dot(dirs[i], dirs[j]), -1.0, 1.0))
            ang = float(np.degrees(np.arccos(cosang)))
            if ang <= max_angle_deg:
                pair_angle[(i, j)] = ang
    pair_sim, undefined = {}, 0
    for i, j in list(pair_angle):
        try:
            pair_sim[(i, j)] = plcc(maps[i], maps[j])
        except FdmError:                    # a constant map: left out
            del pair_angle[(i, j)]
            undefined += 1
    if len(pair_angle) < 2:
        raise EvaluationError("not enough pose pairs within the angle limit" + (
            f" ({undefined} left out: undefined map correlation)" if undefined else ""))

    def corr_of(subset):
        xs, ys = [], []
        members = set(subset)
        for (i, j), ang in pair_angle.items():
            if i in members and j in members:
                xs.append(pair_sim[(i, j)])
                ys.append(ang)
        if len(xs) < 2:
            return None
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        if xs.max() == xs.min() or ys.max() == ys.min():
            raise EvaluationError("zero variance in similarity-angle pairs")
        dx = xs - xs.mean()
        dy = ys - ys.mean()
        return float(np.dot(dx, dy) / (np.linalg.norm(dx) * np.linalg.norm(dy)))

    rng = np.random.default_rng(seed)
    size = max(3, int(np.ceil(subset_frac * n)))
    acc = []
    for _ in range(repetitions):
        subset = rng.choice(n, size=size, replace=False)
        c = corr_of(subset)
        if c is not None:
            acc.append(c)
    if not acc:
        raise EvaluationError("no resampled subset produced enough pairs")
    return float(np.mean(acc))


# ---------------------------------------------------------------------------
# fixation-row oracles: the one-fixation-at-a-time forms that the Fixations
# table replaced, kept to pin its values, bytes and error messages

def load_fixations_oracle(path):
    """[(recording_id, cluster_id, [x .. oz, duration], weight)] of a
    fixation CSV, checked one row at a time, with the 64-bit and MAX_COORD
    bounds checked where the table loader checks them."""
    from meshgaze.fixation import FIXATION_HEADER, FixationError
    rows = read_csv(path, "fixation file", FixationError)
    if not rows or rows[0] != FIXATION_HEADER:
        raise FixationError(f"fixation file {path!r}: bad or missing header")
    out = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(FIXATION_HEADER):
            raise FixationError(f"fixation file {path!r}: malformed row")
        try:
            cluster_id = int(row[1])
            vals = [float(x) for x in row[2:12]]
            weight = int(row[12])
        except ValueError as exc:
            raise FixationError(f"fixation file {path!r}: row {i}: {exc}") from exc
        if abs(cluster_id) >= 2 ** 63 or abs(weight) >= 2 ** 63:
            raise FixationError(f"fixation file {path!r}: row {i}: "
                                "cluster_id or weight beyond 64 bits")
        if not np.isfinite(vals).all():
            raise FixationError(f"fixation file {path!r}: row {i}: non-finite value")
        if max(abs(v) for v in vals[:6]) > MAX_COORD:
            raise FixationError(f"fixation file {path!r}: row {i}: coordinate "
                                f"beyond +-{MAX_COORD:g}")
        if weight < 1:
            raise FixationError(f"fixation file {path!r}: row {i}: weight must be >= 1")
        out.append((row[0], cluster_id, vals, weight))
    return out


def read_vertex_csv_oracle(path, header, what, error):
    """Column 1 of a per-vertex CSV indexed by vertex id, checked one row at
    a time: the row loop of io.read_vertex_csv, kept to pin its values and
    first error messages for a whole-file parse."""
    rows = [r for r in read_csv(path, what, error) if r]
    if not rows or rows[0][:len(header)] != list(header):
        raise error(f"{what} {path!r}: bad header")
    n = len(rows) - 1
    values = np.zeros(n)
    seen = np.zeros(n, dtype=bool)
    for k, row in enumerate(rows[1:], start=1):
        try:
            vid, value = int(row[0]), float(row[1])
        except (IndexError, ValueError):
            raise error(f"{what} {path!r}: row {k}: expected vertex_id,value, "
                        f"got {row!r}") from None
        if not 0 <= vid < n:
            raise error(f"{what} {path!r}: row {k}: vertex id {vid} outside "
                        f"0..{n - 1} (ids missing or out of range)")
        if seen[vid]:
            raise error(f"{what} {path!r}: row {k}: duplicate vertex id {vid}")
        if not math.isfinite(value):
            raise error(f"{what} {path!r}: row {k}: non-finite value {row[1]!r}")
        seen[vid] = True
        values[vid] = value
    return values


def splat_oracle(mesh, positions, weights, sigma, cutoff_sigmas=4.0):
    """Per-vertex values of the per-fixation splat loop."""
    values = np.zeros(len(mesh.vertices))
    radius = cutoff_sigmas * sigma
    for position, weight in zip(np.asarray(positions), np.asarray(weights).tolist()):
        d2 = np.sum((mesh.vertices - position) ** 2, axis=1)
        ids = np.nonzero(d2 <= radius * radius)[0]
        if len(ids):
            values[ids] += weight * np.exp(-d2[ids] / (2.0 * sigma * sigma))
    return values


def saccade_amplitude_oracle(position_a, position_b, head_b):
    """Degrees between two fixations seen from the later one's head
    position; FixationError where either coincides with that position."""
    from meshgaze.fixation import FixationError
    va = np.asarray(position_a, dtype=np.float64) - head_b
    vb = np.asarray(position_b, dtype=np.float64) - head_b
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na <= 1e-12 or nb <= 1e-12:
        raise FixationError("fixation coincides with head position")
    cosang = float(np.dot(va, vb) / (na * nb))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))


def pose_bucket_oracle(pose_p, pose_o_deg, grid_m=0.25, angle_bin_deg=30.0):
    """The bucket key of one pose, computed alone."""
    from meshgaze.gaze import head_orientations
    p = np.asarray(pose_p, dtype=np.float64)
    o = head_orientations(pose_o_deg)[0]
    gx, gy, gz = (int(np.floor(c / grid_m)) for c in p)
    az = np.degrees(np.arctan2(o[2], o[0])) % 360.0
    el = np.degrees(np.arcsin(np.clip(o[1], -1.0, 1.0)))
    ia = int(np.floor(az / angle_bin_deg)) % max(int(np.ceil(360.0 / angle_bin_deg)), 1)
    ie = min(int(np.floor((el + 90.0) / angle_bin_deg)),
             int(np.ceil(180.0 / angle_bin_deg)) - 1)
    return f"{gx}_{gy}_{gz}_a{ia}_e{ie}"


# ---------------------------------------------------------------------------
# config text: every field as key=value, so parse_config can be checked to
# read back what a config holds

def serialize_config(cfg) -> str:
    """The fields of a RunConfig as key=value lines in declaration order;
    floats by repr, which round-trips float64 exactly."""
    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)
    return "".join(f"{f.name}={text(getattr(cfg, f.name))}\n"
                   for f in dataclasses.fields(cfg))
