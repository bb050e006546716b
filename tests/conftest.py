"""Shared fixtures and the acceptance-criteria summary hook.

Meshes are session-scoped (immutable by convention — tests must not
mutate vertex arrays).  Acceptance tests wrap their bodies in the
`criterion` context manager; the terminal summary then ends with one
PASS/FAIL line per criterion, including criteria that never ran.
"""
from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from meshgaze import primitives
from meshgaze.config import RunConfig
from meshgaze.gaze import rotation_matrix
from meshgaze.mesh import bounding_box_diagonal
from meshgaze.synth import euler_facing
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


@pytest.fixture(scope="session")
def spike_pack():
    return primitives.spike_sphere()        # (mesh, apex vertex id)


@pytest.fixture(scope="session")
def bumpy():
    return primitives.bumpy_sphere(seed=5)


@pytest.fixture()
def cfg():
    return RunConfig()


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
# ray-cast visibility oracle (shares no code with the rasterizer it checks)

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


def occlusion_oracle(mesh, pose, eps_frac=1e-3):
    """Ray-cast reference visibility: a candidate vertex is visible unless
    the nearest hit on the ray from the eye to it lies more than
    eps_frac * bbox diagonal before it.  One intersect_many call per pose."""
    ids, dirs, dist = view_candidates(mesh, pose)
    eps = eps_frac * bounding_box_diagonal(mesh)
    t, _, _ = mesh.bvh.intersect_many(np.tile(pose.p, (len(ids), 1)), dirs)
    mask = np.zeros(len(mesh.vertices), dtype=bool)
    mask[ids] = ~(t < dist - eps)
    return mask
