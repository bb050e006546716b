"""Metamorphic relations of the per-vertex maps: what a change of the input
that should not matter must leave alone.

Relabelling permutes the vertices, shuffles the faces and rotates each
face's corners; the visible mask, the saliency S, U and C and the splatted
fixation density then permute with the vertices.  Translation moves the
mesh, the pose and the fixations by one offset; the same maps, and the
scores of evaluate_views, stay the same.  Maps on [0, 1] agree to 1e-12
absolute, splats to 1e-12 of their maximum: both sides round differently.

The curvature baseline is left out: on these scenes it breaks relabelling
by up to 1.2e-5 and translation by up to 2.3e-4, through the ties among
the local maxima it averages.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from conftest import facing_pose

from meshgaze.config import RunConfig
from meshgaze.evaluation import evaluate_views
from meshgaze.fdm import splat_fdm
from meshgaze.fixation import Fixations
from meshgaze.mesh import Mesh
from meshgaze.primitives import bumpy_sphere, plane_grid
from meshgaze.saliency import saliency_map
from meshgaze.visibility import ViewPose, visible_points

SHIFT = np.array([0.37, -0.21, 0.55])
CFG = RunConfig()
# the grid's spacing, 1/16 m, is beyond the default FPFH radius; this one
# reaches the first ring only
GRID_CFG = dataclasses.replace(CFG, fpfh_radius_frac=0.05)


def _rippled_grid():
    """plane_grid(16, 16) with its heights rippled: on a flat grid every
    descriptor is the same, so U and S are 0 everywhere."""
    grid = plane_grid(16, 16)
    v = grid.vertices.copy()
    v[:, 1] += 0.04 * np.sin(9 * v[:, 0]) * np.cos(7 * v[:, 2])
    return Mesh(v, grid.triangles)


# mesh, config and eye positions, each eye facing the scene center (0, 1.5,
# 0).  The spheres' limbs are silhouettes; on the grid the first eye's
# frustum clips it and the second looks along it over the ripples.
SCENES = {
    "bumpy3": (lambda: bumpy_sphere(3, seed=5), CFG,
               [(0.0, 1.6, -1.2), (0.9, 1.9, 0.7)]),
    "bumpy4": (lambda: bumpy_sphere(4, seed=6), CFG, [(-0.8, 1.2, -0.9)]),
    "grid": (_rippled_grid, GRID_CFG, [(0.1, 1.75, -0.2), (0.3, 1.6, -0.9)]),
}


def _fixations(mesh, rng):
    """A dozen fixations near vertices, weights 1 to 3."""
    at = rng.choice(len(mesh.vertices), size=12, replace=False)
    m = len(at)
    return Fixations(recording=["s00"] * m, cluster=np.arange(m),
                     position=mesh.vertices[at] + rng.normal(0, 0.01, (m, 3)),
                     pose_p=np.zeros((m, 3)), pose_o=np.zeros((m, 3)),
                     duration=np.full(m, 0.2), weight=rng.integers(1, 4, m))


def _maps(mesh, poses, fixations, cfg):
    """Per pose: the visible mask, S, U, C and the pose's view of the
    fixation density, plus the evaluate_views report over all poses."""
    g = splat_fdm(mesh, fixations, cfg.sigma_fdm, cfg.fdm_cutoff_sigmas)
    out, views = [], []
    for k, pose in enumerate(poses):
        vs = visible_points(mesh, pose, cfg.depth_tol_frac)
        sal = saliency_map(mesh, pose, cfg, vs)
        out.append((vs.mask, sal.s, sal.u, sal.c))
        views.append((f"view{k}", g, sal.s, vs.mask, k + 1))
    return out, g, evaluate_views(views, cfg)


@functools.lru_cache(maxsize=None)
def _scene(name):
    make, cfg, eyes = SCENES[name]
    mesh = make()
    poses = [facing_pose(eye) for eye in eyes]
    fixations = _fixations(mesh, np.random.default_rng(3))
    return mesh, cfg, poses, fixations, _maps(mesh, poses, fixations, cfg)


def _assert_maps_equal(got, want):
    for (mask, *unit), (want_mask, *want_unit) in zip(got, want):
        assert want_mask.any() and not want_mask.all()
        assert np.array_equal(mask, want_mask)
        for a, b in zip(unit, want_unit):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def _assert_splat_equal(got, want):
    assert want.max() > 0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())


@pytest.mark.parametrize("name", sorted(SCENES))
def test_relabelling_permutes_the_maps(name):
    mesh, cfg, poses, fixations, (want, want_g, _) = _scene(name)
    rng = np.random.default_rng(17)
    perm = rng.permutation(len(mesh.vertices))    # new vertex j is old perm[j]
    tris = np.argsort(perm)[mesh.triangles][rng.permutation(len(mesh.triangles))]
    corners = (np.arange(3) + rng.integers(0, 3, (len(tris), 1))) % 3
    relabelled = Mesh(mesh.vertices[perm], np.take_along_axis(tris, corners, 1))
    got, g, _ = _maps(relabelled, poses, fixations, cfg)
    _assert_maps_equal(got, [tuple(x[perm] for x in maps) for maps in want])
    _assert_splat_equal(g, want_g[perm])


@pytest.mark.parametrize("name", sorted(SCENES))
def test_translation_leaves_maps_and_scores(name):
    mesh, cfg, poses, fixations, (want, want_g, want_report) = _scene(name)
    moved = dataclasses.replace(fixations, position=fixations.position + SHIFT)
    got, g, report = _maps(mesh.transformed(translate=SHIFT),
                           [ViewPose(p.p + SHIFT, p.o_deg) for p in poses],
                           moved, cfg)
    _assert_maps_equal(got, want)
    _assert_splat_equal(g, want_g)
    for pid, scores in want_report["views"].items():
        for key, value in scores.items():
            assert report["views"][pid][key] == pytest.approx(value, rel=1e-9,
                                                              abs=1e-12)
    for key, value in want_report["aggregate"].items():
        assert report["aggregate"][key] == pytest.approx(value, rel=1e-9,
                                                         abs=1e-12)
