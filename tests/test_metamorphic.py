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
the local maxima it averages.  Its Gaussian averages, which have no ties,
keep both relations to 1e-12 relative.  A translation of the poses by a
whole number of grid cells shifts every pose bucket's cells by that number
and keeps its members and A_w.
"""
from __future__ import annotations

import collections
import dataclasses
import functools

import numpy as np
import pytest
from conftest import facing_pose

from meshgaze.config import RunConfig
from meshgaze.evaluation import evaluate_views
from meshgaze.fdm import pose_groups, splat_fdm
from meshgaze.fixation import Fixations
from meshgaze.mesh import Mesh, bounding_box_diagonal
from meshgaze.primitives import bumpy_sphere, plane_grid
from meshgaze.saliency import _gaussian_averages, mean_curvature, saliency_map
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


@pytest.mark.parametrize("level", [3, 4])
def test_gaussian_averages_under_relabelling_and_translation(level):
    """The baseline's averages at its 8 distinct scales; relabelling changes
    each vertex's summation order, translation the rounding of each d2."""
    mesh = bumpy_sphere(level, seed=5)
    kappa = mean_curvature(mesh)
    eps = CFG.baseline_eps_frac * bounding_box_diagonal(mesh)
    sigmas = [m * eps for m in (2, 4, 3, 6, 8, 5, 10, 12)]
    want = _gaussian_averages(kappa, mesh.vertices, sigmas)
    perm = np.random.default_rng(17).permutation(len(kappa))
    relabelled = _gaussian_averages(kappa[perm], mesh.vertices[perm], sigmas)
    moved = _gaussian_averages(kappa, mesh.vertices + SHIFT, sigmas)
    assert np.isfinite(want).all() and want.min() > 0
    np.testing.assert_allclose(relabelled, want[:, perm], rtol=1e-12, atol=0)
    np.testing.assert_allclose(moved, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [3, -5])
def test_pose_buckets_shift_by_whole_cells(k):
    """Poses moved by k cells of a power-of-two grid, on every axis: each
    bucket keeps its rows and its A_w (distinct recordings), and its key's
    three cells grow by k.  The first two poses, at x = -0.1 and 0.1, lie
    in two cells; truncating in place of flooring would pool them."""
    cfg = dataclasses.replace(CFG, pose_grid_m=0.25)
    rng = np.random.default_rng(11)
    m = 40
    cells = rng.integers(-3, 3, (6, 3))[rng.integers(0, 6, m)]
    pose_p = (cells + rng.uniform(0.1, 0.9, (m, 3))) * cfg.pose_grid_m
    pose_o = rng.choice([0.0, 20.0, 50.0], (m, 3))
    pose_p[:2], pose_o[:2] = [[-0.1, 0.3, 0.3], [0.1, 0.3, 0.3]], 0.0
    fixations = Fixations(recording=rng.choice(["s00", "s01", "s02"], m),
                          cluster=np.arange(m), position=np.zeros((m, 3)),
                          pose_p=pose_p, pose_o=pose_o,
                          duration=np.full(m, 0.2), weight=np.ones(m))
    moved = dataclasses.replace(fixations,
                                pose_p=pose_p + k * cfg.pose_grid_m)

    def shifted(key):
        *xyz, a, e = key.split("_")
        return "_".join([*(str(int(c) + k) for c in xyz), a, e])

    def a_w(table):
        keys = pose_groups(table, cfg, per_recording=True)
        return collections.Counter(bucket for _, bucket in keys)

    want = pose_groups(fixations, cfg)
    got = pose_groups(moved, cfg)
    assert 1 < len(want) < m and sum(map(len, want.values())) == m
    assert {shifted(key): rows.tolist() for key, rows in want.items()} == \
        {key: rows.tolist() for key, rows in got.items()}
    assert {shifted(key): n for key, n in a_w(fixations).items()} == a_w(moved)
