"""Gaussian splatting, map correlation, pose buckets, and ground truth."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import pose_bucket_oracle, splat_oracle, traced_peak

from meshgaze.fdm import (FdmError, build_ground_truth, load_map_csv, plcc,
                          pose_buckets, save_map_csv, save_map_ply, splat_fdm,
                          values_to_colors)
from meshgaze.fixation import Fixations
from meshgaze.mesh import Mesh, load_mesh
from meshgaze.primitives import bumpy_sphere, plane_grid
from meshgaze.visibility import VisibleSet

SIGMA = 0.03


def fix(positions, weight=1, recording="s1"):
    """A Fixations table at the given positions, all from one head pose;
    weight and recording are one value or one per row."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(pos)
    return Fixations(recording=np.broadcast_to(np.asarray(recording, dtype=object), n),
                     cluster=np.arange(n), position=pos,
                     pose_p=np.tile([0.0, 1.6, -1.5], (n, 1)),
                     pose_o=np.zeros((n, 3)), duration=np.full(n, 0.2),
                     weight=np.broadcast_to(weight, n))


def bucket_of(pose_p, pose_o):
    """The bucket key of one pose."""
    return pose_buckets(pose_p, pose_o)[0]


@pytest.fixture(scope="module")
def plane():
    # 41 x 41 vertices, spacing 0.025: dense enough that a sigma-sized
    # bump touches many vertices; vertex 840 is the exact center
    return plane_grid(40, 40, size=1.0, center=(0.0, 1.5, 0.0))


# ---------------------------------------------------------------------------
# splatting

def test_splat_value_at_fixated_vertex(plane):
    v = plane.vertices[840]
    values = splat_fdm(plane, fix(v), SIGMA)
    assert values[840] == pytest.approx(1.0, abs=1e-12)


def test_splat_value_one_sigma_away(plane):
    v = plane.vertices[840]
    values = splat_fdm(plane, fix(v + np.array([SIGMA, 0.0, 0.0])), SIGMA)
    assert values[840] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_splat_weight_scales_linearly(plane):
    v = plane.vertices[840]
    one = splat_fdm(plane, fix(v, weight=1), SIGMA)
    two = splat_fdm(plane, fix(v, weight=2), SIGMA)
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-15)


def test_splat_additive_and_order_invariant(plane):
    pts = fix(plane.vertices[[100, 900, 1500]], weight=[1, 1, 3])
    together = splat_fdm(plane, pts, SIGMA)
    separate = sum(splat_fdm(plane, pts[[k]], SIGMA) for k in range(3))
    np.testing.assert_allclose(together, separate, rtol=1e-12, atol=1e-300)
    shuffled = splat_fdm(plane, pts[[2, 0, 1]], SIGMA)
    np.testing.assert_allclose(together, shuffled, rtol=1e-12)


def test_splat_truncation_error_bounds(plane):
    """Cutoff error vs an untruncated splat, relative to the map peak.

    Every dropped contribution is below exp(-cutoff^2/2) of its fixation's
    weight: ~3.4e-4 at the default 4 sigma, and under 1e-6 at 5.5 sigma.
    """
    pts = fix(plane.vertices[[840, 860]], weight=[1, 2])
    total_weight = 3.0
    full = splat_fdm(plane, pts, SIGMA, cutoff_sigmas=1e9)
    peak = full.max()

    t4 = splat_fdm(plane, pts, SIGMA)                         # default 4 sigma
    err4 = np.abs(t4 - full).max()
    assert err4 <= np.exp(-8.0) * total_weight * (1.0 + 1e-12)
    assert err4 > 0.0                                         # truncation bites

    t55 = splat_fdm(plane, pts, SIGMA, cutoff_sigmas=5.5)
    err55 = np.abs(t55 - full).max()
    assert err55 < 1e-6 * peak

    far = np.linalg.norm(plane.vertices - plane.vertices[840], axis=1) > 0.5
    assert (t4[far] == 0.0).any()


def kdtree_splat(mesh, fixations, sigma, cutoff_sigmas=4.0):
    """The k-d tree splat: query_ball_point selects each fixation's
    vertices, then the same weight formula in the same fixation order."""
    from scipy.spatial import cKDTree
    tree = cKDTree(mesh.vertices)
    values = np.zeros(len(mesh.vertices))
    for position, weight in zip(fixations.position, fixations.weight.tolist()):
        ids = np.asarray(tree.query_ball_point(position, cutoff_sigmas * sigma),
                         dtype=np.int64)
        if len(ids):
            d2 = np.sum((mesh.vertices[ids] - position) ** 2, axis=1)
            values[ids] += weight * np.exp(-d2 / (2.0 * sigma * sigma))
    return values


@pytest.mark.parametrize("mesh,sigma", [
    (plane_grid(60, 60, size=1.0), 0.025),     # radius = 6 grid steps
    (bumpy_sphere(4), 0.035),
], ids=["plane_grid", "bumpy_sphere"])
def test_splat_selection_matches_kdtree_on_the_boundary(mesh, sigma):
    """The direct distance pass selects exactly query_ball_point's vertices,
    including fixations placed at the truncation radius from a vertex, and
    every vertex's sum is bit-identical."""
    from scipy.spatial import cKDTree
    tree = cKDTree(mesh.vertices)
    radius = 4.0 * sigma
    rng = np.random.default_rng(606)
    anchors = rng.integers(0, len(mesh.vertices), 1000)
    u = rng.standard_normal((1000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    # half on a sphere of the radius around a vertex; half on the grid's
    # axes, where whole vertex rows sit exactly one radius away
    axes = np.eye(3)[rng.integers(0, 3, 500)] * rng.choice([-1.0, 1.0], (500, 1))
    u[500:] = axes
    points = mesh.vertices[anchors] + radius * u
    fixations = fix(points, weight=rng.integers(1, 4, len(points)))
    on_edge = 0
    for k, position in enumerate(points):
        want = sorted(tree.query_ball_point(position, radius))
        got = np.nonzero(splat_fdm(mesh, fixations[[k]], sigma))[0]
        assert got.tolist() == want
        d = np.linalg.norm(mesh.vertices[want] - position, axis=1)
        on_edge += int((np.abs(d - radius) < 1e-12).any())
    assert on_edge > 100
    np.testing.assert_array_equal(splat_fdm(mesh, fixations, sigma),
                                  kdtree_splat(mesh, fixations, sigma))


def test_splat_matches_per_fixation_oracle():
    """The block-wise splat adds each vertex's contributions in table order,
    so it gives the per-fixation loop's bytes, across several blocks."""
    mesh = bumpy_sphere(4)
    rng = np.random.default_rng(707)
    anchors = rng.integers(0, len(mesh.vertices), 300)
    points = mesh.vertices[anchors] + rng.normal(scale=0.05, size=(300, 3))
    points[::7] = mesh.vertices[anchors[::7]]
    weights = rng.integers(1, 5, 300)
    for sigma, cutoff in ((0.035, 4.0), (0.2, 3.0), (0.01, 1e9)):
        got = splat_fdm(mesh, fix(points, weight=weights), sigma, cutoff)
        np.testing.assert_array_equal(
            got, splat_oracle(mesh, points, weights, sigma, cutoff))


def test_splat_blocks_bound_traced_memory():
    """Each splat block's (fixations, n, 3) difference holds about
    BLOCK_ELEMENTS: 300 fixations on bumpy_sphere(4) allocate 0.31 MB
    traced at the peak, where blocks of 2^17 fixation-vertex pairs took
    5.3 MB."""
    mesh = bumpy_sphere(4)
    rng = np.random.default_rng(8)
    points = mesh.vertices[rng.integers(0, len(mesh.vertices), 300)]
    values, peak = traced_peak(lambda: splat_fdm(mesh, fix(points), 0.035))
    assert (values > 0).sum() > 1000
    assert peak < 0.4e6


def test_splat_zero_mass_is_flagged(plane):
    """No fixations give the all-zero map that the CLI warns about."""
    empty = splat_fdm(plane, fix(np.empty((0, 3))), SIGMA)
    assert empty.shape == (len(plane.vertices),) and (empty == 0).all()
    # a fixation farther than the cutoff from every vertex contributes nothing
    orphan = splat_fdm(plane, fix((50.0, 50.0, 50.0)), SIGMA)
    assert (orphan == 0).all()


def test_splat_rejects_bad_sigma(plane):
    with pytest.raises(FdmError):
        splat_fdm(plane, fix(np.empty((0, 3))), 0.0)


def test_splat_rejects_sigma_whose_variance_underflows(plane):
    """A sigma whose 2 sigma^2 underflows to 0 is an error naming sigma_fdm;
    a fixation on a vertex used to give that vertex 0/0 = NaN."""
    with pytest.raises(FdmError, match=r"sigma_fdm must be positive, with 2 "
                       r"sigma_fdm\^2 a normal float, got 1e-300"):
        splat_fdm(plane, fix(plane.vertices[840]), 1e-300)


# ---------------------------------------------------------------------------
# correlation

def test_plcc_identity_and_affine():
    rng = np.random.default_rng(7)
    a = rng.random(50)
    assert plcc(a, a) == pytest.approx(1.0, abs=1e-12)
    assert plcc(a, 3.0 * a + 2.0) == pytest.approx(1.0, abs=1e-12)
    assert plcc(a, -a) == pytest.approx(-1.0, abs=1e-12)


def test_plcc_hand_value():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    b = np.array([1.0, 2.0, 3.0, 100.0])
    # straight Pearson formula, computed independently
    want = np.corrcoef(a, b)[0, 1]
    assert plcc(a, b) == pytest.approx(want, abs=1e-12)


def test_plcc_errors():
    with pytest.raises(FdmError):
        plcc(np.ones(3), np.ones(4))
    with pytest.raises(FdmError):
        plcc(np.ones(5), np.arange(5.0))          # zero variance
    with pytest.raises(FdmError):
        plcc(np.array([1.0]), np.array([2.0]))    # single point


# ---------------------------------------------------------------------------
# pose buckets

def test_pose_bucket_known_key():
    assert bucket_of((0.0, 1.6, -1.5), (0.0, 0.0, 0.0)) == "0_6_-6_a3_e3"


def test_pose_bucket_groups_nearby_poses():
    a = bucket_of((0.01, 1.6, -1.5), (0.0, 1.0, 0.0))
    b = bucket_of((0.2, 1.7, -1.4), (0.0, 14.0, 0.0))
    assert a == b


def test_pose_bucket_splits_distant_poses():
    base = bucket_of((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    assert bucket_of((1.0, 1.6, -1.5), (0.0, 0.0, 0.0)) != base
    assert bucket_of((0.0, 1.6, -1.5), (0.0, 90.0, 0.0)) != base
    assert bucket_of((0.0, 1.6, -1.5), (60.0, 0.0, 0.0)) != base


def test_pose_buckets_match_the_one_pose_oracle():
    """One stacked call gives every pose the key it gets alone, on random
    poses and on poses at bin edges: positions on grid lines, headings
    and pitches at multiples of 15 degrees, the poles."""
    rng = np.random.default_rng(808)
    p = rng.uniform(-3.0, 3.0, size=(600, 3))
    p[::3] = np.round(p[::3] * 4.0) / 4.0
    o = rng.uniform(-180.0, 180.0, size=(600, 3))
    o[::2] = rng.integers(-24, 25, size=(300, 3)) * 15.0
    o[1::50, 0] = 90.0
    o[3::50, 0] = -90.0
    for grid, angle in ((0.25, 30.0), (0.1, 45.0), (1.0, 7.0)):
        want = [pose_bucket_oracle(a, b, grid, angle) for a, b in zip(p, o)]
        assert pose_buckets(p, o, grid, angle) == want
    assert pose_buckets(np.empty((0, 3)), np.empty((0, 3))) == []


def test_pose_bucket_elevation_poles_stay_in_range():
    up = bucket_of((0.0, 0.0, 0.0), (-90.0, 0.0, 0.0))
    down = bucket_of((0.0, 0.0, 0.0), (90.0, 0.0, 0.0))
    assert up.endswith("_e5") and down.endswith("_e0")


def test_pose_bins_beyond_float_range_raise():
    """A grid or angle bin so fine that a bin index or the azimuth bin count
    overflows to infinity, or reaches 2**53 where float64 stops telling
    neighbouring bins apart, is an FdmError, not an OverflowError or a
    bucket key hundreds of digits long."""
    pose = ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    for grid, angle in ((1e-309, 30.0), (0.25, 1e-320),
                        (1e-300, 30.0), (0.25, 1e-300)):
        with pytest.raises(FdmError, match="pose bins overflow"):
            pose_buckets(*pose, grid, angle)
    assert pose_buckets(*pose, 1e-15, 1e-13)        # fine but exact bins


# ---------------------------------------------------------------------------
# ground truth

def _full_visibility(mesh):
    n = len(mesh.vertices)
    mask = np.ones(n, dtype=bool)
    return VisibleSet(ids=np.arange(n, dtype=np.int64), mask=mask,
                      center=mesh.vertices.mean(axis=0))


def test_ground_truth_pools_matching_subjects(plane):
    key = bucket_of((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    tagged = fix(plane.vertices[[840, 840, 850]], recording=["s1", "s2", "s2"])
    values, a_w = build_ground_truth(plane, tagged, key,
                                     _full_visibility(plane), SIGMA)
    assert a_w == 2
    # the pooled map equals the 3-fixation sum
    want = splat_fdm(plane, tagged, SIGMA)
    np.testing.assert_allclose(values, want, rtol=1e-12)


def test_ground_truth_zeroes_outside_visible_set(plane):
    key = bucket_of((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    n = len(plane.vertices)
    mask = np.zeros(n, dtype=bool)
    mask[840] = True
    vs = VisibleSet(ids=np.array([840]), mask=mask,
                    center=plane.vertices[840])
    values, _ = build_ground_truth(plane, fix(plane.vertices[840]), key,
                                   vs, SIGMA)
    assert values[840] == pytest.approx(1.0, abs=1e-12)
    off = np.ones(n, dtype=bool)
    off[840] = False
    assert (values[off] == 0.0).all()


def test_ground_truth_invisible_fixations_flagged(plane):
    key = bucket_of((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    n = len(plane.vertices)
    mask = np.zeros(n, dtype=bool)
    mask[0] = True   # visible region far from the fixation
    vs = VisibleSet(ids=np.array([0]), mask=mask, center=plane.vertices[0])
    values, a_w = build_ground_truth(plane, fix(plane.vertices[840]), key,
                                     vs, SIGMA)
    assert (values == 0.0).all() and a_w == 1


def test_ground_truth_empty_bucket_raises(plane):
    with pytest.raises(FdmError, match="bucket"):
        build_ground_truth(plane, fix(np.empty((0, 3))), "9_9_9_a0_e0",
                           _full_visibility(plane),
                           SIGMA)


# ---------------------------------------------------------------------------
# exports

def test_values_to_colors_endpoints():
    colors = values_to_colors(np.array([0.0, 0.5, 1.0]))
    assert colors.dtype == np.uint8
    np.testing.assert_array_equal(colors[0], [0, 0, 255])
    np.testing.assert_array_equal(colors[2], [255, 0, 0])
    assert colors[1, 0] == 128 and colors[1, 2] == 128


def test_values_to_colors_constant_field():
    colors = values_to_colors(np.full(4, 3.3))
    np.testing.assert_array_equal(colors[:, 0], 0)
    np.testing.assert_array_equal(colors[:, 2], 255)


def test_map_csv_roundtrip(tmp_path):
    values = np.array([0.0, 1.0 / 3.0, 0.1 + 0.2, 7.25e-19])
    path = tmp_path / "map.csv"
    save_map_csv(path, values)
    loaded = load_map_csv(path)
    np.testing.assert_array_equal(loaded, values)   # repr() is lossless


def test_map_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("vid,value\n0,1.0\n")
    with pytest.raises(FdmError):
        load_map_csv(path)


def test_map_ply_written_and_loadable(tmp_path, sphere2):
    values = np.linspace(0.0, 1.0, len(sphere2.vertices))
    path = tmp_path / "map.ply"
    save_map_ply(path, sphere2, values)
    again = load_mesh(path)
    np.testing.assert_allclose(again.vertices, sphere2.vertices)
    np.testing.assert_array_equal(again.triangles, sphere2.triangles)
