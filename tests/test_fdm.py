"""Gaussian splatting, map correlation, pose buckets, and ground truth."""
from __future__ import annotations

import numpy as np
import pytest

from meshgaze.fdm import (FdmError, FixationDensityMap, build_ground_truth,
                          load_map_csv, plcc, pose_bucket, save_map_csv,
                          save_map_ply, splat_fdm, values_to_colors)
from meshgaze.fixation import FixationPoint
from meshgaze.mesh import Mesh, load_mesh
from meshgaze.primitives import bumpy_sphere, plane_grid
from meshgaze.visibility import VisibleSet

SIGMA = 0.03


def fp(pos, weight=1, pose_p=(0.0, 1.6, -1.5), pose_o=(0.0, 0.0, 0.0)):
    return FixationPoint(position=np.asarray(pos, dtype=float),
                         pose_p=np.asarray(pose_p, dtype=float),
                         pose_o=np.asarray(pose_o, dtype=float),
                         duration=0.2, weight=weight)


@pytest.fixture(scope="module")
def plane():
    # 41 x 41 vertices, spacing 0.025: dense enough that a sigma-sized
    # bump touches many vertices; vertex 840 is the exact center
    return plane_grid(40, 40, size=1.0, center=(0.0, 1.5, 0.0))


# ---------------------------------------------------------------------------
# splatting

def test_splat_value_at_fixated_vertex(plane):
    v = plane.vertices[840]
    fdm = splat_fdm(plane, [fp(v)], SIGMA)
    assert fdm.values[840] == pytest.approx(1.0, abs=1e-12)
    assert not fdm.flagged


def test_splat_value_one_sigma_away(plane):
    v = plane.vertices[840]
    fdm = splat_fdm(plane, [fp(v + np.array([SIGMA, 0.0, 0.0]))], SIGMA)
    assert fdm.values[840] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_splat_weight_scales_linearly(plane):
    v = plane.vertices[840]
    one = splat_fdm(plane, [fp(v, weight=1)], SIGMA)
    two = splat_fdm(plane, [fp(v, weight=2)], SIGMA)
    np.testing.assert_allclose(two.values, 2.0 * one.values, rtol=1e-15)


def test_splat_additive_and_order_invariant(plane):
    pts = [fp(plane.vertices[100]), fp(plane.vertices[900]),
           fp(plane.vertices[1500], weight=3)]
    together = splat_fdm(plane, pts, SIGMA)
    separate = sum(splat_fdm(plane, [p], SIGMA).values for p in pts)
    np.testing.assert_allclose(together.values, separate, rtol=1e-12, atol=1e-300)
    shuffled = splat_fdm(plane, [pts[2], pts[0], pts[1]], SIGMA)
    np.testing.assert_allclose(together.values, shuffled.values, rtol=1e-12)


def test_splat_truncation_error_bounds(plane):
    """Cutoff error vs an untruncated splat, relative to the map peak.

    Every dropped contribution is below exp(-cutoff^2/2) of its fixation's
    weight: ~3.4e-4 at the default 4 sigma, and under 1e-6 at 5.5 sigma.
    """
    pts = [fp(plane.vertices[840]), fp(plane.vertices[860], weight=2)]
    total_weight = 3.0
    full = splat_fdm(plane, pts, SIGMA, cutoff_sigmas=1e9)
    peak = full.values.max()

    t4 = splat_fdm(plane, pts, SIGMA)                         # default 4 sigma
    err4 = np.abs(t4.values - full.values).max()
    assert err4 <= np.exp(-8.0) * total_weight * (1.0 + 1e-12)
    assert err4 > 0.0                                         # truncation bites

    t55 = splat_fdm(plane, pts, SIGMA, cutoff_sigmas=5.5)
    err55 = np.abs(t55.values - full.values).max()
    assert err55 < 1e-6 * peak

    far = np.linalg.norm(plane.vertices - plane.vertices[840], axis=1) > 0.5
    assert (t4.values[far] == 0.0).any()


def kdtree_splat(mesh, fixations, sigma, cutoff_sigmas=4.0):
    """The k-d tree splat: query_ball_point selects each fixation's
    vertices, then the same weight formula in the same fixation order."""
    from scipy.spatial import cKDTree
    tree = cKDTree(mesh.vertices)
    values = np.zeros(len(mesh.vertices))
    for f in fixations:
        ids = np.asarray(tree.query_ball_point(f.position, cutoff_sigmas * sigma),
                         dtype=np.int64)
        if len(ids):
            d2 = np.sum((mesh.vertices[ids] - f.position) ** 2, axis=1)
            values[ids] += f.weight * np.exp(-d2 / (2.0 * sigma * sigma))
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
    fixations = [fp(x, weight=int(w)) for x, w in
                 zip(points, rng.integers(1, 4, len(points)))]
    on_edge = 0
    for f in fixations:
        want = sorted(tree.query_ball_point(f.position, radius))
        got = np.nonzero(splat_fdm(mesh, [f], sigma).values)[0]
        assert got.tolist() == want
        d = np.linalg.norm(mesh.vertices[want] - f.position, axis=1)
        on_edge += int((np.abs(d - radius) < 1e-12).any())
    assert on_edge > 100
    np.testing.assert_array_equal(splat_fdm(mesh, fixations, sigma).values,
                                  kdtree_splat(mesh, fixations, sigma))


def test_splat_zero_mass_is_flagged(plane):
    empty = splat_fdm(plane, [], SIGMA)
    assert empty.flagged and (empty.values == 0).all()
    # a fixation farther than the cutoff from every vertex contributes nothing
    orphan = splat_fdm(plane, [fp((50.0, 50.0, 50.0))], SIGMA)
    assert orphan.flagged and (orphan.values == 0).all()


def test_splat_rejects_bad_sigma(plane):
    with pytest.raises(FdmError):
        splat_fdm(plane, [], 0.0)


def test_density_map_rejects_negative_values():
    with pytest.raises(FdmError):
        FixationDensityMap(values=np.array([0.5, -0.1]))


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


def test_plcc_domain_restriction():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    dom = np.array([True, True, False, False, False])
    assert plcc(a, b, domain=dom) == pytest.approx(-1.0, abs=1e-12)
    assert plcc(a, b, domain=np.array([0, 1])) == pytest.approx(-1.0, abs=1e-12)


def test_plcc_errors():
    with pytest.raises(FdmError):
        plcc(np.ones(3), np.ones(4))
    with pytest.raises(FdmError):
        plcc(np.ones(5), np.arange(5.0))          # zero variance
    with pytest.raises(FdmError):
        plcc(np.array([1.0]), np.array([2.0]))    # single point


def test_plcc_accepts_density_maps():
    a = FixationDensityMap(values=np.array([0.0, 1.0, 2.0]))
    b = FixationDensityMap(values=np.array([0.0, 2.0, 4.0]))
    assert plcc(a, b) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# pose buckets

def test_pose_bucket_known_key():
    assert pose_bucket((0.0, 1.6, -1.5), (0.0, 0.0, 0.0)) == "0_6_-6_a3_e3"


def test_pose_bucket_groups_nearby_poses():
    a = pose_bucket((0.01, 1.6, -1.5), (0.0, 1.0, 0.0))
    b = pose_bucket((0.2, 1.7, -1.4), (0.0, 14.0, 0.0))
    assert a == b


def test_pose_bucket_splits_distant_poses():
    base = pose_bucket((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    assert pose_bucket((1.0, 1.6, -1.5), (0.0, 0.0, 0.0)) != base
    assert pose_bucket((0.0, 1.6, -1.5), (0.0, 90.0, 0.0)) != base
    assert pose_bucket((0.0, 1.6, -1.5), (60.0, 0.0, 0.0)) != base


def test_pose_bucket_elevation_poles_stay_in_range():
    up = pose_bucket((0.0, 0.0, 0.0), (-90.0, 0.0, 0.0))
    down = pose_bucket((0.0, 0.0, 0.0), (90.0, 0.0, 0.0))
    assert up.endswith("_e5") and down.endswith("_e0")


# ---------------------------------------------------------------------------
# ground truth

def _full_visibility(mesh):
    n = len(mesh.vertices)
    mask = np.ones(n, dtype=bool)
    return VisibleSet(ids=np.arange(n, dtype=np.int64), mask=mask,
                      center=mesh.vertices.mean(axis=0))


def test_ground_truth_pools_matching_subjects(plane):
    key = pose_bucket((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    tagged = [
        ("s1", fp(plane.vertices[840])),
        ("s2", fp(plane.vertices[840])),
        ("s2", fp(plane.vertices[850])),
        ("s3", fp(plane.vertices[840], pose_p=(5.0, 1.6, -1.5))),  # other bucket
    ]
    gt = build_ground_truth(plane, tagged, key, _full_visibility(plane),
                            SIGMA)
    assert gt.a_w == 2
    assert gt.pose_id == key
    # s3's fixation was excluded: the pooled map equals the 3-fixation sum
    want = splat_fdm(plane, [t[1] for t in tagged[:3]], SIGMA)
    np.testing.assert_allclose(gt.map.values, want.values, rtol=1e-12)


def test_ground_truth_zeroes_outside_visible_set(plane):
    key = pose_bucket((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    n = len(plane.vertices)
    mask = np.zeros(n, dtype=bool)
    mask[840] = True
    vs = VisibleSet(ids=np.array([840]), mask=mask,
                    center=plane.vertices[840])
    gt = build_ground_truth(plane, [("s1", fp(plane.vertices[840]))], key,
                            vs, SIGMA)
    assert gt.map.values[840] == pytest.approx(1.0, abs=1e-12)
    off = np.ones(n, dtype=bool)
    off[840] = False
    assert (gt.map.values[off] == 0.0).all()
    assert not gt.map.flagged


def test_ground_truth_invisible_fixations_flagged(plane):
    key = pose_bucket((0.0, 1.6, -1.5), (0.0, 0.0, 0.0))
    n = len(plane.vertices)
    mask = np.zeros(n, dtype=bool)
    mask[0] = True   # visible region far from the fixation
    vs = VisibleSet(ids=np.array([0]), mask=mask, center=plane.vertices[0])
    gt = build_ground_truth(plane, [("s1", fp(plane.vertices[840]))], key,
                            vs, SIGMA)
    assert gt.map.flagged
    assert (gt.map.values == 0.0).all()


def test_ground_truth_empty_bucket_raises(plane):
    with pytest.raises(FdmError, match="bucket"):
        build_ground_truth(plane, [("s1", fp(plane.vertices[840]))],
                           "9_9_9_a0_e0", _full_visibility(plane), SIGMA)


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
