"""Ray-cast visibility against an exhaustive Moller-Trumbore reference and
the analytic rule on convex meshes."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest
from conftest import (convex_oracle, facing_pose, intersect_brute,
                      occlusion_oracle, view_candidates)

from meshgaze import visibility as visibility_module
from meshgaze.mesh import Mesh, bounding_box_diagonal
from meshgaze.primitives import bumpy_sphere, icosphere
from meshgaze.visibility import (CameraModel, ViewPose, VisibilityError,
                                 camera_from_config, load_visibility,
                                 pose_hash, save_visibility, visible_points)

FRONT_TRI = Mesh(
    vertices=np.array([[-0.1, -0.1, 1.0], [0.1, -0.1, 1.0], [0.0, 0.1, 1.0]]),
    triangles=np.array([[0, 2, 1]]),   # wound so the normal faces -z
)

ORIGIN_POSE = ViewPose(p=np.zeros(3), o_deg=np.zeros(3))


def test_front_triangle_fully_visible():
    vs = visible_points(FRONT_TRI, ORIGIN_POSE)
    assert vs.mask.tolist() == [True, True, True]
    np.testing.assert_array_equal(vs.ids, [0, 1, 2])
    assert not vs.empty


def test_back_facing_triangle_invisible():
    flipped = Mesh(vertices=FRONT_TRI.vertices.copy(),
                   triangles=np.array([[0, 1, 2]]))
    vs = visible_points(flipped, ORIGIN_POSE)
    assert vs.mask.sum() == 0 and vs.empty and vs.center is None


def test_vertices_behind_camera_excluded():
    verts = np.vstack([FRONT_TRI.vertices,
                       FRONT_TRI.vertices - np.array([0.0, 0.0, 2.0])])
    tris = np.array([[0, 2, 1], [3, 5, 4]])
    vs = visible_points(Mesh(vertices=verts, triangles=tris), ORIGIN_POSE)
    assert vs.mask.tolist() == [True, True, True, False, False, False]


def test_vertex_outside_fov_excluded():
    cam = CameraModel(hfov_deg=60.0, vfov_deg=60.0)
    verts = np.array([[0.0, 0.0, 1.0], [0.7, 0.0, 1.0], [0.0, 0.1, 1.0]])
    mesh = Mesh(vertices=verts, triangles=np.array([[0, 2, 1]]))
    vs = visible_points(mesh, ViewPose(p=np.zeros(3), o_deg=np.zeros(3),
                                       camera=cam))
    # tan(30 deg) ~= 0.577, so x/z = 0.7 projects outside the image
    assert vs.mask.tolist() == [True, False, True]


def test_small_triangle_occluded_by_large_one():
    verts = np.array([
        [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [0.0, 1.2, 1.0],   # occluder
        [-0.1, -0.1, 2.0], [0.1, -0.1, 2.0], [0.0, 0.1, 2.0],   # hidden
    ])
    tris = np.array([[0, 2, 1], [3, 5, 4]])
    vs = visible_points(Mesh(vertices=verts, triangles=tris), ORIGIN_POSE)
    assert vs.mask[:3].all()
    assert not vs.mask[3:].any()


def test_coplanar_neighbor_does_not_occlude():
    # planar quad: each vertex's sight ray may touch the other triangle of
    # the quad, whose plane passes exactly through the vertex
    verts = np.array([[-0.2, -0.2, 1.0], [0.2, -0.2, 1.0],
                      [0.2, 0.2, 1.0], [-0.2, 0.2, 1.0]])
    tris = np.array([[0, 2, 1], [0, 3, 2]])
    vs = visible_points(Mesh(vertices=verts, triangles=tris), ORIGIN_POSE)
    assert vs.mask.all()


def test_sphere_agreement_with_ray_oracle(sphere3):
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    vs = visible_points(sphere3, pose)
    ref = occlusion_oracle(sphere3, pose)
    agreement = float((vs.mask == ref).mean())
    assert agreement >= 0.99
    # the visible side faces the viewer: every visible vertex is in front
    # of the sphere's center plane by at least the cap-boundary margin
    center = np.array([0.0, 1.5, 0.0])
    toward = (pose.p - center) / np.linalg.norm(pose.p - center)
    depth = (sphere3.vertices[vs.ids] - center) @ toward
    assert depth.min() > 0.0


def test_near_and_far_pole_of_sphere(sphere3):
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    vs = visible_points(sphere3, pose)
    near_pole = int(np.argmin(np.linalg.norm(
        sphere3.vertices - np.array([0.0, 1.5, -0.3]), axis=1)))
    far_pole = int(np.argmin(np.linalg.norm(
        sphere3.vertices - np.array([0.0, 1.5, 0.3]), axis=1)))
    assert vs.mask[near_pole]
    assert not vs.mask[far_pole]


def test_visible_center_is_member_mean(sphere3):
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    vs = visible_points(sphere3, pose)
    want = sphere3.vertices[vs.ids].mean(axis=0)
    np.testing.assert_allclose(vs.center, want, atol=1e-12)


def test_empty_visible_set(sphere3):
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.array([0.0, 180.0, 0.0]))
    vs = visible_points(sphere3, pose)
    assert vs.empty and vs.center is None and len(vs.ids) == 0


def test_oracle_beats_chance_on_sphere(sphere3):
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    ref = occlusion_oracle(sphere3, pose)
    # close to half the sphere faces a distant viewer
    frac = ref.mean()
    assert 0.3 < frac < 0.6


def test_oracle_matches_per_vertex_brute_any_hit():
    """The Moller-Trumbore oracle and visible_points against one watertight
    exhaustive scan per candidate vertex: hidden iff some triangle is hit
    more than eps before the vertex."""
    rng = np.random.default_rng(77)
    for mesh in (icosphere(3), bumpy_sphere(3, seed=5)):
        eps = 1e-3 * bounding_box_diagonal(mesh)
        for _ in range(4):
            u = rng.standard_normal(3)
            pose = facing_pose(np.array([0.0, 1.5, 0.0])
                               + rng.uniform(1.0, 2.0) * u / np.linalg.norm(u))
            want = np.zeros(len(mesh.vertices), dtype=bool)
            ids, dirs, dist = view_candidates(mesh, pose)
            for v, d, tv in zip(ids, dirs, dist):
                hit = intersect_brute(mesh.vertices, mesh.triangles, pose.p, d)
                want[v] = hit is None or not hit[0] < tv - eps
            np.testing.assert_array_equal(occlusion_oracle(mesh, pose), want)
            np.testing.assert_array_equal(visible_points(mesh, pose).mask, want)
            assert 0.15 < want.mean() < 0.7


def test_every_candidate_visible_on_convex_icosphere():
    """On a convex mesh every in-frustum, front-facing vertex is visible."""
    mesh = icosphere(5)
    pose = facing_pose(np.array([0.0, 1.5, -1.2]))
    want = convex_oracle(mesh, pose)
    assert want.sum() == 3841
    np.testing.assert_array_equal(visible_points(mesh, pose).mask, want)


# ---------------------------------------------------------------------------
# camera and pose plumbing

def test_camera_validation():
    with pytest.raises(VisibilityError):
        CameraModel(hfov_deg=0.0)
    with pytest.raises(VisibilityError):
        CameraModel(vfov_deg=180.0)
    with pytest.raises(VisibilityError):
        CameraModel(near=0.0)
    with pytest.raises(VisibilityError,
                       match=r"^near must be a finite number, got inf$"):
        CameraModel(near=float("inf"))
    # several bad fields: the first declared is reported
    with pytest.raises(VisibilityError,
                       match=r"^hfov_deg must lie in \(0, 180\) degrees$"):
        CameraModel(hfov_deg=180.0, near=-1.0)


def test_camera_from_config(cfg):
    cam = camera_from_config(cfg)
    assert (cam.hfov_deg, cam.vfov_deg) == (cfg.cam_hfov_deg, cfg.cam_vfov_deg)
    assert cam.near == cfg.cam_near


def test_pose_hash_stability_and_sensitivity():
    a = ViewPose(p=np.array([0.0, 1.6, -1.5]), o_deg=np.array([0.0, 30.0, 0.0]))
    b = ViewPose(p=np.array([0.0, 1.6, -1.5]), o_deg=np.array([0.0, 30.0, 0.0]))
    assert pose_hash(a) == pose_hash(b)
    assert len(pose_hash(a)) == 12
    assert set(pose_hash(a)) <= set("0123456789abcdef")
    c = ViewPose(p=np.array([0.0, 1.6, -1.5]), o_deg=np.array([0.0, 30.001, 0.0]))
    assert pose_hash(a) != pose_hash(c)
    d = ViewPose(p=a.p, o_deg=a.o_deg,
                 camera=CameraModel(near=0.051))
    assert pose_hash(a) != pose_hash(d)
    # pinned: output file names must not move between versions
    assert pose_hash(a) == "abba5e683fba"


def test_pose_hash_builtin_sha1_matches_hashlib(monkeypatch):
    """Pose ids come from the interpreter's builtin _sha1 where it exists,
    which loads no OpenSSL; they must equal hashlib.sha1's."""
    rng = np.random.default_rng(7)
    poses = [ViewPose(p=rng.normal(size=3), o_deg=rng.uniform(-180, 180, 3),
                      camera=CameraModel(hfov_deg=h, near=near))
             for h, near in ((90.0, 0.05), (63.5, 0.01), (120.0, 0.3))]
    ids = [pose_hash(pose) for pose in poses]
    monkeypatch.setattr(visibility_module, "sha1", hashlib.sha1)
    assert [pose_hash(pose) for pose in poses] == ids
    assert len(set(ids)) == 3


def test_visibility_file_roundtrip(tmp_path, sphere2):
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    vs = visible_points(sphere2, pose)
    path = tmp_path / "vis.csv"
    save_visibility(path, vs)
    loaded = load_visibility(path)
    np.testing.assert_array_equal(loaded, vs.mask)


def test_visibility_file_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,seen\n0,1\n")
    with pytest.raises(VisibilityError):
        load_visibility(path)
