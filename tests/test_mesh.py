"""Mesh I/O, normals, and spatial queries."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshgaze import mesh as mesh_module
from meshgaze import primitives
from meshgaze.mesh import (Mesh, MeshError, bounding_box_diagonal, load_mesh,
                           radius_pair_blocks, radius_pairs, save_ply)

TRI_OBJ = """\
# minimal
v 0 0 0
v 1 0 0
v 0 1 0
f 1 2 3
"""

CUBE_PLY_VERTS = [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0)
                  for z in (0.0, 1.0)]


def _cube_ply_text():
    # 8 vertices, 12 triangles; windings are irrelevant for these tests
    faces = [(0, 1, 3), (0, 3, 2), (4, 6, 7), (4, 7, 5),
             (0, 4, 5), (0, 5, 1), (2, 3, 7), (2, 7, 6),
             (0, 2, 6), (0, 6, 4), (1, 5, 7), (1, 7, 3)]
    lines = ["ply", "format ascii 1.0", "element vertex 8",
             "property float x", "property float y", "property float z",
             "element face 12",
             "property list uchar int vertex_indices", "end_header"]
    lines += [f"{x} {y} {z}" for x, y, z in CUBE_PLY_VERTS]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def test_single_triangle_obj(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text(TRI_OBJ)
    mesh = load_mesh(path)
    assert mesh.vertices.shape == (3, 3)
    assert mesh.triangles.shape == (1, 3)
    np.testing.assert_array_equal(mesh.triangles[0], [0, 1, 2])


def test_obj_out_of_range_index(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def test_obj_quad_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 2


def test_obj_slash_indices(tmp_path):
    path = tmp_path / "slash.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nf 1/1 2/1 3/1\n")
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 1


def test_cube_ply_diagonal(tmp_path):
    path = tmp_path / "cube.ply"
    path.write_text(_cube_ply_text())
    mesh = load_mesh(path)
    assert len(mesh.vertices) == 8 and len(mesh.triangles) == 12
    assert bounding_box_diagonal(mesh) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_diagonal_trivia():
    assert bounding_box_diagonal(np.array([[0.0, 0, 0], [3, 4, 0]])) == 5.0
    assert bounding_box_diagonal(np.array([[2.0, 2, 2]])) == 0.0


def test_load_transform(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text(TRI_OBJ)
    mesh = load_mesh(path, scale=2.0, translate=(0.0, 1.5, 0.0))
    np.testing.assert_allclose(mesh.vertices[1], [2.0, 1.5, 0.0])


def test_ply_roundtrip_bit_exact(tmp_path, sphere2):
    path = tmp_path / "s.ply"
    save_ply(sphere2, path)
    again = load_mesh(path)
    np.testing.assert_array_equal(again.vertices, sphere2.vertices)
    np.testing.assert_array_equal(again.triangles, sphere2.triangles)
    # second save is byte-identical (deterministic formatting)
    text = path.read_text()
    save_ply(again, path)
    assert path.read_text() == text


def test_mesh_rejects_empty_and_bad_indices():
    with pytest.raises(MeshError):
        Mesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(MeshError):
        Mesh(np.zeros((3, 3)), np.array([[0, 1, 3]]))
    with pytest.raises(MeshError):
        Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [np.nan, 1, 0]]),
             np.array([[0, 1, 2]]))


def test_plane_normals_point_up():
    plane = primitives.plane_grid(5, 5, size=1.0, center=(0, 0, 0))
    np.testing.assert_allclose(plane.normals, np.tile([0.0, 1.0, 0.0], (36, 1)),
                               atol=1e-12)


def test_sphere_normals_radial(sphere3):
    radial = sphere3.vertices - np.array([0.0, 1.5, 0.0])
    radial /= np.linalg.norm(radial, axis=1, keepdims=True)
    cosang = np.einsum("ij,ij->i", sphere3.normals, radial)
    # within 5 degrees of the analytic direction
    assert cosang.min() > np.cos(np.radians(5.0))


def test_degenerate_triangle_flagged():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]])
    tris = np.array([[0, 1, 2], [3, 3, 3]])       # second has zero area
    mesh = Mesh(verts, tris)
    assert mesh.normal_flags[3]                   # only degenerate incidence
    assert not mesh.normal_flags[:3].any()
    assert np.linalg.norm(mesh.normals[:3] - [0, 0, 1], axis=1).max() < 1e-12


def test_normals_deterministic(sphere2):
    m2 = primitives.icosphere(2)
    np.testing.assert_array_equal(sphere2.normals, m2.normals)


# ---------------------------------------------------------------------------
# radius_pairs vs an exhaustive all-pairs scan

def all_pairs(pts, r):
    """Every (i, j), i != j, with (dx^2 + dy^2) + dz^2 <= r^2, by (i, j)."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    d = pts[None, :, :] - pts[:, None, :]
    d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]
    hit = (d2 <= float(r) * float(r)) & ~np.eye(len(pts), dtype=bool)
    return np.nonzero(hit)


def assert_pairs_exhaustive(pts, r):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = radius_pairs(pts, r)
    want = all_pairs(pts, r)
    assert got[0].dtype == got[1].dtype == np.int64
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


COORD = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.25, 1.0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pts=st.lists(st.tuples(COORD, COORD, COORD), max_size=40),
       r=st.one_of(st.floats(1e-3, 5.0), st.sampled_from([0.25, 0.5, 1.0])))
def test_radius_pairs_match_exhaustive_scan(pts, r):
    """Duplicated coordinates and radii that are distances between grid
    values put pairs on the boundary and points on cell edges."""
    assert_pairs_exhaustive(pts, r)


def test_radius_pairs_fixed_cases():
    line = np.array([[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0], [1.5, 0, 0]])
    assert_pairs_exhaustive(line, 0.5)                     # d == r exactly
    i, j = radius_pairs(line, 0.5)
    assert list(zip(i.tolist(), j.tolist())) == [
        (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]
    same = np.array([[0.1, 0.2, 0.3]] * 3 + [[0.1, 0.2, 0.4]])
    assert_pairs_exhaustive(same, 1e-6)                    # coincident points
    assert len(radius_pairs(same, 1e-6)[0]) == 6
    for n in (0, 1):
        assert_pairs_exhaustive(np.zeros((n, 3)), 1.0)
    rng = np.random.default_rng(7)
    cloud = rng.uniform(-1.0, 1.0, size=(60, 3))
    assert_pairs_exhaustive(cloud, 1e6)                    # r >> extent
    assert len(radius_pairs(cloud, 1e6)[0]) == 60 * 59
    far = np.array([[0.0, 0, 0], [1e-21, 0, 0], [2.5e-21, 0, 0], [1.0, 1.0, 1.0],
                    [1.0, 1.0, 1.0], [-1.0, 0.5, 0.0]])
    assert 1.0 / 2e-21 > 1e19                              # extent / r
    assert_pairs_exhaustive(far, 2e-21)
    i, j = radius_pairs(far, 2e-21)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1),
                                                 (3, 4), (4, 3)]


def test_radius_pairs_rejects_bad_radius():
    for r in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(MeshError):
            radius_pairs(np.zeros((2, 3)), r)


def test_radius_pairs_chunked_like_whole(monkeypatch):
    """Source blocks and pair chunks change nothing but the temporaries."""
    pts = primitives.bumpy_sphere(3).vertices
    want = radius_pairs(pts, 0.2)
    monkeypatch.setattr(mesh_module, "_SOURCE_BLOCK", 37)
    monkeypatch.setattr(mesh_module, "_PAIR_CHUNK", 500)
    got = radius_pairs(pts, 0.2)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_radius_pair_blocks_cover_the_sources_in_order(monkeypatch):
    """Each block holds exactly the pairs of its sources [lo, hi), and the
    blocks tile [0, n) in order."""
    pts = primitives.bumpy_sphere(3).vertices
    want = radius_pairs(pts, 0.2)
    for source_block, chunk in ((1 << 14, 1 << 20), (37, 500), (5, 1)):
        monkeypatch.setattr(mesh_module, "_SOURCE_BLOCK", source_block)
        monkeypatch.setattr(mesh_module, "_PAIR_CHUNK", chunk)
        blocks = list(radius_pair_blocks(pts, 0.2))
        bounds = [b for lo, hi, _ in blocks for b in (lo, hi)]
        assert bounds[0] == 0 and bounds[-1] == len(pts)
        assert bounds[1:-1:2] == bounds[2:-1:2]          # each starts at the last end
        for lo, hi, (i, j) in blocks:
            span = (want[0] >= lo) & (want[0] < hi)
            np.testing.assert_array_equal(i, want[0][span])
            np.testing.assert_array_equal(j, want[1][span])
    for n in (0, 1):
        ((lo, hi, ij),) = radius_pair_blocks(np.zeros((n, 3)), 1.0)
        assert (lo, hi, ij.shape) == (0, n, (2, 0))


def _neighbors(pts, i, r):
    a, b = radius_pairs(pts, r)
    return b[a == i]


def test_radius_query_matches_bruteforce():
    rng = np.random.default_rng(1234)
    pts = rng.uniform(-1.0, 1.0, size=(200, 3))
    for _ in range(100):
        i = int(rng.integers(200))
        r = rng.uniform(1e-3, 0.8)
        want = np.nonzero(np.linalg.norm(pts - pts[i], axis=1) <= r)[0]
        np.testing.assert_array_equal(_neighbors(pts, i, r), want[want != i])


def test_radius_query_edge_radii():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0]])
    with pytest.raises(MeshError):
        radius_pairs(pts, 0.0)
    assert len(radius_pairs(pts, 0.999)[0]) == 0
    np.testing.assert_array_equal(_neighbors(pts, 0, 10.0), [1, 2])


def test_nearest_vertex():
    pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [0.9, 0.1, 0.0]])
    np.testing.assert_array_equal(_neighbors(pts, 3, 0.2), [1])


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "mesh.stl"
    path.write_text("solid nope")
    with pytest.raises(MeshError):
        load_mesh(path)
