"""Mesh I/O, normals, and spatial queries."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshgaze import mesh as mesh_module
from meshgaze import primitives
from meshgaze.mesh import (Mesh, MeshError, bounding_box_diagonal,
                           compute_vertex_normals, gaussian, load_mesh,
                           radius_pair_blocks, save_ply)

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


TETRA_PLY = {
    "vertex": (["property float x", "property float y", "property float z"],
               ["0 0 0", "1 0 0", "0 1 0", "0 0 1"]),
    "face": (["property list uchar int vertex_indices"],
             ["3 0 2 1", "3 0 1 3", "3 0 3 2", "3 1 2 3"]),
    "edge": (["property int vertex1", "property int vertex2"], ["0 1"]),
}


def _ply_text(*elements, **replace):
    """A tetrahedron PLY with its elements in the given order; a keyword
    replaces that element's (properties, rows)."""
    parts = {**TETRA_PLY, **replace}
    header, body = ["ply", "format ascii 1.0"], []
    for name in elements:
        props, rows = parts[name]
        header += [f"element {name} {len(rows)}", *props]
        body += rows
    return "\n".join(header + ["end_header"] + body) + "\n"


def test_ply_ignores_list_after_xyz_and_elements_after_faces(tmp_path):
    path = tmp_path / "m.ply"
    path.write_text(_ply_text("vertex", "face", "edge", vertex=(
        [*TETRA_PLY["vertex"][0], "property list uchar int tag"],
        [row + " 1 7" for row in TETRA_PLY["vertex"][1]])))
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.vertices, [[0, 0, 0], [1, 0, 0],
                                                  [0, 1, 0], [0, 0, 1]])
    np.testing.assert_array_equal(mesh.triangles[0], [0, 2, 1])


@pytest.mark.parametrize("text, message", [
    (_ply_text("vertex", "face", vertex=(
        ["property list uchar int tag", *TETRA_PLY["vertex"][0]],
        ["1 7 " + row for row in TETRA_PLY["vertex"][1]])),
     "PLY vertex list property precedes x/y/z"),
    (_ply_text("vertex", "face", face=(
        ["property uchar flags", *TETRA_PLY["face"][0]],
        ["3 " + row for row in TETRA_PLY["face"][1]])),
     "PLY face element must start with its index list"),
    (_ply_text("face", "vertex"),
     "PLY elements must begin with vertex, then face"),
    (_ply_text("vertex", "edge", "face"),
     "PLY elements must begin with vertex, then face"),
], ids=["vertex-list-before-xyz", "face-flags-before-list", "face-first",
        "edge-between"])
def test_ply_rejects_headers_the_body_parse_would_misread(tmp_path, text,
                                                          message):
    """Columns shifted by a list or a leading face property, or elements in
    another order, used to load wrong numbers or fail on a misread row."""
    path = tmp_path / "m.ply"
    path.write_text(text)
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert str(err.value) == message


def test_diagonal_trivia():
    assert bounding_box_diagonal(np.array([[0.0, 0, 0], [3, 4, 0]])) == 5.0
    assert bounding_box_diagonal(np.array([[2.0, 2, 2]])) == 0.0


def test_load_transform(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text(TRI_OBJ)
    mesh = load_mesh(path, scale=2.0, translate=(0.0, 1.5, 0.0))
    np.testing.assert_allclose(mesh.vertices[1], [2.0, 1.5, 0.0])


@pytest.mark.parametrize("scale, translate, message", [
    (float("inf"), (0.0, 0.0, 0.0), "scale must be positive and finite, got inf"),
    (float("nan"), (0.0, 0.0, 0.0), "scale must be positive and finite, got nan"),
    (0.0, (0.0, 0.0, 0.0), "scale must be positive and finite, got 0.0"),
    (1.0, (0.0, float("inf"), 0.0), "translate must be finite, got [0.0, inf, 0.0]"),
    (1.0, (float("nan"), 0.0, 0.0), "translate must be finite, got [nan, 0.0, 0.0]"),
])
def test_load_transform_rejects_non_finite_placement(tmp_path, scale,
                                                     translate, message):
    """A placement that is not finite is an error before any arithmetic:
    scale=inf used to warn from numpy's multiply first, and scale=nan to
    report a non-finite vertex coordinate."""
    path = tmp_path / "tri.obj"
    path.write_text(TRI_OBJ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError) as err:
            load_mesh(path, scale=scale, translate=translate)
    assert str(err.value) == message


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
    """A vertex with no usable incident area gets a zero normal."""
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]])
    tris = np.array([[0, 1, 2], [3, 3, 3]])       # second has zero area
    mesh = Mesh(verts, tris)
    normals = compute_vertex_normals(verts, tris)
    assert np.array_equal(mesh.normals, normals)
    assert (normals[3] == 0.0).all()              # only degenerate incidence
    assert np.linalg.norm(normals[:3] - [0, 0, 1], axis=1).max() < 1e-12


def test_normals_deterministic(sphere2):
    m2 = primitives.icosphere(2)
    np.testing.assert_array_equal(sphere2.normals, m2.normals)


# ---------------------------------------------------------------------------
# radius_pair_blocks vs an exhaustive all-pairs scan

def radius_pairs(pts, r):
    """(i, j, d2) of every block of radius_pair_blocks, concatenated."""
    blocks = [b[2:] for b in radius_pair_blocks(pts, r)]
    return tuple(np.concatenate(x) for x in zip(*blocks))


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
        i, j, d2 = radius_pairs(pts, r)
    want = all_pairs(pts, r)
    assert i.dtype == j.dtype == np.int64 and d2.dtype == np.float64
    np.testing.assert_array_equal(i, want[0])
    np.testing.assert_array_equal(j, want[1])
    p = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    assert d2.tobytes() == np.sum((p[j] - p[i]) ** 2, axis=1).tobytes()


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
    i, j, _ = radius_pairs(line, 0.5)
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
    i, j, _ = radius_pairs(far, 2e-21)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 0), (1, 2), (2, 1),
                                                 (3, 4), (4, 3)]


def test_radius_pairs_rejects_bad_radius():
    for r in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(MeshError):
            next(radius_pair_blocks(np.zeros((2, 3)), r))


@pytest.mark.filterwarnings("error")
def test_gaussian_weight_and_its_scale_check():
    """The weight is exp(-d2 / (2.0 * sigma * sigma)) bit for bit, 0 far out
    without a warning, and 1 everywhere where 2 sigma^2 overflows; a sigma
    that is not positive, whose 2 sigma^2 is 0 or subnormal (a point's own
    weight 0/0), or whose 2 sigma overflows, raises the caller's error
    naming its key."""
    d2 = np.array([0.0, 1e-3, 0.5, 2.0, 1e18])
    for sigma in (1e-3, 0.03, 0.2, 3.0, 1e150):
        assert gaussian(sigma, "s", MeshError)(d2).tobytes() == \
            np.exp(-d2 / (2.0 * sigma * sigma)).tobytes()
    assert gaussian(1.1e-154, "s", MeshError)(d2).tolist() == [1.0] + [0.0] * 4
    assert gaussian(1e300, "s", MeshError)(d2).tolist() == [1.0] * 5
    for sigma in (0.0, -1.0, np.nan, 1e-160, 1.05e-154, 1e308, np.inf):
        with pytest.raises(ValueError, match=r"^sigma_x must be positive, with "
                           r"2 sigma_x\^2 a normal float, got "):
            gaussian(sigma, "sigma_x", ValueError)


def test_radius_pairs_chunked_like_whole(monkeypatch):
    """Source blocks and pair chunks change nothing but the temporaries."""
    pts = primitives.bumpy_sphere(3).vertices
    want = radius_pairs(pts, 0.2)
    monkeypatch.setattr(mesh_module, "BLOCK_ELEMENTS", 500)
    got = radius_pairs(pts, 0.2)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_radius_pair_blocks_cover_the_sources_in_order(monkeypatch):
    """Each block holds exactly the pairs of its sources [lo, hi), and the
    blocks tile [0, n) in order: in one block, in blocks cut where the
    neighbour cells are looked up (every budget // 9 sources) and between
    those cuts, and one source per block."""
    pts = primitives.bumpy_sphere(3).vertices
    want = radius_pairs(pts, 0.2)
    for budget, cuts in ((1 << 20, {0}), (500, None), (1, set(range(len(pts))))):
        monkeypatch.setattr(mesh_module, "BLOCK_ELEMENTS", budget)
        blocks = list(radius_pair_blocks(pts, 0.2))
        starts = {lo for lo, *_ in blocks}
        assert starts == cuts if cuts else starts > set(range(0, len(pts), 55))
        bounds = [b for lo, hi, *_ in blocks for b in (lo, hi)]
        assert bounds[0] == 0 and bounds[-1] == len(pts)
        assert bounds[1:-1:2] == bounds[2:-1:2]          # each starts at the last end
        for lo, hi, *got in blocks:
            span = (want[0] >= lo) & (want[0] < hi)
            for a, b in zip(got, want):
                assert a.tobytes() == b[span].tobytes()
    for n in (0, 1):
        ((lo, hi, i, j, d2),) = radius_pair_blocks(np.zeros((n, 3)), 1.0)
        assert (lo, hi, i.shape, j.shape, d2.shape) == (0, n, (0,), (0,), (0,))
        assert i.dtype == j.dtype == np.int64 and d2.dtype == np.float64


def _neighbors(pts, i, r):
    a, b, _ = radius_pairs(pts, r)
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
        next(radius_pair_blocks(pts, 0.0))
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
