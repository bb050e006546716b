"""Ray-triangle kernel and BVH traversal against independent oracles.

The reference implementation here is deliberately a different algorithm
(Moller-Trumbore with explicit epsilon handling) from the production
watertight kernel, so agreement is meaningful.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (bvh_tree_oracle, intersect_brute, intersect_triangles,
                      traced_peak)

from meshgaze import bvh as bvh_module
from meshgaze import primitives
from meshgaze.bvh import TriangleBVH
from meshgaze.gaze import cast_hits
from meshgaze.mesh import Mesh

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# oracle

def mt_hit(orig, d, v0, v1, v2):
    """Moller-Trumbore of one ray against triangle rows v0, v1, v2 (m, 3);
    returns t (m,), NaN where a triangle is missed.  Each row dot is one
    BLAS ddot, as np.dot of two 3-vectors, and each test is written so a
    NaN passes it, as in the one-triangle-at-a-time form."""
    def dot(a, b):
        return (a[:, None, :] @ b[:, :, None])[:, 0, 0]

    e1 = v1 - v0
    e2 = v2 - v0
    pvec = np.cross(d, e2)
    det = dot(e1, pvec)
    hit = ~(np.abs(det) < 1e-14)
    with np.errstate(all="ignore"):                 # on missed rows only
        inv = 1.0 / det
        tvec = orig - v0
        u = dot(tvec, pvec) * inv
        hit &= ~((u < -1e-12) | (u > 1.0 + 1e-12))
        qvec = np.cross(tvec, e1)
        v = dot(np.broadcast_to(d, qvec.shape), qvec) * inv
        hit &= ~((v < -1e-12) | (u + v > 1.0 + 1e-12))
        t = dot(e2, qvec) * inv
    return np.where(hit & (t > 0.0), t, np.nan)


def mt_scan(mesh, orig, d):
    """Nearest (t, triangle id) over all triangles, ties to lower id."""
    t = mt_hit(orig, d, *(mesh.vertices[mesh.triangles[:, k]] for k in range(3)))
    best = None
    for i in np.flatnonzero(~np.isnan(t)):          # hits, in id order
        if best is None or t[i] < best[0] - 1e-12:
            best = (float(t[i]), int(i))
    return best


def random_rays(n, center, spread=0.15, dist=2.0, seed=0):
    rng = np.random.default_rng(seed)
    origins = center + rng.normal(size=(n, 3)) * 0.1 \
        + dist * _unit(rng.normal(size=(n, 3)))
    aims = center + rng.normal(size=(n, 3)) * spread
    dirs = _unit(aims - origins)
    return origins, dirs


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------

def test_bvh_matches_brute_exactly(sphere3):
    origins, dirs = random_rays(300, np.array([0.0, 1.5, 0.0]), seed=11)
    bvh = TriangleBVH(sphere3.vertices, sphere3.triangles)
    t, tri, _ = bvh.intersect_many(origins, dirs)
    hits = misses = 0
    for k, (o, d) in enumerate(zip(origins, dirs)):
        want = intersect_brute(sphere3.vertices, sphere3.triangles, o, d)
        if want is None:
            assert tri[k] == -1
            misses += 1
        else:
            assert tri[k] >= 0
            assert tri[k] == want[1]                 # same triangle id
            assert abs(t[k] - want[0]) == 0.0        # identical t
            hits += 1
    assert hits > 100 and misses > 0                 # both branches exercised


def test_brute_matches_independent_oracle(sphere2):
    """The production kernels agree with Moller-Trumbore on hit/miss and t."""
    origins, dirs = random_rays(200, np.array([0.0, 1.5, 0.0]), seed=5)
    for o, d in zip(origins, dirs):
        want = mt_scan(sphere2, o, d)
        got = intersect_brute(sphere2.vertices, sphere2.triangles, o, d)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[1] == want[1]
            assert got[0] == pytest.approx(want[0], abs=1e-9)
    # rays in the grid's plane whose normal component is subnormal or below
    # the slab guard: Moller-Trumbore sees a zero determinant, so a miss
    grid = primitives.plane_grid(12, 12)
    rng = np.random.default_rng(6)
    lo, hi = grid.vertices.min(axis=0), grid.vertices.max(axis=0)
    rays = [(np.array([1.0954, 1.5, 0.19134785]), np.array([-1.0, -5e-324, 1e-49]))]
    for dy in (5e-324, -5e-324, 1e-310, -1e-305):
        for _ in range(10):
            o = lo + rng.uniform(-0.2, 1.2, size=3) * (hi - lo)
            o[1] = 1.5
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rays.append((o, np.array([np.cos(ang), dy, np.sin(ang)])))
    for o, d in rays:
        assert mt_scan(grid, o, d) is None
        assert intersect_brute(grid.vertices, grid.triangles, o, d) is None


def test_edge_and_vertex_hits_are_watertight(sphere3):
    """Rays aimed exactly at shared edges/vertices never fall through."""
    center = np.array([0.0, 1.5, 0.0])
    bvh = TriangleBVH(sphere3.vertices, sphere3.triangles)
    rng = np.random.default_rng(99)
    vids = rng.choice(len(sphere3.vertices), size=40, replace=False)
    out = _unit(sphere3.vertices[vids] - center)
    _, tri, _ = bvh.intersect_many(center + 2.0 * out, -out)   # shooting inward
    assert (tri >= 0).all()
    # edge midpoints
    edges = sphere3.triangles[rng.choice(len(sphere3.triangles), 40)]
    out = _unit(0.5 * (sphere3.vertices[edges[:, 0]]
                       + sphere3.vertices[edges[:, 1]]) - center)
    _, tri, _ = bvh.intersect_many(center + 2.0 * out, -out)
    assert (tri >= 0).all()


def test_axis_aligned_rays(sphere3):
    """Zero direction components exercise the slab-test guards."""
    bvh = TriangleBVH(sphere3.vertices, sphere3.triangles)
    t, tri, _ = bvh.intersect_many([[0.0, 1.5, -2.0], [0.0, 5.0, -2.0]],
                                   [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert tri[0] >= 0
    assert t[0] == pytest.approx(1.7, abs=0.02)      # 2.0 - 0.3, tessellated
    assert tri[1] == -1


def test_intersect_triangles_degenerate():
    v0 = np.array([[0.0, 0, 0]])
    v1 = np.array([[0.0, 0, 0]])      # degenerate: repeated vertex
    v2 = np.array([[1.0, 0, 0]])
    t, bary, valid = intersect_triangles(np.zeros(3), np.array([0.0, 0, 1.0]),
                                         v0, v1, v2)
    assert not valid.any()


def test_barycentric_reconstruction(sphere2):
    origin, direction = np.array([0.0, 1.5, -3.0]), np.array([0.0, 0.0, 1.0])
    (t,), (tri,), (bary,) = sphere2.bvh.intersect_many(origin[None],
                                                       direction[None])
    assert tri >= 0
    a, b, c = sphere2.triangles[tri]
    recon = (bary[0] * sphere2.vertices[a] + bary[1] * sphere2.vertices[b]
             + bary[2] * sphere2.vertices[c])
    (point,) = cast_hits(sphere2, origin[None], direction[None])
    np.testing.assert_allclose(recon, point, atol=1e-12)
    np.testing.assert_allclose(recon, origin + t * direction, atol=1e-12)
    assert bary.min() >= 0 and bary.sum() == pytest.approx(1.0, abs=1e-9)
    assert t == pytest.approx(np.linalg.norm(recon - origin), abs=1e-9)


def test_occluded_variants(sphere3):
    bvh = TriangleBVH(sphere3.vertices, sphere3.triangles)
    origin = np.array([0.0, 1.5, -2.0])
    d = np.array([0.0, 0.0, 1.0])
    t, _, _ = bvh.intersect_many([origin, origin], [d, -d])
    assert t[0] < 3.0
    assert not t[0] < 1.0                            # sphere starts at t=1.7
    assert not t[1] < np.inf                         # looking away


# ---------------------------------------------------------------------------
# batched traversal against the exhaustive scan

MESHES = {"bumpy": primitives.bumpy_sphere(3),
          "grid": primitives.plane_grid(12, 12)}
BVHS = {k: TriangleBVH(m.vertices, m.triangles) for k, m in MESHES.items()}
UNIT = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def rays(draw, mesh):
    """One ray aimed at a vertex, an edge midpoint, a point in the bounding
    box, or nowhere in particular; optionally one direction component is
    zero or below the slab guard, with the origin aligned on that axis."""
    v, f = mesh.vertices, mesh.triangles
    lo, hi = v.min(axis=0), v.max(axis=0)
    kind = draw(st.sampled_from(["vertex", "edge", "box", "free"]))
    if kind == "vertex":
        target = v[draw(st.integers(0, len(v) - 1))]
    elif kind == "edge":
        a, b, _ = f[draw(st.integers(0, len(f) - 1))]
        target = 0.5 * (v[a] + v[b])
    else:
        frac = np.array([draw(st.floats(0.0, 1.0)) for _ in range(3)])
        target = lo + frac * (hi - lo)
    d = np.array([draw(UNIT) for _ in range(3)])
    if kind != "free":
        d = 0.5 * (lo + hi) + 1e-3 * d - target      # roughly inward
    axis = draw(st.sampled_from([None, 0, 1, 2]))
    if axis is not None:
        d[axis] = draw(st.sampled_from([0.0, -0.0, 1e-310, -1e-310]))
    if np.linalg.norm(d) < 1e-9:
        d[(axis or 0) - 1] = 1.0
    d = d / np.linalg.norm(d)
    origin = target - draw(st.floats(0.5, 3.0)) * d
    if axis is not None:
        origin[axis] = target[axis]
    return origin, d


def batches(name):
    return st.lists(rays(MESHES[name]), min_size=1, max_size=12)


def assert_matches_brute(name, batch, tmax=np.inf):
    mesh = MESHES[name]
    origins = np.array([o for o, _ in batch])
    dirs = np.array([d for _, d in batch])
    t, tri, bary = BVHS[name].intersect_many(origins, dirs, tmax=tmax)
    assert t.shape == tri.shape == (len(batch),) and bary.shape == (len(batch), 3)
    bound = np.broadcast_to(tmax, len(batch))
    for k, (o, d) in enumerate(batch):
        want = intersect_brute(mesh.vertices, mesh.triangles, o, d)
        if want is None or not want[0] < bound[k]:
            assert tri[k] == -1 and t[k] == np.inf
        else:
            assert (t[k], tri[k]) == want[:2]
            assert np.array_equal(bary[k], want[2])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=batches("bumpy"))
def test_intersect_many_matches_brute_on_bumpy_sphere(batch):
    assert_matches_brute("bumpy", batch)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=batches("grid"))
def test_intersect_many_matches_brute_on_plane_grid(batch):
    assert_matches_brute("grid", batch)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=batches("bumpy"), data=st.data())
def test_intersect_many_tmax_matches_brute(batch, data):
    """Per-ray upper bounds: only hits with t < tmax count."""
    tmax = np.array([data.draw(st.one_of(st.just(np.inf), st.floats(0.0, 4.0)))
                     for _ in batch])
    assert_matches_brute("bumpy", batch, tmax)


def test_tmax_is_strict_at_the_nearest_hit():
    origins, dirs = random_rays(300, np.array([0.0, 1.5, 0.0]), seed=4)
    t, tri, bary = BVHS["bumpy"].intersect_many(origins, dirs)
    hit = tri >= 0
    assert hit.sum() > 100
    _, at, _ = BVHS["bumpy"].intersect_many(origins[hit], dirs[hit], tmax=t[hit])
    assert (at == -1).all()
    above = np.nextafter(t[hit], np.inf)
    got = BVHS["bumpy"].intersect_many(origins[hit], dirs[hit], tmax=above)
    for g, w in zip(got, (t[hit], tri[hit], bary[hit])):
        np.testing.assert_array_equal(g, w)


def test_tmax_is_keyword_only():
    """A third positional argument is an error, not a silent bound."""
    o, d = np.array([0.0, 1.5, -2.0]), np.array([0.0, 0.0, 1.0])
    with pytest.raises(TypeError):
        BVHS["bumpy"].intersect_many(o, d, 0.0)


def test_subnormal_direction_component_is_zero():
    """A ray in the grid's plane with a subnormal tilt: the shear used to
    underflow into a spurious vertex 'hit' 0.47 off the ray."""
    mesh = MESHES["grid"]
    o = np.array([1.0954, 1.5, 0.19134785])
    for dy in (-5e-324, 0.0, 1e-310):
        d = np.array([-1.0, dy, 1e-49])
        assert intersect_brute(mesh.vertices, mesh.triangles, o, d) is None
        assert BVHS["grid"].intersect_many(o, d)[1][0] == -1


def test_subnormal_vertex_coordinate_builds_and_casts():
    """The loader accepts any finite coordinate, so a flat mesh whose one
    vertex sits a subnormal off the plane gives node spreads near 1e-310:
    the tree must still build, match the node-at-a-time one, and find the
    exhaustive scan's hits."""
    grid = primitives.plane_grid(8, 8, center=(0.0, 0.0, 0.0))
    vertices = grid.vertices.copy()
    vertices[40, 1] = 1e-309
    mesh = Mesh(vertices, grid.triangles)
    assert_same_tree(mesh.vertices, mesh.triangles)
    origins, dirs = random_rays(200, np.zeros(3), spread=0.2, seed=11)
    t, tri, _ = mesh.bvh.intersect_many(origins, dirs)
    for o, d, tk, k in zip(origins, dirs, t, tri):
        want = intersect_brute(mesh.vertices, mesh.triangles, o, d)
        assert (k, tk) == ((-1, np.inf) if want is None else want[1::-1])
    assert (tri >= 0).sum() > 100


def test_intersect_many_single_ray_and_empty_batch():
    mesh = MESHES["bumpy"]
    o, d = np.array([0.0, 1.5, -2.0]), np.array([0.0, 0.0, 1.0])
    t, tri, bary = BVHS["bumpy"].intersect_many(o, d)
    want = intersect_brute(mesh.vertices, mesh.triangles, o, d)
    assert (t[0], tri[0]) == want[:2] and np.array_equal(bary[0], want[2])
    t, tri, bary = BVHS["bumpy"].intersect_many(np.zeros((0, 3)), np.zeros((0, 3)))
    assert t.shape == tri.shape == (0,) and bary.shape == (0, 3)


def test_intersect_many_chunking_is_invisible(monkeypatch):
    """Splitting rays and leaf pairs into small blocks changes nothing."""
    origins, dirs = random_rays(300, np.array([0.0, 1.5, 0.0]), seed=3)
    want = BVHS["bumpy"].intersect_many(origins, dirs)
    monkeypatch.setattr(bvh_module, "_RAY_CHUNK", 7)
    monkeypatch.setattr(bvh_module, "_PAIR_CHUNK", 5)
    got = BVHS["bumpy"].intersect_many(origins, dirs)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert (want[1] >= 0).sum() > 100 and (want[1] < 0).any()


def test_intersect_many_leaf_blocks_bound_memory():
    """The leaf kernel tests (ray, triangle) pairs in blocks of _PAIR_CHUNK,
    so 3,000 rays into bumpy_sphere(4) allocate at most 12 MB (8.7 MB traced
    with 4,096-pair blocks, 10.1 MB with 8,192 and 18.4 MB with 32,768)."""
    mesh = primitives.bumpy_sphere(4)
    tree = TriangleBVH(mesh.vertices, mesh.triangles)
    origins, dirs = random_rays(3000, np.array([0.0, 1.5, 0.0]), seed=8)
    (_, tri, _), peak = traced_peak(lambda: tree.intersect_many(origins, dirs))
    assert (tri >= 0).sum() > 2000
    assert peak < 12e6


# ---------------------------------------------------------------------------
# the level-by-level build against the node-at-a-time one

def by_depth(order, left, right, start, count):
    """The oracle's preorder node arrays renumbered by depth, left to right
    within a depth, as (order, child, start, count): a breadth-first walk
    visits the nodes in their new order."""
    walk = [0]
    for node in walk:                   # the walk grows as it goes
        if left[node] >= 0:
            walk += [left[node], right[node]]
    walk = np.array(walk)
    new_id = np.empty(len(walk), dtype=np.int64)
    new_id[walk] = np.arange(len(walk))
    child = np.where(left[walk] < 0, -1, new_id[left[walk]])
    return order, child, start[walk], count[walk]


def assert_same_tree(vertices, triangles, leaf_size=8):
    tree = TriangleBVH(vertices, triangles, leaf_size)
    got = tree.order, tree.node_child, tree.node_start, tree.node_count
    want = by_depth(*bvh_tree_oracle(vertices, triangles, leaf_size))
    for name, g, w in zip(("order", "child", "start", "count"), got, want):
        assert np.array_equal(g, w), name
    split = tree.node_child >= 0
    assert np.array_equal(tree.node_child[split],
                          1 + 2 * np.arange(split.sum()))


@pytest.mark.parametrize("make", [
    lambda: primitives.bumpy_sphere(4),
    lambda: primitives.plane_grid(50, 50),
    lambda: primitives.icosphere(3),
    lambda: primitives.icosphere(6),
    lambda: primitives.bumpy_sphere(6, seed=3),
], ids=["bumpy4", "grid50", "ico3", "ico6", "bumpy6-seed3"])
def test_level_build_matches_node_oracle(make):
    """Every node array equals the node-at-a-time construction's: the same
    stable splits, the same nodes once numbered by depth."""
    mesh = make()
    assert_same_tree(mesh.vertices, mesh.triangles)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_level_build_matches_node_oracle_with_duplicate_centroids(data):
    """Coarse integer coordinates make many centroids coincide, and
    repeated triangles and degenerate ones coincide exactly: the ties that
    the stable sorts and the no-spread leaves must settle the same way."""
    nv = data.draw(st.integers(3, 30))
    coords = data.draw(st.lists(st.integers(-2, 2), min_size=3 * nv,
                                max_size=3 * nv))
    vertices = np.array(coords, dtype=np.float64).reshape(nv, 3)
    m = data.draw(st.integers(1, 120))
    idx = data.draw(st.lists(st.integers(0, nv - 1), min_size=3 * m,
                             max_size=3 * m))
    triangles = np.array(idx, dtype=np.int64).reshape(m, 3)
    copies = data.draw(st.integers(1, 4))
    triangles = np.concatenate([triangles] * copies)
    leaf_size = data.draw(st.sampled_from([1, 2, 3, 8]))
    assert_same_tree(vertices, triangles, leaf_size)
