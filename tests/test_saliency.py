"""FPFH descriptors, uniqueness, visual bias, and the curvature baseline."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import (facing_pose, fpfh_oracle, gaussian_average_oracle,
                      pair_list_averages_oracle, peak_rss_mb, uniqueness_oracle,
                      vertex_rings)

from meshgaze.config import RunConfig
from meshgaze import mesh as mesh_module
from meshgaze.mesh import Mesh, bounding_box_diagonal
from meshgaze.primitives import bumpy_sphere, plane_grid
from meshgaze.saliency import (_BLOCK_CELLS, _PRODUCT_CELLS, DESCRIPTOR_SIZE,
                               SaliencyError,
                               _gaussian_averages, baseline_curvature_saliency,
                               bias_weight, compute_fpfh, mean_curvature,
                               saliency_map, uniqueness)
from meshgaze.visibility import ViewPose, VisibleSet, pose_hash, visible_points


# ---------------------------------------------------------------------------
# descriptors

def test_fpfh_flat_plane_descriptors_identical():
    plane = plane_grid(12, 12, size=0.5, center=(0.0, 1.5, 0.0))
    desc, flags = compute_fpfh(plane.vertices, plane.normals, r=0.12)
    assert not flags.any()
    np.testing.assert_allclose(desc.sum(axis=1), 1.0, atol=1e-12)
    spread = np.abs(desc - desc[0]).max()
    assert spread < 1e-12


def test_fpfh_isolated_point_uniform_and_flagged():
    pos = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0], [0.0, 0.01, 0.0],
                    [5.0, 5.0, 5.0]])
    nrm = np.tile([0.0, 0.0, 1.0], (4, 1))
    desc, flags = compute_fpfh(pos, nrm, r=0.05)
    assert flags.tolist() == [False, False, False, True]
    np.testing.assert_allclose(desc[3], np.full(DESCRIPTOR_SIZE, 1.0 / DESCRIPTOR_SIZE))


def test_fpfh_rejects_bad_radius():
    with pytest.raises(SaliencyError):
        compute_fpfh(np.zeros((2, 3)), np.zeros((2, 3)), r=0.0)


def _oracle_sets():
    """(positions, normals, r) sets on which the pair-list kernels must
    reproduce the per-point code byte for byte."""
    frac = RunConfig().fpfh_radius_frac
    grid = plane_grid(50, 50)
    yield grid.vertices, grid.normals, frac * bounding_box_diagonal(grid)
    ball = bumpy_sphere(4)
    ids = visible_points(ball, facing_pose((0.0, 1.6, -1.5))).ids
    r = 3.0 * frac * bounding_box_diagonal(ball)     # a few dozen neighbors
    yield ball.vertices[ids], ball.normals[ids], r
    lone = np.vstack([ball.vertices[ids], [[5.0, 5.0, 5.0]]])   # isolated
    yield lone, np.vstack([ball.normals[ids], [[0.0, 1.0, 0.0]]]), r
    dup = np.concatenate([ids, ids[::7]])                         # duplicated
    yield ball.vertices[dup], ball.normals[dup], r


@pytest.mark.parametrize("case", range(4))
def test_fpfh_and_uniqueness_bytes_match_oracles(case):
    pos, nrm, r = list(_oracle_sets())[case]
    desc, flags = compute_fpfh(pos, nrm, r)
    want_desc, want_flags = fpfh_oracle(pos, nrm, r)
    assert np.array_equal(desc, want_desc)
    assert np.array_equal(flags, want_flags)
    assert flags.mean() < 0.01 and flags[-1] == (case == 2)
    n = len(pos)
    for kw in ({}, {"exact_limit": n // 2, "sample_size": n // 3, "seed": 4}):
        u, subsampled = uniqueness(pos, desc, **kw)
        want_u, want_sub = uniqueness_oracle(pos, desc, **kw)
        assert subsampled == want_sub == bool(kw)
        assert np.array_equal(u, want_u)


@pytest.mark.parametrize("n, kw", [
    (4600, {}),
    (9000, {"exact_limit": 5000, "sample_size": 2300, "seed": 7}),
], ids=["exact", "subsampled"])
def test_uniqueness_across_product_chunks_matches_oracle(n, kw):
    """Two BLAS product chunks, each cut into row blocks whose last one is
    short: the same bytes as the oracle, which takes each chunk's product in
    one piece."""
    cols = kw.get("sample_size", n)
    chunk = int(_PRODUCT_CELLS // cols)
    assert chunk < n < 2 * chunk and chunk % (_BLOCK_CELLS // cols)
    rng = np.random.default_rng(n)
    pos = rng.normal(size=(n, 3))
    pos[::97] = pos[0]                                   # coincident points
    desc = rng.random((n, DESCRIPTOR_SIZE)) ** 4
    desc[::5] = desc[1]                                  # identical descriptors
    desc /= desc.sum(axis=1, keepdims=True)
    u, subsampled = uniqueness(pos, desc, **kw)
    want_u, want_sub = uniqueness_oracle(pos, desc, rows=256, **kw)
    assert subsampled == want_sub == bool(kw)
    assert np.array_equal(u, want_u)


def pair_dissimilarity(a, b, eps_b=1e-12):
    """The Bhattacharyya distance of a and b as uniqueness sees it, per point,
    read back from two coincident points: U = 1 - exp(-(Dis(a, a) +
    Dis(a, b)) / 2), and Dis(a, a) is 0 for a normalized descriptor."""
    u, _ = uniqueness(np.zeros((2, 3)), np.stack([a, b]), eps_b=eps_b)
    return -2.0 * np.log1p(-u)


def test_dissimilarity_hand_values():
    f = np.zeros(DESCRIPTOR_SIZE)
    f[:2] = 0.5
    g = np.zeros(DESCRIPTOR_SIZE)
    g[0] = 1.0
    # overlap sqrt(0.5 * 1) -> -log(sqrt(0.5)) = log(2) / 2
    d = pair_dissimilarity(f, g)
    assert d[0] == pytest.approx(0.5 * np.log(2.0), abs=1e-12)
    assert d[0] == d[1]
    h = np.zeros(DESCRIPTOR_SIZE)
    h[1] = 1.0
    # no overlap: the coefficient is clamped at eps_b, Dis = -log(eps_b)
    for eps_b in (1e-12, 1e-6):
        d = pair_dissimilarity(g, h, eps_b)
        assert d == pytest.approx(-np.log(eps_b), abs=1e-9)
        u, _ = uniqueness(np.zeros((2, 3)), np.stack([g, h]), eps_b=eps_b)
        assert u == pytest.approx(-np.expm1(0.5 * np.log(eps_b)), abs=1e-12)
    u = np.full(DESCRIPTOR_SIZE, 1.0 / DESCRIPTOR_SIZE)
    assert np.abs(pair_dissimilarity(u, u)).max() < 1e-12


# ---------------------------------------------------------------------------
# uniqueness

def uniq_oracle(positions, desc, eps=1e-12):
    """Plain double loop over the whole set, including the self term."""
    n = len(positions)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            bc = np.sqrt(desc[i] * desc[j]).sum()
            dis = max(-np.log(max(bc, eps)), 0.0)
            acc += dis / (1.0 + np.linalg.norm(positions[i] - positions[j]))
        out[i] = 1.0 - np.exp(-acc / n)
    return out


def _random_descriptors(rng, n):
    d = rng.random((n, DESCRIPTOR_SIZE))
    return d / d.sum(axis=1, keepdims=True)


def test_uniqueness_matches_double_loop():
    rng = np.random.default_rng(31)
    pos = rng.normal(size=(47, 3))
    desc = _random_descriptors(rng, 47)
    u, subsampled = uniqueness(pos, desc)
    assert not subsampled
    np.testing.assert_allclose(u, uniq_oracle(pos, desc), atol=1e-12)
    assert (u >= 0.0).all() and (u < 1.0).all()


def test_uniqueness_identical_descriptors_vanish():
    rng = np.random.default_rng(32)
    pos = rng.normal(size=(20, 3))
    desc = np.tile(_random_descriptors(rng, 1), (20, 1))
    u, _ = uniqueness(pos, desc)
    np.testing.assert_allclose(u, 0.0, atol=1e-12)


def test_uniqueness_subsampling_deterministic():
    rng = np.random.default_rng(33)
    pos = rng.normal(size=(60, 3))
    desc = _random_descriptors(rng, 60)
    u1, sub1 = uniqueness(pos, desc, exact_limit=50, sample_size=40, seed=9)
    u2, sub2 = uniqueness(pos, desc, exact_limit=50, sample_size=40, seed=9)
    assert sub1 and sub2
    np.testing.assert_array_equal(u1, u2)
    u3, _ = uniqueness(pos, desc, exact_limit=50, sample_size=40, seed=10)
    assert np.abs(u1 - u3).max() > 0.0
    exact, sub = uniqueness(pos, desc, exact_limit=60)
    assert not sub
    # the estimate stays in the neighborhood of the exact value
    assert np.abs(exact - u1).max() < 0.2


def test_uniqueness_sample_covering_the_set_is_exact():
    """Above exact_limit but not above sample_size, a subsample would be
    the whole set: the exact path runs and reports subsampled=False."""
    rng = np.random.default_rng(34)
    pos = rng.normal(size=(60, 3))
    desc = _random_descriptors(rng, 60)
    exact, _ = uniqueness(pos, desc)
    for size in (60, 61, 5000):
        u, subsampled = uniqueness(pos, desc, exact_limit=10, sample_size=size)
        assert not subsampled
        np.testing.assert_array_equal(u, exact)


def test_uniqueness_empty_set_raises():
    with pytest.raises(SaliencyError):
        uniqueness(np.zeros((0, 3)), np.zeros((0, DESCRIPTOR_SIZE)))


# ---------------------------------------------------------------------------
# visual bias

def test_bias_weight_hand_values():
    center = np.zeros(3)
    pos = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.4, 0.0]])
    c = bias_weight(pos, center, sigma_c=0.2)
    assert c[0] == pytest.approx(1.0, abs=1e-15)
    assert c[1] == pytest.approx(np.exp(-2.5), rel=1e-12)
    assert c[2] == pytest.approx(np.exp(-5.0), rel=1e-12)


def test_bias_weight_squared_variant():
    pos = np.array([[0.2, 0.0, 0.0]])
    c = bias_weight(pos, np.zeros(3), sigma_c=0.2, squared=True)
    assert c[0] == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_bias_weight_monotone_decay():
    rng = np.random.default_rng(5)
    center = rng.normal(size=3)
    d = np.sort(rng.uniform(0.0, 1.0, size=30))
    pos = center + np.outer(d, np.array([1.0, 0.0, 0.0]))
    c = bias_weight(pos, center)
    assert (np.diff(c) <= 0.0).all()


def test_bias_weight_rejects_bad_sigma():
    with pytest.raises(SaliencyError):
        bias_weight(np.zeros((1, 3)), np.zeros(3), sigma_c=0.0)


# ---------------------------------------------------------------------------
# full map

def test_saliency_map_composition(sphere3, cfg):
    cfg = dataclasses.replace(cfg, fpfh_radius_frac=0.1)
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    smap = saliency_map(sphere3, pose, cfg)
    assert not smap.flagged and not smap.subsampled
    assert smap.pose_id == pose_hash(pose)

    vs = visible_points(sphere3, pose, cfg.depth_tol_frac)
    on = vs.mask
    np.testing.assert_allclose(smap.s[on], smap.u[on] * smap.c[on], atol=1e-15)
    assert (smap.s[~on] == 0.0).all()
    assert (smap.u[~on] == 0.0).all()
    assert (smap.c[~on] == 0.0).all()
    assert (smap.s >= 0.0).all() and (smap.s < 1.0).all()
    assert smap.s[on].max() > 0.0


def test_saliency_map_respects_given_visible_set(sphere3, cfg):
    cfg = dataclasses.replace(cfg, fpfh_radius_frac=0.1)
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    ids = np.arange(40, dtype=np.int64)
    mask = np.zeros(len(sphere3.vertices), dtype=bool)
    mask[ids] = True
    vs = VisibleSet(ids=ids, mask=mask,
                    center=sphere3.vertices[ids].mean(axis=0))
    smap = saliency_map(sphere3, pose, cfg, vs=vs)
    assert (smap.s[~mask] == 0.0).all()
    assert (smap.s[mask] > 0.0).any()


@pytest.mark.parametrize("frac", [0.1, 0.001])
def test_saliency_map_counts_isolated_vertices(sphere3, cfg, frac):
    """The map keeps how many visible vertices FPFH flagged, out of how
    many, at which radius."""
    cfg = dataclasses.replace(cfg, fpfh_radius_frac=frac)
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]), o_deg=np.zeros(3))
    vs = visible_points(sphere3, pose, cfg.depth_tol_frac)
    smap = saliency_map(sphere3, pose, cfg, vs=vs)
    r = frac * bounding_box_diagonal(sphere3)
    _, flags = compute_fpfh(sphere3.vertices[vs.ids], sphere3.normals[vs.ids], r)
    assert (smap.visible, smap.fpfh_radius) == (len(vs.ids), r)
    assert smap.isolated == flags.sum()
    assert smap.isolated == (0 if frac == 0.1 else len(vs.ids))


def test_saliency_map_empty_view_flagged(sphere3, cfg):
    pose = ViewPose(p=np.array([0.0, 1.5, -1.5]),
                    o_deg=np.array([0.0, 180.0, 0.0]))
    smap = saliency_map(sphere3, pose, cfg)
    assert smap.flagged
    assert (smap.s == 0.0).all() and (smap.u == 0.0).all() and (smap.c == 0.0).all()


# ---------------------------------------------------------------------------
# curvature baseline

def test_mean_curvature_of_sphere(sphere3):
    kappa, flags = mean_curvature(sphere3)
    assert not flags.any()
    # discrete estimate of 1/R = 1/0.3; tessellation bias stays small
    assert np.median(kappa) == pytest.approx(1.0 / 0.3, rel=0.05)
    assert np.abs(kappa / (1.0 / 0.3) - 1.0).max() < 0.25


def test_mean_curvature_flat_region_is_zero():
    plane = plane_grid(8, 8, size=1.0, center=(0.0, 0.0, 0.0))
    kappa, _ = mean_curvature(plane)
    interior = np.abs(kappa) < 1e-9
    assert interior.sum() >= 36     # all non-boundary vertices


def test_mean_curvature_flags_nonmanifold_edge():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])   # edge 0-1 used thrice
    _, flags = mean_curvature(Mesh(vertices=verts, triangles=tris))
    assert flags[0] and flags[1]


def test_baseline_featureless_sphere_all_zero(sphere3):
    values = baseline_curvature_saliency(sphere3)
    assert (values == 0.0).all()


def test_baseline_spike_peaks_near_apex(spike_pack):
    mesh, apex = spike_pack
    values = baseline_curvature_saliency(mesh)
    assert values.min() == 0.0 and values.max() == 1.0
    n_top = max(1, int(np.ceil(0.01 * len(values))))
    top = np.argsort(values)[-n_top:]
    near = vertex_rings(mesh, apex, 2)
    assert set(top.tolist()) <= near


def test_baseline_bumpy_sphere_not_suppressed(bumpy):
    values = baseline_curvature_saliency(bumpy)
    assert values.max() == 1.0
    assert 0.0 < values.mean() < 1.0


@pytest.mark.parametrize("which", ["bumpy", "spike", "golden"])
def test_gaussian_averages_match_per_vertex_oracle(which, bumpy, spike_pack):
    """The pair-list averages sum in another order than the per-vertex
    np.dot, so they agree to rounding, not to the byte."""
    mesh = {"bumpy": bumpy, "spike": spike_pack[0],
            "golden": bumpy_sphere(3, amplitude=0.04, seed=3)}[which]
    kappa, _ = mean_curvature(mesh)
    eps = 0.003 * bounding_box_diagonal(mesh)
    sigmas = [m * eps for m in (2, 3, 4, 5, 6, 8, 10, 12)]
    for sigma, got in zip(sigmas, _gaussian_averages(kappa, mesh.vertices, sigmas)):
        want = gaussian_average_oracle(kappa, mesh.vertices, sigma)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(kappa).max()


@pytest.mark.parametrize("chunk", [1 << 20, 20000, 1])
def test_gaussian_averages_in_blocks_match_whole_pair_list(chunk, bumpy,
                                                           spike_pack,
                                                           monkeypatch):
    """Pair blocks, sigmas in any order, each filtered from the next wider
    one's survivors: every vertex sums the same terms in the same order as
    over the whole pair list, so the bytes are the same."""
    monkeypatch.setattr(mesh_module, "_PAIR_CHUNK", chunk)
    for mesh in (bumpy, spike_pack[0], bumpy_sphere(3, amplitude=0.04, seed=3)):
        kappa, _ = mean_curvature(mesh)
        eps = 0.003 * bounding_box_diagonal(mesh)
        sigmas = [f * m * eps for m in (2, 3, 4, 5, 6) for f in (1.0, 2.0)]
        sigmas += [7.0 * eps, 2.0 * eps, 12.0 * eps]
        got = _gaussian_averages(kappa, mesh.vertices, sigmas)
        want = list(pair_list_averages_oracle(kappa, mesh.vertices, sigmas))
        assert got.shape == (len(sigmas), len(kappa))
        assert np.array_equal(got, want)


def test_gaussian_averages_include_the_cutoff():
    """A neighbor exactly 2 sigma away is inside the average."""
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [3.0, 0, 0]])
    values = np.array([1.0, 3.0, 5.0])
    (got,) = _gaussian_averages(values, pos, [0.5])
    w = np.exp(-2.0)
    np.testing.assert_allclose(got, [(1.0 + 3.0 * w) / (1.0 + w),
                                     (3.0 + w) / (1.0 + w), 5.0], rtol=1e-15)
    np.testing.assert_array_equal(got, gaussian_average_oracle(values, pos, 0.5))


def test_baseline_scale_invariance(spike_pack):
    mesh, _ = spike_pack
    doubled = Mesh(vertices=mesh.vertices * 2.0, triangles=mesh.triangles.copy())
    a = baseline_curvature_saliency(mesh)
    b = baseline_curvature_saliency(doubled)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# memory envelopes: peak RSS of a fresh interpreter running one kernel
# (about 43 MB of it is the interpreter, numpy and the inputs)

def test_uniqueness_memory_envelope():
    """15,311 rows against 5,000 sampled columns: one 2e7-cell product (160
    MB) and block-sized temporaries.  Three product-sized temporaries took
    656 MB."""
    peak = peak_rss_mb(
        "import numpy as np\n"
        "from meshgaze.saliency import uniqueness\n"
        "rng = np.random.default_rng(0)\n"
        "desc = rng.random((15311, 33))\n"
        "desc /= desc.sum(axis=1, keepdims=True)\n"
        "uniqueness(rng.normal(size=(15311, 3)), desc)\n")
    assert peak < 215.0


def test_baseline_memory_envelope():
    """The curvature baseline on the 10,242 vertices of bumpy_sphere(5):
    radius pairs a block at a time.  All 1.8M pairs at once took 151 MB."""
    peak = peak_rss_mb(
        "from meshgaze.primitives import bumpy_sphere\n"
        "from meshgaze.saliency import baseline_curvature_saliency\n"
        "baseline_curvature_saliency(bumpy_sphere(5, seed=3))\n")
    assert peak < 110.0
