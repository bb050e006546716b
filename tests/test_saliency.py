"""FPFH descriptors, uniqueness, visual bias, and the curvature baseline."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import (facing_pose, fpfh_oracle, gaussian_average_oracle,
                      pair_list_averages_oracle, peak_rss_mb,
                      radius_pairs_oracle, traced_peak, uniqueness_oracle,
                      vertex_rings)

from meshgaze.config import RunConfig
from meshgaze import mesh as mesh_module
from meshgaze import saliency as saliency_module
from meshgaze.mesh import BLOCK_ELEMENTS, Mesh, bounding_box_diagonal, gaussian
from meshgaze.primitives import bumpy_sphere, icosphere, plane_grid
from meshgaze.saliency import (_PRODUCT_CELLS, _PRODUCT_ROWS,
                               DESCRIPTOR_SIZE, SaliencyError,
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
    # exact, subsampled, and exact because the sample would outnumber the points
    for kw, sub in (({}, False),
                    ({"exact_limit": n // 2, "sample_size": n // 3, "seed": 4}, True),
                    ({"exact_limit": n // 2, "sample_size": 2 * n, "seed": 4}, False)):
        u, subsampled = uniqueness(pos, desc, **kw)
        want_u, want_sub = uniqueness_oracle(pos, desc, **kw)
        assert subsampled == want_sub == sub
        assert np.array_equal(u, want_u)


@pytest.mark.parametrize("pairs", [1, 7, 1 << 20])
def test_fpfh_feature_blocks_match_oracle(monkeypatch, pairs):
    """Features binned one pair, 7 pairs or every pair at a time (a budget
    of 3 * pairs elements, which sizes the radius pair blocks too) give the
    oracle's bytes.  The set has a dense patch beside a sparse one (unequal
    neighbor counts), coincident copies (pairs at distance 0, which count
    for neither point) and an isolated point."""
    rng = np.random.default_rng(5)
    pos = rng.uniform(-1.0, 1.0, (80, 3)) * [1.0, 1.0, 0.2]
    pos[60:] *= 0.2
    pos = np.vstack([pos, pos[::9], [[9.0, 9.0, 9.0]]])
    nrm = rng.normal(size=pos.shape)
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    r = 0.5
    i, j = radius_pairs_oracle(pos, r)
    same = (pos[i] == pos[j]).all(axis=1)
    k = np.bincount(i[~same], minlength=len(pos))
    assert same.any() and (pairs < 8 or len(i) < pairs)
    assert k[-1] == 0 and k[:-1].min() > 0 and k.max() > 10 * k[:-1].min()
    for module in (mesh_module, saliency_module):
        monkeypatch.setattr(module, "BLOCK_ELEMENTS", 3 * pairs)
    desc, flags = compute_fpfh(pos, nrm, r)
    want_desc, want_flags = fpfh_oracle(pos, nrm, r)
    assert np.array_equal(desc, want_desc)
    assert np.array_equal(flags, want_flags) and flags.tolist() == (k == 0).tolist()


def _product_step(cols):
    """Rows of each of uniqueness' BLAS products but the last."""
    return _PRODUCT_ROWS * max(1, _PRODUCT_CELLS // _PRODUCT_ROWS // cols)


def _chunk_test_set(n):
    rng = np.random.default_rng(n)
    pos = rng.normal(size=(n, 3))
    pos[::97] = pos[0]                                   # coincident points
    desc = rng.random((n, DESCRIPTOR_SIZE)) ** 4
    desc[::5] = desc[1]                                  # identical descriptors
    desc /= desc.sum(axis=1, keepdims=True)
    return pos, desc


@pytest.mark.parametrize("n, kw", [
    (2300, {}),
    (9000, {"exact_limit": 5000, "sample_size": 2300, "seed": 7}),
], ids=["exact", "subsampled"])
def test_uniqueness_across_product_chunks_matches_oracle(n, kw):
    """At least two BLAS product chunks, each cut into row blocks whose last
    one is short: the same bytes as the oracle, which takes each chunk's
    product in one piece."""
    cols = kw.get("sample_size", n)
    step = _product_step(cols)
    assert step + _PRODUCT_ROWS <= n and step % (BLOCK_ELEMENTS // cols)
    pos, desc = _chunk_test_set(n)
    u, subsampled = uniqueness(pos, desc, **kw)
    want_u, want_sub = uniqueness_oracle(pos, desc, rows=256, **kw)
    assert subsampled == want_sub == bool(kw)
    assert np.array_equal(u, want_u)


@pytest.mark.parametrize("n, cols, last", [
    (1536, None, 384), (1537, None, 385), (1919, None, 767),
    (41087, 13, 767), (80645, 13, 40325),                # just past a cut
    (8832, 61, 384), (8833, 61, 385), (16913, 61, 8465),
    (1536, 777, 384), (2601, 1000, 681),                 # the views grid
    (1153, 1000, 385), (2687, 2300, 767), (2688, 2300, 384),
    (5759, 4999, 767), (5377, 5000, 385),
])
def test_uniqueness_cut_products_keep_their_bytes(n, cols, last):
    """Products cut at multiples of _PRODUCT_ROWS rows, the last one `last`
    rows long and never shorter than _PRODUCT_ROWS: the same bytes as the
    oracle's few large products, whatever the column count."""
    kw = {} if cols is None else {"exact_limit": cols, "sample_size": cols,
                                  "seed": 5}
    step = _product_step(cols or n)
    assert last >= _PRODUCT_ROWS and n > last and (n - last) % step == 0
    assert last < step + _PRODUCT_ROWS
    pos, desc = _chunk_test_set(n)
    u, subsampled = uniqueness(pos, desc, **kw)
    want_u, want_sub = uniqueness_oracle(pos, desc, rows=256, **kw)
    assert subsampled == want_sub == (cols is not None)
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


@pytest.mark.parametrize("sigma_c", [-0.2, float("nan"), 1e-160, 1e-308,
                                     1.05e-154])
def test_bias_weight_rejects_sigma_whose_variance_is_not_normal(sigma_c):
    """A non-positive sigma_c, or one so small that 2 sigma_c^2 is 0 or
    subnormal, is an error naming sigma_c: 1e-160 used to overflow the
    division and 1e-308 to divide by zero, a NaN at the centroid."""
    with pytest.raises(SaliencyError, match="sigma_c must be positive, "
                       "with 2 sigma_c\\^2 a normal float"):
        bias_weight(np.eye(3), np.zeros(3), sigma_c=sigma_c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("squared", [False, True])
def test_bias_weight_far_vertex_is_zero_without_warning(squared):
    """With 2 sigma_c^2 just above the smallest normal float, a vertex far
    from the centroid gets C = 0 and the one on it C = 1, with no overflow
    warning; for a sigma that never overflows, the values are the printed
    formula's, bit for bit."""
    pos = np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 0.0], [10.0, 0.0, 0.0]])
    c = bias_weight(pos, np.zeros(3), sigma_c=1.1e-154, squared=squared)
    assert c.tolist() == [1.0, 0.0, 0.0]
    d = np.linalg.norm(pos, axis=1)
    for sigma_c in (1e-3, 0.2, 3.0, 1e150, 1e300):
        expo = d ** 2 if squared else d
        assert bias_weight(pos, np.zeros(3), sigma_c, squared).tobytes() == \
            np.exp(-expo / (2.0 * sigma_c * sigma_c)).tobytes()


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
    kappa = mean_curvature(sphere3)
    assert (kappa > 0).all()        # every vertex has area and curvature
    # discrete estimate of 1/R = 1/0.3; tessellation bias stays small
    assert np.median(kappa) == pytest.approx(1.0 / 0.3, rel=0.05)
    assert np.abs(kappa / (1.0 / 0.3) - 1.0).max() < 0.25


def test_mean_curvature_flat_region_is_zero():
    plane = plane_grid(8, 8, size=1.0, center=(0.0, 0.0, 0.0))
    kappa = mean_curvature(plane)
    interior = np.abs(kappa) < 1e-9
    assert interior.sum() >= 36     # all non-boundary vertices


def test_mean_curvature_flags_nonmanifold_edge():
    """kappa leaves out the cotangent terms of an edge that three triangles
    share, and only those: a per-corner loop gives it, and the same loop
    with the edge kept does not."""
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])   # edge 0-1 used thrice
    kappa = mean_curvature(Mesh(vertices=verts, triangles=tris))

    def per_corner(skip):
        acc, area = np.zeros((5, 3)), np.zeros(5)
        for tri in tris:
            x = verts[tri]
            area[tri] += np.linalg.norm(np.cross(x[1] - x[0], x[2] - x[0])) / 6
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                if {tri[i], tri[j]} == skip:
                    continue
                a, b = x[i] - x[k], x[j] - x[k]
                cot = np.dot(a, b) / np.linalg.norm(np.cross(a, b))
                acc[tri[i]] += cot * (x[j] - x[i])
                acc[tri[j]] -= cot * (x[j] - x[i])
        return np.linalg.norm(acc, axis=1) / (4.0 * area)

    np.testing.assert_allclose(kappa, per_corner({0, 1}), rtol=1e-12)
    assert np.abs(kappa - per_corner(set()))[:2].min() > 0.1


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
    kappa = mean_curvature(mesh)
    eps = 0.003 * bounding_box_diagonal(mesh)
    sigmas = [m * eps for m in (2, 3, 4, 5, 6, 8, 10, 12)]
    for sigma, got in zip(sigmas, _gaussian_averages(kappa, mesh.vertices, sigmas)):
        want = gaussian_average_oracle(kappa, mesh.vertices, sigma)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(kappa).max()


@pytest.mark.parametrize("budget", [1 << 20, 1 << 17, 20000, 1])
def test_gaussian_averages_in_blocks_match_whole_pair_list(budget, bumpy,
                                                           spike_pack,
                                                           monkeypatch):
    """Pair blocks, sigmas in any order, each filtered from the next wider
    one's survivors: every vertex sums the same terms in the same order as
    over the whole pair list, so the bytes are the same."""
    monkeypatch.setattr(mesh_module, "BLOCK_ELEMENTS", budget)
    for mesh in (bumpy, spike_pack[0], bumpy_sphere(3, amplitude=0.04, seed=3)):
        kappa = mean_curvature(mesh)
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


def test_baseline_runs_each_distinct_scale_once(monkeypatch):
    """sigma and 2 sigma over sigma = 2..6 eps are ten scales but eight
    distinct ones: 2 (2 eps) is 4 eps and 2 (3 eps) is 6 eps bit for bit."""
    calls = []

    def counted(sigma, key, error):
        calls.append(sigma)
        return gaussian(sigma, key, error)
    monkeypatch.setattr(saliency_module, "gaussian", counted)
    mesh = bumpy_sphere(3, seed=3)
    baseline_curvature_saliency(mesh)
    eps = 0.003 * bounding_box_diagonal(mesh)
    assert calls == [m * eps for m in (2, 4, 3, 6, 8, 5, 10, 12)]


def test_baseline_reports_the_first_scale_out_of_range():
    """Where 2 sigma overflows between sigma = 4 eps and 5 eps, the error
    names the first such sigma of the list sigma, 2 sigma over sigma = 2..6
    eps: 2 (3 eps), not the smaller 5 eps."""
    mesh = icosphere(2)
    eps_frac = 2e307 / bounding_box_diagonal(mesh)
    eps = eps_frac * bounding_box_diagonal(mesh)
    assert 2.0 * (4 * eps) < np.inf and 2.0 * (5 * eps) == np.inf
    with pytest.raises(SaliencyError) as info:
        baseline_curvature_saliency(mesh, eps_frac=eps_frac)
    assert str(info.value) == (
        f"baseline_eps_frac {eps_frac!r} is out of range: sigma must be "
        f"positive, with 2 sigma^2 a normal float, got {2.0 * (3 * eps)!r}")


def test_baseline_scale_invariance(spike_pack):
    mesh, _ = spike_pack
    doubled = Mesh(vertices=mesh.vertices * 2.0, triangles=mesh.triangles.copy())
    a = baseline_curvature_saliency(mesh)
    b = baseline_curvature_saliency(doubled)
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# memory envelopes: peak RSS of a fresh interpreter running one kernel
# (about 43 MB of it is the interpreter, numpy and the inputs)

def _uniqueness_code(n):
    return ("import numpy as np\n"
            "from meshgaze.saliency import uniqueness\n"
            "rng = np.random.default_rng(0)\n"
            f"desc = rng.random(({n}, 33))\n"
            "desc /= desc.sum(axis=1, keepdims=True)\n"
            f"uniqueness(rng.normal(size=({n}, 3)), desc)\n")


@pytest.mark.parametrize("n, budget", [(3841, 60.0), (15311, 90.0)],
                         ids=["exact", "subsampled"])
def test_uniqueness_products_of_a_few_mb(n, budget):
    """Products of about 2^19 cells: 50 MB exact on 3,841 points and 74 MB
    at 15,311 rows against 5,000 sampled columns, where products of up to
    2e7 cells took 152 and 200 MB.  Before that, three temporaries the size
    of one 2e7-cell product took 656 MB at 15,311 rows."""
    assert peak_rss_mb(_uniqueness_code(n)) < budget


def test_baseline_pair_blocks_of_a_few_mb():
    """Radius pairs in blocks of about BLOCK_ELEMENTS candidates: with
    blocks of 2^17 it took 54 MB on bumpy_sphere(5), where blocks of 2^20
    took 101 MB and all 1.8M pairs at once 151 MB."""
    peak = peak_rss_mb(
        "from meshgaze.primitives import bumpy_sphere\n"
        "from meshgaze.saliency import baseline_curvature_saliency\n"
        "baseline_curvature_saliency(bumpy_sphere(5, seed=3))\n")
    assert peak < 65.0


def test_fpfh_feature_blocks_of_a_few_mb():
    """FPFH over all 10,242 vertices of icosphere(5) at r = 0.05 diag
    (784,140 pairs): 83 MB with features binned 2^13 pairs at a time (now
    BLOCK_ELEMENTS // 3) and the descriptor finished in place, where
    whole-list temporaries took 332 MB."""
    peak = peak_rss_mb(
        "from meshgaze.mesh import bounding_box_diagonal\n"
        "from meshgaze.primitives import icosphere\n"
        "from meshgaze.saliency import compute_fpfh\n"
        "m = icosphere(5)\n"
        "compute_fpfh(m.vertices, m.normals, 0.05 * bounding_box_diagonal(m))\n")
    assert peak < 125.0


def test_subsampled_saliency_map_memory_envelope():
    """The views grid: saliency_map on all 2,601 vertices of plane_grid(50,
    50) seen from above, uniqueness against 1,000 sampled columns.  47 MB;
    with FPFH's whole-list temporaries it took 49 MB, and with uniqueness'
    one 2,601 x 1,000 product before that 64 MB."""
    pose = facing_pose((0.05, 2.5, -0.03), (0.05, 1.5, -0.03))
    peak = peak_rss_mb(
        "from meshgaze.config import RunConfig\n"
        "from meshgaze.primitives import plane_grid\n"
        "from meshgaze.saliency import saliency_map\n"
        "from meshgaze.visibility import ViewPose\n"
        f"pose = ViewPose(p={pose.p.tolist()!r}, o_deg={pose.o_deg.tolist()!r})\n"
        "cfg = RunConfig(uniqueness_exact_limit=2000,\n"
        "                uniqueness_sample_size=1000)\n"
        "smap = saliency_map(plane_grid(50, 50), pose, cfg)\n"
        "assert smap.visible == 2601 and smap.subsampled\n")
    assert peak < 51.5


def test_baseline_pair_blocks_bound_traced_memory():
    """Radius pairs streamed in blocks of BLOCK_ELEMENTS candidates: the
    baseline on bumpy_sphere(4) allocates 2.2 MB traced at its peak, where
    blocks of 2^17 candidates took 5.9 MB."""
    mesh = bumpy_sphere(4)
    out, peak = traced_peak(lambda: baseline_curvature_saliency(mesh))
    assert out.max() == 1.0
    assert peak < 2.7e6


def test_fpfh_feature_blocks_bound_traced_memory():
    """FPFH over all 2,562 vertices of bumpy_sphere(4) at r = 0.05 diag,
    features binned BLOCK_ELEMENTS // 3 pairs at a time: 4.1 MB traced at
    its peak, where 2^13-pair feature blocks and 2^17-candidate pair blocks
    took 6.0 MB.  Most of it is the pair list itself."""
    mesh = bumpy_sphere(4)
    r = 0.05 * bounding_box_diagonal(mesh)
    (_, flags), peak = traced_peak(
        lambda: compute_fpfh(mesh.vertices, mesh.normals, r))
    assert not flags.any()
    assert peak < 4.9e6
