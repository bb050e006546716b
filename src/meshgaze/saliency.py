"""View-dependent mesh saliency: local-feature uniqueness times visual bias.

Per visible vertex, a 33-bin FPFH descriptor (three Darboux-frame angle
features, 11 bins each) summarizes local surface geometry.  Pairwise
descriptor dissimilarity is the Bhattacharyya distance
Dis = -log(sum_n sqrt(f_ni * f_nj)), distance-discounted and averaged
over the visible set to yield uniqueness U; the visual-bias weight C
decays with distance from the visible-set centroid; the final map is
S = U * C on visible vertices and exactly zero elsewhere.  A
center-surround curvature detector is included as a view-independent
baseline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MeshgazeError
from .mesh import (Mesh, bounding_box_diagonal, radius_pair_blocks,
                   radius_pairs)
from .visibility import ViewPose, VisibleSet, pose_hash, visible_points

N_BINS = 11
N_FEATURES = 3
DESCRIPTOR_SIZE = N_BINS * N_FEATURES  # 33
_PRODUCT_CELLS = 2.0e7        # cells of one descriptor product in uniqueness
_BLOCK_CELLS = 1 << 16        # cells per elementwise pass over the product


class SaliencyError(MeshgazeError):
    pass


# ---------------------------------------------------------------------------
# FPFH descriptors

def _pair_features_batch(p_s, n_s, p_t, n_t):
    """Darboux-frame angle features (alpha, phi, theta), vectorized.

    p_s/n_s broadcast against (k, 3) targets; zero-length pairs must be
    filtered by the caller.  The source of each pair is the point whose
    normal makes the smaller angle with the connecting line, which keeps
    the features symmetric in the pair.
    """
    dp = p_t - p_s
    d = np.linalg.norm(dp, axis=1)
    a1 = (n_s * dp).sum(axis=1) / d
    a2 = (n_t * dp).sum(axis=1) / d
    swap = np.abs(a1) < np.abs(a2)

    src_n = np.where(swap[:, None], n_t, np.broadcast_to(n_s, n_t.shape))
    tgt_n = np.where(swap[:, None], np.broadcast_to(n_s, n_t.shape), n_t)
    dps = np.where(swap[:, None], -dp, dp)

    dpn = dps / d[:, None]
    u = src_n
    phi = (u * dpn).sum(axis=1)
    v = np.cross(dpn, u)
    nv = np.linalg.norm(v, axis=1)
    safe = nv > 1e-12
    v = np.where(safe[:, None], v / np.where(nv[:, None] > 0, nv[:, None], 1.0), 0.0)
    w = np.cross(u, v)
    alpha = (v * tgt_n).sum(axis=1)
    theta = np.arctan2((w * tgt_n).sum(axis=1), (u * tgt_n).sum(axis=1))
    return alpha, phi, theta


def compute_fpfh(positions, normals, r: float):
    """FPFH descriptors for a point set with normals.

    Simplified histograms (SPFH) are built per point over neighbors within
    r, then blended: FPFH(p) = SPFH(p) + (1/k) sum_q SPFH(q) / |p - q|,
    renormalized to sum 1.  Points with no neighbors in r get the uniform
    descriptor and a True flag.  Sums run in radius_pairs order.

    Returns (descriptors (n, 33), flags (n,)).
    """
    if not r > 0:
        raise SaliencyError("FPFH radius must be positive")
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    n = len(positions)
    i, j = radius_pairs(positions, r)
    dist = np.linalg.norm(positions[j] - positions[i], axis=1)
    i, j, dist = (x[dist > 0] for x in (i, j, dist))
    k = np.bincount(i, minlength=n)
    flags, per = k == 0, np.maximum(k, 1)[:, None]

    alpha, phi, theta = _pair_features_batch(
        positions[i], normals[i], positions[j], normals[j])
    slot = i[:, None] * DESCRIPTOR_SIZE + np.arange(0, DESCRIPTOR_SIZE, N_BINS)
    for col, (feat, lo, hi) in enumerate(((alpha, -1.0, 1.0), (phi, -1.0, 1.0),
                                          (theta, -np.pi, np.pi))):
        idx = np.floor((feat - lo) / (hi - lo) * N_BINS).astype(np.int64)
        slot[:, col] += np.clip(idx, 0, N_BINS - 1)
    spfh = np.bincount(slot.ravel(), minlength=n * DESCRIPTOR_SIZE)
    spfh = spfh.reshape(n, DESCRIPTOR_SIZE) / (N_FEATURES * per)

    near, first = np.zeros_like(spfh), np.cumsum(k) - k
    for rank in range(k.max(initial=0)):    # every point's rank-th neighbor
        at = first[k > rank] + rank
        near[i[at]] += spfh[j[at]] / dist[at, None]
    blended = spfh + near / per
    total = blended.sum(axis=1)
    ok = ~flags & (total > 0)
    out = np.full((n, DESCRIPTOR_SIZE), 1.0 / DESCRIPTOR_SIZE)
    out[ok] = blended[ok] / total[ok, None]
    return out, flags


def uniqueness(positions, descriptors, exact_limit: int = 5000,
               sample_size: int = 5000, seed: int = 0,
               eps_b: float = 1e-12):
    """Distance-discounted mean descriptor dissimilarity, squashed to [0, 1).

    U(v_i) = 1 - exp(-mean_j Dis(i, j) / (1 + |x_i - x_j|)).  The mean runs
    over the whole visible set up to exact_limit points; above that it is
    estimated on a seeded uniform subsample of sample_size points, unless
    that many points would be the whole set.

    Returns (u, subsampled: bool).
    """
    positions = np.asarray(positions, dtype=np.float64)
    descriptors = np.asarray(descriptors, dtype=np.float64)
    n = len(positions)
    if n == 0:
        raise SaliencyError("empty visible set")
    subsampled = n > exact_limit and n > sample_size
    if subsampled:
        rng = np.random.default_rng(seed)
        cols = np.sort(rng.choice(n, size=sample_size, replace=False))
    else:
        cols = np.arange(n)

    sqrt_all = np.sqrt(descriptors)
    sqrt_cols = sqrt_all[cols]
    pos_cols = positions[cols]

    # One BLAS product per chunk of rows, always cut at the same rows: the
    # product's last bits depend on the operand shapes.  The elementwise
    # passes run on cache-sized row blocks of it, in place.
    acc = np.zeros(n)
    chunk = min(n, max(1, int(_PRODUCT_CELLS // len(cols))))
    rows = min(chunk, max(1, _BLOCK_CELLS // len(cols)))
    buf = np.empty((chunk, len(cols)))
    d, t = np.empty((rows, len(cols))), np.empty((rows, len(cols)))
    for s in range(0, n, chunk):
        e = min(n, s + chunk)
        np.matmul(sqrt_all[s:e], sqrt_cols.T, out=buf[:e - s])  # (chunk, |cols|)
        for a in range(s, e, rows):
            b = min(e, a + rows)
            dis, db, tb = buf[a - s:b - s], d[:b - a], t[:b - a]
            np.log(np.maximum(dis, eps_b, out=dis), out=dis)
            np.maximum(np.negative(dis, out=dis), 0.0, out=dis)  # -log(1 + noise) < 0
            # |x_i - x_j| summed as np.linalg.norm sums it: (dx2 + dy2) + dz2
            np.subtract.outer(positions[a:b, 0], pos_cols[:, 0], out=db)
            db *= db
            for axis in (1, 2):
                np.subtract.outer(positions[a:b, axis], pos_cols[:, axis], out=tb)
                tb *= tb
                db += tb
            np.sqrt(db, out=db)
            db += 1.0
            dis /= db
            acc[a:b] = dis.mean(axis=1)
    return 1.0 - np.exp(-acc), subsampled


def bias_weight(positions, center, sigma_c: float = 0.2,
                squared: bool = False) -> np.ndarray:
    """Visual-bias weight: exponential decay with distance from the
    visible-set centroid.  The default exponent uses the unsquared
    distance over 2 sigma^2, as printed in the defining equation; squared
    selects the conventional Gaussian form."""
    if not sigma_c > 0:
        raise SaliencyError("sigma_c must be positive")
    d = np.linalg.norm(np.asarray(positions, dtype=np.float64) - center, axis=1)
    expo = d ** 2 if squared else d
    return np.exp(-expo / (2.0 * sigma_c * sigma_c))


@dataclass
class SaliencyMap:
    s: np.ndarray
    u: np.ndarray
    c: np.ndarray
    pose_id: str
    flagged: bool = False          # empty visible set
    subsampled: bool = False       # uniqueness estimated on a subsample
    params: dict = field(default_factory=dict)
    visible: int = 0               # visible vertices
    fpfh_radius: float = 0.0
    isolated: int = 0              # visible vertices with no FPFH neighbor


def saliency_map(mesh: Mesh, pose: ViewPose, cfg, vs: VisibleSet | None = None) -> SaliencyMap:
    """Full per-pose pipeline: visibility, FPFH, uniqueness, bias, product."""
    n = len(mesh.vertices)
    if vs is None:
        vs = visible_points(mesh, pose, cfg.depth_tol_frac)
    pid = pose_hash(pose)
    params = {
        "fpfh_radius_frac": cfg.fpfh_radius_frac,
        "sigma_c": cfg.sigma_c,
        "bias_squared_distance": cfg.bias_squared_distance,
        "uniqueness_exact_limit": cfg.uniqueness_exact_limit,
        "uniqueness_sample_size": cfg.uniqueness_sample_size,
        "eps_bhattacharyya": cfg.eps_bhattacharyya,
        "seed": cfg.seed,
    }
    if vs.empty:
        zero = np.zeros(n)
        return SaliencyMap(s=zero, u=zero.copy(), c=zero.copy(), pose_id=pid,
                           flagged=True, params=params)

    ids = vs.ids
    positions = mesh.vertices[ids]
    # orient normals toward the eye for descriptor stability
    normals = mesh.normals[ids].copy()
    toward = pose.p - positions
    flip = np.einsum("ij,ij->i", normals, toward) < 0.0
    normals[flip] = -normals[flip]

    r = cfg.fpfh_radius_frac * bounding_box_diagonal(mesh)
    descriptors, isolated = compute_fpfh(positions, normals, r)
    u_vis, subsampled = uniqueness(positions, descriptors,
                                   cfg.uniqueness_exact_limit,
                                   cfg.uniqueness_sample_size,
                                   cfg.seed, cfg.eps_bhattacharyya)
    c_vis = bias_weight(positions, vs.center, cfg.sigma_c,
                        cfg.bias_squared_distance)
    u = np.zeros(n)
    c = np.zeros(n)
    s = np.zeros(n)
    u[ids] = u_vis
    c[ids] = c_vis
    s[ids] = u_vis * c_vis
    return SaliencyMap(s=s, u=u, c=c, pose_id=pid, flagged=False,
                       subsampled=subsampled, params=params, visible=len(ids),
                       fpfh_radius=r, isolated=int(isolated.sum()))


# ---------------------------------------------------------------------------
# curvature baseline

def mean_curvature(mesh: Mesh):
    """Discrete mean curvature magnitude per vertex (cotangent weights).

    Edges shared by more than two triangles are non-manifold; their
    contributions are skipped and the touching vertices flagged.

    Returns (kappa (n,), flags (n,)).
    """
    v = mesh.vertices
    tris = mesh.triangles
    n = len(v)

    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    ekey = np.sort(edges, axis=1)
    _, inverse, counts = np.unique(ekey, axis=0, return_inverse=True,
                                   return_counts=True)
    edge_ok = counts[inverse] <= 2                      # per (tri, edge) slot
    flags = np.zeros(n, dtype=bool)
    bad = edges[~edge_ok]
    if len(bad):
        flags[np.unique(bad)] = True

    acc = np.zeros((n, 3))
    area = np.zeros(n)
    corner = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    p0 = v[tris[:, 0]]
    p1 = v[tris[:, 1]]
    p2 = v[tris[:, 2]]
    tri_area = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)
    for c_i in range(3):
        np.add.at(area, tris[:, c_i], tri_area / 3.0)

    for slot, (i, j, k) in enumerate(corner):
        # cot of the angle at k, applied to edge (i, j)
        a = v[tris[:, i]] - v[tris[:, k]]
        b = v[tris[:, j]] - v[tris[:, k]]
        cross = np.linalg.norm(np.cross(a, b), axis=1)
        dot = np.einsum("ij,ij->i", a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.where(cross > 1e-300, dot / cross, 0.0)
        ok = edge_ok[slot * len(tris):(slot + 1) * len(tris)]
        cot = np.where(ok, cot, 0.0)
        d_ij = v[tris[:, j]] - v[tris[:, i]]
        np.add.at(acc, tris[:, i], cot[:, None] * d_ij)
        np.add.at(acc, tris[:, j], -cot[:, None] * d_ij)

    kappa = np.zeros(n)
    good = area > 1e-300
    kappa[good] = np.linalg.norm(acc[good], axis=1) / (4.0 * area[good])
    flags |= ~good
    return kappa, flags


def _gaussian_averages(values, positions, sigmas) -> np.ndarray:
    """Gaussian-weighted neighborhood average, cutoff at 2 sigma, for each
    sigma in turn, as a (len(sigmas), n) array.  Each vertex sums itself
    first, then its radius pairs in (i, j) order.  The pairs are found once,
    at the widest cutoff, and taken one block of sources at a time; in a
    block each sigma filters the pairs the next wider sigma kept, and writes
    only its block's slice of the output."""
    out = np.empty((len(sigmas), len(values)))
    widest_first = sorted(range(len(sigmas)), key=lambda k: -sigmas[k])
    for lo, hi, pairs in radius_pair_blocks(positions,
                                            2.0 * max(sigmas, default=1.0)):
        i, j = (np.concatenate([np.arange(lo, hi), ids]) for ids in pairs)
        d2 = np.sum((positions[j] - positions[i]) ** 2, axis=1)
        i -= lo
        for k in widest_first:
            sigma = sigmas[k]
            keep = d2 <= (2.0 * sigma) * (2.0 * sigma)
            i, j, d2 = i[keep], j[keep], d2[keep]
            wts = np.exp(-d2 / (2.0 * sigma * sigma))
            out[k, lo:hi] = (np.bincount(i, wts * values[j], minlength=hi - lo)
                             / np.bincount(i, wts, minlength=hi - lo))
    return out


def _local_maxima_mean(values, tris) -> float:
    """Mean of local-maximum values excluding the global maximum."""
    n = len(values)
    is_max = np.ones(n, dtype=bool)
    for a_col, b_col in ((0, 1), (1, 2), (2, 0)):
        a = tris[:, a_col]
        b = tris[:, b_col]
        lt = values[a] < values[b]
        np.logical_and.at(is_max, a[lt], False)
        lt2 = values[b] < values[a]
        np.logical_and.at(is_max, b[lt2], False)
    cand = np.nonzero(is_max)[0]
    if len(cand) <= 1:
        return 0.0
    g = cand[np.argmax(values[cand])]
    rest = values[cand[cand != g]]
    return float(rest.mean()) if len(rest) else 0.0


def baseline_curvature_saliency(mesh: Mesh, scales=None,
                                eps_frac: float = 0.003,
                                guard: float = 1.0) -> np.ndarray:
    """Center-surround mean-curvature saliency at multiple scales.

    Per scale sigma the map is |G(kappa, sigma) - G(kappa, 2 sigma)|,
    suppressed by (max - mean-of-other-local-maxima)^2 and summed over
    scales.  The sum is min-max normalized unless its dimensionless
    contrast (times diagonal^3, since curvature carries 1/length) falls
    below `guard`, in which case the map is all zeros — a featureless
    surface must not have tessellation noise amplified to full range.
    """
    diag = bounding_box_diagonal(mesh)
    if scales is None:
        eps = eps_frac * diag
        scales = [m * eps for m in (2, 3, 4, 5, 6)]
    kappa, _ = mean_curvature(mesh)
    averages = _gaussian_averages(kappa, mesh.vertices,
                                  [f * sigma for sigma in scales for f in (1.0, 2.0)])
    combined = np.zeros(len(mesh.vertices))
    for fine, coarse in zip(averages[0::2], averages[1::2]):  # sigma, 2 sigma
        smap = np.abs(fine - coarse)
        m = float(smap.max())
        mbar = _local_maxima_mean(smap, mesh.triangles)
        combined += smap * (m - mbar) ** 2
    contrast = (float(combined.max()) - float(combined.min())) * diag ** 3
    if contrast < guard:
        return np.zeros_like(combined)
    lo, hi = float(combined.min()), float(combined.max())
    return (combined - lo) / (hi - lo)
