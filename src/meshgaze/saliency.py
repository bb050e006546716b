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
from .mesh import (BLOCK_ELEMENTS, Mesh, bounding_box_diagonal, gaussian,
                   radius_pair_blocks)
from .visibility import ViewPose, VisibleSet, pose_hash, visible_points

N_BINS = 11
N_FEATURES = 3
DESCRIPTOR_SIZE = N_BINS * N_FEATURES  # 33
_PRODUCT_CELLS = 1 << 19      # about the cells of one descriptor product
_PRODUCT_ROWS = 384           # a multiple of every x86-64 DGEMM row tile


class SaliencyError(MeshgazeError):
    pass


# ---------------------------------------------------------------------------
# FPFH descriptors

def _pair_features_batch(p_s, n_s, p_t, n_t, d):
    """Darboux-frame angle features (alpha, phi, theta), vectorized.

    p_s/n_s broadcast against (k, 3) targets at distances d (k,), which
    the caller gives and keeps positive.  The source of each pair is the
    point whose normal makes the smaller angle with the connecting line,
    which keeps the features symmetric in the pair.
    """
    dp = p_t - p_s
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
    descriptor and a True flag.  Sums run in radius_pair_blocks' order, at
    distances sqrt(d2).  Features are binned BLOCK_ELEMENTS // 3 pairs at
    a time; the counts are integers, so the blocks add up exactly.

    Returns (descriptors (n, 33), flags (n,)).
    """
    if not r > 0:
        raise SaliencyError("FPFH radius must be positive")
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    n = len(positions)
    blocks = []
    for _, _, i, j, d2 in radius_pair_blocks(positions, r):
        keep = d2 > 0
        blocks.append((i[keep], j[keep], np.sqrt(d2[keep])))
    i, j, dist = (np.concatenate(x) for x in zip(*blocks))
    del blocks
    k = np.bincount(i, minlength=n)
    flags, per = k == 0, np.maximum(k, 1)[:, None]

    spfh = np.zeros((n, DESCRIPTOR_SIZE))
    counts = spfh.reshape(-1)
    pairs = max(1, BLOCK_ELEMENTS // 3)
    for a in range(0, len(i), pairs):
        ib, jb = i[a:a + pairs], j[a:a + pairs]
        feats = _pair_features_batch(positions[ib], normals[ib], positions[jb],
                                     normals[jb], dist[a:a + pairs])
        # the block's sources run from ib[0] to ib[-1]: count from there
        slot = (ib - ib[0])[:, None] * DESCRIPTOR_SIZE + np.arange(
            0, DESCRIPTOR_SIZE, N_BINS)
        for col, (feat, lo, hi) in enumerate(zip(feats, (-1.0, -1.0, -np.pi),
                                                 (1.0, 1.0, np.pi))):
            idx = np.floor((feat - lo) / (hi - lo) * N_BINS).astype(np.int64)
            slot[:, col] += np.clip(idx, 0, N_BINS - 1)
        add = np.bincount(slot.ravel())
        base = ib[0] * DESCRIPTOR_SIZE
        counts[base:base + len(add)] += add
    spfh /= N_FEATURES * per

    # out = spfh + near / per, in place, near summed in rank order
    out, first = np.zeros_like(spfh), np.cumsum(k) - k
    for rank in range(k.max(initial=0)):    # every point's rank-th neighbor
        at = first[k > rank] + rank
        term = spfh[j[at]]
        term /= dist[at, None]
        out[i[at]] += term
    out /= per
    out += spfh
    total = out.sum(axis=1)
    ok = ~flags & (total > 0)
    out[ok] /= total[ok, None]
    out[~ok] = 1.0 / DESCRIPTOR_SIZE
    return out, flags


def uniqueness(positions, descriptors, exact_limit: int = 5000,
               sample_size: int = 5000, seed: int = 0,
               eps_b: float = 1e-12):
    """Distance-discounted mean descriptor dissimilarity, squashed to [0, 1).

    U(v_i) = 1 - exp(-mean_j Dis(i, j) / (1 + |x_i - x_j|)).  The mean runs
    over the whole visible set up to exact_limit points; above that it is
    estimated on a seeded uniform subsample of sample_size points, unless
    that many points would be the whole set.  The log, distances and means
    run in place on row blocks of BLOCK_ELEMENTS cells of the product.

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

    # BLAS products cut at multiples of _PRODUCT_ROWS rows, none shorter, give
    # the bytes of one uncut product: an empirical rule that the tests hold.
    acc = np.zeros(n)
    step = _PRODUCT_ROWS * max(1, _PRODUCT_CELLS // _PRODUCT_ROWS // len(cols))
    starts = range(0, max(1, n - _PRODUCT_ROWS + 1), step)
    chunk = min(n, max(step, n - starts[-1]))
    rows = min(chunk, max(1, BLOCK_ELEMENTS // len(cols)))
    buf = np.empty((chunk, len(cols)))
    d, t = np.empty((rows, len(cols))), np.empty((rows, len(cols)))
    for s, e in zip(starts, [*starts[1:], n]):
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
    weight = gaussian(sigma_c, "sigma_c", SaliencyError)
    d = np.linalg.norm(np.asarray(positions, dtype=np.float64) - center, axis=1)
    return weight(d ** 2 if squared else d)


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
    """Discrete mean curvature magnitude kappa (n,) per vertex (cotangent
    weights).  Edges shared by more than two triangles are non-manifold;
    their contributions are skipped.  A vertex without area gets 0."""
    v = mesh.vertices
    tris = mesh.triangles
    n = len(v)

    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    ekey = np.sort(edges, axis=1)
    _, inverse, counts = np.unique(ekey, axis=0, return_inverse=True,
                                   return_counts=True)
    edge_ok = counts[inverse] <= 2                      # per (tri, edge) slot

    acc = np.zeros((n, 3))
    corner = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    p = v[tris.T]                                       # (3, m, 3) corners
    tri_area = 0.5 * np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]), axis=1)
    area = np.bincount(tris.T.ravel(), np.tile(tri_area / 3.0, 3), minlength=n)

    for (i, j, k), ok in zip(corner, edge_ok.reshape(3, -1)):
        # cot of the angle at k, applied to edge (i, j)
        a = p[i] - p[k]
        b = p[j] - p[k]
        cross = np.linalg.norm(np.cross(a, b), axis=1)
        dot = np.einsum("ij,ij->i", a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            cot = np.where(cross > 1e-300, dot / cross, 0.0)
        cot = np.where(ok, cot, 0.0)
        d_ij = p[j] - p[i]
        np.add.at(acc, tris[:, i], cot[:, None] * d_ij)
        np.add.at(acc, tris[:, j], -cot[:, None] * d_ij)

    kappa = np.zeros(n)
    good = area > 1e-300
    kappa[good] = np.linalg.norm(acc[good], axis=1) / (4.0 * area[good])
    return kappa


def _gaussian_averages(values, positions, sigmas,
                       error=SaliencyError) -> np.ndarray:
    """Gaussian-weighted neighborhood average, cutoff at 2 sigma, for each
    sigma in turn, as a (len(sigmas), n) array.  Each vertex sums itself
    first, at d2 = 0, then its radius pairs at their yielded d2 in (i, j)
    order.  The pairs are found once, at the widest cutoff, and taken one
    block of sources at a time; in a block each sigma filters the pairs the
    next wider sigma kept, and writes only its block's slice of the output.
    Each sigma is checked before the pair search, which would reject an
    infinite radius first."""
    weights = [gaussian(sigma, "sigma", error) for sigma in sigmas]
    out = np.empty((len(sigmas), len(values)))
    widest_first = sorted(range(len(sigmas)), key=lambda k: -sigmas[k])
    for lo, hi, i, j, d2 in radius_pair_blocks(positions,
                                               2.0 * max(sigmas, default=1.0)):
        own = np.arange(lo, hi)
        i, j = np.concatenate([own, i]) - lo, np.concatenate([own, j])
        d2 = np.concatenate([np.zeros(hi - lo), d2])
        for k in widest_first:
            sigma = sigmas[k]
            keep = d2 <= (2.0 * sigma) * (2.0 * sigma)
            i, j, d2 = i[keep], j[keep], d2[keep]
            wts = weights[k](d2)
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


def baseline_curvature_saliency(mesh: Mesh, eps_frac: float = 0.003,
                                guard: float = 1.0) -> np.ndarray:
    """Center-surround mean-curvature saliency at multiple scales.

    The scales are 2..6 times eps_frac times the bbox diagonal.  Per scale
    sigma the map is |G(kappa, sigma) - G(kappa, 2 sigma)|, suppressed by
    (max - mean-of-other-local-maxima)^2 and summed over scales; the 8
    distinct sigmas are each smoothed once, checked in first-occurrence
    order.  The sum is min-max normalized unless its dimensionless
    contrast (times diagonal^3, since curvature carries 1/length) falls
    below `guard`, in which case the map is all zeros — a featureless
    surface must not have tessellation noise amplified to full range.
    """
    diag = bounding_box_diagonal(mesh)
    if not diag > 0:
        raise SaliencyError("the mesh's bounding-box diagonal is 0")
    eps = eps_frac * diag
    scales = [m * eps for m in (2, 3, 4, 5, 6)]
    kappa = mean_curvature(mesh)
    sigmas = list(dict.fromkeys(f * s for s in scales for f in (1.0, 2.0)))
    averages = dict(zip(sigmas, _gaussian_averages(
        kappa, mesh.vertices, sigmas,
        lambda msg: SaliencyError(f"baseline_eps_frac {eps_frac!r} is out of "
                                  f"range: {msg}"))))
    combined = np.zeros(len(mesh.vertices))
    for sigma in scales:
        smap = np.abs(averages[sigma] - averages[2.0 * sigma])
        m = float(smap.max())
        mbar = _local_maxima_mean(smap, mesh.triangles)
        combined += smap * (m - mbar) ** 2
    contrast = (float(combined.max()) - float(combined.min())) * diag ** 3
    if contrast < guard:
        return np.zeros_like(combined)
    lo, hi = float(combined.min()), float(combined.max())
    return (combined - lo) / (hi - lo)
