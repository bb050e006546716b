"""Ray-triangle intersection: watertight kernel plus a median-split BVH.

The per-triangle test is the axis-permutation + shear formulation with
edge functions U, V, W evaluated in double precision, which is
orientation-independent (hits count from both sides) and watertight along
shared edges.  The BVH prunes a node only when its entry distance is
strictly beyond the current best hit, so it returns the exact same
lexicographic-minimum (t, triangle id) as an exhaustive scan.
"""
from __future__ import annotations

import numpy as np

_TINY = 1e-300
_RAY_CHUNK = 4096          # rays traversed together
_PAIR_CHUNK = 1 << 12      # (ray, triangle) pairs per leaf kernel call


def _ray_frames(d):
    """Per-ray permutation (kx, ky, kz) and shear constants for d (n, 3).

    Components below _TINY count as exactly zero: sheared by a subnormal,
    coordinates underflow and the edge tests stop being watertight.
    """
    d = np.where(np.abs(d) < _TINY, 0.0, d)
    rows = np.arange(len(d))
    kz = np.argmax(np.abs(d), axis=1)
    dz = d[rows, kz]
    flip = dz < 0.0
    kx = np.where(flip, (kz + 2) % 3, (kz + 1) % 3)
    ky = np.where(flip, (kz + 1) % 3, (kz + 2) % 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        return kx, ky, kz, d[rows, kx] / dz, d[rows, ky] / dz, 1.0 / dz


def _watertight(a, b, c, frame, tmin):
    """Watertight test of triangles (a, b, c) given relative to the ray origin.

    The frame entries are arrays with one entry per row (one ray per
    row).  Returns (t, bary, valid): t is inf where invalid; bary is (m, 3)
    barycentric weights of the (a, b, c) rows; valid marks real hits with
    t > tmin.
    """
    kx, ky, kz, sx, sy, sz = frame
    rows = np.arange(len(a))
    ax = a[rows, kx] - sx * a[rows, kz]
    ay = a[rows, ky] - sy * a[rows, kz]
    bx = b[rows, kx] - sx * b[rows, kz]
    by = b[rows, ky] - sy * b[rows, kz]
    cx = c[rows, kx] - sx * c[rows, kz]
    cy = c[rows, ky] - sy * c[rows, kz]

    u = cx * by - cy * bx
    v = ax * cy - ay * cx
    w = bx * ay - by * ax

    det = u + v + w
    same_sign = ((u >= 0) & (v >= 0) & (w >= 0)) | ((u <= 0) & (v <= 0) & (w <= 0))
    valid = same_sign & (det != 0.0)

    az = sz * a[rows, kz]
    bz = sz * b[rows, kz]
    cz = sz * c[rows, kz]
    tnum = u * az + v * bz + w * cz

    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(valid, tnum / det, np.inf)
        bary = np.stack([u / det, v / det, w / det], axis=1)
    valid &= t > tmin
    t = np.where(valid, t, np.inf)
    return t, bary, valid


def _reduce_ranges(ufunc, values, starts, ends):
    """ufunc.reduce over each non-empty row range [start, end) of values:
    reduceat over the interleaved cuts, with a pad row that keeps
    end == len(values) a valid index."""
    padded = np.vstack([values, np.zeros((1, values.shape[1]))])
    return ufunc.reduceat(padded, np.stack([starts, ends], axis=1).ravel())[::2]


def _median_split(centroids, leaf_size: int):
    """Median-split tree over triangle centroids, built one depth at a time.

    A node over the range [start, end) of `order` splits at its middle
    after a stable sort of its range by centroid along the axis of widest
    centroid spread (the first such axis), unless it holds at most
    leaf_size triangles or all its centroids coincide.  Nodes are numbered
    in depth-first preorder (node, left subtree, right subtree).  Returns
    order and the node arrays left, right (-1 at a leaf), start and end.
    """
    m = len(centroids)
    order = np.arange(m, dtype=np.int64)
    starts, ends = np.zeros(1, dtype=np.int64), np.full(1, m, dtype=np.int64)
    levels = []                 # per depth: (starts, ends, split mask)
    while len(starts):
        cen = centroids[order]
        spread = (_reduce_ranges(np.maximum, cen, starts, ends)
                  - _reduce_ranges(np.minimum, cen, starts, ends))
        axis = np.argmax(spread, axis=1)
        split = ((ends - starts > leaf_size)
                 & (spread[np.arange(len(axis)), axis] > 0.0))
        levels.append((starts, ends, split))
        s, e, ax = starts[split], ends[split], axis[split]
        # every split range sorted in place: a stable sort by (node, key)
        size = e - s
        node = np.repeat(np.arange(len(s)), size)
        pos = np.arange(int(size.sum())) + np.repeat(s - np.cumsum(size) + size, size)
        key = centroids[order[pos], ax[node]]
        order[pos] = order[pos][np.lexsort((key, node))]
        mid = s + size // 2
        starts = np.stack([s, mid], axis=1).ravel()
        ends = np.stack([mid, e], axis=1).ravel()

    # subtree node counts bottom-up, then preorder ids top-down: a left
    # child follows its parent, a right child follows the left subtree
    sizes = [np.ones(len(lv[0]), dtype=np.int64) for lv in levels]
    for d in range(len(levels) - 2, -1, -1):
        below = sizes[d + 1].reshape(-1, 2)
        sizes[d][levels[d][2]] += below.sum(axis=1)
    ids = [np.zeros(1, dtype=np.int64)]
    for d in range(1, len(levels)):
        parent = ids[d - 1][levels[d - 1][2]]
        left = parent + 1
        ids.append(np.stack([left, left + sizes[d][0::2]], axis=1).ravel())

    n = int(sizes[0][0])
    node_left = np.full(n, -1, dtype=np.int64)
    node_right = np.full(n, -1, dtype=np.int64)
    node_start = np.empty(n, dtype=np.int64)
    node_end = np.empty(n, dtype=np.int64)
    for d, (starts, ends, split) in enumerate(levels):
        node_start[ids[d]] = starts
        node_end[ids[d]] = ends
        if d + 1 < len(levels):
            children = ids[d + 1].reshape(-1, 2)
            node_left[ids[d][split]] = children[:, 0]
            node_right[ids[d][split]] = children[:, 1]
    return order, node_left, node_right, node_start, node_end


class TriangleBVH:
    """Axis-aligned median-split hierarchy stored as flat arrays."""

    __slots__ = ("order", "node_lo", "node_hi", "node_left", "node_right",
                 "node_start", "node_count", "_v0", "_v1", "_v2")

    def __init__(self, vertices, triangles, leaf_size: int = 8):
        vertices = np.asarray(vertices, dtype=np.float64)
        triangles = np.asarray(triangles, dtype=np.int64)
        tv = vertices[triangles]                    # (m, 3, 3)
        tri_lo = tv.min(axis=1)
        tri_hi = tv.max(axis=1)
        centroids = tv.mean(axis=1)

        order, node_left, node_right, node_start, node_end = _median_split(
            centroids, leaf_size)
        self.order = order
        self.node_lo = _reduce_ranges(np.minimum, tri_lo[order], node_start,
                                      node_end)
        self.node_hi = _reduce_ranges(np.maximum, tri_hi[order], node_start,
                                      node_end)
        # padded so slab rounding never prunes a triangle whose hit lies on
        # a box face, as for a ray through a shared vertex
        pad = 1e-9 * (1.0 + float(np.abs(vertices).max()))
        self.node_lo -= pad
        self.node_hi += pad
        self.node_left = node_left
        self.node_right = node_right
        self.node_start = node_start
        self.node_count = np.where(node_left < 0, node_end - node_start, 0)
        ordered = triangles[order]
        self._v0 = vertices[ordered[:, 0]]
        self._v1 = vertices[ordered[:, 1]]
        self._v2 = vertices[ordered[:, 2]]

    def intersect_many(self, origins, directions, tmin: float = 0.0,
                       tmax=np.inf):
        """Nearest hits of n rays as (t (n,), tri (n,), bary (n, 3)).

        A ray that misses has t = inf, tri = -1 and a NaN bary row.  Each
        hit is the lexicographic minimum (t, triangle id) that an
        exhaustive scan returns, bit for bit.  Only hits with t < tmax (a
        scalar or one bound per ray) count, and no node that starts beyond
        a ray's bound is visited.
        """
        origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
        directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
        if len(origins) != len(directions):
            raise ValueError("origins and directions differ in length")
        n = len(origins)
        t = np.array(np.broadcast_to(tmax, n), dtype=np.float64)
        tri = np.full(n, -1, dtype=np.int64)
        bary = np.full((n, 3), np.nan)
        for s in range(0, n, _RAY_CHUNK):
            e = s + _RAY_CHUNK
            self._traverse(origins[s:e], directions[s:e], tmin,
                           t[s:e], tri[s:e], bary[s:e])
        t[tri < 0] = np.inf
        return t, tri, bary

    def _traverse(self, origins, directions, tmin, best_t, best_id, best_bary):
        """Wavefront traversal: each step advances every live (ray, node)
        pair; the best-hit arrays (views of the caller's) update in place."""
        safe = np.where(np.abs(directions) < _TINY,
                        np.copysign(_TINY, directions), directions)
        inv = 1.0 / safe
        frame = _ray_frames(directions)
        ray = np.arange(len(origins))
        node = np.zeros(len(origins), dtype=np.int64)
        while len(ray):
            # slab entry and exit distances of each pair's node box
            o, r = origins[ray], inv[ray]
            t0 = (self.node_lo[node] - o) * r
            t1 = (self.node_hi[node] - o) * r
            entry = np.minimum(t0, t1).max(axis=1)
            exit_ = np.maximum(t0, t1).min(axis=1)
            # prune only strictly-beyond nodes so exact ties match brute force
            live = ~((entry > best_t[ray]) | (exit_ < np.maximum(entry, tmin)))
            ray, node = ray[live], node[live]
            leaf = self.node_count[node] > 0
            self._leaf_hits(ray[leaf], node[leaf], origins, frame, tmin,
                            best_t, best_id, best_bary)
            inner = node[~leaf]
            ray = np.repeat(ray[~leaf], 2)
            node = np.stack([self.node_left[inner], self.node_right[inner]],
                            axis=1).ravel()

    def _leaf_hits(self, ray, node, origins, frame, tmin,
                   best_t, best_id, best_bary):
        """Test leaf (ray, triangle) pairs in bounded blocks; keep per-ray bests."""
        cnt = self.node_count[node]
        first = np.cumsum(cnt) - cnt    # offset of each pair's first triangle
        cuts = np.searchsorted(first, np.arange(0, int(cnt.sum()), _PAIR_CHUNK))
        for lo, hi in zip(cuts, list(cuts[1:]) + [len(ray)]):
            if lo == hi:
                continue
            r = np.repeat(ray[lo:hi], cnt[lo:hi])
            slot = (np.repeat(self.node_start[node[lo:hi]] - first[lo:hi],
                              cnt[lo:hi])
                    + np.arange(first[lo], first[lo] + len(r)))
            o = origins[r]
            t, bary, valid = _watertight(
                self._v0[slot] - o, self._v1[slot] - o, self._v2[slot] - o,
                [f[r] for f in frame], tmin)
            if not valid.any():
                continue
            r, t, bary = r[valid], t[valid], bary[valid]
            ids = self.order[slot[valid]]
            # per-ray lexicographic minimum of (t, id) within the block
            srt = np.lexsort((ids, t, r))
            rs = r[srt]
            head = srt[np.r_[True, rs[1:] != rs[:-1]]]
            r, t, ids, bary = r[head], t[head], ids[head], bary[head]
            better = (t < best_t[r]) | ((t == best_t[r]) & (ids < best_id[r]))
            r = r[better]
            best_t[r] = t[better]
            best_id[r] = ids[better]
            best_bary[r] = bary[better]
