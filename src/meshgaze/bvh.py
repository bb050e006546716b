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


def _watertight(a, b, c, frame):
    """Watertight test of triangles (a, b, c) given relative to the ray origin.

    The frame entries are arrays with one entry per row (one ray per
    row).  Returns (t, bary, valid): t is inf where invalid; bary is (m, 3)
    barycentric weights of the (a, b, c) rows; valid marks real hits with
    t > 0.
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
    valid &= t > 0.0
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
    by depth, left to right within a depth: each depth's nodes are the child
    pairs of the previous depth's split nodes, in order, so the children of
    the i-th split node are nodes 1 + 2i and 2 + 2i.  Returns order and the
    node arrays child (the first child; -1 at a leaf), start and end.
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

    start, end, split = (np.concatenate(lv) for lv in zip(*levels))
    child = np.full(len(start), -1, dtype=np.int64)
    child[split] = 1 + 2 * np.arange(int(split.sum()))
    return order, child, start, end


class TriangleBVH:
    """Axis-aligned median-split hierarchy stored as flat arrays.

    Nodes are numbered by depth, left to right within a depth; an inner
    node's children are node_child and node_child + 1, and node_child is
    -1 at a leaf.  The tree keeps the caller's vertex and triangle arrays,
    not copies, and reads its leaf triangles from them, so they must not
    change after the build.
    """

    __slots__ = ("order", "node_lo", "node_hi", "node_child", "node_start",
                 "node_count", "_vertices", "_triangles")

    def __init__(self, vertices, triangles, leaf_size: int = 8):
        vertices = np.asarray(vertices, dtype=np.float64)
        triangles = np.asarray(triangles, dtype=np.int64)
        order, node_child, node_start, node_end = _median_split(
            vertices[triangles.T].mean(axis=0), leaf_size)    # centroids
        self._vertices, self._triangles = vertices, triangles
        tv = vertices[triangles[order].T]           # (3, m, 3) in tree order
        self.order = order
        self.node_lo = _reduce_ranges(np.minimum, tv.min(axis=0), node_start,
                                      node_end)
        self.node_hi = _reduce_ranges(np.maximum, tv.max(axis=0), node_start,
                                      node_end)
        # padded so slab rounding never prunes a triangle whose hit lies on
        # a box face, as for a ray through a shared vertex
        pad = 1e-9 * (1.0 + float(np.abs(vertices).max()))
        self.node_lo -= pad
        self.node_hi += pad
        self.node_child = node_child
        self.node_start = node_start
        self.node_count = np.where(node_child < 0, node_end - node_start, 0)

    def intersect_many(self, origins, directions, *, tmax=np.inf):
        """Nearest hits of n rays as (t (n,), tri (n,), bary (n, 3)).

        A ray that misses has t = inf, tri = -1 and a NaN bary row.  Each
        hit is the lexicographic minimum (t, triangle id) that an
        exhaustive scan returns, bit for bit.  Only hits with 0 < t < tmax
        (tmax a scalar or one bound per ray) count, and no node that starts
        beyond a ray's bound is visited.
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
            self._traverse(origins[s:e], directions[s:e], t[s:e], tri[s:e],
                           bary[s:e])
        t[tri < 0] = np.inf
        return t, tri, bary

    def _traverse(self, origins, directions, best_t, best_id, best_bary):
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
            live = ~((entry > best_t[ray]) | (exit_ < np.maximum(entry, 0.0)))
            ray, node = ray[live], node[live]
            leaf = self.node_count[node] > 0
            self._leaf_hits(ray[leaf], node[leaf], origins, frame, best_t,
                            best_id, best_bary)
            ray = np.repeat(ray[~leaf], 2)
            node = (self.node_child[node[~leaf], None] + (0, 1)).ravel()

    def _leaf_hits(self, ray, node, origins, frame, best_t, best_id, best_bary):
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
            ids = self.order[slot]
            a, b, c = self._vertices[self._triangles[ids].T] - origins[r]
            t, bary, valid = _watertight(a, b, c, [f[r] for f in frame])
            if not valid.any():
                continue
            r, t, bary, ids = r[valid], t[valid], bary[valid], ids[valid]
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
