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
_PAIR_CHUNK = 1 << 15      # (ray, triangle) pairs per leaf kernel call


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

    The frame entries are scalars (one ray against every row) or arrays
    with one entry per row (one ray per row).  Returns (t, bary, valid) as
    intersect_triangles does.
    """
    kx, ky, kz, sx, sy, sz = frame
    rows = np.arange(len(a)) if np.ndim(kx) else slice(None)
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


def intersect_triangles(origin, direction, v0, v1, v2, tmin: float = 0.0):
    """Watertight ray test against a batch of triangles.

    Returns (t, bary, valid): t is inf where invalid; bary is (m, 3)
    barycentric weights of (v0, v1, v2) rows; valid marks real hits with
    t > tmin.
    """
    origin = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64).reshape(1, 3)
    frame = [f[0] for f in _ray_frames(d)]
    return _watertight(v0 - origin, v1 - origin, v2 - origin, frame, tmin)


def _best_hit(t, bary, valid, ids):
    """Lexicographic minimum of (t, id) over valid hits, or None."""
    if not valid.any():
        return None
    tv = t[valid]
    iv = ids[valid]
    bv = bary[valid]
    tbest = tv.min()
    at = np.nonzero(tv == tbest)[0]
    pick = at[np.argmin(iv[at])]
    return float(tv[pick]), int(iv[pick]), bv[pick].copy()


def intersect_brute(vertices, triangles, origin, direction, tmin: float = 0.0):
    """Exhaustive per-triangle scan: nearest hit as (t, tri_id, bary) or None."""
    v0 = vertices[triangles[:, 0]]
    v1 = vertices[triangles[:, 1]]
    v2 = vertices[triangles[:, 2]]
    t, bary, valid = intersect_triangles(origin, direction, v0, v1, v2, tmin)
    return _best_hit(t, bary, valid, np.arange(len(triangles)))


class TriangleBVH:
    """Axis-aligned median-split hierarchy stored as flat arrays."""

    __slots__ = ("vertices", "triangles", "order", "node_lo", "node_hi",
                 "node_left", "node_right", "node_start", "node_count",
                 "_v0", "_v1", "_v2")

    def __init__(self, vertices, triangles, leaf_size: int = 8):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        m = len(self.triangles)
        tv = self.vertices[self.triangles]          # (m, 3, 3)
        tri_lo = tv.min(axis=1)
        tri_hi = tv.max(axis=1)
        centroids = tv.mean(axis=1)

        order = np.arange(m, dtype=np.int64)
        node_left, node_right = [], []
        node_start, node_end, node_count = [], [], []

        # iterative build over [start, end) ranges of `order`
        stack = [(0, m, -1, False)]
        while stack:
            start, end, parent, is_right = stack.pop()
            idx = order[start:end]
            me = len(node_start)
            node_left.append(-1)
            node_right.append(-1)
            node_start.append(start)
            node_end.append(end)
            node_count.append(0)
            if parent >= 0:
                if is_right:
                    node_right[parent] = me
                else:
                    node_left[parent] = me
            count = end - start
            cen = centroids[idx]
            spread = cen.max(axis=0) - cen.min(axis=0)
            axis = int(np.argmax(spread))
            if count <= leaf_size or spread[axis] <= 0.0:
                node_count[me] = count
                continue
            local = np.argsort(cen[:, axis], kind="stable")
            order[start:end] = idx[local]
            mid = start + count // 2
            stack.append((mid, end, me, True))
            stack.append((start, mid, me, False))

        self.order = order
        # node boxes in one pass: reduceat over the interleaved [start, end)
        # ranges (a pad row keeps end == m a valid index)
        cuts = np.stack([node_start, node_end], axis=1).ravel()
        pad_row = np.zeros((1, 3))
        self.node_lo = np.minimum.reduceat(
            np.vstack([tri_lo[order], pad_row]), cuts)[::2]
        self.node_hi = np.maximum.reduceat(
            np.vstack([tri_hi[order], pad_row]), cuts)[::2]
        # padded so slab rounding never prunes a triangle whose hit lies on
        # a box face, as for a ray through a shared vertex
        pad = 1e-9 * (1.0 + float(np.abs(self.vertices).max()))
        self.node_lo -= pad
        self.node_hi += pad
        self.node_left = np.asarray(node_left, dtype=np.int64)
        self.node_right = np.asarray(node_right, dtype=np.int64)
        self.node_start = np.asarray(node_start, dtype=np.int64)
        self.node_count = np.asarray(node_count, dtype=np.int64)
        ordered = self.triangles[order]
        self._v0 = self.vertices[ordered[:, 0]]
        self._v1 = self.vertices[ordered[:, 1]]
        self._v2 = self.vertices[ordered[:, 2]]

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
