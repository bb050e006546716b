"""Fixation classification, AOI clustering, and cluster-center selection.

Classification uses a distance-adaptive velocity threshold: sample k is a
fixation when its displacement from the previous intersection satisfies
||I_k - I_{k-1}|| <= h * D_k, where D_k is the current head-to-surface
distance — the absolute threshold grows when the subject stands farther
away.  Fixation runs shorter than the minimum duration are relabeled as
saccades.  Runs are clustered by a greedy temporal scan, and each
cluster's representative point is chosen by a damped random walk over the
member points that folds in local sample density.

A stream is three arrays: timestamps t (n,), intersection points (n, 3)
and head-to-surface distances (n,), with NaN rows where the sight line
missed the mesh.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MeshgazeError
from .io import read_csv, write_csv

FIXATION = "fixation"
SACCADE = "saccade"
MISS = "miss"


class FixationError(MeshgazeError):
    """Invalid stream or degenerate fixation geometry."""


@dataclass
class FixationPoint:
    __slots__ = ("position", "pose_p", "pose_o", "duration", "weight")
    position: np.ndarray
    pose_p: np.ndarray
    pose_o: np.ndarray   # Euler degrees
    duration: float      # seconds
    weight: int          # member count


def median(values) -> float:
    """np.median of a non-empty array, bit for bit, without np.median's
    first-call import of numpy.ma: the same partition, then the np.mean of
    the middle element or the two middle ones; NaN if any value is NaN."""
    a = np.asarray(values, dtype=np.float64).ravel()
    n = len(a)
    kth = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(a, kth + [-1])
    if np.isnan(part[-1]):
        return float("nan")
    return float(np.mean(part[kth[0]:kth[-1] + 1]))


def nominal_dt(t) -> float:
    """Median inter-sample gap; the one-sample share of a run's duration."""
    t = np.asarray(t, dtype=np.float64)
    if len(t) < 2:
        return 1.0 / 120.0
    return median(np.diff(t))


def _runs(mask):
    """Start and end (exclusive) indices of the maximal True runs."""
    edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def classify_ivt(t, points, distances, h: float, min_fixation_s: float = 0.1,
                 dt: float | None = None) -> np.ndarray:
    """Label a stream, one of FIXATION, SACCADE or MISS per sample.

    The first hit after a miss (or at stream start) takes the label of its
    successor's test; a lone hit between misses is a saccade.  A run of n
    fixation samples spans (t_last - t_first) + dt seconds, so that a
    12-sample run at 120 Hz lasts exactly 100 ms.
    """
    if not h > 0:
        raise FixationError("h must be positive")
    t = np.asarray(t, dtype=np.float64)
    if len(t) == 0:
        raise FixationError("empty stream")
    if (t[1:] <= t[:-1]).any():
        raise FixationError("timestamps not strictly increasing")
    if dt is None:
        dt = nominal_dt(t)
    points = np.asarray(points, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    hit = ~np.isnan(distances)

    # a step from or to a miss is NaN and tests False
    d = np.diff(points, axis=0)
    disp = np.sqrt((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2])
    fix = np.zeros(len(t) + 1, dtype=bool)    # one False past the end
    fix[1:-1] = disp <= h * distances[1:]
    first, _ = _runs(hit)
    fix[first] = fix[first + 1]
    fix = fix[:-1]

    # minimum-duration filter over maximal fixation runs
    s, e = _runs(fix)
    fix[fix] = np.repeat(~((t[e - 1] - t[s]) + dt < min_fixation_s), e - s)
    return np.where(hit, np.where(fix, FIXATION, SACCADE), MISS)


def group_clusters(points, interval: float) -> np.ndarray:
    """Greedy temporal scan: a fixation joins the open cluster while it stays
    within `interval` of the running centroid; clusters never interleave.
    Returns the index at which each cluster starts."""
    starts = []
    centroid = None
    n = 0
    for i, pt in enumerate(np.asarray(points, dtype=np.float64)):
        if n and float(np.linalg.norm(pt - centroid)) <= interval:
            n += 1
            centroid = centroid + (pt - centroid) / n
        else:
            starts.append(i)
            n = 1
            centroid = pt.copy()
    return np.asarray(starts, dtype=np.int64)


def cluster_center_random_walk(points, sigma_rw: float, lam: float = 0.85,
                               rho_radius: float = 0.015, tol: float = 1e-9,
                               max_iter: int = 1000) -> int:
    """Index of the cluster's representative point by a damped random walk.

    Transition weights w_ij = exp(-d_ij / sigma_rw) (w_ii = 0) are row
    normalized; the walk mixes with the local-density distribution rho at
    rate (1 - lam).  The point with the largest stationary mass wins,
    ties to the earliest.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n == 0:
        raise FixationError("empty cluster")
    if n == 1:
        return 0
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    w = np.exp(-dist / sigma_rw)
    np.fill_diagonal(w, 0.0)
    t = w / w.sum(axis=1, keepdims=True)

    rho = (dist <= rho_radius).sum(axis=1).astype(np.float64)  # includes self
    rho /= rho.sum()

    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = lam * (t.T @ pi) + (1.0 - lam) * rho
        if float(np.abs(nxt - pi).sum()) < tol:
            pi = nxt
            break
        pi = nxt
    return int(np.argmax(pi))  # argmax takes the first (earliest) max


def saccade_amplitude(f_a: FixationPoint, f_b: FixationPoint) -> float:
    """Angular distance in degrees between consecutive fixations, seen from
    the head position of the later one."""
    p = f_b.pose_p
    va = f_a.position - p
    vb = f_b.position - p
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na <= 1e-12 or nb <= 1e-12:
        raise FixationError("fixation coincides with head position")
    cosang = float(np.dot(va, vb) / (na * nb))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))


def extract_fixations(traced, cfg) -> tuple[list[FixationPoint], dict]:
    """Full per-recording pipeline on a traced stream [(PoseSample,
    record-or-None)]: classify, cluster, pick centers.

    Each fixation's pose is the member nearest the cluster's temporal
    midpoint (ties to the earliest), its duration (t_last - t_first) + dt
    and its weight the member count.  Returns (fixation points, stats)
    where stats counts samples by label.
    """
    t = np.array([s.t for s, _ in traced], dtype=np.float64)
    miss = np.full(3, np.nan)
    points = np.array([miss if r is None else r.point for _, r in traced],
                      dtype=np.float64).reshape(-1, 3)
    distances = np.array([np.nan if r is None else r.distance
                          for _, r in traced], dtype=np.float64)
    dt = nominal_dt(t)
    labels = classify_ivt(t, points, distances, cfg.ivt_h,
                          cfg.min_fixation_s, dt=dt)
    stats = {
        "samples": len(labels),
        "fixation_samples": int((labels == FIXATION).sum()),
        "saccade_samples": int((labels == SACCADE).sum()),
        "miss_samples": int((labels == MISS).sum()),
    }

    out: list[FixationPoint] = []
    for s, e in zip(*_runs(labels == FIXATION)):
        starts = s + group_clusters(points[s:e], cfg.cluster_interval)
        bounds = np.append(starts, e)
        for a, b in zip(bounds[:-1], bounds[1:]):
            mid = 0.5 * (t[a] + t[b - 1])
            rep = traced[a + int(np.argmin(np.abs(t[a:b] - mid)))][0]
            center = a + cluster_center_random_walk(
                points[a:b], cfg.rw_sigma, cfg.rw_lambda, cfg.rw_rho_radius,
                cfg.rw_tol, cfg.rw_max_iter)
            out.append(FixationPoint(position=points[center].copy(),
                                     pose_p=rep.p.copy(),
                                     pose_o=rep.o_deg.copy(),
                                     duration=float((t[b - 1] - t[a]) + dt),
                                     weight=int(b - a)))
    stats["fixations"] = len(out)
    return out, stats


# ---------------------------------------------------------------------------
# fixation files

FIXATION_HEADER = ["recording_id", "cluster_id", "x", "y", "z",
                   "px", "py", "pz", "ox", "oy", "oz", "duration", "weight"]


def save_fixations(path, recording_id: str, points) -> None:
    write_csv(path, FIXATION_HEADER,
              ([recording_id, i] + [repr(float(v)) for v in (
                  *fp.position, *fp.pose_p, *fp.pose_o, fp.duration)] + [fp.weight]
               for i, fp in enumerate(points)))


def load_fixations(path) -> list[tuple[str, int, FixationPoint]]:
    rows = read_csv(path, "fixation file", FixationError)
    if not rows or rows[0] != FIXATION_HEADER:
        raise FixationError(f"fixation file {path!r}: bad or missing header")
    out = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(FIXATION_HEADER):
            raise FixationError(f"fixation file {path!r}: malformed row")
        rec_id = row[0]
        try:
            cluster_id = int(row[1])
            vals = [float(x) for x in row[2:12]]
            weight = int(row[12])
        except ValueError as exc:
            raise FixationError(f"fixation file {path!r}: row {i}: {exc}") from exc
        if not np.isfinite(vals).all():
            raise FixationError(f"fixation file {path!r}: row {i}: non-finite value")
        if weight < 1:
            raise FixationError(f"fixation file {path!r}: row {i}: weight must be >= 1")
        fp = FixationPoint(position=np.array(vals[0:3]),
                           pose_p=np.array(vals[3:6]),
                           pose_o=np.array(vals[6:9]),
                           duration=vals[9], weight=weight)
        out.append((rec_id, cluster_id, fp))
    return out
