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

from dataclasses import dataclass, fields

import numpy as np

from .config import MAX_COORD, MeshgazeError, raise_first
from .gaze import rowdot
from .io import read_csv, write_csv

FIXATION = "fixation"
SACCADE = "saccade"
MISS = "miss"


class FixationError(MeshgazeError):
    """Invalid stream or degenerate fixation geometry."""


@dataclass
class Fixations:
    """Fixations as one table: recording ids (n,) as str objects, cluster
    (n,) the index within the recording, position (n, 3) the fixated point,
    pose_p and pose_o (n, 3) the representative head position and Euler
    degrees, duration (n,) seconds and weight (n,) the member count.
    Indexing by an index array or a mask gives the table of those rows."""
    recording: np.ndarray
    cluster: np.ndarray
    position: np.ndarray
    pose_p: np.ndarray
    pose_o: np.ndarray
    duration: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        self.recording = np.asarray(self.recording, dtype=object).reshape(-1)
        self.cluster = np.asarray(self.cluster, dtype=np.int64).reshape(-1)
        for name in ("position", "pose_p", "pose_o"):
            setattr(self, name, np.asarray(getattr(self, name),
                                           dtype=np.float64).reshape(-1, 3))
        self.duration = np.asarray(self.duration, dtype=np.float64).reshape(-1)
        self.weight = np.asarray(self.weight, dtype=np.int64).reshape(-1)

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, rows) -> Fixations:
        return Fixations(*(getattr(self, f.name)[rows] for f in fields(self)))

    @staticmethod
    def concat(tables) -> Fixations:
        """The rows of every table in turn; no tables give an empty one."""
        tables = list(tables) or [Fixations([], [], [], [], [], [], [])]
        return Fixations(*(np.concatenate([getattr(t, f.name) for t in tables])
                           for f in fields(Fixations)))


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
    with np.errstate(over="ignore"):            # far apart: w = 0
        w = np.exp(-dist / sigma_rw)
    np.fill_diagonal(w, 0.0)
    reach = w.sum(axis=1, keepdims=True)
    if not reach.all():                         # the walk would be NaN
        raise FixationError(f"rw_sigma {sigma_rw!r} is too small: a cluster "
                            "point has exp(-d / rw_sigma) = 0 to every other")
    t = w / reach

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


def saccade_amplitudes(fixations: Fixations, first, second) -> np.ndarray:
    """Angular distance in degrees from fixation first[k] to second[k],
    seen from the head position of second[k]; NaN where either fixation
    lies within 1e-12 of that head position."""
    p = fixations.pose_p[second]
    va = fixations.position[first] - p
    vb = fixations.position[second] - p
    na = np.sqrt(rowdot(va, va))
    nb = np.sqrt(rowdot(vb, vb))
    ok = (na > 1e-12) & (nb > 1e-12)
    out = np.full(len(p), np.nan)
    cosang = rowdot(va[ok], vb[ok]) / (na[ok] * nb[ok])
    out[ok] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return out


def extract_fixations(recording, traced, cfg,
                      recording_id: str = "") -> tuple[Fixations, dict]:
    """Full per-recording pipeline on a Recording table and its traced
    stream [(row, hit point or None)]: classify with D_k = |hit - P_k|,
    cluster, pick centers.

    Each fixation's pose is the member nearest the cluster's temporal
    midpoint (ties to the earliest), its duration (t_last - t_first) + dt
    and its weight the member count.  Returns the recording's fixations,
    clusters numbered from 0, and stats counting samples by label.
    """
    t = recording.t
    miss = np.full(3, np.nan)
    points = np.array([miss if y is None else y for _, y in traced],
                      dtype=np.float64).reshape(-1, 3)
    gap = points - recording.p
    distances = np.sqrt(rowdot(gap, gap))
    dt = nominal_dt(t)
    labels = classify_ivt(t, points, distances, cfg.ivt_h,
                          cfg.min_fixation_s, dt=dt)
    stats = {
        "samples": len(labels),
        "fixation_samples": int((labels == FIXATION).sum()),
        "saccade_samples": int((labels == SACCADE).sum()),
        "miss_samples": int((labels == MISS).sum()),
    }

    bounds, centers, reps = [], [], []
    for s, e in zip(*_runs(labels == FIXATION)):
        starts = s + group_clusters(points[s:e], cfg.cluster_interval)
        for a, b in zip(starts, np.append(starts[1:], e)):
            mid = 0.5 * (t[a] + t[b - 1])
            reps.append(a + int(np.argmin(np.abs(t[a:b] - mid))))
            centers.append(a + cluster_center_random_walk(
                points[a:b], cfg.rw_sigma, cfg.rw_lambda, cfg.rw_rho_radius,
                cfg.rw_tol, cfg.rw_max_iter))
            bounds.append((a, b))
    a, b = np.array(bounds, dtype=np.int64).reshape(-1, 2).T
    n = len(a)
    stats["fixations"] = n
    return Fixations(recording=[recording_id] * n, cluster=np.arange(n),
                     position=points[centers], pose_p=recording.p[reps],
                     pose_o=recording.o[reps], duration=(t[b - 1] - t[a]) + dt,
                     weight=b - a), stats


# ---------------------------------------------------------------------------
# fixation files

FIXATION_HEADER = ["recording_id", "cluster_id", "x", "y", "z",
                   "px", "py", "pz", "ox", "oy", "oz", "duration", "weight"]


def save_fixations(path, fixations: Fixations) -> None:
    """One row per fixation, every float as the repr of its value."""
    f = fixations
    values = np.column_stack([f.position, f.pose_p, f.pose_o, f.duration])
    write_csv(path, FIXATION_HEADER,
              ([r, c, *map(repr, v), w] for r, c, v, w in zip(
                  f.recording.tolist(), f.cluster.tolist(), values.tolist(),
                  f.weight.tolist())))


def load_fixations(path) -> Fixations:
    """One fixation CSV as a table.  Rows are checked for their field count,
    that the fields parse (integers within 64 bits), are finite, that no
    point or head coordinate passes MAX_COORD and that the weight is >= 1;
    raise_first picks the error."""
    rows = read_csv(path, "fixation file", FixationError)
    if not rows or rows[0] != FIXATION_HEADER:
        raise FixationError(f"fixation file {path!r}: bad or missing header")
    ids, ints, parsed, stop = [], [], [], None
    for i, row in enumerate(rows[1:]):
        if len(row) != len(FIXATION_HEADER):
            stop = FixationError(f"fixation file {path!r}: malformed row")
            break
        try:
            cluster = int(row[1])
            vals = [float(x) for x in row[2:12]]
            weight = int(row[12])
            if max(abs(cluster), abs(weight)) >= 2 ** 63:
                raise ValueError("cluster_id or weight beyond 64 bits")
        except ValueError as exc:
            stop = FixationError(f"fixation file {path!r}: row {i}: {exc}")
            break
        ids.append(row[0])
        ints.append((cluster, weight))
        parsed.append(vals)
    vals = np.array(parsed, dtype=np.float64).reshape(-1, 10)
    cluster, weight = np.array(ints, dtype=np.int64).reshape(-1, 2).T
    raise_first([
        (~np.isfinite(vals).all(axis=1), lambda i: FixationError(
            f"fixation file {path!r}: row {i}: non-finite value")),
        ((np.abs(vals[:, :6]) > MAX_COORD).any(axis=1), lambda i: FixationError(
            f"fixation file {path!r}: row {i}: coordinate beyond +-{MAX_COORD:g}")),
        (weight < 1, lambda i: FixationError(
            f"fixation file {path!r}: row {i}: weight must be >= 1"))], stop)
    return Fixations(recording=ids, cluster=cluster, position=vals[:, 0:3],
                     pose_p=vals[:, 3:6], pose_o=vals[:, 6:9],
                     duration=vals[:, 9], weight=weight)
