"""Fixation classification, AOI clustering, and cluster-center selection.

Classification uses a distance-adaptive velocity threshold: sample k is a
fixation when its displacement from the previous intersection satisfies
||I_k - I_{k-1}|| <= h * D_k, where D_k is the current head-to-surface
distance — the absolute threshold grows when the subject stands farther
away.  Fixation runs shorter than the minimum duration are relabeled as
saccades.  Runs are clustered by a greedy temporal scan, and each
cluster's representative point is chosen by a damped random walk over the
member points that folds in local sample density.
"""
from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .config import MeshgazeError
from .gaze import IntersectionRecord, PoseSample
from .mesh import _atomic_write

FIXATION = "fixation"
SACCADE = "saccade"
MISS = "miss"


class FixationError(MeshgazeError):
    """Invalid stream or degenerate fixation geometry."""


@dataclass
class LabeledSample:
    __slots__ = ("sample", "record", "label")
    sample: PoseSample
    record: IntersectionRecord | None
    label: str


@dataclass
class FixationCluster:
    __slots__ = ("members", "rep_pose_p", "rep_pose_o")
    members: list[LabeledSample]
    rep_pose_p: np.ndarray
    rep_pose_o: np.ndarray


@dataclass
class FixationPoint:
    __slots__ = ("position", "pose_p", "pose_o", "duration", "weight")
    position: np.ndarray
    pose_p: np.ndarray
    pose_o: np.ndarray   # Euler degrees
    duration: float      # seconds
    weight: int          # member count


def nominal_dt(samples) -> float:
    """Median inter-sample gap; the one-sample share of a run's duration."""
    ts = np.asarray([s.t for s in samples], dtype=np.float64)
    if len(ts) < 2:
        return 1.0 / 120.0
    return float(np.median(np.diff(ts)))


def classify_ivt(traced, h: float, min_fixation_s: float = 0.1,
                 dt: float | None = None) -> list[LabeledSample]:
    """Label a traced stream [(PoseSample, record-or-None)] sample by sample.

    The first valid sample after a miss (or at stream start) takes the
    label of its successor's test; a lone sample between misses is a
    saccade.  A run of n fixation samples spans (t_last - t_first) + dt
    seconds, so that a 12-sample run at 120 Hz lasts exactly 100 ms.
    """
    if not h > 0:
        raise FixationError("h must be positive")
    if len(traced) == 0:
        raise FixationError("empty stream")
    ts = [s.t for s, _ in traced]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise FixationError("timestamps not strictly increasing")
    if dt is None:
        dt = nominal_dt([s for s, _ in traced])

    labels = [MISS if rec is None else None for _, rec in traced]

    # segments of consecutive valid samples
    segments = []
    start = None
    for i, (_, rec) in enumerate(traced):
        if rec is None:
            if start is not None:
                segments.append((start, i))
                start = None
        elif start is None:
            start = i
    if start is not None:
        segments.append((start, len(traced)))

    for s0, s1 in segments:
        if s1 - s0 == 1:
            labels[s0] = SACCADE
            continue
        for k in range(s0 + 1, s1):
            rec_prev = traced[k - 1][1]
            rec_k = traced[k][1]
            disp = float(np.linalg.norm(rec_k.point - rec_prev.point))
            labels[k] = FIXATION if disp <= h * rec_k.distance else SACCADE
        labels[s0] = labels[s0 + 1]

        # minimum-duration filter over maximal fixation runs
        k = s0
        while k < s1:
            if labels[k] != FIXATION:
                k += 1
                continue
            j = k
            while j < s1 and labels[j] == FIXATION:
                j += 1
            duration = (traced[j - 1][0].t - traced[k][0].t) + dt
            if duration < min_fixation_s:
                for m in range(k, j):
                    labels[m] = SACCADE
            k = j

    return [LabeledSample(sample=s, record=rec, label=lab)
            for (s, rec), lab in zip(traced, labels)]


def group_clusters(fixations, interval: float) -> list[FixationCluster]:
    """Greedy temporal scan: a fixation joins the open cluster while it stays
    within `interval` of the running centroid; clusters never interleave."""
    clusters: list[list[LabeledSample]] = []
    centroid = None
    current: list[LabeledSample] = []
    for ls in fixations:
        if ls.label != FIXATION:
            raise FixationError("group_clusters expects fixation-labeled samples only")
        pt = ls.record.point
        if current and float(np.linalg.norm(pt - centroid)) <= interval:
            current.append(ls)
            n = len(current)
            centroid = centroid + (pt - centroid) / n
        else:
            if current:
                clusters.append(current)
            current = [ls]
            centroid = pt.astype(np.float64).copy()
    if current:
        clusters.append(current)

    out = []
    for members in clusters:
        t0 = members[0].sample.t
        t1 = members[-1].sample.t
        mid = 0.5 * (t0 + t1)
        rep = min(members, key=lambda m: (abs(m.sample.t - mid), m.sample.t))
        out.append(FixationCluster(members=members,
                                   rep_pose_p=rep.sample.p.copy(),
                                   rep_pose_o=rep.sample.o_deg.copy()))
    return out


def cluster_center_random_walk(cluster: FixationCluster, sigma_rw: float,
                               lam: float = 0.85, rho_radius: float = 0.015,
                               tol: float = 1e-9, max_iter: int = 1000,
                               dt: float = 1.0 / 120.0) -> FixationPoint:
    """Pick the cluster's representative member by a damped random walk.

    Transition weights w_ij = exp(-d_ij / sigma_rw) (w_ii = 0) are row
    normalized; the walk mixes with the local-density distribution rho at
    rate (1 - lam).  The member with the largest stationary mass wins,
    ties to the earliest sample.
    """
    members = cluster.members
    n = len(members)
    if n == 0:
        raise FixationError("empty cluster")
    t0 = members[0].sample.t
    t1 = members[-1].sample.t
    duration = (t1 - t0) + dt

    if n == 1:
        pos = members[0].record.point.copy()
        return FixationPoint(position=pos, pose_p=cluster.rep_pose_p.copy(),
                             pose_o=cluster.rep_pose_o.copy(),
                             duration=duration, weight=1)

    pts = np.stack([m.record.point for m in members])
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

    center_idx = int(np.argmax(pi))  # argmax takes the first (earliest) max
    return FixationPoint(position=pts[center_idx].copy(),
                         pose_p=cluster.rep_pose_p.copy(),
                         pose_o=cluster.rep_pose_o.copy(),
                         duration=duration, weight=n)


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
    """Full per-recording pipeline: classify, cluster, pick centers.

    Returns (fixation points, stats) where stats counts samples by label.
    """
    dt = nominal_dt([s for s, _ in traced])
    labeled = classify_ivt(traced, cfg.ivt_h, cfg.min_fixation_s, dt=dt)
    stats = {
        "samples": len(labeled),
        "fixation_samples": sum(1 for x in labeled if x.label == FIXATION),
        "saccade_samples": sum(1 for x in labeled if x.label == SACCADE),
        "miss_samples": sum(1 for x in labeled if x.label == MISS),
    }
    points: list[FixationPoint] = []
    run: list[LabeledSample] = []
    for ls in labeled + [LabeledSample(sample=None, record=None, label="_end")]:
        if ls.label == FIXATION:
            run.append(ls)
            continue
        if run:
            for cluster in group_clusters(run, cfg.cluster_interval):
                points.append(cluster_center_random_walk(
                    cluster, cfg.rw_sigma, cfg.rw_lambda, cfg.rw_rho_radius,
                    cfg.rw_tol, cfg.rw_max_iter, dt=dt))
            run = []
    stats["fixations"] = len(points)
    return points, stats


# ---------------------------------------------------------------------------
# fixation files

FIXATION_HEADER = ["recording_id", "cluster_id", "x", "y", "z",
                   "px", "py", "pz", "ox", "oy", "oz", "duration", "weight"]


def save_fixations(path, recording_id: str, points) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(FIXATION_HEADER)
    for i, fp in enumerate(points):
        w.writerow([recording_id, i] +
                   [repr(float(v)) for v in fp.position] +
                   [repr(float(v)) for v in fp.pose_p] +
                   [repr(float(v)) for v in fp.pose_o] +
                   [repr(float(fp.duration)), fp.weight])
    _atomic_write(os.fspath(path), buf.getvalue())


def load_fixations(path) -> list[tuple[str, int, FixationPoint]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != FIXATION_HEADER:
        raise FixationError(f"fixation file {path!r}: bad or missing header")
    out = []
    for i, row in enumerate(rows[1:]):
        if not row:
            continue
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
