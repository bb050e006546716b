"""Saliency evaluation metrics and the behavioral statistics suite.

Metrics compare a ground-truth density map G against a prediction R on
the visible domain of the view that produced them: Pearson correlation
(CC), unit-mean L1 saliency error (SE), and KL(G || R) after flooring and
renormalization.  Per-view scores aggregate by visitor weight:
E = sum(A_w * Eval_w) / sum(A_w).  The studies cover inter-observer
agreement (Welch's t-test), center/depth bias distances, saccade
amplitudes, viewing-direction dependence, and the initial lateral
movement preference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MeshgazeError
from .fdm import FdmError, plcc
from .gaze import head_orientation, rotation_matrix


class EvaluationError(MeshgazeError):
    pass


@dataclass
class ViewScore:
    pose_id: str
    cc: float
    se: float
    kl: float
    a_w: int


def _on_domain(g, r, domain):
    g = np.asarray(g, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if len(g) != len(r):
        raise EvaluationError("maps are not aligned")
    if domain is not None:
        domain = np.asarray(domain)
        g = g[domain]
        r = r[domain]
    if len(g) == 0:
        raise EvaluationError("empty evaluation domain")
    return g, r


def metric_cc(g, r, domain=None) -> float:
    """Pearson correlation on the domain; errors on zero variance."""
    g, r = _on_domain(g, r, domain)
    try:
        return plcc(g, r)
    except FdmError as exc:
        raise EvaluationError(str(exc)) from exc


def metric_kl(g, r, domain=None, eps_floor: float = 1e-12) -> float:
    """KL(G-hat || R-hat): both floored at eps and renormalized, natural log."""
    g, r = _on_domain(g, r, domain)
    gh = np.maximum(g, eps_floor)
    rh = np.maximum(r, eps_floor)
    gh = gh / gh.sum()
    rh = rh / rh.sum()
    return float(np.sum(gh * np.log(gh / rh)))


def metric_se(g, r, domain=None, variant: str = "unit_mean") -> float:
    """Mean absolute difference after per-map normalization.

    unit_mean: each map scaled to mean 1 (scale-invariant; an all-zero
    prediction is left as zeros).  minmax: each map min-max normalized.
    """
    g, r = _on_domain(g, r, domain)
    if variant == "unit_mean":
        mg = g.mean()
        if not mg > 0:
            raise EvaluationError("ground truth must have positive mean")
        gh = g / mg
        mr = r.mean()
        rh = r / mr if mr > 0 else r
    elif variant == "minmax":
        def mm(x):
            lo, hi = x.min(), x.max()
            return np.zeros_like(x) if hi <= lo else (x - lo) / (hi - lo)
        gh, rh = mm(g), mm(r)
    else:
        raise EvaluationError(f"unknown SE variant {variant!r}")
    return float(np.mean(np.abs(gh - rh)))


def weighted_eval(scores, metric: str) -> float:
    """Visitor-weighted aggregate E = sum(A_w * Eval_w) / sum(A_w)."""
    scores = list(scores)
    if not scores:
        raise EvaluationError("no view scores to aggregate")
    key = {"cc": "cc", "se": "se", "kl": "kl"}.get(metric.lower())
    if key is None:
        raise EvaluationError(f"unknown metric {metric!r}")
    a = np.asarray([s.a_w for s in scores], dtype=np.float64)
    if (a < 1).any():
        raise EvaluationError("visit weights must be >= 1")
    vals = np.asarray([getattr(s, key) for s in scores], dtype=np.float64)
    return float(np.dot(a, vals) / a.sum())


def inter_observer_test(same_mesh, cross_mesh):
    """Welch two-sample t-test on similarity scores.

    Returns (t, two-sided p).  Two degenerate zero-variance samples with
    equal means are maximally compatible with the null: (0.0, 1.0);
    unequal means with no variance leave the statistic undefined.
    """
    a = np.asarray(same_mesh, dtype=np.float64)
    b = np.asarray(cross_mesh, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise EvaluationError("each sample needs at least 2 values")
    na, nb = len(a), len(b)
    ma, mb = a.mean(), b.mean()
    # scipy.stats.ttest_ind(equal_var=False)'s operation order, so t and p
    # match it bit for bit without importing scipy.stats
    va = np.mean((a - ma) ** 2) * (na / (na - 1))
    vb = np.mean((b - mb) ** 2) * (nb / (nb - 1))
    if va == 0.0 and vb == 0.0:
        if float(ma) == float(mb):
            return 0.0, 1.0
        raise EvaluationError("zero variance in both samples with unequal means")
    from scipy.special import stdtr   # deferred: slow to import, used only here
    vna, vnb = va / na, vb / nb
    df = (vna + vnb) ** 2 / (vna ** 2 / (na - 1) + vnb ** 2 / (nb - 1))
    t = (ma - mb) / np.sqrt(vna + vnb)
    return float(t), float(2 * stdtr(df, -abs(t)))


def bias_distance(points, anchor) -> float:
    """Mean Euclidean distance from each point to the anchor."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise EvaluationError("empty point set")
    return float(np.mean(np.linalg.norm(points - np.asarray(anchor), axis=1)))


def viewing_direction_dependence(entries, max_angle_deg: float = 90.0,
                                 repetitions: int = 100, seed: int = 0,
                                 subset_frac: float = 0.8) -> float:
    """Correlation between map similarity and facing-direction difference.

    entries: sequence of (o_deg Euler angles, per-vertex values).  For all
    pose pairs within max_angle_deg, similarity = Pearson of the two maps
    and the pose difference is the angle between facing vectors; the
    returned value is the Pearson correlation of (similarity, angle)
    averaged over seeded resampled pose subsets.
    """
    entries = list(entries)
    if len(entries) < 10:
        raise EvaluationError("need at least 10 pose-tagged maps")
    dirs = [head_orientation(o) for o, _ in entries]
    maps = [np.asarray(v, dtype=np.float64) for _, v in entries]

    n = len(entries)
    pair_angle = {}
    for i in range(n):
        for j in range(i + 1, n):
            cosang = float(np.clip(np.dot(dirs[i], dirs[j]), -1.0, 1.0))
            ang = float(np.degrees(np.arccos(cosang)))
            if ang <= max_angle_deg:
                pair_angle[(i, j)] = ang
    if len(pair_angle) < 2:
        raise EvaluationError("not enough pose pairs within the angle limit")
    pair_sim = {k: plcc(maps[k[0]], maps[k[1]]) for k in pair_angle}

    def corr_of(subset):
        xs, ys = [], []
        members = set(subset)
        for (i, j), ang in pair_angle.items():
            if i in members and j in members:
                xs.append(pair_sim[(i, j)])
                ys.append(ang)
        if len(xs) < 2:
            return None
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        # Constancy checked on the raw values: mean-subtraction can leave a
        # uniform ~1-ulp residue on a constant vector, which a norm == 0 test
        # would mistake for real variance.
        if xs.max() == xs.min() or ys.max() == ys.min():
            raise EvaluationError("zero variance in similarity-angle pairs")
        dx = xs - xs.mean()
        dy = ys - ys.mean()
        return float(np.dot(dx, dy) / (np.linalg.norm(dx) * np.linalg.norm(dy)))

    rng = np.random.default_rng(seed)
    size = max(3, int(np.ceil(subset_frac * n)))
    acc = []
    for _ in range(repetitions):
        subset = rng.choice(n, size=size, replace=False)
        c = corr_of(subset)
        if c is not None:
            acc.append(c)
    if not acc:
        raise EvaluationError("no resampled subset produced enough pairs")
    return float(np.mean(acc))


LEFT = "Left"
RIGHT = "Right"
NONE = "None"


def initial_move_direction(samples, gate_m: float = 0.15) -> str:
    """First lateral walking direction relative to the initial facing.

    The rightward axis is the initial facing vector yawed +90 degrees; the
    verdict comes from the first sample displaced more than gate_m from
    the start.
    """
    if len(samples) < 2:
        raise EvaluationError("need at least 2 samples")
    o0 = head_orientation(samples[0].o_deg)
    # Ry(+90) applied exactly: (x, y, z) -> (z, y, -x).  Going through
    # rotation_matrix would leave a cos(pi/2) ~ 6e-17 residue that turns
    # an exactly-forward walk into a spurious lateral verdict.
    right = np.array([o0[2], o0[1], -o0[0]])
    p0 = samples[0].p
    for s in samples[1:]:
        d = s.p - p0
        if float(np.linalg.norm(d)) > gate_m:
            lateral = float(np.dot(d, right))
            if lateral > 0:
                return RIGHT
            if lateral < 0:
                return LEFT
            return NONE
    return NONE
