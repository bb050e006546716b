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

import json
import math
from collections import Counter
from itertools import combinations, product

import numpy as np

from .config import MeshgazeError
from .fdm import FdmError, bucket_views, plcc, pose_groups, splat_fdm
from .fixation import median, saccade_amplitudes
from .gaze import head_orientations, rowdot
from .io import read_text, unique_keys


class EvaluationError(MeshgazeError):
    pass


def _on_domain(g, r, domain):
    g = np.asarray(g, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if len(g) != len(r):
        raise EvaluationError("maps are not aligned")
    if domain is not None:
        domain = np.asarray(domain)
        if len(domain) != len(g):
            raise EvaluationError(
                f"visibility mask has {len(domain)} vertices, the maps {len(g)}")
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


def weighted_eval(a_w, values) -> float:
    """The paper's visitor-weighted aggregate E = sum(A_w * Eval_w) /
    sum(A_w) of per-view scores values with visit weights a_w."""
    a = np.asarray(a_w, dtype=np.float64)
    if not len(a):
        raise EvaluationError("no view scores to aggregate")
    if (a < 1).any():
        raise EvaluationError("visit weights must be >= 1")
    return float(np.dot(a, np.asarray(values, dtype=np.float64)) / a.sum())


def evaluate_views(views, cfg) -> dict:
    """The paper's 6DoF evaluation: each view's CC, SE and KL on its
    visible domain, then their aggregates E weighted by visitor count.

    views yields (pose_id, g, r, domain or None, a_w); cfg gives
    se_variant and eps_kl_floor.  Returns {"views": {pose_id: {"cc", "se",
    "kl", "A_w"}}, "aggregate": {"E_cc", "E_se", "E_kl"}}.  A view that
    cannot be scored, or a pose id given twice, raises naming the pose id.
    """
    per_view = {}
    for pid, g, r, domain, a_w in views:
        if pid in per_view:
            raise EvaluationError(f"view {pid!r}: pose id given twice")
        try:
            cc = metric_cc(g, r, domain)
            se = metric_se(g, r, domain, cfg.se_variant)
            kl = metric_kl(g, r, domain, cfg.eps_kl_floor)
        except EvaluationError as exc:
            raise EvaluationError(f"view {pid!r}: {exc}") from exc
        per_view[pid] = {"cc": cc, "se": se, "kl": kl, "A_w": a_w}
    weights = [v["A_w"] for v in per_view.values()]
    return {"views": per_view, "aggregate": {
        f"E_{m}": weighted_eval(weights, [v[m] for v in per_view.values()])
        for m in ("cc", "se", "kl")}}


def load_weights(path) -> dict:
    """Per-view visit weights A_w: a JSON object of integers >= 1, each
    pose id once."""
    try:
        weights = json.loads(read_text(path, "weights file", EvaluationError),
                             object_pairs_hook=unique_keys)
    except ValueError as exc:
        raise EvaluationError(f"weights file {path!r}: {exc}") from exc
    if not isinstance(weights, dict):
        raise EvaluationError(f"weights file {path!r}: not a JSON object")
    for pid, w in weights.items():
        if type(w) is not int or w < 1:      # bool and float are rejected
            raise EvaluationError(
                f"weights file {path!r}: weight of {pid!r} must be an "
                f"integer >= 1, got {w!r}")
    return weights


def _stirling_tail(z):
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), asymptotic series
    to z**-7.  The first term left out moves _stirling_tail(a + 1/2) -
    _stirling_tail(a) by less than 4e-16 for a >= 20."""
    w = 1.0 / (z * z)
    return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w / 1680))) / z


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta, I_x(a, b) = x^a (1-x)^b
    cf / (a B(a, b)), by the modified Lentz method (Numerical Recipes,
    section 6.4).  It converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    cf = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            cf *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            return cf
    raise EvaluationError(f"t-test p-value did not converge (a={a}, b={b}, x={x})")


def _t_two_sided_p(t, df):
    """Two-sided Student-t tail P(|T| >= |t|) on df degrees of freedom.

    That is I_x(a, 1/2) with a = df/2 and x = df / (df + t^2) (DiDonato &
    Morris, ACM TOMS 18, 1992).  y = 1 - x is formed from t^2, so it keeps
    its digits when small.  Below the switch point (a + 1) / (a + 5/2) the
    continued fraction runs on I_x(a, 1/2), above it on I_y(1/2, a) =
    1 - I_x(a, 1/2).  Both share the prefactor x^a y^(1/2) / B(a, 1/2),
    built in logs; for large a, ln Gamma(a + 1/2) / Gamma(a) is a Stirling
    difference, because two large lgamma values would cancel to about 1e-13.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if t2 == math.inf:
        return 0.0
    a = 0.5 * df
    x, y = df / (df + t2), t2 / (df + t2)
    if a < 20.0:
        ln_ratio = math.log(math.gamma(a + 0.5) / math.gamma(a))
    else:
        ln_ratio = ((a - 0.5) * math.log1p(0.5 / a) + 0.5 * math.log(a + 0.5)
                    - 0.5 + _stirling_tail(a + 0.5) - _stirling_tail(a))
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y) + ln_ratio
                     - 0.5 * math.log(math.pi))
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_cf(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_cf(0.5, a, y)


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
    # scipy.stats.ttest_ind(equal_var=False)'s operation order, so t is
    # bit for bit scipy's and p agrees with scipy's to 1e-13
    va = np.mean((a - ma) ** 2) * (na / (na - 1))
    vb = np.mean((b - mb) ** 2) * (nb / (nb - 1))
    if va == 0.0 and vb == 0.0:
        if float(ma) == float(mb):
            return 0.0, 1.0
        raise EvaluationError("zero variance in both samples with unequal means")
    vna, vnb = va / na, vb / nb
    df = (vna + vnb) ** 2 / (vna ** 2 / (na - 1) + vnb ** 2 / (nb - 1))
    t = (ma - mb) / np.sqrt(vna + vnb)
    return float(t), _t_two_sided_p(float(t), float(df))


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
    dirs = head_orientations([o for o, _ in entries])
    maps = [np.asarray(v, dtype=np.float64) for _, v in entries]
    if len({len(v) for v in maps}) > 1:
        raise EvaluationError("maps are not aligned")

    n = len(entries)
    pair_i, pair_j = np.triu_indices(n, 1)           # the (i < j) loop's order
    angles = np.degrees(np.arccos(np.clip(rowdot(dirs[pair_i], dirs[pair_j]),
                                          -1.0, 1.0)))
    near = angles <= max_angle_deg
    pair_i, pair_j, angles = pair_i[near], pair_j[near], angles[near]
    sims = _similarities((maps[i], maps[j]) for i, j in zip(pair_i, pair_j))
    defined = ~np.isnan(sims)
    if defined.sum() < 2:
        undefined = int((~defined).sum())
        raise EvaluationError("not enough pose pairs within the angle limit" + (
            f" ({undefined} left out: undefined map correlation)" if undefined else ""))
    pair_i, pair_j, sims, angles = (x[defined] for x in (pair_i, pair_j, sims, angles))

    def corr_of(subset):
        member = np.zeros(n, dtype=bool)
        member[subset] = True
        both = member[pair_i] & member[pair_j]       # pairs in (i, j) order
        xs, ys = sims[both], angles[both]
        if len(xs) < 2:
            return None
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


def initial_move_direction(recording, gate_m: float = 0.15) -> str:
    """First lateral walking direction of a Recording relative to the
    initial facing.

    The rightward axis is the initial facing vector yawed +90 degrees; the
    verdict comes from the first sample displaced more than gate_m from
    the start.
    """
    if len(recording) < 2:
        raise EvaluationError("need at least 2 samples")
    o0 = head_orientations(recording.o[0])[0]
    # Ry(+90) applied exactly: (x, y, z) -> (z, y, -x).  Going through
    # rotation_matrix would leave a cos(pi/2) ~ 6e-17 residue that turns
    # an exactly-forward walk into a spurious lateral verdict.
    right = np.array([o0[2], o0[1], -o0[0]])
    d = recording.p[1:] - recording.p[0]
    beyond = np.sqrt(rowdot(d, d)) > gate_m
    if not beyond.any():
        return NONE
    lateral = float(np.dot(d[np.argmax(beyond)], right))
    return RIGHT if lateral > 0 else LEFT if lateral < 0 else NONE


# ---------------------------------------------------------------------------
# studies: each takes {mesh name: Mesh} and {mesh name: Fixations} with the
# same keys, and returns its report

def _similarities(pairs) -> np.ndarray:
    """plcc of each map pair over their shared vertex-count prefix (maps of
    different meshes pair up by vertex index); NaN where the correlation is
    undefined (a constant map), and both studies leave those pairs out."""
    out = []
    for a, b in pairs:
        k = min(len(a), len(b))
        try:
            out.append(plcc(a[:k], b[:k]))
        except FdmError:
            out.append(np.nan)
    return np.array(out, dtype=np.float64)


def inter_observer_study(meshes, fixations, cfg) -> dict:
    """Welch's t-test of the similarity of per-subject maps on one mesh
    against pairs across meshes."""
    maps = {m: [splat_fdm(meshes[m], fix[fix.recording == r], cfg.sigma_fdm,
                          cfg.fdm_cutoff_sigmas) for r in sorted(set(fix.recording))]
            for m, fix in sorted(fixations.items())}
    same, cross = (s[~np.isnan(s)] for s in (
        _similarities(pair for m in maps for pair in combinations(maps[m], 2)),
        _similarities(pair for a, b in combinations(maps, 2)
                      for pair in product(maps[a], maps[b]))))
    report = {"same_mesh_pairs": len(same), "cross_mesh_pairs": len(cross),
              "note": ("cross-mesh similarity uses index pairing over the "
                       "shared vertex-count prefix and serves as a noise "
                       "baseline")}
    if len(same) < 2 or len(cross) < 2:
        return {**report, "skipped": "need >= 2 similarity pairs on each side"}
    try:
        t, p = inter_observer_test(same, cross)
    except EvaluationError as exc:
        return {**report, "skipped": str(exc)}
    return {**report, "t": t, "p": p, "mean_same": float(np.mean(same)),
            "mean_cross": float(np.mean(cross))}


def bias_study(meshes, fixations, cfg) -> dict:
    """Center and depth bias distances of each pose bucket with at least 3
    fixations and a non-empty visible set."""
    rows = []
    for m, fix in sorted(fixations.items()):
        for bucket, ids, pose, vs in bucket_views(meshes[m], fix, cfg,
                                                   min_fixations=3):
            if not vs.empty:
                fpos, vpos = fix.position[ids], meshes[m].vertices[vs.ids]
                rows.append({"mesh": m, "bucket": bucket, "fixations": len(ids),
                             "d_f_center": bias_distance(fpos, vs.center),
                             "d_v_center": bias_distance(vpos, vs.center),
                             "d_f_head": bias_distance(fpos, pose.p),
                             "d_v_head": bias_distance(vpos, pose.p)})
    if not rows:
        return {"rows": rows, "skipped": "no pose bucket had >= 3 fixations"}
    return {"rows": rows, **{f"mean_{key}": float(np.mean([r[key] for r in rows]))
                             for key in ("d_f_center", "d_v_center",
                                         "d_f_head", "d_v_head")}}


def saccade_study(fixations) -> dict:
    """Amplitudes between each recording's consecutive fixations in cluster
    order; pairs seen from a coinciding head position are left out."""
    amplitudes = [np.empty(0)]
    for _, fix in sorted(fixations.items()):
        order = np.lexsort((fix.cluster, fix.recording))
        same = fix.recording[order[1:]] == fix.recording[order[:-1]]
        amp = saccade_amplitudes(fix, order[:-1][same], order[1:][same])
        amplitudes.append(amp[~np.isnan(amp)])
    arr = np.concatenate(amplitudes)
    if not len(arr):
        return {"count": 0, "skipped": "no consecutive fixation pairs"}
    return {"count": len(arr), "mean_deg": float(arr.mean()),
            "median_deg": median(arr), "std_deg": float(arr.std()),
            "max_deg": float(arr.max())}


def direction_dependence_study(meshes, fixations, cfg) -> dict:
    """Viewing-direction dependence per mesh over the per-recording pose
    bucket maps whose head height lies in the modal height grid cell."""
    per_mesh = {}
    for m, fix in sorted(fixations.items()):
        groups = list(pose_groups(fix, cfg, per_recording=True).values())
        firsts = np.array([rows[0] for rows in groups], dtype=np.int64)
        cells = np.floor(fix.pose_p[firsts, 1] / cfg.pose_grid_m).tolist()
        counts = Counter(cells)
        if not counts:
            per_mesh[m] = {"skipped": "no fixations"}
            continue
        modal = max(sorted(counts), key=counts.__getitem__)
        entries = [(fix.pose_o[rows[0]],
                    splat_fdm(meshes[m], fix[rows], cfg.sigma_fdm,
                              cfg.fdm_cutoff_sigmas))
                   for rows, cell in zip(groups, cells) if cell == modal]
        try:
            corr = viewing_direction_dependence(
                entries, cfg.vdd_max_angle_deg, cfg.vdd_repetitions, cfg.seed)
            per_mesh[m] = {"correlation": corr, "abs_correlation": abs(corr),
                           "maps": len(entries)}
        except EvaluationError as exc:
            per_mesh[m] = {"skipped": str(exc), "maps": len(entries)}
    return {"per_mesh": per_mesh}


def left_preference_study(recordings, cfg) -> tuple[dict, dict]:
    """Counts of the first lateral move of each recording ({name:
    Recording}) and the share of decided ones going left; also {name:
    error} of the recordings too short to decide."""
    counts, problems = {LEFT: 0, RIGHT: 0, NONE: 0}, {}
    for name, recording in recordings.items():
        try:
            counts[initial_move_direction(recording, cfg.move_gate_m)] += 1
        except EvaluationError as exc:
            problems[name] = exc
    decided = counts[LEFT] + counts[RIGHT]
    if not decided:
        return {"counts": counts}, problems
    return {"counts": counts, "left_fraction": counts[LEFT] / decided}, problems
