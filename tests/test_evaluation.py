"""Evaluation metrics, aggregation, and the behavioral statistics."""
from __future__ import annotations

import mpmath
import numpy as np
import pytest
from conftest import facing_oracle, vdd_oracle

from meshgaze.config import RunConfig
from meshgaze.evaluation import (LEFT, NONE, RIGHT, EvaluationError,
                                 _t_two_sided_p, bias_distance,
                                 evaluate_views, initial_move_direction,
                                 inter_observer_test, metric_cc, metric_kl,
                                 metric_se, viewing_direction_dependence,
                                 weighted_eval)
from meshgaze.gaze import Recording


# ---------------------------------------------------------------------------
# metrics

def test_kl_hand_value():
    g = np.array([0.5, 0.5])
    r = np.array([0.9, 0.1])
    want = 0.5 * np.log(0.5 / 0.9) + 0.5 * np.log(0.5 / 0.1)
    assert metric_kl(g, r) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.5108256, abs=1e-6)


def test_kl_identity_and_nonnegativity():
    rng = np.random.default_rng(21)
    for _ in range(30):
        g = rng.random(40)
        r = rng.random(40)
        assert metric_kl(g, g) == pytest.approx(0.0, abs=1e-12)
        assert metric_kl(g, r) >= -1e-12


def test_kl_floors_zeros():
    g = np.array([1.0, 0.0])
    r = np.array([0.0, 1.0])
    v = metric_kl(g, r)
    assert np.isfinite(v) and v > 0


def test_kl_scale_invariance():
    rng = np.random.default_rng(22)
    g = rng.random(30) + 0.1
    r = rng.random(30) + 0.1
    assert metric_kl(3.0 * g, r) == pytest.approx(metric_kl(g, r), abs=1e-12)
    assert metric_kl(g, 7.0 * r) == pytest.approx(metric_kl(g, r), abs=1e-12)


def test_se_hand_value():
    assert metric_se(np.array([2.0, 0.0]), np.array([0.0, 2.0])) == \
        pytest.approx(2.0, abs=1e-15)


def test_se_scale_invariance_and_identity():
    rng = np.random.default_rng(23)
    g = rng.random(25) + 0.01
    r = rng.random(25) + 0.01
    assert metric_se(g, g) == pytest.approx(0.0, abs=1e-15)
    assert metric_se(g, 5.0 * r) == pytest.approx(metric_se(g, r), abs=1e-12)
    assert metric_se(2.0 * g, r) == pytest.approx(metric_se(g, r), abs=1e-12)


def test_se_all_zero_prediction():
    g = np.array([1.0, 3.0])
    # zero prediction stays zeros; |G-hat - 0| averages to exactly 1
    assert metric_se(g, np.zeros(2)) == pytest.approx(1.0, abs=1e-15)


def test_se_zero_ground_truth_rejected():
    with pytest.raises(EvaluationError):
        metric_se(np.zeros(3), np.ones(3))


def test_se_minmax_variant():
    g = np.array([1.0, 3.0])
    r = np.array([3.0, 1.0])
    assert metric_se(g, r, variant="minmax") == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(EvaluationError):
        metric_se(g, r, variant="sum")


def test_cc_affine_invariance_and_errors():
    rng = np.random.default_rng(24)
    g = rng.random(30)
    assert metric_cc(g, 2.0 * g + 5.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(EvaluationError):
        metric_cc(g, np.full(30, 0.5))
    with pytest.raises(EvaluationError):
        metric_cc(g, rng.random(29))


def test_metrics_domain_restriction():
    g = np.array([1.0, 2.0, 50.0, 60.0])
    r = np.array([2.0, 4.0, -1.0, -2.0])
    dom = np.array([True, True, False, False])
    assert metric_cc(g, r, domain=dom) == pytest.approx(1.0, abs=1e-12)
    assert metric_se(g, r, domain=dom) == pytest.approx(0.0, abs=1e-15)
    assert metric_kl(g, r, domain=dom) == pytest.approx(
        metric_kl(g[:2], r[:2]), abs=1e-15)
    with pytest.raises(EvaluationError):
        metric_kl(g, r, domain=np.zeros(4, dtype=bool))


# ---------------------------------------------------------------------------
# aggregation

def test_weighted_eval_hand_value():
    assert weighted_eval([2, 1], [0.3, 0.6]) == pytest.approx(0.4, abs=1e-12)


def test_weighted_eval_uniform_weights_match_mean():
    rng = np.random.default_rng(25)
    vals = rng.random(9)
    assert weighted_eval([4] * 9, vals) == pytest.approx(vals.mean(), abs=1e-12)


def test_weighted_eval_single_view_passthrough():
    assert weighted_eval([7], [0.123]) == pytest.approx(0.123)


def test_weighted_eval_errors():
    with pytest.raises(EvaluationError):
        weighted_eval([], [])
    with pytest.raises(EvaluationError):
        weighted_eval([0], [0.5])


def test_evaluate_views_names_the_view_it_cannot_score():
    """A view whose metrics raise is named, in front of the metric's own
    message (a flat ground truth has no correlation), and so is a pose id
    given twice, which the report could hold only once."""
    g = np.array([0.0, 1.0, 3.0])
    views = [("a", g, g, None, 1), ("b", np.ones(3), g, None, 2)]
    with pytest.raises(EvaluationError, match=r"^view 'b': .*variance"):
        evaluate_views(views, RunConfig())
    with pytest.raises(EvaluationError, match=r"^view 'a': pose id given twice$"):
        evaluate_views([views[0], views[0]], RunConfig())


# ---------------------------------------------------------------------------
# Welch's t-test

def welch_oracle(a, b):
    """Statistic and two-sided p from first principles (mpmath beta).

    x is formed in mpmath: a double x = nu / (nu + t^2) rounds away up to
    1e-11 of p when t^2 / nu is small."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = len(a), len(b)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / na + vb / nb
    t = (a.mean() - b.mean()) / np.sqrt(se2)
    nu = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    with mpmath.workdps(40):
        nu_m, t_m = mpmath.mpf(float(nu)), mpmath.mpf(float(t))
        x = nu_m / (nu_m + t_m * t_m)
        p = float(mpmath.betainc(nu_m / 2, 0.5, 0, x, regularized=True))
    return float(t), p


def test_welch_matches_independent_oracle():
    rng = np.random.default_rng(26)
    for trial in range(20):
        na = int(rng.integers(5, 40))
        nb = int(rng.integers(5, 40))
        a = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.1, 2.0), size=na)
        b = rng.normal(loc=rng.uniform(-1, 1), scale=rng.uniform(0.1, 2.0), size=nb)
        t, p = inter_observer_test(a, b)
        t_ref, p_ref = welch_oracle(a, b)
        assert t == pytest.approx(t_ref, rel=1e-9), f"trial {trial}"
        assert p == pytest.approx(p_ref, abs=1e-9), f"trial {trial}"


@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
def test_welch_matches_scipy_ttest_ind():
    from scipy import stats
    rng = np.random.default_rng(28)
    for trial in range(500):
        na, nb = (int(n) for n in rng.integers(2, 40, 2))
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.01, 2.0), size=na)
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.01, 2.0), size=nb)
        if trial % 5 == 0:
            a[:] = 0.5                      # one zero-variance sample
        ref = stats.ttest_ind(a, b, equal_var=False)
        got = inter_observer_test(a, b)
        np.testing.assert_allclose(got, (ref.statistic, ref.pvalue),
                                   rtol=1e-13, err_msg=f"trial {trial}")


def test_welch_large_samples_match_independent_oracle():
    """50 to 3,000 values per side put a = df/2 well past the small-a
    gamma ratio, onto the Stirling difference, and put |t| on both sides of
    the continued fraction's switch point."""
    rng = np.random.default_rng(29)
    for trial in range(300):
        na, nb = (int(n) for n in rng.integers(50, 3001, 2))
        a = rng.normal(rng.uniform(-0.1, 0.1), rng.uniform(0.5, 2.0), size=na)
        b = rng.normal(rng.uniform(-0.1, 0.1), rng.uniform(0.5, 2.0), size=nb)
        t, p = inter_observer_test(a, b)
        t_ref, p_ref = welch_oracle(a, b)
        assert t == pytest.approx(t_ref, rel=1e-12), f"trial {trial}"
        assert p == pytest.approx(p_ref, rel=1e-11), f"trial {trial}"


def test_t_tail_extremes_match_mpmath():
    """|t| from 1e-8 to 1e3 and df from 1 to 6,000, against mpmath's
    regularized incomplete beta.  Tails below the smallest normal double
    (2.2e-308) may round to 0."""
    for df in (1.0, 1.5, 2.7, 7.0, 39.9, 40.1, 150.0, 777.7, 6000.0):
        for mag in (1e-8, 1e-3, 0.1, 0.9, 1.7, 3.0, 8.0, 30.0, 100.0, 1e3):
            with mpmath.workdps(40):
                dfm, tm = mpmath.mpf(df), mpmath.mpf(mag)
                ref = float(mpmath.betainc(dfm / 2, 0.5, 0, dfm / (dfm + tm * tm),
                                           regularized=True))
            for t in (mag, -mag):
                p = _t_two_sided_p(t, df)
                if ref < 2.2e-308:
                    assert 0.0 <= p < 2.2e-308, (t, df, p, ref)
                else:
                    assert p == pytest.approx(ref, rel=1e-11), (t, df, p, ref)
    assert _t_two_sided_p(-1e200, 3.0) == 0.0  # t * t overflows to inf


def test_welch_zero_t_gives_exactly_one():
    """Equal means with nonzero variance give t == 0, and then p is exactly
    1.0, not 1 - rounding."""
    t, p = inter_observer_test([0.25, 0.75], [0.5, 0.0, 1.0])
    assert (t, p) == (0.0, 1.0)
    for df in (1.0, 3.3, 39.0, 41.0, 5000.0):
        assert _t_two_sided_p(0.0, df) == 1.0
        assert _t_two_sided_p(-0.0, df) == 1.0


def test_welch_identical_sequences():
    a = np.array([0.2, 0.5, 0.7, 0.2])
    t, p = inter_observer_test(a, a.copy())
    assert t == pytest.approx(0.0, abs=1e-15)
    assert p == pytest.approx(1.0, abs=1e-12)


def test_welch_constant_equal_samples():
    t, p = inter_observer_test(np.full(5, 0.3), np.full(7, 0.3))
    assert (t, p) == (0.0, 1.0)


def test_welch_separated_samples_significant():
    rng = np.random.default_rng(27)
    a = rng.normal(1.0, 0.01, size=30)
    b = rng.normal(0.0, 0.01, size=30)
    t, p = inter_observer_test(a, b)
    assert t > 0 and p < 1e-6


def test_welch_errors():
    with pytest.raises(EvaluationError):
        inter_observer_test([1.0], [1.0, 2.0])
    with pytest.raises(EvaluationError):
        inter_observer_test(np.full(3, 1.0), np.full(3, 2.0))


# ---------------------------------------------------------------------------
# bias distances

def test_bias_distance_hand_values():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
    assert bias_distance(pts, np.zeros(3)) == pytest.approx(3.0, abs=1e-12)
    assert bias_distance(pts[:1], np.zeros(3)) == pytest.approx(1.0)


def test_bias_distance_translation_equivariance():
    rng = np.random.default_rng(28)
    pts = rng.normal(size=(12, 3))
    anchor = rng.normal(size=3)
    shift = np.array([3.0, -1.0, 0.5])
    assert bias_distance(pts + shift, anchor + shift) == \
        pytest.approx(bias_distance(pts, anchor), abs=1e-12)


def test_bias_distance_empty_rejected():
    with pytest.raises(EvaluationError):
        bias_distance(np.zeros((0, 3)), np.zeros(3))


# ---------------------------------------------------------------------------
# viewing-direction dependence

def _blend_entries(n=12, span=80.0):
    """Maps that interpolate between two fixed patterns as yaw grows, so
    map similarity falls off with angular distance."""
    a = np.array([1.0, -1.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 1.0, -1.0])
    entries = []
    for k in range(n):
        w = k / (n - 1)
        yaw = span * w
        entries.append(((0.0, yaw, 0.0), (1.0 - w) * a + w * b))
    return entries


def test_vdd_detects_negative_relation():
    vdd = viewing_direction_dependence(_blend_entries(), seed=3)
    assert -1.0 <= vdd < -0.5


def test_vdd_deterministic():
    a = viewing_direction_dependence(_blend_entries(), seed=3)
    b = viewing_direction_dependence(_blend_entries(), seed=3)
    assert a == b


def test_vdd_needs_ten_entries():
    with pytest.raises(EvaluationError):
        viewing_direction_dependence(_blend_entries(n=9))


def test_vdd_identical_maps_zero_variance():
    m = np.array([1.0, 2.0, 3.0, 4.0])
    entries = [((0.0, 7.0 * k, 0.0), m) for k in range(12)]
    with pytest.raises(EvaluationError):
        viewing_direction_dependence(entries)


def test_vdd_angle_limit_filters_pairs():
    with pytest.raises(EvaluationError):
        viewing_direction_dependence(_blend_entries(), max_angle_deg=0.5)


def _vdd_outcome(fn, entries, **kw):
    try:
        return fn(entries, **kw)
    except EvaluationError as exc:
        return str(exc)


def test_vdd_leaves_out_pairs_with_a_constant_map():
    """A pair whose map correlation is undefined is left out, as in the
    inter-observer study; with every map constant none is left, and the
    error says why.  Maps of different lengths still raise."""
    entries = _blend_entries()
    entries[4] = (entries[4][0], np.zeros(4))
    assert -1.0 <= viewing_direction_dependence(entries, seed=3) < -0.5
    flat = [(o, np.full(4, 2.0)) for o, _ in entries]
    with pytest.raises(EvaluationError, match=r"\(66 left out: undefined map "):
        viewing_direction_dependence(flat)
    entries[4] = (entries[4][0], np.zeros(5))
    with pytest.raises(EvaluationError, match="maps are not aligned"):
        viewing_direction_dependence(entries)


def _loop_angles(angles):
    """Each pose pair's facing angle as the oracle's pair loop forms it."""
    dirs = [facing_oracle((a[0], a[1], 0.0)) for a in angles]
    return [float(np.degrees(np.arccos(np.clip(np.dot(dirs[i], dirs[j]), -1.0, 1.0))))
            for i in range(len(dirs)) for j in range(i + 1, len(dirs))]


@pytest.mark.parametrize("case", range(9))
def test_vdd_matches_pair_loop_oracle(case):
    """Pair index arrays give the loop's xs and ys in the loop's order, so
    the same float or the same error, bit for bit: with repeated poses
    (case 6), a limit equal to one pair's angle (case 7) and a constant
    map, whose pairs are left out (case 8)."""
    rng = np.random.default_rng(700 + case)
    n = (10, 14, 25, 40, 12, 60, 16, 20, 15)[case]
    angles = rng.uniform(-60.0, 60.0, size=(n, 2))
    maps = rng.random((n, 30))
    if case == 4:
        maps[:] = maps[0]                       # zero similarity variance
    if case == 6:
        angles[n // 2:] = angles[:n - n // 2]   # each pose twice
    if case == 8:
        maps[3] = 0.5                           # undefined correlation
    entries = [((a[0], a[1], 0.0), m) for a, m in zip(angles, maps)]
    kws = [{}, {"max_angle_deg": 20.0, "seed": 5},
           {"max_angle_deg": 8.0, "subset_frac": 0.3, "repetitions": 40},
           {"subset_frac": 0.1, "seed": 2}, {"max_angle_deg": 0.01},
           {"max_angle_deg": 12.0, "subset_frac": 0.05, "repetitions": 5}]
    if case == 7:
        limit = sorted(_loop_angles(angles))[n * (n - 1) // 4]
        kws += [{"max_angle_deg": limit}, {"max_angle_deg": limit, "seed": 9}]
    for kw in kws:
        got = _vdd_outcome(viewing_direction_dependence, entries, **kw)
        want = _vdd_outcome(vdd_oracle, entries, **kw)
        assert type(got) is type(want) and got == want


# ---------------------------------------------------------------------------
# initial movement direction

def _walk(facing_yaw, offsets):
    n = len(offsets)
    return Recording(t=np.arange(n) / 10.0, p=offsets,
                     o=np.tile([0.0, facing_yaw, 0.0], (n, 1)),
                     s=np.zeros((n, 2)))


def test_initial_move_left_and_right_facing_forward():
    # facing +z, the rightward axis is +x
    right = _walk(0.0, [(0, 0, 0), (0.05, 0, 0), (0.2, 0, 0)])
    assert initial_move_direction(right) == RIGHT
    left = _walk(0.0, [(0, 0, 0), (-0.2, 0, 0)])
    assert initial_move_direction(left) == LEFT


def test_initial_move_respects_facing():
    # facing -x, the rightward axis is +z
    fwd = _walk(-90.0, [(0, 0, 0), (0, 0, 0.3)])
    assert initial_move_direction(fwd) == RIGHT
    back = _walk(-90.0, [(0, 0, 0), (0, 0, -0.3)])
    assert initial_move_direction(back) == LEFT


def test_initial_move_gate_and_pure_forward():
    near = _walk(0.0, [(0, 0, 0), (0.1, 0, 0), (0.15, 0, 0)])
    assert initial_move_direction(near) == NONE        # never beyond the gate
    fwd = _walk(0.0, [(0, 0, 0), (0, 0, 0.5)])
    assert initial_move_direction(fwd) == NONE         # no lateral component


def test_initial_move_first_crossing_wins():
    # drifts right early but first crosses the gate while displaced left
    recording = _walk(0.0, [(0, 0, 0), (0.1, 0, 0), (-0.2, 0, 0), (0.4, 0, 0)])
    assert initial_move_direction(recording) == LEFT


def test_initial_move_needs_two_samples():
    with pytest.raises(EvaluationError):
        initial_move_direction(_walk(0.0, [(0, 0, 0)]))
