"""I-VT classification, clustering, and random-walk center selection."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import hit_records_oracle, ivt_oracle, saccade_amplitude_oracle

from meshgaze import fixation
from meshgaze.fixation import (FIXATION, MISS, SACCADE, FixationError,
                               Fixations, classify_ivt,
                               cluster_center_random_walk, extract_fixations,
                               group_clusters, load_fixations, median,
                               nominal_dt, saccade_amplitudes, save_fixations)
from meshgaze.gaze import Recording, sightlines, trace_samples

H = 0.0075


def make_stream(points, distances, dt=1.0 / 120.0, miss_at=()):
    """Stream arrays (t, points, distances) with NaN rows at miss_at."""
    t = np.arange(len(points)) * dt
    pts = np.array(points, dtype=float).reshape(-1, 3)
    d = np.array(distances, dtype=float)
    pts[list(miss_at)] = np.nan
    d[list(miss_at)] = np.nan
    return t, pts, d


def traced_of(t, points, distances):
    """A Recording and its (row, point or None) pairs; sample k has head
    position (k, 0, 0) and orientation (0, k, 0).  The distances mark the
    misses only: extract_fixations measures D_k from the head position."""
    k = np.arange(len(t), dtype=float)
    zero = np.zeros_like(k)
    recording = Recording(t=t, p=np.column_stack([k, zero, zero]),
                          o=np.column_stack([zero, k, zero]),
                          s=np.zeros((len(t), 2)))
    traced = [(i, None if np.isnan(distances[i]) else points[i].copy())
              for i in range(len(t))]
    return recording, traced


def labels_of(stream, h=H, min_fixation_s=0.0):
    return classify_ivt(*stream, h, min_fixation_s=min_fixation_s).tolist()


# ---------------------------------------------------------------------------
# I-VT

def test_stationary_gaze_all_fixation():
    pts = [(0.0, 0.0, 1.0)] * 20
    stream = make_stream(pts, [1.0] * 20)
    assert labels_of(stream, min_fixation_s=0.1) == [FIXATION] * 20


def test_threshold_comparison_hand_values():
    """displacement 0.003 at D=1 -> fixation; 0.010 -> saccade (h=0.0075)."""
    pts = [(0, 0, 0), (0.003, 0, 0), (0.013, 0, 0)]
    stream = make_stream(pts, [1.0, 1.0, 1.0])
    lab = labels_of(stream)
    assert lab[1] == FIXATION and lab[2] == SACCADE


def test_distance_doubling_raises_threshold():
    pts = [(0, 0, 0), (0.003, 0, 0), (0.013, 0, 0)]
    stream = make_stream(pts, [2.0, 2.0, 2.0])
    lab = labels_of(stream)
    assert lab[1] == FIXATION and lab[2] == FIXATION  # threshold now 0.015


def test_boundary_is_inclusive():
    pts = [(0, 0, 0), (H * 1.0, 0, 0)]
    stream = make_stream(pts, [1.0, 1.0])
    assert labels_of(stream)[1] == FIXATION


def test_first_sample_takes_successor_label():
    pts = [(0, 0, 0), (0.5, 0, 0), (0.5, 0, 0)]
    stream = make_stream(pts, [1.0] * 3)
    lab = labels_of(stream)
    assert lab == [SACCADE, SACCADE, FIXATION]
    pts = [(0, 0, 0), (0.0005, 0, 0), (0.001, 0, 0)]
    lab = labels_of(make_stream(pts, [1.0] * 3))
    assert lab == [FIXATION, FIXATION, FIXATION]


def test_miss_breaks_runs_and_is_labeled_miss():
    pts = [(0, 0, 0)] * 30
    stream = make_stream(pts, [1.0] * 30, miss_at={10})
    lab = labels_of(stream, min_fixation_s=0.1)
    assert lab[10] == MISS
    # 10 samples before the miss: (t9-t0)+dt = 10 samples * dt < 0.1 s -> saccade
    assert set(lab[:10]) == {SACCADE}
    # 19 samples after: >= 0.1 s -> fixation
    assert set(lab[11:]) == {FIXATION}


def test_min_duration_boundary_is_inclusive():
    # 1/128 s grid keeps every quantity exactly representable, so the
    # run-duration comparison at the boundary is exact
    dt = 1.0 / 128.0
    min_s = 12.0 / 128.0
    pts12 = [(0, 0, 0)] * 12 + [(0.5, 0, 0), (1.0, 0, 0)]
    lab = labels_of(make_stream(pts12, [1.0] * 14, dt=dt), min_fixation_s=min_s)
    assert set(lab[:12]) == {FIXATION}
    pts11 = [(0, 0, 0)] * 11 + [(0.5, 0, 0), (1.0, 0, 0)]
    lab = labels_of(make_stream(pts11, [1.0] * 13, dt=dt), min_fixation_s=min_s)
    assert set(lab[:11]) == {SACCADE}


def test_singleton_fixation_becomes_saccade():
    # isolated sample between two misses can never pair up
    pts = [(0, 0, 0)] * 5
    stream = make_stream(pts, [1.0] * 5, miss_at={1, 3})
    lab = labels_of(stream)
    assert lab[2] == SACCADE


def test_empty_and_nonmonotonic_rejected():
    with pytest.raises(FixationError):
        classify_ivt(np.empty(0), np.empty((0, 3)), np.empty(0), H)
    t, pts, d = make_stream([(0, 0, 0)] * 3, [1.0] * 3)
    with pytest.raises(FixationError):
        classify_ivt(t, pts, d, 0.0)
    t[2] = t[1]
    with pytest.raises(FixationError):
        classify_ivt(t, pts, d, H)


def test_scale_consistency_randomized():
    """Labels invariant under joint scaling of I and D (300 streams)."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = rng.integers(5, 40)
        pts = np.cumsum(rng.normal(scale=0.004, size=(n, 3)), axis=0)
        dists = rng.uniform(0.5, 3.0, size=n)
        s = float(rng.uniform(0.1, 10.0))
        t1 = make_stream(pts, dists)
        t2 = make_stream(pts * s, dists * s)
        assert labels_of(t1) == labels_of(t2)


def test_monotonicity_in_h_randomized():
    rng = np.random.default_rng(43)
    for _ in range(300):
        n = rng.integers(5, 40)
        pts = np.cumsum(rng.normal(scale=0.004, size=(n, 3)), axis=0)
        dists = rng.uniform(0.5, 3.0, size=n)
        stream = make_stream(pts, dists)
        lo = labels_of(stream, h=0.005, min_fixation_s=0.1)
        hi = labels_of(stream, h=0.01, min_fixation_s=0.1)
        for a, b in zip(lo, hi):
            if a == FIXATION:
                assert b == FIXATION


def test_labels_match_per_sample_oracle():
    """The run-length classifier equals the per-sample loop on 1,000 seeded
    streams: misses, lone hits between misses, irregular dt, and runs whose
    duration equals the minimum exactly."""
    rng = np.random.default_rng(44)
    lone = boundary = 0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        grid = rng.random() < 0.5
        if grid:    # gaps of 1-3 ticks of 1/128 s: every duration is exact
            t = np.cumsum(rng.integers(1, 4, size=n)) / 128.0
            dt = 1.0 / 128.0
        else:
            t = np.cumsum(rng.uniform(0.002, 0.02, size=n))
            dt = None
        d = rng.uniform(0.5, 3.0, size=n)
        steps = rng.normal(size=(n, 3))
        steps *= (rng.uniform(0.0, 2.0, size=n) * H * d
                  / np.linalg.norm(steps, axis=1))[:, None]
        pts = np.cumsum(steps, axis=0)
        miss = rng.random(n) < rng.choice([0.0, 0.1, 0.3, 0.5])
        pts[miss] = np.nan
        d[miss] = np.nan
        hit = np.concatenate(([False], ~miss, [False]))
        lone += int((hit[1:-1] & ~hit[:-2] & ~hit[2:]).sum())
        dt_oracle = dt if dt is not None else (
            float(np.median(np.diff(t))) if n > 1 else 1.0 / 120.0)
        runs = ivt_oracle(t, pts, d, H, 0.0, dt_oracle)
        for h, min_s in ((H, 0.0), (H, 12.0 / 128.0), (0.005, 0.1)):
            want = ivt_oracle(t, pts, d, h, min_s, dt_oracle)
            assert classify_ivt(t, pts, d, h, min_s, dt).tolist() == want
        k = 0
        while k < n:
            j = k
            while j < n and runs[j] == FIXATION:
                j += 1
            boundary += j > k and (t[j - 1] - t[k]) + dt_oracle == 12.0 / 128.0
            k = j + 1
    assert lone > 0 and boundary > 0


# ---------------------------------------------------------------------------
# clustering

def cluster_sizes(points, interval):
    starts = group_clusters(np.asarray(points, dtype=float), interval)
    return np.diff(np.append(starts, len(points))).tolist()


def test_tight_points_one_cluster():
    pts = [(k * 1e-4, 0, 0) for k in range(10)]
    assert cluster_sizes(pts, interval=0.03) == [10]


def test_two_groups_two_clusters():
    pts = [(0, 0, 0)] * 5 + [(0.5, 0, 0)] * 5
    assert cluster_sizes(pts, interval=0.03) == [5, 5]


def test_alternating_points_never_interleave():
    pts = [(0, 0, 0), (0.5, 0, 0)] * 4
    assert len(cluster_sizes(pts, interval=0.03)) == 8


def test_running_centroid_admits_drift():
    # each step 0.02 from the current centroid; the centroid trails behind
    pts = [(0.0, 0, 0), (0.02, 0, 0), (0.03, 0, 0)]
    assert len(cluster_sizes(pts, interval=0.03)) == 1


def test_representative_pose_is_temporal_midpoint_member(cfg):
    cfg.min_fixation_s = 0.0
    pts = [(k * 1e-4, 0, 1) for k in range(5)]
    points, _ = extract_fixations(*traced_of(*make_stream(pts, [1.0] * 5)), cfg)
    # five samples at dt spacing: the midpoint member is sample 2, whose
    # head pose traced_of set to (2, 0, 0) and (0, 2, 0)
    assert len(points) == 1
    np.testing.assert_array_equal(points.pose_p[0], [2.0, 0.0, 0.0])
    np.testing.assert_array_equal(points.pose_o[0], [0.0, 2.0, 0.0])
    # four samples on a 1/128 s grid: the midpoint lies exactly halfway
    # between samples 1 and 2, and the earlier one wins
    stream = make_stream(pts[:4], [1.0] * 4, dt=1.0 / 128.0)
    points, _ = extract_fixations(*traced_of(*stream), cfg)
    np.testing.assert_array_equal(points.pose_p[0], [1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# random-walk center (independent dense oracle)

def rw_oracle(points, sigma, lam=0.85, rho_radius=0.015):
    """Dense stationary-vector computation, written independently."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    w = np.exp(-d / sigma)
    np.fill_diagonal(w, 0.0)
    t = w / w.sum(axis=1, keepdims=True)
    rho = (d <= rho_radius).sum(axis=1).astype(float)   # self included
    rho /= rho.sum()
    pi = np.full(n, 1.0 / n)
    for _ in range(1000):
        nxt = lam * (t.T @ pi) + (1 - lam) * rho
        if np.abs(nxt - pi).sum() < 1e-9:
            pi = nxt
            break
        pi = nxt
    return int(np.argmax(pi))


def test_singleton_cluster_short_circuits(cfg):
    assert cluster_center_random_walk([(0.1, 0.2, 0.3)], sigma_rw=0.03) == 0
    with pytest.raises(FixationError):
        cluster_center_random_walk(np.empty((0, 3)), sigma_rw=0.03)
    # through the pipeline: steps of 0.002 are fixations (h * D > 0.0075)
    # but each lies outside a 0.001 cluster interval
    cfg.min_fixation_s = 0.0
    cfg.cluster_interval = 0.001
    stream = make_stream([(0.002 * k, 0.2, 0.3) for k in range(4)], [1.0] * 4)
    points, stats = extract_fixations(*traced_of(*stream), cfg)
    assert stats["fixations"] == len(points) == 4
    np.testing.assert_array_equal(points.position, stream[1])
    np.testing.assert_array_equal(points.pose_p[:, 0], np.arange(4.0))
    assert (points.weight == 1).all() and points.cluster.tolist() == [0, 1, 2, 3]
    np.testing.assert_allclose(points.duration, 1 / 120.0, atol=1e-12)


def test_collinear_symmetric_center_is_middle():
    pts = np.array([(-0.01, 0, 0), (0, 0, 0), (0.01, 0, 0)])
    idx = cluster_center_random_walk(pts, sigma_rw=0.03)
    np.testing.assert_allclose(pts[idx], [0, 0, 0], atol=1e-15)


def test_outlier_never_wins():
    rng = np.random.default_rng(11)
    pack = rng.normal(scale=0.002, size=(9, 3))
    pts = np.vstack([pack, [[0.2, 0.0, 0.0]]])
    idx = cluster_center_random_walk(pts, sigma_rw=0.03)
    assert np.linalg.norm(pts[idx] - [0.2, 0, 0]) > 0.1


def test_random_walk_matches_dense_oracle():
    rng = np.random.default_rng(12)
    for trial in range(25):
        n = int(rng.integers(2, 12))
        pts = rng.normal(scale=0.01, size=(n, 3))
        idx = cluster_center_random_walk(pts, sigma_rw=0.03)
        assert idx == rw_oracle(pts, 0.03), f"trial {trial}"


def test_random_walk_with_no_reach_is_an_error():
    """A sigma so small that exp(-d / sigma) is 0 from a point to every
    other leaves a zero row, which made the walk NaN and the centre
    silently the cluster's first point."""
    pts = np.random.default_rng(3).normal(scale=0.01, size=(12, 3))
    assert cluster_center_random_walk(pts, sigma_rw=0.03) == rw_oracle(pts, 0.03)
    for sigma in (1e-5, 1e-310):
        with pytest.raises(FixationError, match=r"rw_sigma .* is too small"):
            cluster_center_random_walk(pts, sigma_rw=sigma)


def test_center_duration_and_weight(cfg):
    cfg.min_fixation_s = 0.0
    pts = [(k * 1e-4, 0, 1) for k in range(6)]
    points, _ = extract_fixations(*traced_of(*make_stream(pts, [1.0] * 6)), cfg)
    assert len(points) == 1
    assert points.weight[0] == 6
    assert points.duration[0] == pytest.approx(6 / 120.0, abs=1e-12)


# ---------------------------------------------------------------------------
# saccade amplitude

def _table(positions, heads=None, recording="rec"):
    """A Fixations table of the given points, clusters numbered in order."""
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(pos)
    heads = np.zeros((n, 3)) if heads is None else heads
    return Fixations(recording=[recording] * n, cluster=np.arange(n),
                     position=pos, pose_p=heads, pose_o=np.zeros((n, 3)),
                     duration=np.full(n, 0.2), weight=np.ones(n))


def _amplitude(pos_a, pos_b, head_a=(0, 0, 0), head_b=(0, 0, 0)):
    """saccade_amplitudes of the one pair a -> b."""
    return saccade_amplitudes(_table([pos_a, pos_b], [head_a, head_b]),
                              [0], [1])[0]


def test_saccade_amplitude_right_angle():
    assert _amplitude((1, 0, 0), (0, 1, 0)) == pytest.approx(90.0, abs=1e-9)


def test_saccade_amplitude_extremes():
    assert _amplitude((1, 0, 0), (1, 0, 0)) == pytest.approx(0.0, abs=1e-6)
    assert _amplitude((1, 0, 0), (-1, 0, 0)) == pytest.approx(180.0, abs=1e-9)


def test_saccade_amplitude_measured_from_second_head_position():
    # were the first pose used instead, both points would sit in nearly the
    # same direction from (9,9,9) and the angle would be tiny
    got = _amplitude((1, 0, 0), (0, 2, 0), head_a=(9, 9, 9), head_b=(0, 0, 0))
    assert got == pytest.approx(90.0, abs=1e-9)


def test_saccade_amplitude_coincident_head_rejected():
    assert np.isnan(_amplitude((0, 0, 0), (1, 0, 0)))
    assert np.isnan(_amplitude((1, 0, 0), (0, 0, 0)))


def test_saccade_amplitudes_match_per_pair_oracle():
    """Each pair's value is the one-pair computation's, bit for bit; a
    pair the one-pair form rejects is NaN."""
    rng = np.random.default_rng(44)
    pos = rng.normal(size=(400, 3))
    heads = rng.normal(size=(400, 3))
    pos[::17] = heads[::17]                      # fixation at the head
    pos[5::23] = heads[5::23] + 1e-13
    pos[9::31] = pos[8::31]                      # zero amplitude
    table = _table(pos, heads)
    first = rng.integers(0, 400, 600)
    second = rng.integers(0, 400, 600)
    got = saccade_amplitudes(table, first, second)
    for k, (a, b) in enumerate(zip(first, second)):
        try:
            want = saccade_amplitude_oracle(pos[a], pos[b], heads[b])
        except FixationError:
            want = np.nan
        assert np.array_equal([got[k]], [want], equal_nan=True), k
    assert np.isnan(got).sum() > 20


# ---------------------------------------------------------------------------
# extraction pipeline and fixation files

def test_extract_fixations_counts(cfg):
    pts = [(0, 0, 1)] * 24 + [(0.5, 0, 1)] * 24
    recording, traced = traced_of(*make_stream(pts, [1.0] * 48, miss_at={5}))
    points, stats = extract_fixations(recording, traced, cfg)
    assert stats["samples"] == 48
    assert stats["miss_samples"] == 1
    # the 5 samples before the miss are too brief to keep (5/120 s < 0.1 s)
    assert stats["saccade_samples"] == 6
    assert stats["fixation_samples"] == 41
    assert stats["fixations"] == len(points) == 2
    np.testing.assert_allclose(points.position, [[0, 0, 1], [0.5, 0, 1]])
    assert points.weight.tolist() == [18, 23]


def test_extract_fixations_hands_the_oracle_distances_to_ivt(sphere3, cfg,
                                                           monkeypatch):
    """The D_k that extract_fixations gives classify_ivt are the bytes of
    the per-record oracle's |hit - P_k|, NaN at each miss and NaN ray."""
    rng = np.random.default_rng(5)
    n = 150
    o = rng.normal(0.0, 8.0, size=(n, 3))
    o[::7] = [90.0, 0.0, 0.0]            # straight down: a NaN sight-line
    o[3::5] += [0.0, 180.0, 0.0]         # facing away: a miss
    recording = Recording(t=np.arange(n) / 120.0,
                          p=[0.0, 1.5, -2.0] + 0.1 * rng.normal(size=(n, 3)),
                          o=o, s=rng.uniform(-0.05, 0.05, size=(n, 2)))
    seen = []

    def spy(t, points, distances, *args, **kwargs):
        seen.append(distances)
        return classify_ivt(t, points, distances, *args, **kwargs)

    monkeypatch.setattr(fixation, "classify_ivt", spy)
    extract_fixations(recording, trace_samples(recording, sphere3,
                                               cfg.d_screen), cfg)
    origins, directions = sightlines(recording.p, recording.o, recording.s,
                                     cfg.d_screen)
    want = np.array([np.nan if w is None else w[3] for w in
                     hit_records_oracle(sphere3, origins, directions)])
    (got,) = seen
    assert got.tobytes() == want.tobytes()
    cast = ~np.isnan(directions[:, 0])
    assert not cast[::7].any() and 0 < np.isnan(got[cast]).sum() < cast.sum()


def test_fixation_file_roundtrip(tmp_path):
    pts = _table([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)],
                 [(0, 1.6, -1.5), (0.1, 1.6, -1.4)], recording="rec7")
    path = tmp_path / "fix.csv"
    save_fixations(path, pts)
    rows = load_fixations(path)
    assert rows.recording.tolist() == ["rec7", "rec7"]
    assert rows.cluster.tolist() == [0, 1]
    for column in ("position", "pose_p", "pose_o", "duration", "weight"):
        np.testing.assert_array_equal(getattr(rows, column),
                                      getattr(pts, column))
    assert path.read_text().splitlines()[1] == (
        "rec7,0,0.1,0.2,0.3,0.0,1.6,-1.5,0.0,0.0,0.0,0.2,1")


def test_fixations_index_and_concat():
    """Indexing by an index array or a mask takes those rows; concat
    stacks tables in turn, and no tables give an empty one."""
    a = _table([(0, 0, 1), (0, 0, 2), (0, 0, 3)], recording="a")
    b = _table([(1, 0, 0)], recording="b")
    both = Fixations.concat([a, b])
    assert len(both) == 4 and both.recording.tolist() == ["a", "a", "a", "b"]
    picked = both[np.array([3, 0])]
    assert picked.recording.tolist() == ["b", "a"]
    np.testing.assert_array_equal(picked.position, [[1, 0, 0], [0, 0, 1]])
    assert len(both[both.recording == "a"]) == 3
    empty = Fixations.concat([])
    assert len(empty) == 0 and empty.position.shape == (0, 3)


def test_nominal_dt_median():
    t = [0.0, 1 / 120, 2 / 120, 2 / 120 + 5.0]
    assert nominal_dt(t) == pytest.approx(1 / 120, abs=1e-12)
    assert nominal_dt([0.0]) == 1 / 120


def test_median_matches_numpy_median():
    """np.median's value bit for bit (odd and even lengths, ties, signed
    zeros, NaN), computed without np.median."""
    rng = np.random.default_rng(3)
    for n in range(1, 80):
        for kind in range(4):
            a = [rng.normal(size=n), np.round(rng.normal(size=n), 1),
                 rng.integers(-2, 3, size=n) * 0.5,
                 np.diff(np.cumsum(rng.uniform(0.008, 0.009, size=n + 1)))][kind]
            if kind == 2:
                a[rng.random(n) < 0.3] = -0.0
            if n > 2 and kind == 1 and n % 5 == 0:
                a[rng.integers(n)] = np.nan
            want = np.median(a)
            got = median(a)
            assert np.array_equal([got], [want], equal_nan=True), (n, kind)
            assert np.signbit(got) == np.signbit(want)
