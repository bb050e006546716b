"""Sight-line reconstruction geometry and recording I/O."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import (facing_oracle, hit_records_oracle, intersect_brute,
                      load_recording_oracle, rotation_oracle,
                      screen_frame_oracle, sightline_oracle)

from meshgaze.gaze import (RECORDING_HEADER, GazeError, PoseSample, cast_hits,
                           gaze_points, head_orientations, load_recording,
                           rotation_matrix, save_recording, screen_frames,
                           screen_point, sightlines, trace_samples)
from meshgaze.synth import euler_facing


# ---------------------------------------------------------------------------
# head orientation (independent matrix oracle)

def _rot_oracle(o_deg):
    """Explicit Rz@Rx@Ry composition, written out independently."""
    ox, oy, oz = np.radians(o_deg)

    def ry(a):
        return np.array([[np.cos(a), 0, np.sin(a)],
                         [0, 1, 0],
                         [-np.sin(a), 0, np.cos(a)]])

    def rx(a):
        return np.array([[1, 0, 0],
                         [0, np.cos(a), -np.sin(a)],
                         [0, np.sin(a), np.cos(a)]])

    def rz(a):
        return np.array([[np.cos(a), -np.sin(a), 0],
                         [np.sin(a), np.cos(a), 0],
                         [0, 0, 1]])

    return rz(oz) @ rx(ox) @ ry(oy)


def test_identity_orientation():
    np.testing.assert_allclose(head_orientations([0.0, 0, 0]), [[0, 0, 1]],
                               atol=1e-15)


def test_yaw_90_points_along_x():
    np.testing.assert_allclose(head_orientations([0.0, 90.0, 0.0]), [[1, 0, 0]],
                               atol=1e-12)


def test_pitch_90_points_down():
    np.testing.assert_allclose(head_orientations([90.0, 0.0, 0.0]), [[0, -1, 0]],
                               atol=1e-12)


def test_orientation_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        o = rng.uniform(-180, 180, size=3)
        want = _rot_oracle(o) @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(head_orientations(o)[0], want, atol=1e-12)
        np.testing.assert_allclose(rotation_matrix(o), _rot_oracle(o),
                                   atol=1e-12)


def test_orientation_unit_length():
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = head_orientations(rng.uniform(-360, 360, size=3))[0]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# screen point / gaze point

def test_screen_point_linear():
    np.testing.assert_allclose(
        screen_point(np.zeros(3), np.array([0.0, 0, 1]), 0.05), [0, 0, 0.05])
    np.testing.assert_allclose(
        screen_point(np.array([1.0, 1.6, 0]), np.array([-1.0, 0, 0]), 0.05),
        [0.95, 1.6, 0.0])


def test_screen_point_rejects_nonpositive_distance():
    with pytest.raises(GazeError):
        screen_point(np.zeros(3), np.array([0.0, 0, 1]), 0.0)


def test_gaze_point_forward_substitution():
    """Forward gaze: alpha=90deg, beta=90deg — direct substitution."""
    o_vec = np.array([0.0, 0.0, 1.0])
    b = np.array([0.0, 1.5, 0.05])
    y, degenerate = gaze_points(b, o_vec, np.array([0.01, 0.02]))
    np.testing.assert_allclose(y, [[0.01, 1.48, 0.05]], atol=1e-12)
    assert not degenerate.any()


def test_gaze_point_zero_offset_is_b():
    rng = np.random.default_rng(3)
    for _ in range(50):
        o = rng.uniform(-80, 80, size=3)
        o_vec = head_orientations(o)
        b = rng.normal(size=(1, 3))
        np.testing.assert_allclose(gaze_points(b, o_vec, np.zeros(2))[0], b,
                                   atol=1e-12)


def test_gaze_point_degenerate_beta():
    """Facing along Y leaves no screen frame: a NaN row, flagged degenerate."""
    y, degenerate = gaze_points(np.zeros((2, 3)), [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                [[0.01, 0.0], [0.01, 0.0]])
    assert degenerate.tolist() == [True, False]
    assert np.isnan(y[0]).all() and np.isfinite(y[1]).all()


def test_screen_frame_orthonormal_and_perpendicular_to_gaze():
    rng = np.random.default_rng(4)
    for _ in range(100):
        o_vec = head_orientations(rng.uniform(-80, 80, size=3))[0]
        (e_sx,), (e_sy,), _ = screen_frames(o_vec)
        assert abs(np.linalg.norm(e_sx) - 1) < 1e-9
        assert abs(np.linalg.norm(e_sy) - 1) < 1e-9
        assert abs(np.dot(e_sx, e_sy)) < 1e-9
        # the screen spans directions transverse to the sight-line
        assert abs(np.dot(e_sx, o_vec)) < 1e-9


def test_gaze_point_lipschitz_in_offset():
    """|Y(S+d) - Y(S)| <= sqrt(2)|d| for the orthonormal frame."""
    rng = np.random.default_rng(5)
    o_vec = head_orientations([10.0, 40.0, 0.0])
    b = np.array([0.0, 1.5, 0.05])
    for _ in range(50):
        s = rng.uniform(-0.1, 0.1, size=2)
        d = rng.uniform(-0.01, 0.01, size=2)
        lhs = np.linalg.norm(gaze_points(b, o_vec, s + d)[0]
                             - gaze_points(b, o_vec, s)[0])
        assert lhs <= np.sqrt(2) * np.linalg.norm(d) + 1e-12


def test_actual_sightline():
    """The sight-line runs from the head through the gaze point; a gaze
    point at the head gives a NaN row."""
    o = euler_facing([3.0, 0.0, 4.0])
    np.testing.assert_allclose(sightlines(np.zeros(3), o, np.zeros(2), 5.0)[1],
                               [[0.6, 0, 0.8]], atol=1e-12)
    assert np.isnan(sightlines(np.ones(3), o, np.zeros(2), 1e-12)[1]).all()


def test_doubling_d_screen_keeps_direction_when_centered():
    p = np.array([0.3, 1.7, -1.2])
    o_deg = [5.0, 25.0, 0.0]
    dirs = [sightlines(p, o_deg, np.zeros(2), d_screen)[1]
            for d_screen in (0.05, 0.10)]
    np.testing.assert_allclose(dirs[0], dirs[1], atol=1e-12)


# ---------------------------------------------------------------------------
# tracing and recording I/O

def test_trace_sphere_hit_distance(sphere3):
    sample = PoseSample(t=0.0, p=np.array([0.0, 1.5, -2.0]),
                        o_deg=np.zeros(3), s=np.zeros(2), index=0)
    traced = trace_samples([sample], sphere3, d_screen=0.05)
    (s, rec), = traced
    assert rec is not None
    assert rec.distance == pytest.approx(1.7, abs=0.02)
    np.testing.assert_allclose(rec.point[:2], [0.0, 1.5], atol=1e-9)


def test_trace_miss_is_none(sphere3):
    sample = PoseSample(t=0.0, p=np.array([0.0, 1.5, -2.0]),
                        o_deg=np.array([0.0, 180.0, 0.0]),  # facing away
                        s=np.zeros(2), index=0)
    (s, rec), = trace_samples([sample], sphere3, d_screen=0.05)
    assert rec is None


def test_trace_degenerate_orientation_is_miss(sphere3):
    sample = PoseSample(t=0.0, p=np.array([0.0, 3.0, 0.0]),
                        o_deg=np.array([90.0, 0.0, 0.0]),   # looking straight down
                        s=np.array([0.01, 0.0]), index=0)
    (s, rec), = trace_samples([sample], sphere3, d_screen=0.05)
    assert rec is None          # degenerate beta cannot resolve the offset


def _chain(p, o_deg, s, d_screen):
    """The per-sample sight-line direction, or None where the chain raises."""
    try:
        return sightline_oracle(p, o_deg, s, d_screen)
    except GazeError:
        return None


def test_sightlines_match_per_sample_chain_bit_for_bit():
    rng = np.random.default_rng(12)
    n = 500
    p = rng.normal(size=(n, 3))
    o = rng.uniform(-180.0, 180.0, size=(n, 3))
    s = rng.uniform(-0.15, 0.15, size=(n, 2))
    o[::25] = [90.0, 0.0, 0.0]                       # degenerate screen frame
    o[7] = [np.nan, 0.0, 0.0]
    o[11] = [0.0, np.inf, 0.0]
    origins, dirs = sightlines(p, o, s, 0.05)
    assert np.array_equal(origins, p)
    for k in range(n):
        d = _chain(p[k], o[k], s[k], 0.05)
        if d is None:
            assert np.isnan(dirs[k]).all()
        else:
            assert np.array_equal(dirs[k], d)
    assert 0 < np.isnan(dirs[:, 0]).sum() < n
    assert np.isnan(sightlines(p, o, s, 0.0)[1]).all()


def test_trace_samples_match_per_ray_records(sphere3):
    """Batched tracing gives the exhaustive scan's hits, bit for bit."""
    rng = np.random.default_rng(4)
    samples = [PoseSample(t=0.1 * k, p=np.array([0.0, 1.5, -2.0]) + 0.1 * rng.normal(size=3),
                          o_deg=rng.normal(0.0, 8.0, size=3),
                          s=rng.uniform(-0.05, 0.05, size=2), index=k)
               for k in range(120)]
    traced = trace_samples(samples, sphere3, d_screen=0.05)
    assert [x for x, _ in traced] == samples
    hits = 0
    for x, rec in traced:
        want = intersect_brute(sphere3.vertices, sphere3.triangles, x.p,
                               _chain(x.p, x.o_deg, x.s, 0.05))
        assert (rec is None) == (want is None)
        if rec is not None:
            hits += 1
            _, tri, bary = want
            tv = sphere3.vertices[sphere3.triangles[tri]]
            point = bary[0] * tv[0] + bary[1] * tv[1] + bary[2] * tv[2]
            assert rec.triangle == tri
            assert rec.sample_index == x.index
            assert rec.distance == float(np.linalg.norm(point - x.p))
            assert np.array_equal(rec.point, point)
            assert np.array_equal(rec.bary, bary)
    assert 0 < hits < len(samples)


def test_recording_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    samples = [PoseSample(t=k / 120.0,
                          p=rng.normal(size=3),
                          o_deg=rng.uniform(-90, 90, size=3),
                          s=rng.uniform(-0.1, 0.1, size=2),
                          index=k)
               for k in range(25)]
    path = tmp_path / "rec.csv"
    save_recording(path, samples)
    again = load_recording(path)
    assert len(again) == 25
    for a, b in zip(samples, again):
        assert a.t == b.t
        np.testing.assert_array_equal(a.p, b.p)
        np.testing.assert_array_equal(a.o_deg, b.o_deg)
        np.testing.assert_array_equal(a.s, b.s)


def test_recording_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,px,py\n0,0,0\n")
    with pytest.raises(GazeError):
        load_recording(p)
    p.write_text("t,px,py,pz,ox,oy,oz,sx,sy\n")
    with pytest.raises(GazeError):
        load_recording(p)                    # empty body
    p.write_text("t,px,py,pz,ox,oy,oz,sx,sy\n"
                 "0,0,0,0,0,0,0,0,0\n0,0,0,0,0,0,0,0,0\n")
    with pytest.raises(GazeError):
        load_recording(p)                    # non-increasing t
    p.write_text("t,px,py,pz,ox,oy,oz,sx,sy\n0,0,0,0,0,0,0,9,0\n")
    with pytest.raises(GazeError):
        load_recording(p)                    # eye offset beyond screen


# ---------------------------------------------------------------------------
# whole-recording passes against the per-pose and per-record oracles

def _outcome(fn, *args):
    """fn's value, or the (type, message) of the error it raises."""
    try:
        return fn(*args)
    except (GazeError, ValueError) as exc:
        return type(exc), str(exc)


def _odd_poses(n, seed):
    """n random poses with degenerate, non-finite and NaN rows mixed in."""
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(n, 3))
    o = rng.uniform(-360.0, 360.0, size=(n, 3))
    s = rng.uniform(-0.15, 0.15, size=(n, 2))
    o[::23] = [90.0, 0.0, 0.0]                       # facing straight down
    o[5::29] = [-90.0, 0.0, 17.0]                    # facing straight up
    o[7::31, 1] = np.nan
    o[11::37, 2] = np.inf
    p[13::41, 0] = np.nan
    s[17::43, 1] = np.nan
    return p, o, s


def test_stacked_pose_chain_matches_per_pose_oracle():
    """Rotation, facing, screen frame and sight-line, computed for the
    whole stack at once, equal the per-pose chain bit for bit, with NaN
    rows (and the degenerate mask) exactly where the chain raises."""
    p, o, s = _odd_poses(3000, 21)
    finite = np.isfinite(o).all(axis=1)
    rot = rotation_matrix(o[finite])
    assert np.array_equal(rot, [rotation_oracle(x) for x in o[finite]])

    facing = head_orientations(o)
    e_sx, e_sy, degenerate = screen_frames(facing)
    _, dirs = sightlines(p, o, s, 0.05)
    raised = {"facing": 0, "frame": 0, "sightline": 0}
    for k in range(len(o)):
        want = _outcome(facing_oracle, o[k])
        if isinstance(want, tuple):
            raised["facing"] += 1
            assert np.isnan(facing[k]).all()
            assert np.isnan(dirs[k]).all()
            continue
        assert np.array_equal(facing[k], want)
        frame = _outcome(screen_frame_oracle, want)
        if isinstance(frame[0], type):
            raised["frame"] += 1
            assert degenerate[k] and np.isnan(e_sx[k]).all()
        else:
            assert not degenerate[k]
            assert np.array_equal(e_sx[k], frame[0])
            assert np.array_equal(e_sy[k], frame[1])
        line = _outcome(sightline_oracle, p[k], o[k], s[k], 0.05)
        if isinstance(line, tuple):
            raised["sightline"] += 1
            assert np.isnan(dirs[k]).all()
        else:
            assert np.array_equal(dirs[k], line, equal_nan=True)
    assert all(raised.values()), raised
    assert np.isnan(dirs).any(axis=1).sum() < len(o) // 2


def test_sightline_at_the_head_is_nan_like_the_chain():
    """A gaze point within 1e-9 of the head: the chain raises, the stack
    gives a NaN row; the other rows are untouched."""
    p = np.zeros((3, 3))
    o = np.array([[0.0, 0.0, 0.0], [10.0, 20.0, 0.0], [0.0, 0.0, 0.0]])
    s = np.array([[0.0, 0.0], [0.0, 0.0], [1e-3, 0.0]])
    _, dirs = sightlines(p, o, s, 1e-12)
    for k in range(3):
        want = _outcome(sightline_oracle, p[k], o[k], s[k], 1e-12)
        if isinstance(want, tuple):
            assert want == (GazeError, "gaze point coincides with head position")
            assert np.isnan(dirs[k]).all()
        else:
            assert np.array_equal(dirs[k], want)
    assert np.isnan(dirs[:2]).all() and np.isfinite(dirs[2]).all()


def test_cast_hits_match_per_record_oracle(sphere3):
    """Points, distances, triangles and bary of every ray equal the
    one-record-at-a-time loop's, with NaN and -1 on misses and NaN rays."""
    rng = np.random.default_rng(8)
    n = 400
    origins = np.array([0.0, 1.5, -2.0]) + 0.3 * rng.normal(size=(n, 3))
    directions = rng.normal(size=(n, 3)) + [0.0, 0.0, 2.0]
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    directions[::9] = np.nan
    directions[4::15] *= -1.0                        # facing away: misses
    points, distances, tri, bary = cast_hits(sphere3, origins, directions)
    want = hit_records_oracle(sphere3, origins, directions)
    for k, w in enumerate(want):
        if w is None:
            assert tri[k] == -1
            assert np.isnan(points[k]).all() and np.isnan(distances[k])
            assert np.isnan(bary[k]).all()
            continue
        point, triangle, b, dist = w
        assert np.array_equal(points[k], point)
        assert distances[k] == dist
        assert tri[k] == triangle
        assert np.array_equal(bary[k], b)
    hits = sum(w is not None for w in want)
    assert 0 < hits < n - n // 9


def _recording_text(rng, n, mutations):
    """A valid recording of n rows with `mutations` random row defects."""
    t = np.cumsum(rng.uniform(0.001, 0.02, size=n))
    vals = np.column_stack([t, rng.normal(size=(n, 3)),
                            rng.uniform(-90, 90, size=(n, 3)),
                            rng.uniform(-0.15, 0.15, size=(n, 2))])
    rows = [[repr(float(x)) for x in row] for row in vals]
    for _ in range(mutations):
        i = int(rng.integers(n))
        j = int(rng.integers(9))
        kind = rng.integers(9)
        if kind == 0:
            rows[i] = rows[i][:-1]                   # a field short
        elif kind == 1:
            rows[i] = rows[i] + ["0"]                # a field over
        elif kind == 2:
            rows[i][j] = ["x", "", "1,5", "0x10"][int(rng.integers(4))]
        elif kind == 3:
            rows[i][j] = ["nan", "inf", "-Infinity", "1e999", "1e300",
                          "-2e9"][int(rng.integers(6))]
        elif kind == 4 and i > 0:
            rows[i][0] = rows[i - 1][0]              # t repeats
        elif kind == 5 and i > 0:
            rows[i][0] = repr(float(rows[i - 1][0]) - 1.0)
        elif kind == 6:
            rows[i][7 + j % 2] = ["0.16", "-0.5", "0.15000000000000002", "0.15",
                                  "-0.15"][int(rng.integers(5))]
        elif kind == 7:
            rows[i][j] = " " + rows[i][j] + " "       # float() strips spaces
        else:
            rows[i][j] = "1_0" if j < 7 else "0.1_0"
    lines = [",".join(RECORDING_HEADER)] + [",".join(r) for r in rows]
    if rng.random() < 0.2:
        lines.insert(int(rng.integers(1, n + 1)), "")   # a blank row
    return "\n".join(lines) + "\n"


def test_load_recording_matches_row_oracle(tmp_path):
    """Whole-file parsing and checks give the row-at-a-time reader's samples,
    or its first error message, on clean and malformed recordings."""
    rng = np.random.default_rng(33)
    path = tmp_path / "rec.csv"
    outcomes = {"ok": 0, "error": 0}
    messages = set()
    for trial in range(400):
        n = int(rng.integers(1, 40))
        path.write_text(_recording_text(rng, n, int(rng.integers(0, 4))))
        want = _outcome(load_recording_oracle, path)
        got = _outcome(load_recording, path)
        if isinstance(want, tuple):
            outcomes["error"] += 1
            messages.add(want[1].split(":")[-1].strip()[:20])
            assert got == want, trial
            continue
        outcomes["ok"] += 1
        assert len(got) == len(want)
        for i, (x, (t, p, o, s)) in enumerate(zip(got, want)):
            assert x.t == t and x.index == i
            assert np.array_equal(x.p, p) and np.array_equal(x.o_deg, o)
            assert np.array_equal(x.s, s)
    assert min(outcomes.values()) > 50, outcomes
    assert len(messages) >= 5, messages


def test_save_recording_writes_repr_of_each_value(tmp_path):
    """The array writer's bytes: repr of each value as a Python float."""
    rng = np.random.default_rng(5)
    samples = [PoseSample(t=k, p=rng.normal(size=3), o_deg=np.array([-0.0, 1e-300, 90]),
                          s=rng.uniform(-0.1, 0.1, size=2), index=k)
               for k in range(30)]
    save_recording(tmp_path / "r.csv", samples)
    want = ",".join(RECORDING_HEADER) + "\n" + "".join(
        ",".join(repr(float(x)) for x in (s.t, *s.p, *s.o_deg, *s.s)) + "\n"
        for s in samples)
    assert (tmp_path / "r.csv").read_text() == want
    save_recording(tmp_path / "e.csv", [])
    assert (tmp_path / "e.csv").read_text() == ",".join(RECORDING_HEADER) + "\n"
