"""Sight-line reconstruction geometry and recording I/O."""
from __future__ import annotations

import numpy as np
import pytest

from meshgaze.bvh import intersect_brute
from meshgaze.gaze import (GazeError, PoseSample, actual_sightline,
                           gaze_point, head_orientation, load_recording,
                           rotation_matrix, save_recording, screen_frame,
                           screen_point, sightlines, trace_samples)


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
    np.testing.assert_allclose(head_orientation([0.0, 0, 0]), [0, 0, 1],
                               atol=1e-15)


def test_yaw_90_points_along_x():
    np.testing.assert_allclose(head_orientation([0.0, 90.0, 0.0]), [1, 0, 0],
                               atol=1e-12)


def test_pitch_90_points_down():
    np.testing.assert_allclose(head_orientation([90.0, 0.0, 0.0]), [0, -1, 0],
                               atol=1e-12)


def test_orientation_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        o = rng.uniform(-180, 180, size=3)
        want = _rot_oracle(o) @ np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(head_orientation(o), want, atol=1e-12)
        np.testing.assert_allclose(rotation_matrix(o), _rot_oracle(o),
                                   atol=1e-12)


def test_orientation_unit_length():
    rng = np.random.default_rng(8)
    for _ in range(100):
        v = head_orientation(rng.uniform(-360, 360, size=3))
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
    y = gaze_point(b, o_vec, np.array([0.01, 0.02]))
    np.testing.assert_allclose(y, [0.01, 1.48, 0.05], atol=1e-12)


def test_gaze_point_zero_offset_is_b():
    rng = np.random.default_rng(3)
    for _ in range(50):
        o = rng.uniform(-80, 80, size=3)
        o_vec = head_orientation(o)
        b = rng.normal(size=3)
        np.testing.assert_allclose(gaze_point(b, o_vec, np.zeros(2)), b,
                                   atol=1e-12)


def test_gaze_point_degenerate_beta():
    with pytest.raises(GazeError):
        gaze_point(np.zeros(3), np.array([0.0, 1.0, 0.0]), np.array([0.01, 0]))


def test_screen_frame_orthonormal_and_perpendicular_to_gaze():
    rng = np.random.default_rng(4)
    for _ in range(100):
        o_vec = head_orientation(rng.uniform(-80, 80, size=3))
        e_sx, e_sy = screen_frame(o_vec)
        assert abs(np.linalg.norm(e_sx) - 1) < 1e-9
        assert abs(np.linalg.norm(e_sy) - 1) < 1e-9
        assert abs(np.dot(e_sx, e_sy)) < 1e-9
        # the screen spans directions transverse to the sight-line
        assert abs(np.dot(e_sx, o_vec)) < 1e-9


def test_gaze_point_lipschitz_in_offset():
    """|Y(S+d) - Y(S)| <= sqrt(2)|d| for the orthonormal frame."""
    rng = np.random.default_rng(5)
    o_vec = head_orientation([10.0, 40.0, 0.0])
    b = np.array([0.0, 1.5, 0.05])
    for _ in range(50):
        s = rng.uniform(-0.1, 0.1, size=2)
        d = rng.uniform(-0.01, 0.01, size=2)
        lhs = np.linalg.norm(gaze_point(b, o_vec, s + d) - gaze_point(b, o_vec, s))
        assert lhs <= np.sqrt(2) * np.linalg.norm(d) + 1e-12


def test_actual_sightline():
    d = actual_sightline(np.zeros(3), np.array([3.0, 0, 4.0]))
    np.testing.assert_allclose(d, [0.6, 0, 0.8], atol=1e-12)
    with pytest.raises(GazeError):
        actual_sightline(np.ones(3), np.ones(3))


def test_doubling_d_screen_keeps_direction_when_centered():
    p = np.array([0.3, 1.7, -1.2])
    o_vec = head_orientation([5.0, 25.0, 0.0])
    dirs = []
    for d_screen in (0.05, 0.10):
        b = screen_point(p, o_vec, d_screen)
        y = gaze_point(b, o_vec, np.zeros(2))
        dirs.append(actual_sightline(p, y))
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
        o = head_orientation(o_deg)
        return actual_sightline(p, gaze_point(screen_point(p, o, d_screen), o, s))
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
