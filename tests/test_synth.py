"""Synthetic recording generation: orbit geometry, gaze inversion, noise."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from conftest import pick_visible_targets

from meshgaze.gaze import (actual_sightline, cast_sightlines, gaze_point,
                           head_orientation, screen_point)
from meshgaze.synth import (ScenarioError, SyntheticScenario,
                            check_targets_reachable, euler_facing,
                            generate_recording, inverse_gaze_offset,
                            scenario_from_json, scenario_to_json)

D_SCREEN = 0.05


def make_scenario(targets, **kw):
    defaults = dict(mesh_id="sphere", targets=targets, duration_s=2.0,
                    noise_deg=0.0, subjects=1, seed=4)
    defaults.update(kw)
    return SyntheticScenario(**defaults)


# ---------------------------------------------------------------------------
# scenario serialization

def test_scenario_json_roundtrip():
    sc = make_scenario([3, 17], noise_deg=0.5, span_deg=55.0, subjects=4)
    again = scenario_from_json(scenario_to_json(sc))
    assert again == sc


def test_scenario_json_rejects_unknown_fields():
    text = json.dumps({"mesh_id": "m", "targets": [1], "velocity": 3})
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_json(text)


def test_scenario_json_requires_core_fields():
    with pytest.raises(ScenarioError):
        scenario_from_json(json.dumps({"targets": [1]}))
    with pytest.raises(ScenarioError):
        scenario_from_json("{not json")


def test_scenario_validation(cfg):
    center = cfg.scene_center()
    with pytest.raises(ScenarioError):
        make_scenario([]).validate(center)
    with pytest.raises(ScenarioError):
        make_scenario([1], radius=-1.0).validate(center)
    with pytest.raises(ScenarioError):
        make_scenario([1], dwell_s=0.0).validate(center)
    with pytest.raises(ScenarioError):
        make_scenario([1], noise_deg=-0.1).validate(center)
    with pytest.raises(ScenarioError):
        make_scenario([1], subjects=0).validate(center)
    # orbit radius smaller than the height offset leaves no ring to walk
    with pytest.raises(ScenarioError):
        make_scenario([1], radius=0.05, height=3.0).validate(center)
    make_scenario([1]).validate(center)   # defaults are fine


# ---------------------------------------------------------------------------
# facing and gaze inversion

def test_euler_facing_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(200):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        o = euler_facing(d)
        np.testing.assert_allclose(head_orientation(o), d, atol=1e-12)
        assert o[2] == 0.0


def test_euler_facing_axis_cases():
    np.testing.assert_allclose(euler_facing((0, 0, 1)), [0, 0, 0], atol=1e-12)
    np.testing.assert_allclose(euler_facing((1, 0, 0)), [0, 90, 0], atol=1e-12)
    np.testing.assert_allclose(euler_facing((0, -1, 1)),
                               [45, 0, 0], atol=1e-12)
    np.testing.assert_allclose(euler_facing((0, 1, 0)),
                               [-90, 0, 0], atol=1e-12)
    # Straight behind: +-180 pitch are the same rotation, so check the
    # magnitude and the direction it reproduces rather than the sign.
    behind = euler_facing((0, 0, -1))
    assert abs(behind[0]) == pytest.approx(180.0, abs=1e-12)
    np.testing.assert_allclose(head_orientation(behind), [0, 0, -1], atol=1e-12)
    with pytest.raises(ScenarioError):
        euler_facing((0.0, 0.0, 0.0))


def test_inverse_gaze_offset_round_trip():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = rng.normal(size=3)
        target = p + rng.normal(size=3)
        o_vec = head_orientation(rng.uniform(-60, 60, size=3))
        if np.dot(target - p, o_vec) < 0.1:
            continue
        s = inverse_gaze_offset(p, o_vec, target, D_SCREEN)
        b = screen_point(p, o_vec, D_SCREEN)
        y = gaze_point(b, o_vec, s)
        d = actual_sightline(p, y)
        # the sight-line passes through the target
        along = np.dot(target - p, d)
        closest = p + along * d
        np.testing.assert_allclose(closest, target, atol=1e-6)


def test_inverse_gaze_offset_straight_ahead_is_zero():
    p = np.array([0.0, 1.6, -1.5])
    o_vec = np.array([0.0, 0.0, 1.0])
    s = inverse_gaze_offset(p, o_vec, p + np.array([0.0, 0.0, 2.0]), D_SCREEN)
    np.testing.assert_allclose(s, [0.0, 0.0], atol=1e-15)


def test_inverse_gaze_offset_target_behind():
    with pytest.raises(ScenarioError):
        inverse_gaze_offset(np.zeros(3), np.array([0.0, 0.0, 1.0]),
                            np.array([0.0, 0.0, -1.0]), D_SCREEN)


# ---------------------------------------------------------------------------
# recordings

def test_recording_shape_and_determinism(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(targets, noise_deg=0.3)
    a = generate_recording(sc, sphere3, cfg, subject=0)
    b = generate_recording(sc, sphere3, cfg, subject=0)
    assert len(a) == int(round(sc.duration_s * sc.rate_hz)) == 240
    for sa, sb in zip(a, b):
        assert sa.t == sb.t
        np.testing.assert_array_equal(sa.p, sb.p)
        np.testing.assert_array_equal(sa.o_deg, sb.o_deg)
        np.testing.assert_array_equal(sa.s, sb.s)


def test_recording_subjects_differ(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(targets, noise_deg=0.3, subjects=2)
    a = generate_recording(sc, sphere3, cfg, subject=0)
    b = generate_recording(sc, sphere3, cfg, subject=1)
    # staggered start angles move the orbit; noise draws differ too
    assert np.abs(a[0].p - b[0].p).max() > 1e-3
    assert np.abs(a[0].s - b[0].s).max() > 0.0


def test_recording_orbit_geometry(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 1)
    sc = make_scenario(targets, radius=1.5, height=1.6)
    samples = generate_recording(sc, sphere3, cfg, subject=0)
    center = np.asarray(cfg.scene_center())
    for s in samples[:: 40]:
        assert s.p[1] == pytest.approx(1.6, abs=1e-12)
        assert np.linalg.norm(s.p - center) == pytest.approx(1.5, abs=1e-9)
        # head always faces the scene center
        o_vec = head_orientation(s.o_deg)
        want = (center - s.p) / np.linalg.norm(center - s.p)
        np.testing.assert_allclose(o_vec, want, atol=1e-12)


def test_noise_free_recording_hits_targets(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(targets, noise_deg=0.0)
    samples = generate_recording(sc, sphere3, cfg, subject=0)
    per_dwell = int(round(sc.dwell_s * sc.rate_hz))
    hits = 0
    checked = 0
    for k in range(0, len(samples), 17):
        s = samples[k]
        o_vec = head_orientation(s.o_deg)
        b = screen_point(s.p, o_vec, cfg.d_screen)
        d = actual_sightline(s.p, gaze_point(b, o_vec, s.s))
        rec, = cast_sightlines(sphere3, s.p[None], d[None])
        if rec is None:
            continue
        checked += 1
        want = sphere3.vertices[targets[(k // per_dwell) % len(targets)]]
        if np.linalg.norm(rec.point - want) <= 2.0 * cfg.cluster_interval:
            hits += 1
    assert checked >= 10
    assert hits / checked >= 0.95


def test_recording_screen_bound_enforced(sphere3, cfg):
    # an off-axis target needs an eye offset a tiny screen cannot express
    off = sphere3.vertices - np.array([0.0, 1.5, 0.0])
    side = int(np.argmax(off[:, 0]))       # extreme +x vertex
    sc = make_scenario([side], start_angle_deg=270.0, span_deg=1.0)
    tight = dataclasses.replace(cfg, screen_half_extent=0.001)
    with pytest.raises(ScenarioError, match="screen"):
        generate_recording(sc, sphere3, tight, subject=0)


def test_check_targets_reachable(sphere3, cfg):
    good = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(good)
    samples = generate_recording(sc, sphere3, cfg, subject=0)
    check_targets_reachable(sc, sphere3, cfg, samples)   # no error

    # a vertex on the far side of the sphere is never the first hit
    center = np.array([0.0, 1.5, 0.0])
    far = int(np.argmax((sphere3.vertices - center) @ np.array([0.0, 0.0, 1.0])))
    sc_bad = make_scenario([good[0], far])
    samples_bad = generate_recording(sc_bad, sphere3, cfg, subject=0)
    with pytest.raises(ScenarioError, match="never visible"):
        check_targets_reachable(sc_bad, sphere3, cfg, samples_bad)
