"""Synthetic recording generation: orbit geometry, gaze inversion, noise."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from conftest import (euler_facing_oracle, facing_oracle,
                      generate_recording_oracle, inverse_offset_oracle,
                      pick_visible_targets)

from meshgaze.gaze import (GazeError, cast_hits, head_orientations, rowdot,
                           sightlines)
from meshgaze.mesh import Mesh
from meshgaze.primitives import bumpy_sphere
from meshgaze.synth import (MAX_SAMPLES, ScenarioError, SyntheticScenario,
                            _raise_unaimable,
                            check_targets_reachable, euler_facing,
                            euler_facings, generate_recording,
                            inverse_gaze_offsets, scenario_from_json,
                            scenario_to_json)

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


def test_scenario_caps_samples_over_all_subjects(cfg):
    """subjects x samples per recording may not pass MAX_SAMPLES; without
    the cap synth wrote recordings for 10^12 subjects without end."""
    center = cfg.scene_center()
    per_recording = 240                     # 2 s at 120 Hz
    make_scenario([1], subjects=MAX_SAMPLES // per_recording).validate(center)
    for subjects in (MAX_SAMPLES // per_recording + 1, 10 ** 12):
        with pytest.raises(ScenarioError,
                           match=f"^{subjects} subjects of 240 samples each "
                                 f"give {subjects * 240} samples; at most "
                                 f"{MAX_SAMPLES} are allowed$"):
            make_scenario([1], subjects=subjects).validate(center)


# ---------------------------------------------------------------------------
# facing and gaze inversion

def test_euler_facing_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(200):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        o = euler_facing(d)
        np.testing.assert_allclose(head_orientations(o)[0], d, atol=1e-12)
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
    np.testing.assert_allclose(head_orientations(behind), [[0, 0, -1]], atol=1e-12)
    with pytest.raises(ScenarioError):
        euler_facing((0.0, 0.0, 0.0))


def test_inverse_gaze_offset_round_trip():
    rng = np.random.default_rng(42)
    p = rng.normal(size=(100, 3))
    target = p + rng.normal(size=(100, 3))
    o_deg = rng.uniform(-60, 60, size=(100, 3))
    s, along, degenerate = inverse_gaze_offsets(p, head_orientations(o_deg),
                                                target, D_SCREEN)
    ahead = along >= 0.1
    assert ahead.sum() > 20 and not degenerate.any()
    _, d = sightlines(p[ahead], o_deg[ahead], s[ahead], D_SCREEN)
    # the sight-line passes through the target
    closest = p[ahead] + rowdot(target[ahead] - p[ahead], d)[:, None] * d
    np.testing.assert_allclose(closest, target[ahead], atol=1e-6)


def test_inverse_gaze_offset_straight_ahead_is_zero():
    p = np.array([0.0, 1.6, -1.5])
    o_vec = np.array([0.0, 0.0, 1.0])
    s, _, _ = inverse_gaze_offsets(p, o_vec, p + np.array([0.0, 0.0, 2.0]),
                                   D_SCREEN)
    np.testing.assert_allclose(s, [[0.0, 0.0]], atol=1e-15)


def test_inverse_gaze_offset_target_behind(sphere3, cfg):
    """A target behind the screen plane has along <= 0, and a recording
    aimed at one raises."""
    _, along, _ = inverse_gaze_offsets(np.zeros(3), np.array([0.0, 0.0, 1.0]),
                                       np.array([0.0, 0.0, -1.0]), D_SCREEN)
    assert along[0] < 0
    n = len(sphere3.vertices)
    far = np.array([[0.0, 1.6, -6.0], [0.1, 1.6, -6.0], [0.0, 1.7, -6.0]])
    mesh = Mesh(np.vstack([sphere3.vertices, far]),
                np.vstack([sphere3.triangles, [[n, n + 1, n + 2]]]))
    with pytest.raises(ScenarioError, match="^target behind the screen plane$"):
        generate_recording(make_scenario([n]), mesh, cfg)


# ---------------------------------------------------------------------------
# recordings

def test_recording_shape_and_determinism(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(targets, noise_deg=0.3)
    a = generate_recording(sc, sphere3, cfg, subject=0)
    b = generate_recording(sc, sphere3, cfg, subject=0)
    assert len(a) == int(round(sc.duration_s * sc.rate_hz)) == 240
    for name in ("t", "p", "o", "s"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_recording_subjects_differ(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(targets, noise_deg=0.3, subjects=2)
    a = generate_recording(sc, sphere3, cfg, subject=0)
    b = generate_recording(sc, sphere3, cfg, subject=1)
    # staggered start angles move the orbit; noise draws differ too
    assert np.abs(a.p[0] - b.p[0]).max() > 1e-3
    assert np.abs(a.s[0] - b.s[0]).max() > 0.0


def test_recording_orbit_geometry(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 1)
    sc = make_scenario(targets, radius=1.5, height=1.6)
    recording = generate_recording(sc, sphere3, cfg, subject=0)
    center = np.asarray(cfg.scene_center())
    for p, o in zip(recording.p[:: 40], recording.o[:: 40]):
        assert p[1] == pytest.approx(1.6, abs=1e-12)
        assert np.linalg.norm(p - center) == pytest.approx(1.5, abs=1e-9)
        # head always faces the scene center
        o_vec = head_orientations(o)[0]
        want = (center - p) / np.linalg.norm(center - p)
        np.testing.assert_allclose(o_vec, want, atol=1e-12)


def test_noise_free_recording_hits_targets(sphere3, cfg):
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(targets, noise_deg=0.0)
    recording = generate_recording(sc, sphere3, cfg, subject=0)
    per_dwell = int(round(sc.dwell_s * sc.rate_hz))
    ks = range(0, len(recording), 17)
    points = cast_hits(sphere3, *sightlines(
        recording.p[ks], recording.o[ks], recording.s[ks], cfg.d_screen))
    hits = 0
    checked = 0
    for k, point in zip(ks, points):
        if np.isnan(point).any():
            continue
        checked += 1
        want = sphere3.vertices[targets[(k // per_dwell) % len(targets)]]
        if np.linalg.norm(point - want) <= 2.0 * cfg.cluster_interval:
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
    recording = generate_recording(sc, sphere3, cfg, subject=0)
    check_targets_reachable(sc, sphere3, cfg, recording)   # no error

    # a vertex on the far side of the sphere is never the first hit
    center = np.array([0.0, 1.5, 0.0])
    far = int(np.argmax((sphere3.vertices - center) @ np.array([0.0, 0.0, 1.0])))
    sc_bad = make_scenario([good[0], far])
    recording_bad = generate_recording(sc_bad, sphere3, cfg, subject=0)
    with pytest.raises(ScenarioError, match="never visible"):
        check_targets_reachable(sc_bad, sphere3, cfg, recording_bad)


@pytest.mark.parametrize("past_end", [False, True], ids=["minus_one", "n"])
def test_target_ids_outside_the_mesh_raise(sphere3, cfg, past_end):
    """Both library calls reject a target id outside 0..n-1: -1 would aim
    at the last vertex, and n would end in a bare IndexError."""
    good = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 1)
    recording = generate_recording(make_scenario(good), sphere3, cfg)
    t = len(sphere3.vertices) if past_end else -1
    sc = make_scenario([good[0], t])
    message = f"^target vertex {t} out of range$"
    with pytest.raises(ScenarioError, match=message):
        generate_recording(sc, sphere3, cfg)
    with pytest.raises(ScenarioError, match=message):
        check_targets_reachable(sc, sphere3, cfg, recording)


# ---------------------------------------------------------------------------
# whole-recording synthesis against the per-sample loop

def _outcome(fn, *args, **kw):
    """fn's value, or the (type, message) of the error it raises."""
    try:
        return fn(*args, **kw)
    except (ScenarioError, GazeError) as exc:
        return type(exc), str(exc)


def test_euler_facings_match_per_direction_oracle():
    rng = np.random.default_rng(6)
    d = rng.normal(size=(2000, 3))
    d[::50] = [[1.0, 0.0, 0.0]]
    d[1::50] = [[0.0, 0.0, -3.0]]
    got = euler_facings(d)
    for k in range(len(d)):
        want = euler_facing_oracle(d[k])
        assert np.array_equal(got[k], want) and np.array_equal(euler_facing(d[k]), want)
    with pytest.raises(ScenarioError, match="nonzero"):
        euler_facings(np.vstack([d[:3], np.zeros(3)]))


def test_inverse_gaze_offsets_match_per_pose_oracle():
    """Offsets equal the per-pose inversion bit for bit; rows where it
    raises are flagged, behind (along <= 0) before a degenerate frame, and
    _raise_unaimable raises its error for that row alone."""
    rng = np.random.default_rng(9)
    n = 2000
    p = rng.normal(size=(n, 3))
    o_vec = np.array([facing_oracle(o) for o in rng.uniform(-80, 80, size=(n, 3))])
    target = p + rng.normal(size=(n, 3)) + 0.5 * o_vec
    o_vec[::40] = [0.0, 1.0, 0.0]                    # degenerate frame
    o_vec[3::80] = [0.0, -1.0, 0.0]
    target[::120] = p[::120] - o_vec[::120]          # behind and degenerate
    p[7::90] = np.nan
    s, along, degenerate = inverse_gaze_offsets(p, o_vec, target, D_SCREEN)
    seen = set()
    for k in range(n):
        want = _outcome(inverse_offset_oracle, p[k], o_vec[k], target[k], D_SCREEN)
        got = _outcome(_raise_unaimable, o_vec[k:k + 1], along[k:k + 1],
                       degenerate[k:k + 1])
        if isinstance(want, tuple):
            seen.add(want[1])
            assert got == want
            assert (along[k] <= 0) or degenerate[k]
            assert (along[k] <= 0) == (want[0] is ScenarioError)
        else:
            seen.add("nan" if np.isnan(want).any() else "ok")
            assert got is None
            assert np.array_equal(s[k], want, equal_nan=True)
            assert not along[k] <= 0 and not degenerate[k]
    assert len(seen) == 4, seen


def _golden_inputs():
    mesh = bumpy_sphere(3, amplitude=0.04, seed=3)
    return mesh, SyntheticScenario(
        mesh_id="bumpy", targets=pick_visible_targets(mesh, (0.0, 1.6, -1.5), 3),
        duration_s=3.0, noise_deg=0.5, subjects=2, seed=7)


def _assert_same_recording(got, want):
    assert len(got) == len(want)
    for k, (t, p, o, s) in enumerate(want):
        assert got.t[k] == t
        assert np.array_equal(got.p[k], p) and np.array_equal(got.o[k], o)
        assert np.array_equal(got.s[k], s)


def test_generate_recording_matches_per_sample_oracle(sphere3, cfg):
    """Every sample field of the stacked synthesis equals the per-sample
    loop's, on the golden scenario and on several others."""
    mesh, golden = _golden_inputs()
    for subject in range(golden.subjects):
        _assert_same_recording(generate_recording(golden, mesh, cfg, subject),
                               generate_recording_oracle(golden, mesh, cfg, subject))
    targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 3)
    for kw in (dict(noise_deg=0.0),
               dict(noise_deg=0.3, subjects=3),
               dict(duration_s=1.0 / 120.0),             # one sample
               dict(noise_deg=1.0, rate_hz=90.0, span_deg=60.0,
                    start_angle_deg=240.0, dwell_s=0.3, height=1.3, seed=12),
               dict(span_deg=0.0, dwell_s=5.0)):
        sc = make_scenario(targets, **kw)
        for subject in range(sc.subjects):
            want = generate_recording_oracle(sc, sphere3, cfg, subject)
            assert want
            _assert_same_recording(generate_recording(sc, sphere3, cfg, subject), want)


def test_generate_recording_first_error_matches_oracle(sphere3, cfg):
    """The lowest failing sample raises, with the per-sample loop's message:
    a target behind the screen plane, an offset beyond the screen, or an
    invalid scenario, whichever comes first."""
    n = len(sphere3.vertices)
    far = np.array([[0.0, 1.6, -6.0], [0.1, 1.6, -6.0], [0.0, 1.7, -6.0]])
    mesh = Mesh(np.vstack([sphere3.vertices, far]),
                np.vstack([sphere3.triangles, [[n, n + 1, n + 2]]]))
    good = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    side = int(np.argmax(sphere3.vertices[:, 0]))
    tight = dataclasses.replace(cfg, screen_half_extent=0.004)
    noisy = make_scenario(good, noise_deg=0.5)
    free = generate_recording(make_scenario(good), mesh, cfg).s
    edge = dataclasses.replace(cfg, screen_half_extent=float(np.abs(free).max()) + 2e-4)
    cases = [
        (make_scenario([n]), cfg),                       # behind at sample 0
        (make_scenario([good[0], n]), cfg),              # behind after a dwell
        (make_scenario([side, n]), tight),               # wide before behind
        (make_scenario([n, side]), tight),               # behind before wide
        (make_scenario([good[0], n, side]), tight),
        (make_scenario([side], start_angle_deg=270.0, span_deg=1.0), tight),
        (noisy, edge),                                   # noise, mid-recording
        (make_scenario([good[0]], radius=0.05, height=3.0), cfg),
    ]
    messages = []
    for sc, c in cases:
        want = _outcome(generate_recording_oracle, sc, mesh, c)
        assert isinstance(want, tuple) and isinstance(want[0], type), sc
        assert _outcome(generate_recording, sc, mesh, c) == want
        messages.append(want[1])
    assert sum("behind" in m for m in messages) == 3
    assert sum("sample 0:" in m for m in messages) == 3
    assert any(m.startswith("sample ") and not m.startswith("sample 0:")
               for m in messages), messages


def test_check_targets_reachable_raises_the_per_sample_error(sphere3, cfg):
    """A sample the reach check cannot aim raises the per-pose chain's
    error, as the per-sample loop did."""
    good = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 2)
    sc = make_scenario(good)
    recording = generate_recording(sc, sphere3, cfg)
    broken = dataclasses.replace(recording, o=recording.o.copy())
    broken.o[0, 1] = np.nan
    with pytest.raises(GazeError, match="non-finite Euler angles"):
        check_targets_reachable(sc, sphere3, cfg, broken)
    behind = dataclasses.replace(recording, o=recording.o + [0.0, 180.0, 0.0])
    with pytest.raises(ScenarioError, match="behind the screen plane"):
        check_targets_reachable(sc, sphere3, cfg, behind)
    # facing straight up or down, toward the first target's side of the head
    pitch = 90.0 if sphere3.vertices[good[0], 1] < recording.p[0, 1] else -90.0
    vertical = dataclasses.replace(
        recording, o=np.tile([pitch, 0.0, 0.0], (len(recording), 1)))
    with pytest.raises(GazeError, match="degenerate screen frame"):
        check_targets_reachable(sc, sphere3, cfg, vertical)
