"""Acceptance gate: one test per numbered criterion.

Each test wraps its body in the `criterion` context manager from
conftest, so the terminal summary ends with a PASS/FAIL line per
criterion.  Oracles here are deliberately naive re-derivations
(exhaustive ray casts, pure double loops, closed-form constructions) —
they share no code path with the implementations under test beyond the
public data types.  Runtime budgets are asserted where the criterion
pins one.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from conftest import (convex_oracle, criterion, facing_pose, intersect_brute,
                      occlusion_oracle, pick_visible_targets, spike_sphere,
                      vertex_rings)

from meshgaze.cli import main as cli_main
from meshgaze.config import RunConfig
from meshgaze.evaluation import (bias_distance, metric_cc, metric_kl,
                                 metric_se, viewing_direction_dependence,
                                 weighted_eval)
from meshgaze.fixation import FIXATION, SACCADE, classify_ivt, load_fixations
from meshgaze.mesh import save_ply
from meshgaze.primitives import bumpy_sphere, icosphere, plane_grid
from meshgaze.saliency import compute_fpfh, saliency_map, uniqueness
from meshgaze.synth import SyntheticScenario, scenario_to_json
from meshgaze.visibility import CameraModel, ViewPose, visible_points

CENTER = np.array([0.0, 1.5, 0.0])


def random_unit(rng, n=None):
    v = rng.standard_normal(3 if n is None else (n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# 1. accelerated ray casting against the per-triangle scan

def test_criterion_01_ray_oracle(sphere3, bumpy, spike_pack):
    with criterion(1, "ray intersection matches exhaustive oracle"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for mesh in (sphere3, bumpy, spike_pack[0]):
            lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
            origins, directions = [], []
            for k in range(500):
                origin = CENTER + 1.5 * random_unit(rng)
                if k % 10 == 0:
                    direction = random_unit(rng)       # mostly misses
                else:
                    inside = lo + rng.random(3) * (hi - lo)
                    direction = inside - origin
                    direction = direction / np.linalg.norm(direction)
                origins.append(origin)
                directions.append(direction)
            _, tri, bary = mesh.bvh.intersect_many(origins, directions)
            for o, d, fast_tri, fast_bary in zip(origins, directions, tri, bary):
                slow = intersect_brute(mesh.vertices, mesh.triangles, o, d)
                assert (fast_tri < 0) == (slow is None)
                if slow is not None:
                    assert fast_tri == slow[1]
                    corners = mesh.vertices[mesh.triangles[fast_tri]]
                    assert np.linalg.norm(fast_bary @ corners
                                          - slow[2] @ corners) < 1e-9
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. ray-cast visibility against the analytic convex rule and an exhaustive
#    Moller-Trumbore scan (no BVH, no watertight kernel)

def test_criterion_02_visibility_oracle():
    with criterion(2, "ray-cast visibility matches independent oracles"):
        meshes = [(icosphere(4), convex_oracle),
                  (bumpy_sphere(subdivisions=4, seed=5), occlusion_oracle),
                  (spike_sphere(subdivisions=4)[0], occlusion_oracle)]
        assert all(1000 <= len(m.vertices) <= 10000 for m, _ in meshes)
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        for mesh, oracle in meshes:
            for _ in range(8):
                p = CENTER + rng.uniform(1.0, 2.0) * random_unit(rng)
                pose = facing_pose(p)
                mask = visible_points(mesh, pose).mask
                ref = oracle(mesh, pose)
                agreement = float((mask == ref).mean())
                assert agreement >= 0.99
                # both sides see a plausible fraction of a closed surface
                # (the spiked mesh dips below 0.2 viewed from the far side
                # of the spike)
                assert 0.15 < ref.mean() < 0.7
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 3. uniqueness against the brute-force pairwise reference

def brute_uniqueness(positions, descriptors, eps_b=1e-12):
    """O(n^2) reference, one row of pairs at a time: the textbook
    Bhattacharyya distance per pair and the distance summed over axes, no
    factorization shared with the production matmul path."""
    n = len(positions)
    out = np.zeros(n)
    for i in range(n):
        bc = np.sqrt(descriptors[i] * descriptors).sum(axis=1)
        dis = np.maximum(-np.log(np.maximum(bc, eps_b)), 0.0)
        dis[i] = 0.0
        gap = np.sqrt(((positions[i] - positions) ** 2).sum(axis=1))
        out[i] = 1.0 - np.exp(-(dis / (1.0 + gap)).sum() / n)
    return out


def test_criterion_03_uniqueness_oracle(sphere2, bumpy, sphere4):
    with criterion(3, "uniqueness matches brute-force double loop"):
        rng = np.random.default_rng(303)
        cfg = RunConfig()
        t0 = time.perf_counter()
        for mesh in (sphere2, bumpy, sphere4):
            r = cfg.fpfh_radius_frac * np.linalg.norm(
                mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0))
            for _ in range(3):
                pose = facing_pose(CENTER + 1.2 * random_unit(rng))
                vs = visible_points(mesh, pose)
                assert 0 < len(vs.ids) <= 2000
                positions = mesh.vertices[vs.ids]
                normals = mesh.normals[vs.ids]
                desc, _ = compute_fpfh(positions, normals, r)
                got, subsampled = uniqueness(positions, desc)
                assert not subsampled
                ref = brute_uniqueness(positions, desc)
                assert np.abs(got - ref).max() < 1e-9
        assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. similarity metric identities

def test_criterion_04_metric_identities():
    with criterion(4, "similarity metric identities"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(16, 257))
            g = rng.random(n) + 0.05
            r = rng.random(n) + 0.05
            assert abs(metric_kl(g, g)) < 1e-9
            assert abs(metric_cc(g, g) - 1.0) < 1e-9
            assert abs(metric_se(g, g)) < 1e-9
            assert metric_kl(g, r) > -1e-9
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(-1.0, 1.0))
            assert abs(metric_cc(g, a * r + b) - metric_cc(g, r)) < 1e-9
            c = float(rng.uniform(0.5, 4.0))
            assert abs(metric_se(g, c * r) - metric_se(g, r)) < 1e-9


# ---------------------------------------------------------------------------
# 5. weighted evaluation by hand

def test_criterion_05_weighted_eval():
    with criterion(5, "weighted evaluation hand case and mean reduction"):
        assert weighted_eval([2, 1], [0.3, 0.6]) == pytest.approx(0.4, abs=1e-12)
        rng = np.random.default_rng(505)
        for _ in range(50):
            vals = rng.random(int(rng.integers(2, 30)))
            assert weighted_eval([1] * len(vals), vals) == pytest.approx(
                float(vals.mean()), abs=1e-12)


# ---------------------------------------------------------------------------
# 6. velocity-threshold labeling properties

H = 0.0075
DT = 1.0 / 120.0


def make_stream(points, distances, miss):
    """Stream arrays (t, points, distances), NaN rows where miss is set."""
    t = np.arange(len(points)) * DT
    pts = np.array(points, dtype=np.float64)
    d = np.array(distances, dtype=np.float64)
    pts[np.asarray(miss)] = np.nan
    d[np.asarray(miss)] = np.nan
    return t, pts, d


def random_stream(rng):
    n = int(rng.integers(12, 36))
    base = float(rng.uniform(0.6, 2.5))
    points = [np.array([0.0, 0.0, base])]
    distances = [base]
    for _ in range(n - 1):
        d_k = base * float(rng.uniform(0.5, 1.5))
        if rng.random() < 0.6:
            step = float(rng.uniform(0.0, 0.9)) * H * d_k
        else:
            step = float(rng.uniform(1.2, 8.0)) * H * d_k
        points.append(points[-1] + step * random_unit(rng))
        distances.append(d_k)
    miss = rng.random(n) < 0.1
    miss[0] = False
    return make_stream(points, distances, miss)


def labels_of(stream, h, scale=1.0):
    t, points, distances = stream
    return classify_ivt(t, points * scale, distances * scale, h,
                        min_fixation_s=0.0).tolist()


def test_criterion_06_ivt_properties():
    with criterion(6, "velocity-threshold labeling properties"):
        rng = np.random.default_rng(606)
        for _ in range(1000):
            stream = random_stream(rng)
            base = labels_of(stream, H)
            # scale-consistency: joint scaling of I and D changes nothing
            scale = float(rng.uniform(0.05, 40.0))
            assert labels_of(stream, H, scale=scale) == base
            # monotonicity in h: fixations only grow with the threshold
            lo = labels_of(stream, 0.005)
            hi = labels_of(stream, 0.010)
            assert all(b == FIXATION for a, b in zip(lo, hi) if a == FIXATION)

            # distance-adaptivity: the same displacement flips when D halves
            d = float(rng.uniform(0.5, 2.5))
            delta = float(rng.uniform(0.55, 0.95)) * H * d
            points = [np.zeros(3), delta * random_unit(rng)]
            near = make_stream(points, [d, d], [False, False])
            assert labels_of(near, H)[1] == FIXATION
            halved = make_stream(points, [d / 2.0, d / 2.0], [False, False])
            assert labels_of(halved, H)[1] == SACCADE


# ---------------------------------------------------------------------------
# 7. end-to-end synthetic recovery through the CLI

def test_criterion_07_end_to_end_recovery(sphere3, tmp_path):
    with criterion(7, "synthetic end-to-end target recovery"):
        cfg = RunConfig()
        mesh_path = tmp_path / "stage.ply"
        save_ply(sphere3, mesh_path)
        targets = pick_visible_targets(sphere3, (0.0, 1.6, -1.5), 3)
        target_pos = sphere3.vertices[targets]
        tol = 2.0 * cfg.cluster_interval

        t0 = time.perf_counter()
        for noise_deg, bar in ((0.0, 0.95), (0.5, 0.85)):
            tag = f"n{int(noise_deg * 10)}"
            scenario = SyntheticScenario(mesh_id="stage", targets=targets,
                                         duration_s=10.0, noise_deg=noise_deg,
                                         subjects=1, seed=21)
            sc_path = tmp_path / f"{tag}.json"
            sc_path.write_text(scenario_to_json(scenario))
            rec = tmp_path / f"rec_{tag}"
            fix = tmp_path / f"fix_{tag}"
            assert cli_main(["synth", "--scenario", str(sc_path),
                             "--mesh", str(mesh_path), "--out", str(rec)]) == 0
            assert cli_main(["process", "--mesh", str(mesh_path),
                             "--recordings", str(rec), "--out", str(fix)]) == 0
            rows = load_fixations(fix / "s00.csv")
            assert len(rows) >= len(targets)
            hits = sum(
                np.linalg.norm(target_pos - position, axis=1).min() <= tol
                for position in rows.position)
            assert hits / len(rows) >= bar
        assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 8. saliency localizes the planted spike

def test_criterion_08_spike_saliency(spike_pack):
    with criterion(8, "spike saliency localization"):
        mesh, apex = spike_pack
        near_apex = vertex_rings(mesh, apex, 2)
        spike_dir = np.array([0.0, 0.0, -1.0])
        cam = CameraModel(hfov_deg=60.0, vfov_deg=60.0)
        cfg = dataclasses.replace(RunConfig(), fpfh_radius_frac=0.1)
        rng = np.random.default_rng(808)
        for _ in range(5):
            jitter = 0.45 * random_unit(rng)
            d = spike_dir + jitter - (jitter @ spike_dir) * spike_dir
            d = d / np.linalg.norm(d)
            pose = facing_pose(CENTER + 1.2 * d, camera=cam)
            vs = visible_points(mesh, pose, cfg.depth_tol_frac)
            assert vs.mask[apex]
            smap = saliency_map(mesh, pose, cfg, vs)
            assert smap.s.max() > 0.0
            assert int(np.argmax(smap.s)) in near_apex
            assert not smap.s[~vs.mask].any()        # zero off the visible set
            assert smap.s.min() >= 0.0
            assert smap.s.max() < 1.0


# ---------------------------------------------------------------------------
# 9. center-bias distance signatures

def test_criterion_09_bias_signatures(sphere3):
    with criterion(9, "center-bias distance signatures"):
        rng = np.random.default_rng(909)
        rel_gaps = []
        for _ in range(20):
            pose = facing_pose(CENTER + 1.2 * random_unit(rng))
            vs = visible_points(sphere3, pose)
            positions = sphere3.vertices[vs.ids]
            d = np.linalg.norm(positions - vs.center, axis=1)
            d_v = bias_distance(positions, vs.center)

            # fixations concentrated near the visible-set centroid
            w = np.exp(-((d / (0.2 * d.max())) ** 2))
            w = w / w.sum()
            picked = rng.choice(len(positions), size=200, replace=True, p=w)
            d_f = bias_distance(positions[picked], vs.center)
            assert d_f < d_v

            # fixations spread uniformly over the visible set
            picked = rng.choice(len(positions), size=600, replace=True)
            d_f = bias_distance(positions[picked], vs.center)
            rel_gaps.append(abs(d_f - d_v) / d_v)
        assert float(np.mean(rel_gaps)) < 0.05


# ---------------------------------------------------------------------------
# 10. viewing-direction dependence mechanism

def test_criterion_10_direction_dependence():
    with criterion(10, "viewing-direction dependence mechanism"):
        rng = np.random.default_rng(1010)
        yaws = np.linspace(0.0, 80.0, 12)
        # target Pearson matrix: similarity exactly linear in angular gap
        target = 1.0 - np.abs(yaws[:, None] - yaws[None, :]) / 90.0
        chol = np.linalg.cholesky(target)
        raw = rng.standard_normal((64, 12))
        raw -= raw.mean(axis=0)                    # zero-mean columns
        q, _ = np.linalg.qr(raw)                   # orthonormal, still zero-mean
        maps = chol @ q.T                          # row i vs row j correlate target[i, j]
        entries = [(np.array([0.0, yaw, 0.0]), maps[i] + 5.0)
                   for i, yaw in enumerate(yaws)]
        first = viewing_direction_dependence(entries, max_angle_deg=90.0,
                                             repetitions=100, seed=3)
        assert abs(first) > 0.99
        assert first < 0.0                          # similarity decays with angle
        again = viewing_direction_dependence(entries, max_angle_deg=90.0,
                                             repetitions=100, seed=3)
        assert again == first                       # seeded resampling


# ---------------------------------------------------------------------------
# 11. performance envelope on a 50k-vertex mesh

def test_criterion_11_performance_envelope():
    with criterion(11, "50k-vertex saliency performance envelope"):
        mesh = plane_grid(224, 224, size=2.0, center=(0.0, 1.0, 0.0))
        assert len(mesh.vertices) > 50000
        cam = CameraModel(hfov_deg=72.0, vfov_deg=72.0)
        pose = ViewPose(p=np.array([0.0, 1.5, 0.0]),
                        o_deg=np.array([90.0, 0.0, 0.0]), camera=cam)
        cfg = RunConfig()
        t0 = time.perf_counter()
        smap = saliency_map(mesh, pose, cfg)
        elapsed = time.perf_counter() - t0
        vs = visible_points(mesh, pose, cfg.depth_tol_frac)
        assert len(vs.ids) > 5000
        assert smap.subsampled                     # estimator kicked in
        assert np.isfinite(smap.s).all()
        assert not smap.s[~vs.mask].any()
        assert elapsed < 30.0, f"saliency took {elapsed:.1f}s"
