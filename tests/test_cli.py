"""End-to-end exercises of the command-line interface.

The verbs are driven in-process through main(argv) on real files, chained
the way a user would run them: synthesize recordings, reconstruct
fixations, build density maps and per-pose ground truth, score a
prediction set, and emit the behavioral reports.  The numeric core is
covered elsewhere; these tests pin the wiring -- file formats, exit
codes, config plumbing, and byte-stable reruns.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from conftest import pick_visible_targets

import meshgaze
from meshgaze import __version__
from meshgaze.cli import main
from meshgaze.config import RunConfig
from meshgaze.evaluation import (ViewScore, bias_study,
                                 direction_dependence_study,
                                 inter_observer_study, left_preference_study,
                                 metric_cc, metric_kl, metric_se,
                                 saccade_study, weighted_eval)
from meshgaze.fdm import (load_map_csv, pose_buckets, pose_groups, save_map_csv,
                          splat_fdm)
from meshgaze.fixation import Fixations, load_fixations
from meshgaze.gaze import PoseSample, load_recording, save_recording
from meshgaze.mesh import bounding_box_diagonal, load_mesh, save_ply
from meshgaze.primitives import bumpy_sphere, icosphere
from meshgaze.saliency import baseline_curvature_saliency, saliency_map
from meshgaze.synth import SyntheticScenario, scenario_to_json
from meshgaze.visibility import ViewPose, camera_from_config, load_visibility

HEX12 = re.compile(r"^[0-9a-f]{12}$")
BUCKET = re.compile(r"^-?\d+_-?\d+_-?\d+_a\d+_e\d+$")
SRC = os.path.dirname(os.path.dirname(meshgaze.__file__))


def run(*argv):
    return main([str(a) for a in argv])


def python(code, **env):
    """stdout lines of `code` run in a fresh interpreter that imports meshgaze
    from this checkout; an env value of None unsets that variable."""
    full = dict(os.environ, PYTHONPATH=SRC)
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    return subprocess.run([sys.executable, "-c", code], env=full, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout.splitlines()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> process -> fdm chain, shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    mesh = icosphere(2)
    mesh_path = root / "ball.ply"
    save_ply(mesh, mesh_path)

    targets = pick_visible_targets(mesh, (0.0, 1.6, -1.5), 2)
    scenario = SyntheticScenario(mesh_id="ball", targets=targets,
                                 duration_s=2.0, noise_deg=0.0,
                                 subjects=2, seed=11)
    sc_path = root / "scenario.json"
    sc_path.write_text(scenario_to_json(scenario))

    rec = root / "rec"
    fix = root / "fix"
    fdm_dir = root / "fdm"
    gt = root / "gt"
    assert run("synth", "--scenario", sc_path, "--mesh", mesh_path,
               "--out", rec) == 0
    assert run("process", "--mesh", mesh_path, "--recordings", rec,
               "--out", fix) == 0
    assert run("fdm", "--mesh", mesh_path, "--fixations", fix,
               "--out", fdm_dir) == 0
    assert run("fdm", "--mesh", mesh_path, "--fixations", fix,
               "--out", gt, "--by-pose") == 0
    return {"root": root, "mesh": mesh, "mesh_path": mesh_path,
            "scenario": sc_path, "targets": targets, "rec": rec,
            "fix": fix, "fdm": fdm_dir, "gt": gt}


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# synth

def test_synth_outputs(pipeline):
    rec = pipeline["rec"]
    assert sorted(os.listdir(rec)) == ["s00.csv", "s01.csv", "targets.json"]
    meta = read_json(rec / "targets.json")
    assert meta["mesh_id"] == "ball"
    assert meta["subjects"] == 2
    assert meta["target_vertex_ids"] == [int(t) for t in pipeline["targets"]]
    mesh = pipeline["mesh"]
    for tid, pos in zip(meta["target_vertex_ids"], meta["target_positions"]):
        np.testing.assert_allclose(pos, mesh.vertices[tid], atol=0)
    samples = load_recording(rec / "s00.csv")
    assert len(samples) == 240          # 2 s at 120 Hz


def test_synth_rerun_is_byte_identical(pipeline):
    again = pipeline["root"] / "rec_again"
    assert run("synth", "--scenario", pipeline["scenario"],
               "--mesh", pipeline["mesh_path"], "--out", again) == 0
    for name in ("s00.csv", "s01.csv"):
        assert (again / name).read_bytes() == (pipeline["rec"] / name).read_bytes()


def test_synth_target_out_of_range(pipeline, tmp_path):
    scenario = SyntheticScenario(mesh_id="ball", targets=[10 ** 6],
                                 duration_s=1.0, subjects=1)
    bad = tmp_path / "bad.json"
    bad.write_text(scenario_to_json(scenario))
    assert run("synth", "--scenario", bad, "--mesh", pipeline["mesh_path"],
               "--out", tmp_path / "out") == 1


def test_synth_rejects_malformed_scenario(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mesh_id": "ball", "targets": [0], "velocity": 3}')
    assert run("synth", "--scenario", bad, "--mesh", pipeline["mesh_path"],
               "--out", tmp_path / "out") == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("fields, named", [
    ({"duration_s": "ten"}, "duration_s must be a finite number"),
    ({"subjects": 1e9}, "subjects must be an integer"),
    ({"subjects": 2.0}, "subjects must be an integer"),
    ({"seed": "x"}, "seed must be an integer"),
    ({"rate_hz": float("nan")}, "rate_hz must be a finite number"),
    ({"targets": [28.5]}, "targets must be a list of integer vertex ids"),
    ({"targets": [True]}, "targets must be a list of integer vertex ids"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"duration_s": 1e10, "rate_hz": 1e300}, "at least one sample"),
    ({"duration_s": 1e300}, "at most 10000000 are allowed"),
    ({"duration_s": 1e7}, "gives 1.2e+09 samples per recording"),
    ({"subjects": 10 ** 12}, "1000000000000 subjects of 120 samples each"),
], ids=["duration-string", "subjects-1e9", "subjects-float", "seed-string",
        "rate-nan", "target-fraction", "target-true", "seed-negative",
        "sample-count-overflow", "duration-1e300", "duration-1e7",
        "subjects-1e12"])
def test_synth_rejects_mistyped_scenario_field(pipeline, tmp_path, capsys,
                                               fields, named):
    """A scenario field of the wrong type or out of range ends in one
    `error:` line naming it; each used to end in a traceback, or, for a
    fractional or boolean target, to exit 0 on a truncated vertex id."""
    raw = {"mesh_id": "ball", "targets": [int(t) for t in pipeline["targets"]],
           "duration_s": 1.0, "subjects": 1}
    raw.update(fields)
    if "targets" in fields:
        raw["targets"] += [int(t) for t in pipeline["targets"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert run("synth", "--scenario", bad, "--mesh", pipeline["mesh_path"],
               "--out", tmp_path / "out") == 1
    assert named in assert_one_error_line(capsys)
    assert not (tmp_path / "out" / "targets.json").exists()


def test_synth_dwell_longer_than_the_recording(pipeline, tmp_path):
    """A dwell past the recording's end aims at the first target throughout;
    a dwell of 1e300 s used to end in an OverflowError traceback."""
    outs = []
    for dwell in (1e300, 1.0):
        raw = {"mesh_id": "ball", "targets": [int(pipeline["targets"][0])],
               "duration_s": 1.0, "subjects": 1, "dwell_s": dwell}
        scenario = tmp_path / f"dwell{dwell:g}.json"
        scenario.write_text(json.dumps(raw))
        out = tmp_path / f"out{dwell:g}"
        assert run("synth", "--scenario", scenario, "--mesh",
                   pipeline["mesh_path"], "--out", out) == 0
        outs.append((out / "s00.csv").read_bytes())
    assert outs[0] == outs[1]


def test_synth_rejects_scenario_that_is_not_an_object(pipeline, tmp_path,
                                                      capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("5")
    assert run("synth", "--scenario", bad, "--mesh", pipeline["mesh_path"],
               "--out", tmp_path / "out") == 1
    assert "must be an object" in assert_one_error_line(capsys)


# ---------------------------------------------------------------------------
# process

def test_process_summary(pipeline):
    summary = read_json(pipeline["fix"] / "summary.json")
    assert summary["version"] == __version__
    assert summary["mesh"] == "ball.ply"
    assert sorted(summary["recordings"]) == ["s00", "s01"]
    total = 0
    for rec_id, stats in summary["recordings"].items():
        assert stats["samples"] == 240
        assert stats["fixations"] >= 1
        assert stats["warnings"] == []
        assert (stats["fixation_samples"] + stats["saccade_samples"]
                + stats["miss_samples"]) == stats["samples"]
        total += stats["fixations"]
    assert summary["total_fixations"] == total


def test_process_fixation_files(pipeline):
    rows = load_fixations(pipeline["fix"] / "s00.csv")
    assert len(rows)
    assert (rows.recording == "s00").all()
    assert rows.cluster.tolist() == list(range(len(rows)))
    assert np.isfinite(rows.position).all()
    assert (rows.duration > 0.0).all()
    assert (rows.weight >= 1).all()


def test_process_rerun_is_byte_identical(pipeline):
    again = pipeline["root"] / "fix_again"
    assert run("process", "--mesh", pipeline["mesh_path"],
               "--recordings", pipeline["rec"], "--out", again) == 0
    for name in ("s00.csv", "s01.csv", "summary.json"):
        assert (again / name).read_bytes() == (pipeline["fix"] / name).read_bytes()


def test_process_warns_when_everything_misses(pipeline, tmp_path, capsys):
    # looking straight away from the mesh: every sight-line misses
    samples = [PoseSample(t=k / 120.0, p=np.array([0.0, 1.6, -1.5]),
                          o_deg=np.array([0.0, 180.0, 0.0]),
                          s=np.zeros(2), index=k) for k in range(20)]
    rec = tmp_path / "rec"
    rec.mkdir()
    save_recording(rec / "away.csv", samples)
    out = tmp_path / "fix"
    assert run("process", "--mesh", pipeline["mesh_path"],
               "--recordings", rec, "--out", out) == 0
    err = capsys.readouterr().err
    assert "all sight-lines missed the mesh" in err
    assert "no fixations detected" in err
    summary = read_json(out / "summary.json")
    stats = summary["recordings"]["away"]
    assert stats["miss_samples"] == 20
    assert stats["fixations"] == 0
    assert len(load_fixations(out / "away.csv")) == 0


def test_process_rejects_a_head_position_beyond_the_bound(pipeline, tmp_path,
                                                         capsys):
    """A recorded head coordinate of 1e300 is an error; it used to exit 0
    with overflow warnings from the ray cast and every sample a miss."""
    rec = tmp_path / "rec"
    rec.mkdir()
    (rec / "s00.csv").write_text("t,px,py,pz,ox,oy,oz,sx,sy\n"
                                 "0.0,0.0,1.6,-1.5,0.0,0.0,0.0,0.0,0.0\n"
                                 "0.1,1e300,1.6,-1.5,0.0,0.0,0.0,0.0,0.0\n")
    assert run("process", "--mesh", pipeline["mesh_path"], "--recordings", rec,
               "--out", tmp_path / "fix") == 1
    assert "row 1: coordinate beyond +-1e+09" in assert_one_error_line(capsys)


def test_process_empty_recordings_dir_fails(pipeline, tmp_path, capsys):
    empty = tmp_path / "rec"
    empty.mkdir()
    assert run("process", "--mesh", pipeline["mesh_path"],
               "--recordings", empty, "--out", tmp_path / "out") == 1
    assert "error:" in capsys.readouterr().err


def test_missing_mesh_file_fails(pipeline, tmp_path, capsys):
    assert run("process", "--mesh", tmp_path / "nope.ply",
               "--recordings", pipeline["rec"], "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# fdm (pooled and per-pose ground truth)

def test_fdm_pooled_matches_library(pipeline):
    values = load_map_csv(pipeline["fdm"] / "fdm.csv")
    assert len(values) == len(pipeline["mesh"].vertices)
    assert (values > 0.0).any()

    points = Fixations.concat(load_fixations(pipeline["fix"] / name)
                              for name in sorted(os.listdir(pipeline["fix"]))
                              if name.endswith(".csv"))
    cfg = RunConfig()
    expect = splat_fdm(pipeline["mesh"], points, cfg.sigma_fdm,
                       cfg.fdm_cutoff_sigmas)
    np.testing.assert_array_equal(values, expect.values)

    meta = read_json(pipeline["fdm"] / "fdm.meta.json")
    assert meta["sigma_fdm"] == cfg.sigma_fdm
    assert meta["fixations"] == len(points)
    assert (pipeline["fdm"] / "fdm.ply").exists()


def test_fdm_set_override(pipeline, tmp_path):
    out = tmp_path / "wide"
    assert run("fdm", "--mesh", pipeline["mesh_path"],
               "--fixations", pipeline["fix"], "--out", out,
               "--set", "sigma_fdm=0.08") == 0
    assert read_json(out / "fdm.meta.json")["sigma_fdm"] == 0.08
    wide = load_map_csv(out / "fdm.csv")
    narrow = load_map_csv(pipeline["fdm"] / "fdm.csv")
    assert np.abs(wide - narrow).max() > 0.0


def test_fdm_config_file_and_set_precedence(pipeline, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# density splat\nsigma_fdm = 0.05\n")
    out = tmp_path / "cfg"
    assert run("fdm", "--mesh", pipeline["mesh_path"],
               "--fixations", pipeline["fix"], "--out", out,
               "--config", cfg_file) == 0
    assert read_json(out / "fdm.meta.json")["sigma_fdm"] == 0.05

    out2 = tmp_path / "cfg_set"
    assert run("fdm", "--mesh", pipeline["mesh_path"],
               "--fixations", pipeline["fix"], "--out", out2,
               "--config", cfg_file, "--set", "sigma_fdm=0.06") == 0
    assert read_json(out2 / "fdm.meta.json")["sigma_fdm"] == 0.06


def test_unknown_config_key_fails(pipeline, tmp_path, capsys):
    assert run("fdm", "--mesh", pipeline["mesh_path"],
               "--fixations", pipeline["fix"], "--out", tmp_path / "out",
               "--set", "splat_girth=1") == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["cam_width", "cam_height"])
def test_retired_raster_keys_fail(pipeline, tmp_path, capsys, key):
    assert run("saliency", "--mesh", pipeline["mesh_path"],
               "--pose", "0 1.6 -1.5 0 0 0", "--out", tmp_path / "out",
               "--set", f"{key}=640") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config key" in err
    assert not (tmp_path / "out").exists()


def test_retired_sample_rate_key_fails(pipeline, tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sample_rate_hz = 120\n")
    assert run("fdm", "--mesh", pipeline["mesh_path"],
               "--fixations", pipeline["fix"], "--out", tmp_path / "out",
               "--config", cfg_file) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown config key" in err
    assert "sample_rate_hz" in err
    assert not (tmp_path / "out").exists()


def test_fdm_by_pose_layout(pipeline):
    gt = pipeline["gt"]
    names = sorted(os.listdir(gt))
    buckets = [n[:-4] for n in names
               if n.endswith(".csv") and not n.endswith(".vis.csv")]
    assert buckets
    n = len(pipeline["mesh"].vertices)
    weights = read_json(gt / "weights.json")
    meta = read_json(gt / "gt_meta.json")
    assert sorted(weights) == sorted(buckets) == sorted(meta["buckets"])
    for bucket in buckets:
        assert BUCKET.match(bucket)
        values = load_map_csv(gt / f"{bucket}.csv")
        mask = load_visibility(gt / f"{bucket}.vis.csv")
        assert len(values) == len(mask) == n
        assert mask.any()
        # gated: no density off the bucket's visible set
        assert not values[~mask].any()
        assert 1 <= weights[bucket] <= 2          # distinct subjects
        entry = meta["buckets"][bucket]
        assert entry["a_w"] == weights[bucket]
        assert entry["fixations"] >= 1
        assert len(entry["pose_p"]) == len(entry["pose_o"]) == 3



def test_pose_groups_sort_keys_and_keep_row_order():
    rows = Fixations(recording=["s2", "s2", "s1"], cluster=[0, 1, 0],
                     position=np.zeros((3, 3)),
                     pose_p=[(5.0, 1.6, -1.5), (0.0, 1.6, -1.5), (0.01, 1.6, -1.5)],
                     pose_o=np.zeros((3, 3)), duration=[0.2] * 3, weight=[1] * 3)
    far, near = pose_buckets([(5.0, 1.6, -1.5), (0.0, 1.6, -1.5)], np.zeros((2, 3)))
    assert near < far
    groups = pose_groups(rows, RunConfig())
    assert list(groups) == [near, far]
    assert groups[near].tolist() == [1, 2] and groups[far].tolist() == [0]
    per_rec = pose_groups(rows, RunConfig(), per_recording=True)
    assert list(per_rec) == [("s1", near), ("s2", near), ("s2", far)]
    assert [g.tolist() for g in per_rec.values()] == [[2], [1], [0]]

# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_identity_scores_perfectly(pipeline, tmp_path):
    preds = tmp_path / "preds"
    preds.mkdir()
    buckets = []
    for name in os.listdir(pipeline["gt"]):
        if name.endswith(".csv") and not name.endswith(".vis.csv"):
            shutil.copy(pipeline["gt"] / name, preds / name)
            buckets.append(name[:-4])
    report_path = tmp_path / "report.json"
    assert run("evaluate", "--ground-truth", pipeline["gt"],
               "--predictions", preds, "--out", report_path) == 0
    report = read_json(report_path)
    assert sorted(report["views"]) == sorted(buckets)
    agg = report["aggregate"]
    assert agg["E_cc"] == pytest.approx(1.0, abs=1e-9)
    assert agg["E_se"] == pytest.approx(0.0, abs=1e-9)
    assert agg["E_kl"] == pytest.approx(0.0, abs=1e-9)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "pose_id,cc,se,kl,A_w"
    assert lines[-1].startswith("aggregate,")


def test_evaluate_flags_disagreement(pipeline, tmp_path):
    preds = tmp_path / "preds"
    preds.mkdir()
    for name in os.listdir(pipeline["gt"]):
        if name.endswith(".csv") and not name.endswith(".vis.csv"):
            values = load_map_csv(pipeline["gt"] / name)
            save_map_csv(preds / name, values ** 2)    # sharpened, same support
    report_path = tmp_path / "report.json"
    assert run("evaluate", "--ground-truth", pipeline["gt"],
               "--predictions", preds, "--out", report_path) == 0
    agg = read_json(report_path)["aggregate"]
    assert agg["E_kl"] > 1e-8
    assert agg["E_se"] > 0.0


def test_evaluate_weights_domain_and_formats(tmp_path):
    """Hand-built ground truth: weights, vis gating, and both CSV shapes."""
    rng = np.random.default_rng(31)
    gt = tmp_path / "gt"
    preds = tmp_path / "preds"
    gt.mkdir()
    preds.mkdir()

    g1 = rng.random(8)
    g2 = rng.random(8)
    r1 = 2.0 * g1 + 1.0                               # affine: cc == 1
    r2 = rng.random(8)
    mask1 = np.zeros(8, dtype=bool)
    mask1[:5] = True

    save_map_csv(gt / "m1.csv", g1)
    save_map_csv(gt / "m2.csv", g2)
    with open(gt / "m1.vis.csv", "w", encoding="utf-8") as fh:
        fh.write("vertex_id,visible\n")
        fh.writelines(f"{i},{int(b)}\n" for i, b in enumerate(mask1))
    (gt / "weights.json").write_text(json.dumps({"m1": 3, "m2": 2}))

    save_map_csv(preds / "m1.csv", r1)
    with open(preds / "m2.csv", "w", encoding="utf-8") as fh:   # S,U,C export
        fh.write("vertex_id,S,U,C\n")
        fh.writelines(f"{i},{v!r},0.0,0.0\n" for i, v in enumerate(r2.tolist()))

    report_path = tmp_path / "report.json"
    assert run("evaluate", "--ground-truth", gt, "--predictions", preds,
               "--out", report_path) == 0
    report = read_json(report_path)

    scores = [ViewScore(pose_id="m1", cc=metric_cc(g1, r1, mask1),
                        se=metric_se(g1, r1, mask1), kl=metric_kl(g1, r1, mask1),
                        a_w=3),
              ViewScore(pose_id="m2", cc=metric_cc(g2, r2),
                        se=metric_se(g2, r2), kl=metric_kl(g2, r2), a_w=2)]
    for score in scores:
        view = report["views"][score.pose_id]
        assert view["cc"] == pytest.approx(score.cc, abs=1e-12)
        assert view["se"] == pytest.approx(score.se, abs=1e-12)
        assert view["kl"] == pytest.approx(score.kl, abs=1e-12)
        assert view["A_w"] == score.a_w
    assert report["views"]["m1"]["cc"] == pytest.approx(1.0, abs=1e-12)
    for metric in ("cc", "se", "kl"):
        expect = weighted_eval(scores, metric)
        assert report["aggregate"][f"E_{metric}"] == pytest.approx(expect,
                                                                   abs=1e-12)


def test_evaluate_missing_prediction_fails(pipeline, tmp_path, capsys):
    preds = tmp_path / "preds"
    preds.mkdir()
    assert run("evaluate", "--ground-truth", pipeline["gt"],
               "--predictions", preds, "--out", tmp_path / "r.json") == 1
    err = capsys.readouterr().err
    assert "error:" in err and "missing" in err


def test_evaluate_empty_ground_truth_fails(tmp_path, capsys):
    gt = tmp_path / "gt"
    preds = tmp_path / "preds"
    gt.mkdir()
    preds.mkdir()
    assert run("evaluate", "--ground-truth", gt, "--predictions", preds,
               "--out", tmp_path / "r.json") == 1
    assert "no ground-truth" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# saliency

def test_saliency_single_pose_matches_library(pipeline, tmp_path):
    out = tmp_path / "sal"
    assert run("saliency", "--mesh", pipeline["mesh_path"],
               "--pose", "0,1.6,-1.5,0,0,0", "--out", out) == 0
    csvs = [n for n in os.listdir(out) if n.endswith(".csv")]
    assert len(csvs) == 1
    pid = csvs[0][:-4]
    assert HEX12.match(pid)

    cfg = RunConfig()
    pose = ViewPose(p=np.array([0.0, 1.6, -1.5]), o_deg=np.zeros(3),
                    camera=camera_from_config(cfg))
    smap = saliency_map(pipeline["mesh"], pose, cfg)
    assert smap.pose_id == pid

    lines = (out / csvs[0]).read_text().splitlines()
    assert lines[0] == "vertex_id,S,U,C"
    got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(got[:, 1], smap.s)
    np.testing.assert_array_equal(got[:, 2], smap.u)
    np.testing.assert_array_equal(got[:, 3], smap.c)

    meta = read_json(out / f"{pid}.meta.json")
    assert meta["pose_p"] == [0.0, 1.6, -1.5]
    assert meta["flagged_empty"] is False
    assert meta["uniqueness_subsampled"] is False
    assert meta["params"]["fpfh_radius_frac"] == cfg.fpfh_radius_frac
    assert meta["camera"] == {"hfov_deg": cfg.cam_hfov_deg,
                              "vfov_deg": cfg.cam_vfov_deg,
                              "near": cfg.cam_near}
    assert (out / f"{pid}.ply").exists()


def test_saliency_poses_file(pipeline, tmp_path):
    poses = tmp_path / "poses.txt"
    poses.write_text("# one per line\n\n0 1.6 -1.5 0 0 0\n1.5,1.6,0,0,-90,0\n")
    out = tmp_path / "sal"
    assert run("saliency", "--mesh", pipeline["mesh_path"],
               "--poses", poses, "--out", out) == 0
    pids = {n[:-4] for n in os.listdir(out) if n.endswith(".csv")}
    assert len(pids) == 2


def test_saliency_pose_errors(pipeline, tmp_path, capsys):
    assert run("saliency", "--mesh", pipeline["mesh_path"],
               "--pose", "1,2,3", "--out", tmp_path / "a") == 1
    assert "6 numbers" in capsys.readouterr().err
    assert run("saliency", "--mesh", pipeline["mesh_path"],
               "--out", tmp_path / "b") == 1
    assert "no poses" in capsys.readouterr().err


def test_saliency_sample_covering_the_set_runs_exact(tmp_path):
    """More visible vertices than uniqueness_exact_limit but no more than
    uniqueness_sample_size: the subsample would be the whole set, so the
    exact path runs and the maps equal the default run's."""
    mesh_path = tmp_path / "bumpy.ply"
    save_ply(bumpy_sphere(3), mesh_path)
    pose = ("--pose", "0,1.6,-1.5,0,0,0")
    assert run("saliency", "--mesh", mesh_path, *pose,
               "--out", tmp_path / "exact") == 0
    assert run("saliency", "--mesh", mesh_path, *pose,
               "--out", tmp_path / "covered",
               "--set", "uniqueness_exact_limit=10",
               "--set", "uniqueness_sample_size=5000") == 0
    csv_name = [n for n in os.listdir(tmp_path / "exact") if n.endswith(".csv")]
    c = np.loadtxt(tmp_path / "exact" / csv_name[0], delimiter=",", skiprows=1)[:, 3]
    assert (c > 0).sum() > 10                               # visible vertices
    names = sorted(os.listdir(tmp_path / "exact"))
    assert names == sorted(os.listdir(tmp_path / "covered"))
    for name in names:
        a, b = (tmp_path / d / name for d in ("exact", "covered"))
        if name.endswith(".meta.json"):
            assert read_json(b)["uniqueness_subsampled"] is False
        else:
            assert a.read_bytes() == b.read_bytes()


def test_saliency_warns_when_fpfh_finds_no_neighbour(tmp_path, capsys):
    """On the quick-start mesh the default FPFH radius is shorter than every
    edge, so every visible vertex is isolated; the warning goes to stderr
    only, and a radius that reaches the neighbours silences it."""
    mesh = bumpy_sphere(3, amplitude=0.04, seed=3)
    mesh_path = tmp_path / "bumpy.ply"
    save_ply(mesh, mesh_path)
    pose = ("--pose", "0,1.6,-1.5,0,0,0")
    assert run("saliency", "--mesh", mesh_path, *pose,
               "--out", tmp_path / "sal") == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    (pid,) = [n[:-4] for n in os.listdir(tmp_path / "sal") if n.endswith(".csv")]
    c = np.loadtxt(tmp_path / "sal" / f"{pid}.csv", delimiter=",",
                   skiprows=1)[:, 3]
    n = int((c > 0).sum())                                  # visible vertices
    r = RunConfig().fpfh_radius_frac * bounding_box_diagonal(mesh)
    assert n > 0
    assert captured.err == (
        f"warning: pose {pid}: {n} of {n} visible vertices have no neighbour "
        f"within the FPFH radius {r:.6g}\n")

    assert run("saliency", "--mesh", mesh_path, *pose, "--out", tmp_path / "wide",
               "--set", "fpfh_radius_frac=0.2") == 0
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# baseline

def test_baseline_outputs(pipeline, tmp_path):
    prefix = tmp_path / "base"
    assert run("baseline", "--mesh", pipeline["mesh_path"], "--out", prefix) == 0
    values = load_map_csv(tmp_path / "base.csv")
    cfg = RunConfig()
    expect = baseline_curvature_saliency(pipeline["mesh"],
                                         eps_frac=cfg.baseline_eps_frac,
                                         guard=cfg.baseline_guard)
    np.testing.assert_array_equal(values, expect)
    meta = read_json(tmp_path / "base.meta.json")
    assert meta["eps_frac"] == cfg.baseline_eps_frac
    assert (tmp_path / "base.ply").exists()


# ---------------------------------------------------------------------------
# analyze

def test_analyze_reports(pipeline, tmp_path):
    mesh_dir = tmp_path / "meshes"
    fix_root = tmp_path / "fixations"
    mesh_dir.mkdir()
    fix_root.mkdir()
    shutil.copy(pipeline["mesh_path"], mesh_dir / "ball.ply")
    shutil.copytree(pipeline["fix"], fix_root / "ball")
    out = tmp_path / "reports"
    assert run("analyze", "--mesh-dir", mesh_dir, "--fixations", fix_root,
               "--recordings", pipeline["rec"], "--out", out) == 0

    inter = read_json(out / "inter_observer.json")
    assert inter["same_mesh_pairs"] == 1       # two subjects, one mesh
    assert inter["cross_mesh_pairs"] == 0
    assert "skipped" in inter                  # too few pairs for the test

    bias = read_json(out / "bias.json")
    assert isinstance(bias["rows"], list)
    for row in bias["rows"]:
        assert row["fixations"] >= 3
        for key in ("d_f_center", "d_v_center", "d_f_head", "d_v_head"):
            assert row[key] > 0.0
    if bias["rows"]:
        assert bias["mean_d_v_head"] > 0.0
    else:
        assert "skipped" in bias

    sac = read_json(out / "saccade.json")
    if sac["count"]:
        assert 0.0 <= sac["median_deg"] <= sac["max_deg"] <= 180.0
    else:
        assert "skipped" in sac

    vdd = read_json(out / "direction_dependence.json")
    assert "ball" in vdd["per_mesh"]
    entry = vdd["per_mesh"]["ball"]
    assert "correlation" in entry or "skipped" in entry
    header = (out / "direction_dependence.csv").read_text().splitlines()[0]
    assert header == "mesh,correlation,abs_correlation"

    left = read_json(out / "left_preference.json")
    counts = left["counts"]
    assert sorted(counts) == ["Left", "None", "Right"]
    assert sum(counts.values()) == 2
    if counts["Left"] + counts["Right"]:
        assert 0.0 <= left["left_fraction"] <= 1.0


def test_study_functions_return_the_analyze_reports(pipeline, tmp_path):
    """Each report analyze writes is its study function's dict plus the
    package version; two copies of the mesh give cross-mesh pairs."""
    mesh_dir, fix_root = tmp_path / "meshes", tmp_path / "fixations"
    mesh_dir.mkdir()
    for name in ("a", "b"):
        shutil.copy(pipeline["mesh_path"], mesh_dir / f"{name}.ply")
        shutil.copytree(pipeline["fix"], fix_root / name)
    out = tmp_path / "reports"
    assert run("analyze", "--mesh-dir", mesh_dir, "--fixations", fix_root,
               "--recordings", pipeline["rec"], "--out", out) == 0
    cfg = RunConfig()
    meshes = {m: load_mesh(mesh_dir / f"{m}.ply") for m in ("a", "b")}
    fixations = {m: Fixations.concat(load_fixations(p) for p in
                                     sorted((fix_root / m).glob("*.csv")))
                 for m in meshes}
    recordings = {p.name: load_recording(p)
                  for p in sorted(pipeline["rec"].glob("*.csv"))}
    want = {
        "inter_observer.json": inter_observer_study(meshes, fixations, cfg),
        "bias.json": bias_study(meshes, fixations, cfg),
        "saccade.json": saccade_study(fixations),
        "direction_dependence.json": direction_dependence_study(
            meshes, fixations, cfg),
        "left_preference.json": left_preference_study(recordings, cfg)[0],
    }
    assert "t" in want["inter_observer.json"]
    for name, report in want.items():
        got = read_json(out / name)
        assert got.pop("version") == __version__
        assert got == json.loads(json.dumps(report)), name


def test_analyze_without_recordings_skips_preference(pipeline, tmp_path):
    mesh_dir = tmp_path / "meshes"
    fix_root = tmp_path / "fixations"
    mesh_dir.mkdir()
    fix_root.mkdir()
    shutil.copy(pipeline["mesh_path"], mesh_dir / "ball.ply")
    shutil.copytree(pipeline["fix"], fix_root / "ball")
    out = tmp_path / "reports"
    assert run("analyze", "--mesh-dir", mesh_dir, "--fixations", fix_root,
               "--out", out) == 0
    left = read_json(out / "left_preference.json")
    assert "counts" not in left
    assert "skipped" in left


def test_analyze_requires_matching_layout(pipeline, tmp_path, capsys):
    mesh_dir = tmp_path / "meshes"
    fix_root = tmp_path / "fixations"
    mesh_dir.mkdir()
    fix_root.mkdir()                           # no per-mesh subdirectory
    shutil.copy(pipeline["mesh_path"], mesh_dir / "ball.ply")
    assert run("analyze", "--mesh-dir", mesh_dir, "--fixations", fix_root,
               "--out", tmp_path / "out") == 1
    assert "per-mesh fixation subdirectories" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# top-level plumbing

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("where, body", [
    ("preds/m1.csv", "vertex_id,value\n0,0.5\n1,0.25\n1,0.75\n2,0.1\n"),
    ("preds/m1.csv", "vertex_id,value\n0,0.5\n1,0.25\n2,0.75\n7,0.1\n"),
    ("preds/m1.csv", "vertex_id,value\n0,0.5\n1,high\n2,0.75\n3,0.1\n"),
    ("preds/m1.csv", "vertex_id,value\n0,0.5\n1,nan\n2,0.75\n3,0.1\n"),
    ("gt/m1.csv", "vertex_id,value\n0,0.5\n0,0.25\n2,0.75\n3,0.1\n"),
    ("gt/m1.vis.csv", "vertex_id,visible\n0,1\n1,1\n1,0\n3,1\n"),
    ("gt/m1.vis.csv", "vertex_id,visible\n0,1\n1,yes\n2,0\n3,1\n"),
    ("gt/m1.vis.csv", "vertex_id,visible\n0,1\n1,1\n2,0\n"),
    ("gt/m1.vis.csv", "vertex_id,visible\n0,1\n1,1\n2,0\n3,1\n4,1\n"),
], ids=["pred-duplicate-id", "pred-id-out-of-range", "pred-non-numeric",
        "pred-non-finite", "gt-duplicate-id", "vis-duplicate-id",
        "vis-non-numeric", "vis-short", "vis-long"])
def test_evaluate_rejects_malformed_map_csv(tmp_path, capsys, where, body):
    """A bad per-vertex file is an error, never a traceback or a silently
    wrong score (a duplicated id used to displace another row to 0)."""
    for d in ("gt", "preds"):
        (tmp_path / d).mkdir()
        save_map_csv(tmp_path / d / "m1.csv", [0.5, 0.25, 0.75, 0.1])
    (tmp_path / where).write_text(body)
    assert run("evaluate", "--ground-truth", tmp_path / "gt", "--predictions",
               tmp_path / "preds", "--out", tmp_path / "r.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_evaluate_quotes_a_pose_id_with_a_comma(tmp_path):
    """report.csv quotes fields the csv module's way; an id with a comma used
    to split its row into six fields."""
    for d in ("gt", "preds"):
        (tmp_path / d).mkdir()
        save_map_csv(tmp_path / d / "a,b.csv", [0.5, 0.25, 0.75, 0.1])
    assert run("evaluate", "--ground-truth", tmp_path / "gt", "--predictions",
               tmp_path / "preds", "--out", tmp_path / "r.json") == 0
    row = (tmp_path / "r.csv").read_text().splitlines()[1]
    assert row.startswith('"a,b",1.0,') and row.count(",") == 5


@pytest.mark.parametrize("body", ['{"m1": 3', '{"m1": "two"}', '{"m1": 2.7}'],
                         ids=["truncated", "non-numeric", "non-integer"])
def test_evaluate_rejects_malformed_weights(tmp_path, capsys, body):
    """A bad weights.json is an error, never a traceback or a silently
    truncated weight."""
    for d in ("gt", "preds"):
        (tmp_path / d).mkdir()
        save_map_csv(tmp_path / d / "m1.csv", [0.5, 0.25, 0.75, 0.1])
    (tmp_path / "gt" / "weights.json").write_text(body)
    assert run("evaluate", "--ground-truth", tmp_path / "gt", "--predictions",
               tmp_path / "preds", "--out", tmp_path / "r.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("field, value", [(2, "x"), (4, "nan"), (12, "0")],
                         ids=["non-numeric", "non-finite", "weight-below-1"])
def test_fdm_rejects_malformed_fixation_file(pipeline, tmp_path, capsys,
                                             field, value):
    row = "s00,0,0.0,1.5,-0.3,0.0,1.6,-1.5,0.0,0.0,0.0,0.5,3".split(",")
    row[field] = value
    fix = tmp_path / "fix"
    fix.mkdir()
    (fix / "s00.csv").write_text(
        "recording_id,cluster_id,x,y,z,px,py,pz,ox,oy,oz,duration,weight\n"
        + ",".join(row) + "\n")
    assert run("fdm", "--mesh", pipeline["mesh_path"], "--fixations", fix,
               "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("by_pose", [False, True], ids=["pooled", "by-pose"])
@pytest.mark.parametrize("field", [2, 6], ids=["point", "head"])
def test_fdm_rejects_a_coordinate_beyond_the_bound(pipeline, tmp_path, capsys,
                                                   field, by_pose):
    """A fixation coordinate of 1e300, whose square overflows, is an error;
    it used to exit 0 with an overflow warning and an all-zero map."""
    row = "s00,0,0.0,1.5,-0.3,0.0,1.6,-1.5,0.0,0.0,0.0,0.5,3".split(",")
    row[field] = "1e300"
    fix = tmp_path / "fix"
    fix.mkdir()
    (fix / "s00.csv").write_text(
        "recording_id,cluster_id,x,y,z,px,py,pz,ox,oy,oz,duration,weight\n"
        + ",".join(row) + "\n")
    argv = ["fdm", "--mesh", pipeline["mesh_path"], "--fixations", fix,
            "--out", tmp_path / "out"] + ["--by-pose"] * by_pose
    assert run(*argv) == 1
    assert "row 0: coordinate beyond +-1e+09" in assert_one_error_line(capsys)


TETRA_PLY = """\
ply
format ascii 1.0
element vertex 4
property float64 x
property float64 y
property float64 z
element face 4
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0 1 0
0 0 1
3 0 2 1
3 0 1 3
3 0 3 2
3 1 2 3
"""


def assert_one_error_line(capsys):
    """stderr holds exactly one line, an `error:` one; returns it."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("old, new, named", [
    ("1 0 0\n", "1 zero 0\n", "zero"),
    ("element vertex 4", "element vertex x3", "x3"),
    ("element vertex 4", "element vertex -1", "negative"),
    ("3 0 1 3", "3 0 one 3", "one"),
    ("3 0 1 3", "3 0 1 99999999999999999999", "out of range"),
    ("element face 4\n", "element face 4\nelement\n", "line 8"),
    ("property float64 z\n", "property float64 z\nproperty\n", "line 7"),
], ids=["vertex-field", "vertex-count", "negative-count", "face-index",
        "face-index-beyond-int64", "bare-element", "bare-property"])
def test_malformed_ply_is_an_error(tmp_path, capsys, old, new, named):
    """Mesh text that fails to parse ends in one `error:` line that names the
    line or the field, never in a traceback."""
    path = tmp_path / "m.ply"
    path.write_text(TETRA_PLY.replace(old, new, 1))
    assert run("baseline", "--mesh", path, "--out", tmp_path / "b") == 1
    assert named in assert_one_error_line(capsys)
    assert not (tmp_path / "b.csv").exists()


def test_obj_face_index_beyond_int64_is_an_error(tmp_path, capsys):
    path = tmp_path / "m.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
    assert run("baseline", "--mesh", path, "--out", tmp_path / "b") == 1
    assert "out of range" in assert_one_error_line(capsys)


@pytest.mark.parametrize("scale", ["1.0", "1e300"], ids=["in-file", "scaled"])
def test_mesh_coordinate_beyond_the_bound_is_an_error(pipeline, tmp_path,
                                                      capsys, scale):
    """A vertex coordinate past MAX_COORD, in the file or after mesh_scale,
    is an error; at 1e300 fdm used to exit 0 with an overflow warning and
    an all-zero map."""
    path = tmp_path / "m.ply"
    far = "1e300" if scale == "1.0" else "1"
    path.write_text(TETRA_PLY.replace("1 0 0\n", f"{far} 0 0\n", 1))
    assert run("fdm", "--mesh", path, "--fixations", pipeline["fix"],
               "--out", tmp_path / "out", "--set", f"mesh_scale={scale}") == 1
    assert "vertex coordinate beyond +-1e+09" in assert_one_error_line(capsys)


@pytest.mark.parametrize("pose, named", [
    ("0,1.6,x,0,0,0", "0,1.6,x,0,0,0"),
    ("0,1.6,nan,0,0,0", "non-finite"),
    ("0,1.6,-1.5,0,inf,0", "non-finite"),
    ("1e300,0,0,0,0,0", "beyond +-1e+09"),
], ids=["non-numeric", "nan", "inf", "far"])
def test_saliency_rejects_unusable_pose(pipeline, tmp_path, capsys, pose,
                                        named):
    """A pose that is not six finite numbers, or lies farther out than
    MAX_COORD, is an error; a NaN pose used to exit 0 with an all-zero map,
    and a pose at 1e300 with an overflow warning and an all-zero map."""
    out = tmp_path / "sal"
    assert run("saliency", "--mesh", pipeline["mesh_path"], "--pose", pose,
               "--out", out) == 1
    assert named in assert_one_error_line(capsys)
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("case", [
    "mesh-ply", "mesh-obj", "recording", "fixation", "map", "visibility",
    "prediction", "weights", "config", "scenario", "poses"])
def test_non_utf8_input_is_an_error(pipeline, tmp_path, capsys, case):
    """Every reader turns a file with one byte that is not UTF-8 (0xff after
    its first line) into one `error:` line and exit 1."""
    def bad(name, data):
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        head, sep, rest = data.partition(b"\n")
        path.write_bytes(head + sep + b"\xff" + rest)

    mesh, out = pipeline["mesh_path"], tmp_path / "out"
    for d in ("gt", "preds"):
        (tmp_path / d).mkdir()
        save_map_csv(tmp_path / d / "m1.csv", [0.5, 0.25, 0.75, 0.1])
    evaluate = ("evaluate", "--ground-truth", tmp_path / "gt",
                "--predictions", tmp_path / "preds", "--out", out / "r.json")
    a_map = (tmp_path / "gt" / "m1.csv").read_bytes()
    first = {d: sorted(p for p in pipeline[d].iterdir() if p.suffix == ".csv")[0]
             for d in ("rec", "fix")}
    name, data, argv = {
        "mesh-ply": ("m.ply", mesh.read_bytes(),
                     ("baseline", "--mesh", tmp_path / "m.ply", "--out", out)),
        "mesh-obj": ("m.obj", b"# tri\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
                     ("baseline", "--mesh", tmp_path / "m.obj", "--out", out)),
        "recording": ("rec/s00.csv", first["rec"].read_bytes(),
                      ("process", "--mesh", mesh, "--recordings",
                       tmp_path / "rec", "--out", out)),
        "fixation": ("fix/s00.csv", first["fix"].read_bytes(),
                     ("fdm", "--mesh", mesh, "--fixations", tmp_path / "fix",
                      "--out", out)),
        "map": ("gt/m1.csv", a_map, evaluate),
        "visibility": ("gt/m1.vis.csv",
                       b"vertex_id,visible\n0,1\n1,1\n2,0\n3,1\n", evaluate),
        "prediction": ("preds/m1.csv", a_map, evaluate),
        "weights": ("gt/weights.json", b'{\n"m1": 2}\n', evaluate),
        "config": ("run.cfg", b"# settings\nseed=1\n",
                   ("baseline", "--mesh", mesh, "--out", out,
                    "--config", tmp_path / "run.cfg")),
        "scenario": ("sc.json", pipeline["scenario"].read_bytes(),
                     ("synth", "--scenario", tmp_path / "sc.json",
                      "--mesh", mesh, "--out", out)),
        "poses": ("poses.txt", b"# one per line\n0 1.6 -1.5 0 0 0\n",
                  ("saliency", "--mesh", mesh, "--poses",
                   tmp_path / "poses.txt", "--out", out)),
    }[case]
    bad(name, data)
    assert run(*argv) == 1
    assert "can't decode byte 0xff" in assert_one_error_line(capsys)


def test_tracer_finds_every_target():
    """perfbench's tracer wraps each target by module and name; a reader,
    writer or kernel that moved or was renamed would leave its per-layer
    metric null."""
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    out = python("import sys, meshgaze.cli\n"
                 f"sys.path.insert(0, {perfbench!r})\n"
                 "import tracing\n"
                 "tracer = tracing.Tracer()\n"
                 "tracing.install(tracer)\n"
                 "print(tracer.unmeasured)\n")
    assert out == ["[]"]


def test_cli_import_leaves_scipy_unloaded(pipeline, tmp_path):
    """The runtime is numpy-only: no verb loads any scipy module.  A pooled
    fdm run splats by a direct distance pass, saliency and the baseline
    find neighbors with radius_pairs, and the Welch test computes its
    p-value in-house, including inside a two-mesh analyze, whose
    cross-mesh pairs make the test run."""
    from meshgaze.evaluation import inter_observer_test

    loaded = ("print(sorted(m for m in sys.modules"
              " if m == 'scipy' or m.startswith('scipy.')))\n")
    a, b = [0.2, 0.5, 0.7, 0.4, 0.1], [0.3, 0.9, 0.8, 0.6]
    out = python(
        "import sys, meshgaze.cli\n" + loaded +
        "from meshgaze.evaluation import inter_observer_test\n"
        f"print(repr(inter_observer_test({a}, {b})))\n" + loaded)
    assert out == ["[]", repr(inter_observer_test(a, b)), "[]"]

    argv = ["fdm", "--mesh", str(pipeline["mesh_path"]), "--fixations",
            str(pipeline["fix"]), "--out", str(tmp_path / "fdm")]
    out = python("import sys\nfrom meshgaze.cli import main\n"
                 f"assert main({argv!r}) == 0\n" + loaded)
    assert out == ["[]"]
    assert (tmp_path / "fdm" / "fdm.csv").read_bytes() == \
        (pipeline["fdm"] / "fdm.csv").read_bytes()

    mesh = str(pipeline["mesh_path"])
    for argv in (["saliency", "--mesh", mesh, "--pose", "0,1.6,-1.5,0,0,0",
                  "--out", str(tmp_path / "sal")],
                 ["baseline", "--mesh", mesh, "--out", str(tmp_path / "base")]):
        out = python("import sys\nfrom meshgaze.cli import main\n"
                     f"assert main({argv!r}) == 0\n" + loaded)
        assert out == ["[]"]
    assert len(os.listdir(tmp_path / "sal")) == 3
    assert (tmp_path / "base.csv").exists()

    mesh_dir, fix_root = tmp_path / "meshes", tmp_path / "fixations"
    mesh_dir.mkdir()
    for name in ("ball", "ball2"):
        shutil.copy(pipeline["mesh_path"], mesh_dir / f"{name}.ply")
        shutil.copytree(pipeline["fix"], fix_root / name)
    argv = ["analyze", "--mesh-dir", str(mesh_dir), "--fixations",
            str(fix_root), "--out", str(tmp_path / "reports")]
    out = python("import sys\nfrom meshgaze.cli import main\n"
                 f"assert main({argv!r}) == 0\n" + loaded)
    assert out == ["[]"]
    inter = read_json(tmp_path / "reports" / "inter_observer.json")
    assert inter["same_mesh_pairs"] == 2 and inter["cross_mesh_pairs"] == 4
    assert "skipped" not in inter
    assert np.isfinite(inter["t"]) and 0.0 <= inter["p"] <= 1.0


def test_process_and_analyze_leave_numpy_ma_unloaded(pipeline, tmp_path):
    """The median of `process` (the nominal sample gap) and of `analyze`
    (saccade amplitudes) is computed in-house: np.median would import
    numpy.ma on first use, about 20 ms of every such process."""
    loaded = "print('numpy.ma' in sys.modules)\n"
    argv = ["process", "--mesh", str(pipeline["mesh_path"]), "--recordings",
            str(pipeline["rec"]), "--out", str(tmp_path / "fix")]
    out = python("import sys\nfrom meshgaze.cli import main\n"
                 f"assert main({argv!r}) == 0\n" + loaded)
    assert out == ["False"]
    for name in ("s00.csv", "s01.csv", "summary.json"):
        assert (tmp_path / "fix" / name).read_bytes() == \
            (pipeline["fix"] / name).read_bytes()

    mesh_dir, fix_root = tmp_path / "meshes", tmp_path / "fixations"
    mesh_dir.mkdir()
    shutil.copy(pipeline["mesh_path"], mesh_dir / "ball.ply")
    shutil.copytree(pipeline["fix"], fix_root / "ball")
    argv = ["analyze", "--mesh-dir", str(mesh_dir), "--fixations",
            str(fix_root), "--out", str(tmp_path / "reports")]
    out = python("import sys\nfrom meshgaze.cli import main\n"
                 f"assert main({argv!r}) == 0\n" + loaded)
    assert out == ["False"]
    saccade = read_json(tmp_path / "reports" / "saccade.json")
    assert saccade["count"] > 0 and "median_deg" in saccade


def test_synth_leaves_numpy_ma_unloaded(pipeline, tmp_path):
    """`synth`'s reach check picks the samples left to cast with a mask:
    np.setdiff1d would import numpy.ma through np.unique, about 11 ms of
    every synth process."""
    argv = ["synth", "--scenario", str(pipeline["scenario"]), "--mesh",
            str(pipeline["mesh_path"]), "--out", str(tmp_path / "rec")]
    out = python("import sys\nfrom meshgaze.cli import main\n"
                 f"assert main({argv!r}) == 0\n"
                 "print('numpy.ma' in sys.modules)\n")
    assert out == ["False"]
    for name in ("s00.csv", "s01.csv", "targets.json"):
        assert (tmp_path / "rec" / name).read_bytes() == \
            (pipeline["rec"] / name).read_bytes()


def _require_openblas_thread_count():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("threads are counted in /proc/self/task, which only Linux has")
    blas = (getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
            .get("blas", {}).get("name", ""))
    if "openblas" not in blas:
        pytest.skip(f"numpy's BLAS is {blas or 'unknown'}, not OpenBLAS")


def test_cli_import_restores_caller_blas_env():
    """meshgaze.cli sets OPENBLAS_NUM_THREADS=1 only while numpy loads: the
    host process's environment keeps the caller's value, or its absence,
    for the processes it starts, and OpenBLAS still runs one thread."""
    _require_openblas_thread_count()
    code = ("import os, meshgaze.cli\n"
            "print(repr(os.environ.get('OPENBLAS_NUM_THREADS')), "
            "len(os.listdir('/proc/self/task')))\n")
    assert python(code, OPENBLAS_NUM_THREADS=None) == ["None 1"]
    assert python(code, OPENBLAS_NUM_THREADS="2") == ["'2' 1"]


def test_cli_import_freezes_its_objects_and_restores_gc(tmp_path):
    """Importing meshgaze.cli runs with the cyclic GC off, moves what it
    made to the GC's permanent generation, and leaves the GC on or off as
    the caller had it, also when one of its imports raises."""
    code = ("import gc\n{}\nfrozen = gc.get_freeze_count()\n"
            "import meshgaze.cli\n"
            "print(frozen, gc.isenabled(), gc.get_freeze_count() > 0)\n")
    assert python(code.format("")) == ["0 True True"]
    assert python(code.format("gc.disable()")) == ["0 False True"]

    shutil.copytree(os.path.join(SRC, "meshgaze"), tmp_path / "meshgaze",
                    ignore=shutil.ignore_patterns("__pycache__"))
    synth = tmp_path / "meshgaze" / "synth.py"
    synth.write_text(synth.read_text()
                     + "raise RuntimeError('synth is broken')\n")
    broken = ("import gc\n{}\ntry:\n    import meshgaze.cli\n"
              "except RuntimeError as exc:\n    print(exc, gc.isenabled())\n")
    assert python(broken.format(""), PYTHONPATH=str(tmp_path)) == [
        "synth is broken True"]
    assert python(broken.format("gc.disable()"), PYTHONPATH=str(tmp_path)) == [
        "synth is broken False"]


def test_package_import_leaves_numpy_unloaded():
    """`import meshgaze` resolves its names on first use: it loads no numpy
    and leaves the BLAS thread count to the caller."""
    out = python("import os, sys, meshgaze\n"
                 "print('numpy' in sys.modules, "
                 "'OPENBLAS_NUM_THREADS' in os.environ)\n"
                 "from meshgaze import Mesh\n"
                 "print('numpy' in sys.modules, Mesh.__module__)\n",
                 OPENBLAS_NUM_THREADS=None)
    assert out == ["False False", "True meshgaze.mesh"]


def test_every_exported_name_resolves():
    """Each name in meshgaze.__all__ resolves in a fresh interpreter to the
    object of that name in the submodule the lazy export table gives, and
    no name is listed under two submodules."""
    assert len(meshgaze._SOURCE) == sum(map(len, meshgaze._EXPORTS.values()))
    out = python("import sys, meshgaze\n"
                 "missing = [n for n in meshgaze.__all__ if not hasattr(meshgaze, n)]\n"
                 "wrong = [n for n in meshgaze.__all__[1:] if getattr(meshgaze, n)\n"
                 "         is not vars(sys.modules['meshgaze.' + meshgaze._SOURCE[n]])[n]]\n"
                 "print(len(meshgaze.__all__), missing, wrong)\n")
    assert out == [f"{len(meshgaze.__all__)} [] []"]


def test_cli_import_runs_one_blas_thread():
    """The CLI overrides a caller's OPENBLAS_NUM_THREADS: OpenBLAS starts no
    worker thread, so the process has one thread after the import."""
    _require_openblas_thread_count()
    count = "import os, {}\nprint(len(os.listdir('/proc/self/task')))\n"
    assert python(count.format("meshgaze.cli"), OPENBLAS_NUM_THREADS="2") == ["1"]
    if len(os.sched_getaffinity(0)) >= 2:       # the count can tell 1 from 2
        assert python(count.format("numpy"), OPENBLAS_NUM_THREADS="2") == ["2"]
