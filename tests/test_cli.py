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

import numpy as np
import pytest
from conftest import pick_visible_targets

from meshgaze import __version__
from meshgaze.cli import main
from meshgaze.config import RunConfig
from meshgaze.evaluation import (ViewScore, metric_cc, metric_kl, metric_se,
                                 weighted_eval)
from meshgaze.fdm import load_map_csv, save_map_csv, splat_fdm
from meshgaze.fixation import load_fixations
from meshgaze.gaze import PoseSample, load_recording, save_recording
from meshgaze.mesh import save_ply
from meshgaze.primitives import icosphere
from meshgaze.saliency import baseline_curvature_saliency, saliency_map
from meshgaze.synth import SyntheticScenario, scenario_to_json
from meshgaze.visibility import ViewPose, camera_from_config, load_visibility

HEX12 = re.compile(r"^[0-9a-f]{12}$")
BUCKET = re.compile(r"^-?\d+_-?\d+_-?\d+_a\d+_e\d+$")


def run(*argv):
    return main([str(a) for a in argv])


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
    assert rows
    for rec_id, cluster_id, point in rows:
        assert rec_id == "s00"
        assert cluster_id >= 0
        assert np.isfinite(point.position).all()
        assert point.duration > 0.0
        assert point.weight >= 1.0


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
    assert load_fixations(out / "away.csv") == []


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

    points = []
    for name in sorted(os.listdir(pipeline["fix"])):
        if name.endswith(".csv"):
            points += [fp for _, _, fp in load_fixations(pipeline["fix"] / name)]
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
], ids=["pred-duplicate-id", "pred-id-out-of-range", "pred-non-numeric",
        "pred-non-finite", "gt-duplicate-id", "vis-duplicate-id",
        "vis-non-numeric"])
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


def test_cli_import_leaves_scipy_unloaded(pipeline, tmp_path):
    """Verbs that never use scipy must not pay for importing it.  A pooled
    fdm run splats by a direct distance pass, and the Welch test needs
    only scipy.special, so neither loads scipy.spatial or scipy.stats."""
    import subprocess
    import sys

    import meshgaze
    from meshgaze.evaluation import inter_observer_test

    src = os.path.dirname(os.path.dirname(meshgaze.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = ("print(sorted(m for m in ('scipy.stats', 'scipy.spatial')"
              " if m in sys.modules))\n")

    def python(code):
        return subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=120).stdout.splitlines()

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
