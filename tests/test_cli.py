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
from meshgaze.evaluation import (bias_study, direction_dependence_study,
                                 evaluate_views, inter_observer_study,
                                 left_preference_study, metric_cc, metric_kl,
                                 metric_se, saccade_study, weighted_eval)
from meshgaze.fdm import (load_map_csv, pose_buckets, pose_groups, save_map_csv,
                          splat_fdm)
from meshgaze.fixation import Fixations, load_fixations
from meshgaze.gaze import Recording, load_recording, save_recording
from meshgaze.mesh import bounding_box_diagonal, load_mesh, save_ply
from meshgaze.primitives import bumpy_sphere, icosphere
from meshgaze.saliency import baseline_curvature_saliency, saliency_map
from meshgaze.synth import SyntheticScenario, scenario_to_json
from meshgaze.visibility import ViewPose, camera_from_config, load_visibility

HEX12 = re.compile(r"^[0-9a-f]{12}$")
BUCKET = re.compile(r"^-?\d+_-?\d+_-?\d+_a\d+_e\d+$")
SRC = os.path.dirname(os.path.dirname(meshgaze.__file__))


def run(*argv):
    """main(argv); when it returns 1, every byte and directory under the
    nearest existing directory above --out is as it was before the run."""
    argv = [str(a) for a in argv]
    if "--out" not in argv:
        return main(argv)
    watched = os.path.dirname(os.path.abspath(argv[argv.index("--out") + 1]))
    while not os.path.isdir(watched):
        watched = os.path.dirname(watched)
    before = tree_bytes(watched)
    code = main(argv)
    if code == 1:
        assert tree_bytes(watched) == before, f"a failed run changed {watched}"
    return code


def tree_bytes(root):
    """{path relative to root: file bytes, or None for a directory}."""
    tree = {}
    for path, dirs, files in os.walk(root):
        rel = os.path.relpath(path, root)
        tree.update((os.path.join(rel, d), None) for d in dirs)
        for name in files:
            with open(os.path.join(path, name), "rb") as fh:
                tree[os.path.join(rel, name)] = fh.read()
    return tree


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
    recording = load_recording(rec / "s00.csv")
    assert len(recording) == 240        # 2 s at 120 Hz


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


@pytest.mark.parametrize("seed, named", [
    ("11, \"seed\": 12", "duplicate key 'seed'"),
    ("1" * 5000, "Exceeds the limit (4300 digits)"),
], ids=["seed-twice", "seed-of-5000-digits"])
def test_synth_rejects_a_repeated_or_unparsable_scenario_field(
        pipeline, tmp_path, capsys, seed, named):
    """A field given twice is an error naming it, where json.loads alone
    kept the last "seed" and synth exited 0; an integer too long for int()
    is one `error:` line, where it ended in a ValueError traceback."""
    text = scenario_to_json(SyntheticScenario(
        mesh_id="ball", targets=pipeline["targets"], duration_s=1.0,
        subjects=1, seed=11))
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace('"seed": 11', f'"seed": {seed}'))
    out = tmp_path / "out"
    assert run("synth", "--scenario", bad, "--mesh", pipeline["mesh_path"],
               "--out", out) == 1
    assert named in assert_one_error_line(capsys)
    assert not out.exists()


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
    recording = Recording(t=np.arange(20) / 120.0,
                          p=np.tile([0.0, 1.6, -1.5], (20, 1)),
                          o=np.tile([0.0, 180.0, 0.0], (20, 1)),
                          s=np.zeros((20, 2)))
    rec = tmp_path / "rec"
    rec.mkdir()
    save_recording(rec / "away.csv", recording)
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


@pytest.mark.parametrize("good, bad", [("a", "b"), ("b", "a")],
                         ids=["bad-later", "bad-first"])
def test_process_bad_recording_makes_no_out(pipeline, tmp_path, capsys,
                                            good, bad):
    """A bad recording, after a good one or before it, ends in one `error:`
    line and leaves no --out behind; the good one's fixation CSV used to be
    left there with no summary.json, and a bad first one an empty --out."""
    rec = tmp_path / "rec"
    rec.mkdir()
    shutil.copy(pipeline["rec"] / "s00.csv", rec / f"{good}.csv")
    (rec / f"{bad}.csv").write_text("t,px,py,pz,ox,oy,oz,sx,sy\n"
                               "0.0,0.0,1.6,-1.5,0.0,0.0,0.0,0.0,0.0\n"
                               "0.1,0.0,1.6,-1.5,0.0,0.0,0.0,0.9,0.0\n")
    out = tmp_path / "fix"
    assert run("process", "--mesh", pipeline["mesh_path"], "--recordings", rec,
               "--out", out) == 1
    assert "row 1: eye offset exceeds" in assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_process_rw_sigma_out_of_reach_is_one_error(pipeline, tmp_path, capsys):
    """An rw_sigma so small that a cluster point reaches no other one ends
    in one `error:` line naming it and no --out; it used to exit 0 with a
    numpy warning and each such centre silently the cluster's first point."""
    scenario = SyntheticScenario(mesh_id="ball", targets=pipeline["targets"],
                                 duration_s=1.0, noise_deg=0.5, subjects=1,
                                 seed=11)
    (tmp_path / "scenario.json").write_text(scenario_to_json(scenario))
    rec, out = tmp_path / "rec", tmp_path / "fix"
    assert run("synth", "--scenario", tmp_path / "scenario.json", "--mesh",
               pipeline["mesh_path"], "--out", rec) == 0
    assert run("process", "--mesh", pipeline["mesh_path"], "--recordings",
               rec, "--out", tmp_path / "fix_default") == 0
    assert run("process", "--mesh", pipeline["mesh_path"], "--recordings",
               rec, "--out", out, "--set", "rw_sigma=1e-5") == 1
    assert "rw_sigma 1e-05 is too small" in assert_one_error_line(capsys)
    assert not out.exists()


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
    np.testing.assert_array_equal(values, expect)

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

    a_w = [3, 2]
    scores = {"cc": [metric_cc(g1, r1, mask1), metric_cc(g2, r2)],
              "se": [metric_se(g1, r1, mask1), metric_se(g2, r2)],
              "kl": [metric_kl(g1, r1, mask1), metric_kl(g2, r2)]}
    for k, pid in enumerate(("m1", "m2")):
        view = report["views"][pid]
        for metric in ("cc", "se", "kl"):
            assert view[metric] == pytest.approx(scores[metric][k], abs=1e-12)
        assert view["A_w"] == a_w[k]
    assert report["views"]["m1"]["cc"] == pytest.approx(1.0, abs=1e-12)
    for metric in ("cc", "se", "kl"):
        expect = weighted_eval(a_w, scores[metric])
        assert report["aggregate"][f"E_{metric}"] == pytest.approx(expect,
                                                                   abs=1e-12)

    # the library call on the same arrays writes the report's body, and its
    # aggregate is sum(A_w * score) / sum(A_w) written out by hand
    body = evaluate_views([("m1", g1, r1, mask1, 3), ("m2", g2, r2, None, 2)],
                          RunConfig())
    assert body == {"views": report["views"], "aggregate": report["aggregate"]}
    for metric in ("cc", "se", "kl"):
        a, x = a_w, scores[metric]
        expect = (a[0] * x[0] + a[1] * x[1]) / (a[0] + a[1])
        assert body["aggregate"][f"E_{metric}"] == pytest.approx(expect,
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


def test_saliency_poses_file_indented_comment(pipeline, tmp_path):
    """A '#' line is skipped whatever blanks come before the '#', as in a
    config file; before, '  # note' was read as a pose and rejected."""
    poses = tmp_path / "poses.txt"
    poses.write_text("  # note\n0 1.6 -1.5 0 0 0\n\t#\n   \n")
    out = tmp_path / "sal"
    assert run("saliency", "--mesh", pipeline["mesh_path"],
               "--poses", poses, "--out", out) == 0
    assert len([n for n in os.listdir(out) if n.endswith(".csv")]) == 1


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps_frac", ["1e-300", "1e308"])
def test_baseline_scale_out_of_range_is_one_error(pipeline, tmp_path, capsys,
                                                  eps_frac):
    """A baseline_eps_frac whose Gaussian scales square to 0, or whose 2 sigma
    cutoff overflows, ends in one `error:` line naming it, and the prefix's
    directory is not made; 1e-300 used to exit 0 with NaN rows after
    `invalid value` warnings, and 1e308 to end in `radius must be positive
    and finite`."""
    assert run("baseline", "--mesh", pipeline["mesh_path"], "--out",
               tmp_path / "x" / "c", "--set", f"baseline_eps_frac={eps_frac}") == 1
    err = assert_one_error_line(capsys)
    assert f"baseline_eps_frac {float(eps_frac)!r} is out of range" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.filterwarnings("error")
def test_baseline_of_a_zero_extent_mesh_is_one_error(tmp_path, capsys):
    """A mesh whose vertices coincide has a bounding-box diagonal of 0, so
    every baseline scale is 0: the one `error:` line names the diagonal,
    not the default baseline_eps_frac, and the prefix's directory is not
    made."""
    mesh = tmp_path / "d.obj"
    mesh.write_text("v 0 1.5 0\nv 0 1.5 0\nv 0 1.5 0\nf 1 2 3\n")
    assert run("baseline", "--mesh", mesh, "--out", tmp_path / "b" / "c") == 1
    err = assert_one_error_line(capsys)
    assert "bounding-box diagonal is 0" in err and "baseline_eps_frac" not in err
    assert not (tmp_path / "b").exists()


# ---------------------------------------------------------------------------
# analyze

def test_analyze_rejects_two_meshes_of_one_stem(pipeline, tmp_path, capsys):
    """m.obj and m.ply in --mesh-dir are an error naming both files; the
    listing kept the later name, so analyze exited 0 on m.ply alone."""
    mesh_dir, fix_root = tmp_path / "meshes", tmp_path / "fixations"
    mesh_dir.mkdir()
    mesh = pipeline["mesh"]
    (mesh_dir / "m.obj").write_text(
        "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist())
        + "".join(f"f {a} {b} {c}\n" for a, b, c in
                  (mesh.triangles + 1).tolist()))
    shutil.copy(pipeline["mesh_path"], mesh_dir / "m.ply")
    shutil.copytree(pipeline["fix"], fix_root / "m")
    out = tmp_path / "reports"
    assert run("analyze", "--mesh-dir", mesh_dir, "--fixations", fix_root,
               "--out", out) == 1
    err = assert_one_error_line(capsys)
    assert str(mesh_dir / "m.obj") in err and str(mesh_dir / "m.ply") in err
    assert not out.exists()


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


def test_readme_library_snippet_runs(pipeline, tmp_path, monkeypatch, capsys):
    """The README's "Library use" snippet, run as written on a quick-start
    mesh and recording, gives the fixations process wrote and a self-
    correlation of 1."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    library = readme[readme.index("## Library use"):]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    shutil.copy(pipeline["mesh_path"], tmp_path / "ball.ply")
    shutil.copytree(pipeline["rec"], tmp_path / "recs")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    n, cc = capsys.readouterr().out.split()
    fixations = load_fixations(pipeline["fix"] / "s00.csv")
    assert int(n) == len(fixations) > 0 and float(cc) == 1.0
    for name in ("recording", "cluster", "position", "pose_p", "pose_o",
                 "duration", "weight"):
        assert np.array_equal(getattr(scope["fixations"], name),
                              getattr(fixations, name)), name


def test_readme_evaluate_views_snippet_runs(capsys):
    """The README's evaluate_views snippet prints the visitor-weighted CC:
    (3 * the front view's CC on its seen vertices + 1 * 1) / 4."""
    with open(os.path.join(os.path.dirname(SRC), "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    snippet, = [s for s in re.findall(r"```python\n(.*?)```", readme, re.S)
                if "evaluate_views" in s]
    scope = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    dg, dr = (x - x.mean() for x in (scope["g"][scope["seen"]],
                                      scope["r"][scope["seen"]]))
    cc_front = np.sum(dg * dr) / np.sqrt(np.sum(dg * dg) * np.sum(dr * dr))
    assert float(capsys.readouterr().out) == pytest.approx(
        (3 * cc_front + 1 * 1.0) / 4, abs=1e-12)


def test_analyze_leaves_out_undefined_map_correlations(pipeline, tmp_path):
    """At sigma_fdm=1e-4 no fixation reaches a vertex, so every map is
    constant and no pair has a correlation: both the inter-observer and the
    direction study leave those pairs out and skip, and all six reports are
    written.  The direction study used to end analyze in `error: undefined
    correlation` after three of them."""
    mesh_dir, fix_root = tmp_path / "meshes", tmp_path / "fixations"
    mesh_dir.mkdir()
    rows = "".join(f"s00,{k},0.01,0.02,-0.99,{0.3 * k},1.6,-1.5,0.0,0.0,0.0,"
                   "0.5,3\n" for k in range(12))     # 12 pose buckets, one height
    for name in ("a", "b"):
        shutil.copy(pipeline["mesh_path"], mesh_dir / f"{name}.ply")
        (fix_root / name).mkdir(parents=True)
        (fix_root / name / "s00.csv").write_text(
            ",".join(["recording_id", "cluster_id", "x", "y", "z", "px", "py",
                      "pz", "ox", "oy", "oz", "duration", "weight"]) + "\n" + rows)
    out = tmp_path / "reports"
    assert run("analyze", "--mesh-dir", mesh_dir, "--fixations", fix_root,
               "--out", out, "--set", "sigma_fdm=1e-4") == 0
    assert sorted(os.listdir(out)) == [
        "bias.json", "direction_dependence.csv", "direction_dependence.json",
        "inter_observer.json", "left_preference.json", "saccade.json"]
    inter = read_json(out / "inter_observer.json")
    assert inter["cross_mesh_pairs"] == 0 and "skipped" in inter
    per_mesh = read_json(out / "direction_dependence.json")["per_mesh"]
    assert sorted(per_mesh) == ["a", "b"]
    for entry in per_mesh.values():
        assert entry["maps"] == 12
        assert entry["skipped"] == ("not enough pose pairs within the angle "
                                    "limit (66 left out: undefined map correlation)")
    assert (out / "direction_dependence.csv").read_text() == \
        "mesh,correlation,abs_correlation\n"


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


def test_evaluate_rejects_a_repeated_pose_id_in_weights(tmp_path, capsys):
    """A pose id given twice in weights.json is an error naming it; json.loads
    alone kept the last weight, so E weighed view m1 by 7 and exited 0."""
    for d in ("gt", "preds"):
        (tmp_path / d).mkdir()
        save_map_csv(tmp_path / d / "m1.csv", [0.5, 0.25, 0.75, 0.1])
        save_map_csv(tmp_path / d / "m2.csv", [0.1, 0.75, 0.25, 0.5])
    (tmp_path / "gt" / "weights.json").write_text('{"m1": 1, "m2": 2, "m1": 7}')
    out = tmp_path / "r.json"
    assert run("evaluate", "--ground-truth", tmp_path / "gt", "--predictions",
               tmp_path / "preds", "--out", out) == 1
    assert "duplicate key 'm1'" in assert_one_error_line(capsys)
    assert not out.exists() and not (tmp_path / "r.csv").exists()


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


@pytest.mark.parametrize("verb", ["fdm", "analyze"])
@pytest.mark.parametrize("key", ["pose_grid_m=1e-309",
                                 "pose_angle_bin_deg=1e-320",
                                 "pose_grid_m=1e-80"],
                         ids=["grid", "angle", "grid-fine"])
def test_pose_bins_beyond_float_range_are_an_error(pipeline, tmp_path, capsys,
                                                   verb, key):
    """A pose grid or angle bin so fine that a bin index or the azimuth bin
    count overflows is one `error:` line naming the key; it used to end in
    an OverflowError traceback from int(inf), or, for bins fine but finite,
    in `File name too long` for the bucket's output file."""
    fix = tmp_path / "fix" / "ball"
    fix.mkdir(parents=True)
    (fix / "s00.csv").write_text(
        "recording_id,cluster_id,x,y,z,px,py,pz,ox,oy,oz,duration,weight\n"
        "s00,0,0.0,1.5,-0.3,1.0,1.6,-1.5,0.0,0.0,0.0,0.5,3\n")
    out = tmp_path / "out"
    if verb == "fdm":
        argv = ["fdm", "--mesh", pipeline["mesh_path"], "--fixations", fix,
                "--out", out, "--by-pose"]
    else:
        mesh_dir = tmp_path / "meshes"
        mesh_dir.mkdir()
        shutil.copy(pipeline["mesh_path"], mesh_dir / "ball.ply")
        argv = ["analyze", "--mesh-dir", mesh_dir, "--fixations",
                tmp_path / "fix", "--out", out]
    assert run(*argv, "--set", key) == 1
    err = assert_one_error_line(capsys)
    assert "pose bins overflow" in err and key.split("=")[0] in err


def test_failed_rerun_leaves_the_good_run_as_it_was(pipeline, tmp_path,
                                                    capsys):
    """A rerun into an --out that holds a good run and fails after its first
    report leaves that run byte-identical (run() compares the trees); analyze
    used to have rewritten inter_observer.json by then."""
    mesh_dir, fix_root = tmp_path / "meshes", tmp_path / "fix"
    mesh_dir.mkdir()
    for name in ("a", "b"):                     # two meshes: a t statistic
        shutil.copy(pipeline["mesh_path"], mesh_dir / f"{name}.ply")
    shutil.copytree(pipeline["fix"], fix_root / "a")
    (fix_root / "b").mkdir()
    for rec, vertex in (("s00", 5), ("s01", 40)):
        x, y, z = pipeline["mesh"].vertices[vertex].tolist()
        (fix_root / "b" / f"{rec}.csv").write_text(
            "recording_id,cluster_id,x,y,z,px,py,pz,ox,oy,oz,duration,weight\n"
            f"{rec},0,{x!r},{y!r},{z!r},0.0,1.6,-1.5,0.0,0.0,0.0,0.5,3\n")
    argv = ["analyze", "--mesh-dir", mesh_dir, "--fixations", fix_root,
            "--out", tmp_path / "out"]
    assert run(*argv) == 0
    assert "t" in read_json(tmp_path / "out" / "inter_observer.json")
    assert run(*argv, "--set", "sigma_fdm=0.08",
               "--set", "pose_grid_m=1e-300") == 1
    assert "pose bins overflow" in assert_one_error_line(capsys)


@pytest.mark.parametrize("verb", ["saliency", "analyze"])
def test_negative_seed_is_an_error(pipeline, tmp_path, capsys, verb):
    """A negative seed is a config error: with uniqueness subsampled, or in
    analyze's direction study, it used to end in a ValueError traceback
    from np.random.default_rng, and otherwise it was accepted with exit 0."""
    out = tmp_path / "out"
    if verb == "saliency":
        argv = ["saliency", "--mesh", pipeline["mesh_path"], "--pose",
                "0,1.5,-1.2,0,0,0", "--out", out,
                "--set", "uniqueness_exact_limit=10",
                "--set", "uniqueness_sample_size=5"]
    else:
        mesh_dir = tmp_path / "meshes"
        mesh_dir.mkdir()
        shutil.copy(pipeline["mesh_path"], mesh_dir / "ball.ply")
        shutil.copytree(pipeline["fix"], tmp_path / "fix" / "ball")
        argv = ["analyze", "--mesh-dir", mesh_dir, "--fixations",
                tmp_path / "fix", "--out", out]
    assert run(*argv, "--set", "seed=-1") == 1
    assert "seed must be >= 0" in assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb, setting, named", [
    ("saliency", "cam_near=inf", "cam_near must be a finite number, got inf"),
    ("saliency", "depth_tol_frac=inf", "depth_tol_frac must be a finite number"),
    ("saliency", "mesh_scale=inf", "mesh_scale must be a finite number"),
    ("synth", "d_screen=inf", "d_screen must be a finite number"),
    ("synth", "cluster_interval=inf", "cluster_interval must be a finite number"),
    ("synth", None, "radius must be positive and at most 1e+09"),
])
def test_setting_out_of_its_domain_is_one_error(pipeline, tmp_path, capsys,
                                                verb, setting, named):
    """An infinite setting, or an orbit radius of 1e200, ends in one `error:`
    line naming it and no numpy warning; cam_near=inf and the others used
    to exit 0, mesh_scale=inf to warn from numpy first, and radius=1e200
    to end in an OverflowError traceback."""
    out = tmp_path / "out"
    if verb == "saliency":
        argv = ["saliency", "--mesh", pipeline["mesh_path"], "--pose",
                "0,1.5,-1.2,0,0,0", "--out", out]
    else:
        scenario = pipeline["scenario"]
        if setting is None:
            raw = json.loads(scenario.read_text())
            raw["radius"] = 1e200
            scenario = tmp_path / "far.json"
            scenario.write_text(json.dumps(raw))
        argv = ["synth", "--scenario", scenario, "--mesh",
                pipeline["mesh_path"], "--out", out]
    if setting is not None:
        argv += ["--set", setting]
    assert run(*argv) == 1
    assert named in assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("radius, setting, named", [
    (0.01, None, "orbit radius must exceed the height offset"),
    (None, "d_screen=1e308", "exceeds the screen half-extent"),
], ids=["radius", "d_screen"])
def test_synth_rejected_scenario_makes_no_out(pipeline, tmp_path, capsys,
                                              radius, setting, named):
    """A scenario that generate_recording rejects ends in one `error:` line
    and leaves no --out behind; both used to leave an empty directory."""
    scenario, out = pipeline["scenario"], tmp_path / "out"
    if radius is not None:
        raw = json.loads(scenario.read_text())
        raw["radius"] = radius
        scenario = tmp_path / "near.json"
        scenario.write_text(json.dumps(raw))
    argv = ["synth", "--scenario", scenario, "--mesh", pipeline["mesh_path"],
            "--out", out] + (["--set", setting] if setting else [])
    assert run(*argv) == 1
    assert named in assert_one_error_line(capsys)
    assert not out.exists()


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


@pytest.mark.parametrize("setting, named", [
    ("sigma_c=1e-160", "sigma_c must be positive, with 2 sigma_c^2 a normal "
                       "float, got 1e-160"),
    ("sigma_c=1e-308", "got 1e-308"),
    ("mesh_scale=1e308", "non-finite vertex coordinate"),
])
def test_extreme_finite_setting_is_one_error_under_warning_errors(
        pipeline, tmp_path, setting, named):
    """A finite setting that overflows inside numpy ends in one `error:`
    line in a process run with -W error::RuntimeWarning, so no numpy
    warning is raised on the way: sigma_c=1e-160 used to warn `overflow
    encountered in divide` and exit 0 with an all-zero map, 1e-308 to warn
    `divide by zero`, and mesh_scale=1e308 to warn `overflow encountered
    in multiply` before its error."""
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "meshgaze.cli",
         "saliency", "--mesh", str(pipeline["mesh_path"]), "--pose",
         "0,1.6,-1.5,0,0,0", "--out", str(out), "--set", setting],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert named in proc.stderr
    assert not out.exists()


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
    assert not out.exists()


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


def test_traced_saliency_records_its_kernel_spans(pipeline, tmp_path):
    """A traced verb process (launch.py --spans) wraps the kernels of modules
    that meshgaze.cli only registered: the tracer's lookups run them, so a
    traced `saliency` records the map, FPFH, uniqueness and visibility
    spans with their work counts."""
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, os.path.join(perfbench, "launch.py"),
                    "--spans", str(spans), "saliency", "--mesh",
                    str(pipeline["mesh_path"]), "--pose", "0,1.6,-1.5,0,0,0",
                    "--out", str(tmp_path / "sal")],
                   check=True, capture_output=True, timeout=120)
    record = read_json(spans)
    assert record["unmeasured"] == []
    counts = {}
    for name, start, end, parent, count in record["spans"]:
        assert end >= start
        counts.setdefault(name, []).append(count)
    assert counts["saliency.map"] == [None]
    [vis] = counts["visibility.visible"]
    [fpfh] = counts["saliency.fpfh"]
    [uniq] = counts["saliency.uniqueness"]
    assert vis["triangles"] == len(pipeline["mesh"].triangles)
    assert 0 < vis["visible"] == fpfh["points"]
    assert uniq == {"cells": vis["visible"] ** 2, "subsampled": 0}


def test_tracer_counts_the_rays_and_hits_of_trace_samples(pipeline):
    """perfbench's gaze.rays and gaze.hit_frac count trace_samples' pairs,
    one per sample and a point for each hit, and fixation.fixations the
    rows of extract_fixations' table; a change to either shape would leave
    those metrics null or skewed.  Every third sample of the first half
    faces away from the mesh, so the recording has hits and misses, and
    the second half has fixations."""
    perfbench = os.path.join(os.path.dirname(SRC), "perfbench")
    out = python("import json, sys\n"
                 f"sys.path.insert(0, {perfbench!r})\n"
                 "import numpy as np\n"
                 "import tracing\n"
                 "from meshgaze.config import RunConfig\n"
                 "from meshgaze.fixation import extract_fixations\n"
                 "from meshgaze.gaze import (Recording, cast_hits, "
                 "load_recording, sightlines, trace_samples)\n"
                 "from meshgaze.mesh import load_mesh\n"
                 f"r = load_recording({str(pipeline['rec'] / 's00.csv')!r})\n"
                 "o = r.o.copy()\n"
                 "o[:len(o) // 2:3] += [0.0, 180.0, 0.0]\n"
                 "r = Recording(r.t, r.p, o, r.s)\n"
                 f"mesh = load_mesh({str(pipeline['mesh_path'])!r})\n"
                 "cfg = RunConfig()\n"
                 "d = cfg.d_screen\n"
                 "points = cast_hits(mesh, *sightlines(r.p, r.o, r.s, d))\n"
                 "hits = int((~np.isnan(points).any(axis=1)).sum())\n"
                 "traced = trace_samples(r, mesh, d)\n"
                 "counts = tracing._trace_counts(traced)\n"
                 "result = extract_fixations(r, traced, cfg)\n"
                 "fixations = tracing._fixation_counts(result)\n"
                 "print(json.dumps([counts, len(r), hits, fixations, "
                 "len(result[0])]))\n")
    counts, rays, hits, fixations, rows = json.loads(out[0])
    assert counts == {"rays": rays, "hits": hits}
    assert 0 < hits < rays
    assert fixations == {"fixations": rows} and rows > 0


def test_cli_import_leaves_scipy_unloaded(pipeline, tmp_path):
    """The runtime is numpy-only: no verb loads any scipy module.  A pooled
    fdm run splats by a direct distance pass, saliency and the baseline
    find neighbors with radius_pair_blocks, and the Welch test computes its
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


# The meshgaze modules each process runs: meshgaze.cli registers its
# submodules lazily, so a verb compiles and runs only what it calls.
SETUP_MODULES = ["bvh", "cli", "config", "io", "mesh"]
VERB_MODULES = {
    "synth": ["gaze", "synth"],
    "process": ["fixation", "gaze"],
    "fdm": ["fdm", "fixation", "gaze", "visibility"],
    "fdm_by_pose": ["fdm", "fixation", "gaze", "visibility"],
    "saliency": ["fdm", "gaze", "saliency", "visibility"],
    "baseline": ["fdm", "gaze", "saliency", "visibility"],
    "evaluate": ["evaluation", "fdm", "fixation", "gaze", "visibility"],
    "analyze": ["evaluation", "fdm", "fixation", "gaze", "visibility"],
}
# The verbs that load OpenSSL's libcrypto (about 3 MB and 3 ms) through
# hashlib: numpy.random imports it through secrets.  Pose ids hash with
# the interpreter's builtin _sha1, so loading visibility does not.
OPENSSL_VERBS = {"synth"}
RAN = ("import sys, types\n"
       "print(' '.join(sorted(name[len('meshgaze.'):] for name, module\n"
       "                      in sys.modules.items()\n"
       "                      if name.startswith('meshgaze.')\n"
       "                      and type(module) is types.ModuleType)))\n")


def test_setup_probe_runs_only_the_mesh_modules(pipeline):
    """What every verb pays first -- import meshgaze.cli, load a mesh, build
    its normals and BVH -- runs cli, config, io, mesh and bvh; a module
    merely registered is still a LazyLoader module, not a ModuleType.  A
    registered module is an attribute of the package, as after an import."""
    out = python("import meshgaze.cli\n" + RAN + "import meshgaze.mesh\n"
                 "mesh = meshgaze.mesh.load_mesh("
                 f"{str(pipeline['mesh_path'])!r})\n"
                 "mesh.normals, mesh.bvh\n" + RAN)
    assert out == ["cli", " ".join(SETUP_MODULES)]
    # a module imported before meshgaze.cli is kept, not replaced and run again
    assert python("import meshgaze.mesh as first, meshgaze.cli\n"
                  "print(meshgaze.cli._mesh is first is meshgaze.mesh)\n") \
        == ["True"]


@pytest.mark.parametrize("verb", sorted(VERB_MODULES))
def test_verb_runs_only_the_modules_it_uses(pipeline, tmp_path, verb):
    """Each verb of the quick-start pipeline runs the set-up modules plus
    exactly the ones it calls into, loads OpenSSL only if it draws random
    numbers (saliency takes the exact path here), and writes the same bytes
    as the in-process run of the shared pipeline where both made a file."""
    mesh, out = str(pipeline["mesh_path"]), str(tmp_path / "out")
    if verb == "analyze":
        mesh_dir = tmp_path / "meshes"
        mesh_dir.mkdir()
        shutil.copy(pipeline["mesh_path"], mesh_dir / "ball.ply")
        shutil.copytree(pipeline["fix"], tmp_path / "fix" / "ball")
    argv = {
        "synth": ["synth", "--scenario", str(pipeline["scenario"]), "--mesh",
                  mesh, "--out", out],
        "process": ["process", "--mesh", mesh, "--recordings",
                    str(pipeline["rec"]), "--out", out],
        "fdm": ["fdm", "--mesh", mesh, "--fixations", str(pipeline["fix"]),
                "--out", out],
        "fdm_by_pose": ["fdm", "--mesh", mesh, "--fixations",
                        str(pipeline["fix"]), "--out", out, "--by-pose"],
        "saliency": ["saliency", "--mesh", mesh, "--pose", "0,1.6,-1.5,0,0,0",
                     "--out", out],
        "baseline": ["baseline", "--mesh", mesh, "--out", out + "/curvature"],
        "evaluate": ["evaluate", "--ground-truth", str(pipeline["gt"]),
                     "--predictions", str(pipeline["gt"]), "--out",
                     out + "/report.json"],
        "analyze": ["analyze", "--mesh-dir", str(tmp_path / "meshes"),
                    "--fixations", str(tmp_path / "fix"), "--recordings",
                    str(pipeline["rec"]), "--out", out],
    }[verb]
    ran = python("from meshgaze.cli import main\n"
                 f"assert main({argv!r}) == 0\n" + RAN
                 + "print('_hashlib' in sys.modules)\n")
    assert ran == [" ".join(sorted(SETUP_MODULES + VERB_MODULES[verb])),
                   str(verb in OPENSSL_VERBS)]
    made = {"synth": "rec", "process": "fix", "fdm": "fdm",
            "fdm_by_pose": "gt"}.get(verb)
    if made is not None:
        for name in sorted(os.listdir(out)):
            assert (tmp_path / "out" / name).read_bytes() == \
                (pipeline[made] / name).read_bytes(), name


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
    the caller had it, also when one of its imports raises (here numpy,
    shadowed on PYTHONPATH by a package that raises)."""
    code = ("import gc\n{}\nfrozen = gc.get_freeze_count()\n"
            "import meshgaze.cli\n"
            "print(frozen, gc.isenabled(), gc.get_freeze_count() > 0)\n")
    assert python(code.format("")) == ["0 True True"]
    assert python(code.format("gc.disable()")) == ["0 False True"]

    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(
        "raise RuntimeError('numpy is broken')\n")
    broken = ("import gc\n{}\ntry:\n    import meshgaze.cli\n"
              "except RuntimeError as exc:\n    print(exc, gc.isenabled())\n")
    path = os.pathsep.join([str(tmp_path), SRC])
    assert python(broken.format(""), PYTHONPATH=path) == [
        "numpy is broken True"]
    assert python(broken.format("gc.disable()"), PYTHONPATH=path) == [
        "numpy is broken False"]


def test_cli_runs_a_submodule_only_when_a_verb_uses_it(pipeline, tmp_path):
    """meshgaze.cli registers its submodules without running them: with a
    synth.py that raises, the import and `baseline` succeed, and `synth`
    raises that module's error when it first uses it."""
    shutil.copytree(os.path.join(SRC, "meshgaze"), tmp_path / "meshgaze",
                    ignore=shutil.ignore_patterns("__pycache__"))
    synth = tmp_path / "meshgaze" / "synth.py"
    synth.write_text(synth.read_text()
                     + "raise RuntimeError('synth is broken')\n")
    base = ["baseline", "--mesh", str(pipeline["mesh_path"]), "--out",
            str(tmp_path / "base" / "curvature")]
    recs = ["synth", "--scenario", str(pipeline["scenario"]), "--mesh",
            str(pipeline["mesh_path"]), "--out", str(tmp_path / "rec")]
    out = python("from meshgaze.cli import main\n"
                 f"print(main({base!r}))\n"
                 f"try:\n    main({recs!r})\n"
                 "except RuntimeError as exc:\n    print(exc)\n",
                 PYTHONPATH=str(tmp_path))
    assert out == ["0", "synth is broken"]
    assert (tmp_path / "base" / "curvature.csv").exists()
    assert not (tmp_path / "rec").exists()


def test_cli_submodule_whose_first_run_raised_stays_unusable(pipeline,
                                                            tmp_path):
    """A submodule whose first run raised leaves sys.modules and the package,
    as after a failed import, and every later use of it fails too: `synth`
    raises ImportError from the first error, never returns or writes."""
    shutil.copytree(os.path.join(SRC, "meshgaze"), tmp_path / "meshgaze",
                    ignore=shutil.ignore_patterns("__pycache__"))
    synth = tmp_path / "meshgaze" / "synth.py"
    synth.write_text(synth.read_text()
                     + "raise RuntimeError('synth is broken')\n")
    recs = ["synth", "--scenario", str(pipeline["scenario"]), "--mesh",
            str(pipeline["mesh_path"]), "--out", str(tmp_path / "rec")]
    out = python("import sys, meshgaze\n"
                 "from meshgaze.cli import main\n"
                 "for _ in range(3):\n"
                 f"    try:\n        print(main({recs!r}))\n"
                 "    except Exception as exc:\n"
                 "        print(type(exc).__name__, exc, '|', exc.__cause__)\n"
                 "print('meshgaze.synth' in sys.modules, "
                 "'synth' in vars(meshgaze))\n",
                 PYTHONPATH=str(tmp_path))
    again = "ImportError meshgaze.synth raised on first use | synth is broken"
    assert out == ["RuntimeError synth is broken | None", again, again,
                   "False False"]
    assert not (tmp_path / "rec").exists()


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
