"""Every verb on a mangled input file.

Property: with one of its input files byte-mangled, a verb either runs
(exit 0) or exits 1 with exactly one `error:` line on stderr; no exception
escapes `main`, so none can reach the user as a traceback.  The inputs are
tiny, so the whole property costs a few seconds.
"""
from __future__ import annotations

import contextlib
import io

import pytest
from conftest import pick_visible_targets
from hypothesis import given, settings
from hypothesis import strategies as st
from test_io import mangled

from meshgaze.cli import main
from meshgaze.fdm import save_map_csv
from meshgaze.mesh import save_ply
from meshgaze.primitives import icosphere
from meshgaze.synth import SyntheticScenario, scenario_to_json

FIXATIONS = ("recording_id,cluster_id,x,y,z,px,py,pz,ox,oy,oz,duration,weight\n"
             "s00,0,0.0,1.5,-0.3,0.0,1.6,-1.5,0.0,0.0,0.0,0.5,3\n"
             "s01,0,0.1,1.5,-0.28,0.2,1.6,-1.4,0.0,-8.0,0.0,0.25,2\n")

# verb -> (argv, the input files it reads); paths are relative to the workspace
VERBS = {
    "process": (["process", "--mesh", "mesh.ply", "--recordings", "rec",
                 "--out", "out"], ["mesh.ply", "rec/s00.csv"]),
    "fdm": (["fdm", "--mesh", "mesh.ply", "--fixations", "fix", "--out", "out"],
            ["mesh.ply", "fix/s00.csv"]),
    "fdm-by-pose": (["fdm", "--mesh", "mesh.ply", "--fixations", "fix",
                       "--out", "out", "--by-pose"], ["mesh.ply", "fix/s00.csv"]),
    "saliency": (["saliency", "--mesh", "mesh.ply", "--poses", "poses.txt",
                  "--out", "out"], ["mesh.ply", "poses.txt"]),
    "baseline": (["baseline", "--mesh", "mesh.ply", "--out", "out/base"],
                 ["mesh.ply"]),
    "evaluate": (["evaluate", "--ground-truth", "gt", "--predictions", "preds",
                  "--out", "out/r.json"],
                 ["gt/m1.csv", "gt/m1.vis.csv", "gt/weights.json",
                  "preds/m1.csv"]),
    "analyze": (["analyze", "--mesh-dir", "meshes", "--fixations", "afix",
                 "--recordings", "rec", "--out", "out"],
                ["meshes/m.obj", "afix/m/s00.csv", "rec/s00.csv"]),
    "synth": (["synth", "--scenario", "scenario.json", "--mesh", "mesh.ply",
               "--out", "out"], ["scenario.json", "mesh.ply"]),
}
COMMON = (["--config", "run.cfg"], ["run.cfg"])
# inputs a verb skips with a warning: analyze's movement preference is
# reported over the recordings it can read
SKIPPED = {("analyze", "rec/s00.csv")}


def run(root, verb):
    """(exit code, stderr lines) of one verb run inside the workspace."""
    err = io.StringIO()
    with (contextlib.chdir(root), contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        code = main(VERBS[verb][0] + COMMON[0])
    return code, err.getvalue().splitlines()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small valid inputs for every verb; each verb runs on them."""
    root = tmp_path_factory.mktemp("verbs")
    for d in ("rec", "fix", "gt", "preds", "meshes", "afix/m"):
        (root / d).mkdir(parents=True)
    mesh = icosphere(1)
    save_ply(mesh, root / "mesh.ply")
    (root / "meshes" / "m.obj").write_text(
        "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist())
        + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.triangles.tolist()))
    (root / "run.cfg").write_text("# run\nseed = 3\nse_variant = minmax\n")
    (root / "scenario.json").write_text(scenario_to_json(SyntheticScenario(
        mesh_id="ball", targets=pick_visible_targets(mesh, (0.0, 1.6, -1.5), 2),
        duration_s=0.5, rate_hz=20.0, dwell_s=0.25)))
    code, err = run(root, "synth")
    assert code == 0, err
    (root / "out" / "s00.csv").rename(root / "rec" / "s00.csv")
    (root / "fix" / "s00.csv").write_text(FIXATIONS)
    (root / "afix" / "m" / "s00.csv").write_text(FIXATIONS)
    (root / "poses.txt").write_text("# p, o\n0 1.6 -1.5 0 0 0\n0.2,1.5,-1.4, 10,-5,0\n")
    for d in ("gt", "preds"):
        save_map_csv(root / d / "m1.csv", [0.5, 0.25, 0.75, 0.1])
    (root / "gt" / "m1.vis.csv").write_text("vertex_id,visible\n0,1\n1,0\n2,1\n3,1\n")
    (root / "gt" / "weights.json").write_text('{"m1": 2}')
    return root


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_runs_on_the_workspace_and_fails_on_an_unreadable_file(
        workspace, verb):
    """Each verb runs on the clean workspace and reads every file listed for
    it: made non-UTF-8, each one ends the run in its error line."""
    code, err = run(workspace, verb)
    assert code == 0 and not [x for x in err if x.startswith("error:")], err
    for name in VERBS[verb][1] + COMMON[1]:
        path = workspace / name
        seed = path.read_bytes()
        path.write_bytes(b"\xff" + seed)
        try:
            code, err = run(workspace, verb)
        finally:
            path.write_bytes(seed)
        want = "warning:" if (verb, name) in SKIPPED else "error:"
        assert code == (want == "error:") and len(err) == 1, (name, err)
        assert err[0].startswith(want), (name, err)


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_verb_on_a_mangled_input_exits_with_one_error_line(workspace, verb,
                                                           data):
    name = data.draw(st.sampled_from(VERBS[verb][1] + COMMON[1]))
    path = workspace / name
    seed = path.read_bytes()
    path.write_bytes(data.draw(st.one_of(mangled(seed), st.binary(max_size=64))))
    try:
        code, err = run(workspace, verb)
    finally:
        path.write_bytes(seed)
    errors = [x for x in err if x.startswith("error:")]
    assert (code, len(errors)) in ((0, 0), (1, 1)), (name, code, err)
    assert not any("Traceback" in x for x in err)
