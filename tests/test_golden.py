"""Golden output hashes for the seeded README quick-start pipeline.

The pipeline runs through main(argv) on a procedural mesh with a fixed
scenario and seed, and every file it writes is compared by sha256.
GOLDEN covers synth -> process -> fdm, with hashes recorded before the
batched ray engine replaced the per-ray BVH walk.  QUICKSTART covers the
rest (fdm --by-pose, saliency, baseline, evaluate, analyze), with hashes
recorded when visibility moved from a z-buffer to ray casting.  A refactor
or speedup must leave these bytes unchanged; a change that alters one must
say why and give the largest absolute difference.
"""

import hashlib

from conftest import pick_visible_targets

from meshgaze.cli import main
from meshgaze.mesh import save_ply
from meshgaze.primitives import bumpy_sphere
from meshgaze.synth import SyntheticScenario, scenario_to_json

GOLDEN = {
    "fdm/fdm.csv": "95b9b2896ede4f67540e1a71b42d38699658e6613c03205c9fd8bcc784f1ddfa",
    "fdm/fdm.meta.json": "dcf65c7fa2d45ade8d5c225bf76935fe1bbdf74da47ecce18faa7b72ee165518",
    "fdm/fdm.ply": "340e227dc6744475b2d90c3af1dd050e36d950f046b158eb4d6c0ceefb268665",
    "fix/s00.csv": "2baffc769c7c07f9fb1002386431845b2854b26d93529a4310174b3bb4bfbd1a",
    "fix/s01.csv": "9a6922023529a37f13e0a6f216ba71e5e5be2b827bd0ceaa417b9d820023f98c",
    "fix/summary.json": "2fc831927df8b688793b4dcb90007083561d6cbbaede3bebacfbc40abc8b3833",
    "rec/s00.csv": "b405f32b4b6f430a57dd61cb3113dbc4c37500491912bfd65155a5e8caff4d46",
    "rec/s01.csv": "e7d6602eeb3acdd842542223d87cd7e08159b7e48a59542753c8ca307119ba70",
    "rec/targets.json": "d963cdfab7694d422aff8d8abf089f73302378c773efbf9f756d8415464808d0",
}


QUICKSTART = {
    "base/curvature.csv": "424c4ea1cedc00dba843207466ba1c767e9c62de6a8de33ac9db3f27b2653df0",
    "base/curvature.meta.json": "aa76a422656826e7dc564e1fa4c98dec5ffc4fd581cca2aba2e32a034b3cd1c7",
    "base/curvature.ply": "aa963ec0d6df7477fb6ee051ddf5b06008e7cb1c41e47f1b97d4f80040803aad",
    "gt/-1_6_-6_a2_e2.csv": "b31f0e27490c9d63726a7a14581c1b219ed7ab7a5a66133021507cdf77293065",
    "gt/-1_6_-6_a2_e2.vis.csv": "2158f350e8ce6dcab4ac56752afb068b92c17e062b739d9c7c83315f8cbf09fd",
    "gt/-2_6_-6_a2_e2.csv": "ce182049c99e2e03cbd90e0589c3994b1ca6d75ef3e45a3964c76ad592bcb5c3",
    "gt/-2_6_-6_a2_e2.vis.csv": "592a4c42bada58bc08612b29f2a3f4673513c444a176b0de1487e7dc520545cd",
    "gt/0_6_-6_a3_e2.csv": "3f05882346883fc6c8e18690a7b7bb1d54aaa03f951ccb146e5aeb027afeed79",
    "gt/0_6_-6_a3_e2.vis.csv": "f3391dde70f65f1a59858cac2459a8bbe9ee1716099dbd876316f5779d26f20b",
    "gt/1_6_-6_a3_e2.csv": "74a8d0f8bb4ce1ca653dcf65b3384e7f3e9bbbaf81ad4cf2a4c6d98a62b249d5",
    "gt/1_6_-6_a3_e2.vis.csv": "6fefe52413da3175ed979604a0a5bb217029568d10389147030549cc0b3ec794",
    "gt/gt_meta.json": "f59b9ee4c1d65b3618f1ddae45c3af32e01269fc3498d6275a874fd2ebc766bd",
    "gt/weights.json": "cc5dc36fc6d0f4e1ab79040c583d38dfe4e345b76eee0caa13b968a47fe331ad",
    "pred/f083d8a1641b.csv": "4165a2e49d8220908473e1b18ca0b67c75dbda6637916077834812d25c986b79",
    "pred/f083d8a1641b.meta.json": "6c705dd43122ac905df09845e01e518a142c7596d133ab0f4340fe50adf2c914",
    "pred/f083d8a1641b.ply": "8c76f21cddc881fae6ba0f77d1a83d0e17e31bd67d9128110929338725e284a9",
    "report/report.csv": "7232afbfe5368bcf79c51e31de33dc365a9f3db95d81b368924c489710500662",
    "report/report.json": "371b870398436445b51ff8ae2ecde8f6f06e4a54635a42c90569b494f4b18cab",
    "scores/-1_6_-6_a2_e2.csv": "424c4ea1cedc00dba843207466ba1c767e9c62de6a8de33ac9db3f27b2653df0",
    "scores/-2_6_-6_a2_e2.csv": "424c4ea1cedc00dba843207466ba1c767e9c62de6a8de33ac9db3f27b2653df0",
    "scores/0_6_-6_a3_e2.csv": "424c4ea1cedc00dba843207466ba1c767e9c62de6a8de33ac9db3f27b2653df0",
    "scores/1_6_-6_a3_e2.csv": "424c4ea1cedc00dba843207466ba1c767e9c62de6a8de33ac9db3f27b2653df0",
    "stats/bias.json": "570b4fefc3f50f5cef80d79a1c07460f27e32b183bc8c4dbd67d94d624f838a1",
    "stats/direction_dependence.csv": "3442d4f50b5dc5f2a221794976cdce25957d0b1a6dee35a763e2f76f768838db",
    "stats/direction_dependence.json":
        "4fea98a07e2c4e2102b20b0c9b33c1f64b4c975d2c32d3a19c22fb53100198aa",
    "stats/inter_observer.json": "9e8c77bee38bb74ee8acead1ea2580c3e1d49979801347395cf4f528ea84f90f",
    "stats/left_preference.json": "a4f9664c87101ac0ce84a2486590d9533a6feea5a0b01a7add5b5df9b3da16f0",
    "stats/saccade.json": "9a791b7d6ea006694c5983b355bf3921f5fcf1e295fef53e962b0932d65f66c8",
}


def _hashes(root):
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.parent != root}


def _record(root):
    """synth and process on the golden mesh; returns the mesh path."""
    mesh = bumpy_sphere(3, amplitude=0.04, seed=3)
    mesh_path = root / "bumpy.ply"
    save_ply(mesh, mesh_path)
    scenario = SyntheticScenario(
        mesh_id="bumpy", targets=pick_visible_targets(mesh, (0.0, 1.6, -1.5), 3),
        duration_s=3.0, noise_deg=0.5, subjects=2, seed=7)
    (root / "scenario.json").write_text(scenario_to_json(scenario))
    assert main(["synth", "--scenario", str(root / "scenario.json"),
                 "--mesh", str(mesh_path), "--out", str(root / "rec")]) == 0
    assert main(["process", "--mesh", str(mesh_path), "--recordings",
                 str(root / "rec"), "--out", str(root / "fix")]) == 0
    return mesh_path


def test_pipeline_outputs_match_golden_hashes(tmp_path):
    mesh_path = _record(tmp_path)
    assert main(["fdm", "--mesh", str(mesh_path), "--fixations",
                 str(tmp_path / "fix"), "--out", str(tmp_path / "fdm")]) == 0
    assert _hashes(tmp_path) == GOLDEN


def test_quickstart_outputs_match_golden_hashes(tmp_path):
    """The rest of the README quick-start on the same recordings:
    fdm --by-pose, saliency, baseline, evaluate and analyze."""
    mesh_path = str(_record(tmp_path))
    out = tmp_path / "out"
    fix = str(tmp_path / "fix")
    assert main(["fdm", "--mesh", mesh_path, "--fixations", fix,
                 "--out", str(out / "gt"), "--by-pose"]) == 0
    assert main(["saliency", "--mesh", mesh_path, "--pose", "0,1.6,-1.5,0,0,0",
                 "--out", str(out / "pred")]) == 0
    assert main(["baseline", "--mesh", mesh_path,
                 "--out", str(out / "base" / "curvature")]) == 0
    scores = out / "scores"
    scores.mkdir()
    for gt in (out / "gt").glob("*.csv"):
        if not gt.name.endswith(".vis.csv"):
            (scores / gt.name).write_bytes(
                (out / "base" / "curvature.csv").read_bytes())
    assert main(["evaluate", "--ground-truth", str(out / "gt"), "--predictions",
                 str(scores), "--out", str(out / "report" / "report.json")]) == 0
    (tmp_path / "meshes").mkdir()
    (tmp_path / "meshes" / "bumpy.ply").write_bytes(open(mesh_path, "rb").read())
    (tmp_path / "fixdir" / "bumpy").mkdir(parents=True)
    for f in (tmp_path / "fix").glob("s*.csv"):
        (tmp_path / "fixdir" / "bumpy" / f.name).write_bytes(f.read_bytes())
    assert main(["analyze", "--mesh-dir", str(tmp_path / "meshes"),
                 "--fixations", str(tmp_path / "fixdir"), "--recordings",
                 str(tmp_path / "rec"), "--out", str(out / "stats")]) == 0
    assert _hashes(out) == QUICKSTART
