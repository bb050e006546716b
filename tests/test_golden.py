"""Golden output hashes for the seeded README quick-start pipeline.

The pipeline runs through main(argv) on a procedural mesh with a fixed
scenario and seed, and every file it writes is compared by sha256.
GOLDEN covers synth -> process -> fdm, with hashes recorded before the
batched ray engine replaced the per-ray BVH walk.  QUICKSTART covers the
rest (fdm --by-pose, saliency, baseline, evaluate, analyze), with hashes
recorded when visibility moved from a z-buffer to ray casting; the
curvature baseline's hashes (and the scores and report built from it)
moved when its Gaussian averages became fixed-order bincount sums.  A refactor
or speedup must leave these bytes unchanged; a change that alters one must
say why and give the largest absolute difference.

Both pipelines run in one fresh interpreter that loads meshgaze.cli before
numpy, as the meshgaze command does, so the hashes are those of a CLI
process: numpy's BLAS on one thread whatever the caller's environment.
RuntimeWarnings are errors there, so a silent overflow or division by zero
on the seeded pipeline fails the run.
They run twice, with OPENBLAS_NUM_THREADS unset and set to 2, and must give
the same hashes.  The saliency map's hashes (pred/*.csv and pred/*.ply)
moved when the CLI fixed the thread count at one; with two OpenBLAS
threads the uniqueness product had rounded differently.  In the CSV one
row of 642 moved: U by 1.1e-16 and S by 1.4e-18 (the map is rounding noise
here, every visible vertex having no FPFH neighbour); in the PLY that
vertex's red and blue moved by 6 of 255.
"""

import hashlib
import os
import subprocess
import sys

import pytest
from conftest import pick_visible_targets

import meshgaze
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
    "base/curvature.csv": "cd0f3c914258b492d5c3a25e72c428a9274dcf0655adc26ccebc4ca8e17e50ef",
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
    "pred/f083d8a1641b.csv": "0fc68dea859c96c2d633b1b47c7ba7e1bd5ca9cc9e1b5b9b1320c3728a369357",
    "pred/f083d8a1641b.meta.json": "6c705dd43122ac905df09845e01e518a142c7596d133ab0f4340fe50adf2c914",
    "pred/f083d8a1641b.ply": "bdea44f4d0512edc551b0b9bf301f49d6aa2d3299440382c2df56afc9c345d96",
    "report/report.csv": "b096b2d2ad7eac390b2309079eeb89eb1ba3d19b743f5cba867771a08a87f0f3",
    "report/report.json": "814b73c999f23a21e7dc632730e94a56048fd8f5bfad66990ce55033f8a197f1",
    "scores/-1_6_-6_a2_e2.csv": "cd0f3c914258b492d5c3a25e72c428a9274dcf0655adc26ccebc4ca8e17e50ef",
    "scores/-2_6_-6_a2_e2.csv": "cd0f3c914258b492d5c3a25e72c428a9274dcf0655adc26ccebc4ca8e17e50ef",
    "scores/0_6_-6_a3_e2.csv": "cd0f3c914258b492d5c3a25e72c428a9274dcf0655adc26ccebc4ca8e17e50ef",
    "scores/1_6_-6_a3_e2.csv": "cd0f3c914258b492d5c3a25e72c428a9274dcf0655adc26ccebc4ca8e17e50ef",
    "stats/bias.json": "570b4fefc3f50f5cef80d79a1c07460f27e32b183bc8c4dbd67d94d624f838a1",
    "stats/direction_dependence.csv": "3442d4f50b5dc5f2a221794976cdce25957d0b1a6dee35a763e2f76f768838db",
    "stats/direction_dependence.json":
        "4fea98a07e2c4e2102b20b0c9b33c1f64b4c975d2c32d3a19c22fb53100198aa",
    "stats/inter_observer.json": "9e8c77bee38bb74ee8acead1ea2580c3e1d49979801347395cf4f528ea84f90f",
    "stats/left_preference.json": "a4f9664c87101ac0ce84a2486590d9533a6feea5a0b01a7add5b5df9b3da16f0",
    "stats/saccade.json": "9a791b7d6ea006694c5983b355bf3921f5fcf1e295fef53e962b0932d65f66c8",
}


TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(meshgaze.__file__))
RECORDED = ("fdm", "fix", "rec")        # the GOLDEN part of a run's directory

# A fresh interpreter that loads meshgaze.cli before anything loads numpy,
# as the meshgaze command does, then runs both pipelines in ROOT.
SCRIPT = """\
import sys
assert "numpy" not in sys.modules
import meshgaze.cli
sys.path.insert(0, {tests!r})
from pathlib import Path
import test_golden
test_golden.run_pipelines(Path({root!r}))
"""


def _hashes(root):
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.parent != root}


def run_pipelines(root):
    """On the golden mesh and scenario: synth -> process -> pooled fdm, then
    the rest of the README quick-start on the same recordings into root/out:
    fdm --by-pose, saliency, baseline, evaluate and analyze."""
    mesh = bumpy_sphere(3, amplitude=0.04, seed=3)
    save_ply(mesh, root / "bumpy.ply")
    scenario = SyntheticScenario(
        mesh_id="bumpy", targets=pick_visible_targets(mesh, (0.0, 1.6, -1.5), 3),
        duration_s=3.0, noise_deg=0.5, subjects=2, seed=7)
    (root / "scenario.json").write_text(scenario_to_json(scenario))

    mesh_path = str(root / "bumpy.ply")
    rec, fix, out = str(root / "rec"), str(root / "fix"), root / "out"
    assert main(["synth", "--scenario", str(root / "scenario.json"),
                 "--mesh", mesh_path, "--out", rec]) == 0
    assert main(["process", "--mesh", mesh_path, "--recordings", rec,
                 "--out", fix]) == 0
    assert main(["fdm", "--mesh", mesh_path, "--fixations", fix,
                 "--out", str(root / "fdm")]) == 0

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
    (root / "meshes").mkdir()
    (root / "meshes" / "bumpy.ply").write_bytes((root / "bumpy.ply").read_bytes())
    (root / "fixdir" / "bumpy").mkdir(parents=True)
    for f in (root / "fix").glob("s*.csv"):
        (root / "fixdir" / "bumpy" / f.name).write_bytes(f.read_bytes())
    assert main(["analyze", "--mesh-dir", str(root / "meshes"),
                 "--fixations", str(root / "fixdir"), "--recordings", rec,
                 "--out", str(out / "stats")]) == 0


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Hashes of both pipelines, run with OPENBLAS_NUM_THREADS unset in the
    caller's environment and with it set to 2: {setting: (recorded, quick)}."""
    hashes = {}
    for setting in ("unset", "2"):
        root = tmp_path_factory.mktemp(f"golden-{setting}")
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if setting != "unset":
            env["OPENBLAS_NUM_THREADS"] = setting
        subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                        SCRIPT.format(tests=TESTS, root=str(root))],
                       env=env, check=True, timeout=300)
        recorded = {k: v for k, v in _hashes(root).items()
                    if k.split("/")[0] in RECORDED}
        hashes[setting] = (recorded, _hashes(root / "out"))
    return hashes


def test_pipeline_outputs_match_golden_hashes(runs):
    for setting, (recorded, _) in runs.items():
        assert recorded == GOLDEN, f"OPENBLAS_NUM_THREADS {setting}"


def test_quickstart_outputs_match_golden_hashes(runs):
    for setting, (_, quick) in runs.items():
        assert quick == QUICKSTART, f"OPENBLAS_NUM_THREADS {setting}"
