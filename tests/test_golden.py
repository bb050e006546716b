"""Golden output hashes for the seeded synth -> process -> fdm pipeline.

The pipeline runs through main(argv) on a procedural mesh with a fixed
scenario and seed, and every file it writes is compared by sha256 with
hashes recorded before the batched ray engine replaced the per-ray BVH
walk.  A refactor or speedup must leave these bytes unchanged; a change
that alters one must say why and give the largest absolute difference.
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


def _hashes(root):
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.parent != root}


def test_pipeline_outputs_match_golden_hashes(tmp_path):
    mesh = bumpy_sphere(3, amplitude=0.04, seed=3)
    mesh_path = tmp_path / "bumpy.ply"
    save_ply(mesh, mesh_path)
    scenario = SyntheticScenario(
        mesh_id="bumpy", targets=pick_visible_targets(mesh, (0.0, 1.6, -1.5), 3),
        duration_s=3.0, noise_deg=0.5, subjects=2, seed=7)
    (tmp_path / "scenario.json").write_text(scenario_to_json(scenario))
    assert main(["synth", "--scenario", str(tmp_path / "scenario.json"),
                 "--mesh", str(mesh_path), "--out", str(tmp_path / "rec")]) == 0
    assert main(["process", "--mesh", str(mesh_path), "--recordings",
                 str(tmp_path / "rec"), "--out", str(tmp_path / "fix")]) == 0
    assert main(["fdm", "--mesh", str(mesh_path), "--fixations",
                 str(tmp_path / "fix"), "--out", str(tmp_path / "fdm")]) == 0
    assert _hashes(tmp_path) == GOLDEN
