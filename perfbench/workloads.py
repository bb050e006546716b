"""Benchmark workloads: seeded inputs, verb sequences and correctness gates.

A workload is built in three parts:

* ``prepare(inputs_dir, seed)`` writes the inputs the verbs read (meshes,
  scenario, pose files, and for ``study`` the processed recordings), untimed,
  and fills ``sizes``, the input sizes recorded with every result.
* ``steps(run_dir)`` lists the verb invocations of one sequence, in order.
  Each step writes only under ``run_dir``, so repeats of a sequence can be
  compared byte for byte.
* every step carries a gate: a function of ``run_dir`` that returns a list
  of problems with that step's outputs (empty when they are correct).

The seed varies what a user's inputs would vary without changing how much
work they make: the recording noise and the viewpoints' small offsets.
Meshes and sizes stay fixed, so runs on different seeds measure the same
amount of work.  Sizes are chosen so that one sequence takes several
seconds on a 2-core machine; ``toy=True`` shrinks every size for the
harness self-check.
"""
from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from meshgaze import primitives
from meshgaze.config import RunConfig
from meshgaze.mesh import save_ply
from meshgaze.synth import SyntheticScenario, euler_facing, scenario_to_json

CENTER = np.array([0.0, 1.5, 0.0])
CFG = RunConfig()


@dataclass
class Step:
    """One verb process: ``meshgaze <argv>`` plus the gate on its outputs."""

    verb: str                      # metric name stem, e.g. "fdm_by_pose"
    argv: list[str]
    outputs: list[str]             # paths under run_dir this step writes
    gate: object = None            # callable(run_dir) -> list[str]
    before: object = None          # untimed glue run before the process


class Workload:
    """``prepare`` the inputs once, then run ``steps`` on every repeat."""

    name: str
    meshes: list[str]              # mesh files the set-up probe loads
    sizes: dict                    # input sizes, recorded with every result

    def prepare(self, inputs: str, seed: int) -> None:
        raise NotImplementedError

    def steps(self, run: str) -> list[Step]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# helpers

def pick_visible_targets(mesh, viewer_p, n, in_sight=None, center=CENTER,
                         min_facing=0.5, min_sep=0.15):
    """n well-separated vertex ids facing viewer_p, most viewer-facing first.

    The same rule as the test suite's target picker: targets stay away from
    the silhouette, where grazing sight-lines can miss a faceted surface.
    A candidate for which ``in_sight(v)`` is false is passed over.
    """
    toward = np.asarray(viewer_p, dtype=np.float64) - center
    toward = toward / np.linalg.norm(toward)
    off = mesh.vertices - center
    rad = np.linalg.norm(off, axis=1)
    rad[rad == 0] = 1.0
    facing = (off @ toward) / rad
    chosen: list[int] = []
    for v in np.argsort(-facing):
        if facing[v] < min_facing:
            break
        if all(np.linalg.norm(mesh.vertices[v] - mesh.vertices[c]) >= min_sep
               for c in chosen) and (in_sight is None or in_sight(int(v))):
            chosen.append(int(v))
        if len(chosen) == n:
            return chosen
    raise ValueError(f"could not place {n} viewer-facing targets")


def first_hit(mesh, origin, direction) -> float:
    """Distance to the nearest triangle along a ray, by exhaustive scan."""
    v0, v1, v2 = (mesh.vertices[mesh.triangles[:, i]] for i in range(3))
    e1, e2 = v1 - v0, v2 - v0
    pvec = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        svec = origin - v0
        u = np.einsum("ij,ij->i", svec, pvec) * inv
        qvec = np.cross(svec, e1)
        v = (qvec @ direction) * inv
        t = np.einsum("ij,ij->i", e2, qvec) * inv
    hit = (np.abs(det) > 1e-15) & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 0)
    return float(t[hit].min()) if hit.any() else math.inf


def orbit_points(sc: SyntheticScenario, fracs=(0.0, 0.5, 1.0)):
    """Head positions of every subject at the given fractions of the arc."""
    dy = sc.height - CENTER[1]
    r_h = math.sqrt(sc.radius ** 2 - dy ** 2)
    out = []
    for subject in range(sc.subjects):
        for frac in fracs:
            theta = math.radians(sc.start_angle_deg + 7.0 * subject
                                 + sc.span_deg * frac)
            out.append(CENTER + np.array([r_h * math.cos(theta), dy,
                                          r_h * math.sin(theta)]))
    return out


def facing_pose(p, target=CENTER) -> list[float]:
    """Six pose numbers (position, Euler degrees) looking from p at target."""
    p = np.asarray(p, dtype=np.float64)
    o = euler_facing(np.asarray(target, dtype=np.float64) - p)
    return [float(x) for x in p] + [float(x) for x in o]


def write_poses(path: str, poses) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pose in poses:
            fh.write(",".join(repr(x) for x in pose) + "\n")


def read_csv(path: str):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_scenario(path: str, mesh, mesh_id: str, viewer, seed: int, **kw):
    """Three planted targets that no bump hides from the orbit's ends or middle."""
    sc = SyntheticScenario(mesh_id=mesh_id, targets=[], seed=seed, **kw)
    eyes = orbit_points(sc)

    def in_sight(v):
        for p in eyes:
            d = mesh.vertices[v] - p
            dist = float(np.linalg.norm(d))
            if first_hit(mesh, p, d / dist) < dist - 0.01:
                return False
        return True

    sc.targets = pick_visible_targets(mesh, viewer, 3, in_sight)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_json(sc))
    return sc


def _missing(run: str, names) -> list[str]:
    return [f"missing output {n}" for n in names
            if not os.path.exists(os.path.join(run, n))]


def check_map_csv(path: str, positive: bool = True) -> list[str]:
    """A per-vertex map CSV: finite, non-negative, positive somewhere."""
    header, rows = read_csv(path)
    vals = np.array([float(r[1]) for r in rows])
    if header[:2] != ["vertex_id", "value"] or not len(vals):
        return [f"{os.path.basename(path)}: bad map file"]
    if not np.isfinite(vals).all() or vals.min() < 0.0:
        return [f"{os.path.basename(path)}: non-finite or negative value"]
    if positive and not vals.max() > 0.0:
        return [f"{os.path.basename(path)}: all-zero map"]
    return []


# ---------------------------------------------------------------------------
# recordings: synth -> process -> fdm (pooled)

class Recordings(Workload):
    """Long noisy 120 Hz recordings on a gently bumpy sphere.

    Ray casting, I-VT labelling and clustering, and recording CSV I/O do
    the work; no visibility or saliency code runs.
    """

    name = "recordings"

    def __init__(self, toy: bool = False):
        self.subdiv = 2 if toy else 4
        self.amplitude = 0.04
        self.subjects = 1 if toy else 2
        self.duration_s = 2.0 if toy else 9.0

    def prepare(self, inputs: str, seed: int) -> None:
        mesh = primitives.bumpy_sphere(self.subdiv, amplitude=self.amplitude,
                                       seed=0)
        self.mesh_path = os.path.join(inputs, "stage.ply")
        save_ply(mesh, self.mesh_path)
        self.meshes = [self.mesh_path]
        self.scenario = os.path.join(inputs, "scenario.json")
        sc = write_scenario(self.scenario, mesh, "stage", (0.0, 1.6, -1.5),
                            seed, duration_s=self.duration_s, noise_deg=0.5,
                            subjects=self.subjects)
        self.targets = mesh.vertices[sc.targets]
        self.sizes = {
            "vertices": len(mesh.vertices), "triangles": len(mesh.triangles),
            "subjects": sc.subjects,
            "samples": sc.subjects * int(round(sc.duration_s * sc.rate_hz)),
            "targets": len(sc.targets), "noise_deg": sc.noise_deg,
        }

    def steps(self, run: str) -> list[Step]:
        m = self.mesh_path
        rec = os.path.join(run, "recs")
        fix = os.path.join(run, "fix")
        maps = os.path.join(run, "maps")
        return [
            Step("synth", ["synth", "--scenario", self.scenario, "--mesh", m,
                           "--out", rec], ["recs"], self.gate_synth),
            Step("process", ["process", "--mesh", m, "--recordings", rec,
                             "--out", fix], ["fix"], self.gate_process),
            Step("fdm", ["fdm", "--mesh", m, "--fixations", fix,
                         "--out", maps], ["maps"], self.gate_fdm),
        ]

    def gate_synth(self, run: str) -> list[str]:
        names = [f"recs/s{k:02d}.csv" for k in range(self.subjects)]
        return _missing(run, names + ["recs/targets.json"])

    def gate_process(self, run: str) -> list[str]:
        """Recovery as in acceptance criterion 7 (noise 0.5 deg, bar 0.85)."""
        targets = self.targets
        tol = 2.0 * CFG.cluster_interval
        problems, near, total = [], 0, 0
        for k in range(self.subjects):
            path = os.path.join(run, "fix", f"s{k:02d}.csv")
            if not os.path.exists(path):
                return [f"missing output fix/s{k:02d}.csv"]
            _, rows = read_csv(path)
            pos = np.array([[float(x) for x in r[2:5]] for r in rows])
            if len(pos) < len(targets):
                problems.append(f"s{k:02d}: {len(pos)} fixations for "
                                f"{len(targets)} targets")
                continue
            d = np.linalg.norm(pos[:, None, :] - targets[None], axis=2)
            near += int((d.min(axis=1) <= tol).sum())
            total += len(pos)
        if total and near / total < 0.85:
            problems.append(f"only {near}/{total} fixations near a target")
        return problems

    def gate_fdm(self, run: str) -> list[str]:
        return (_missing(run, ["maps/fdm.csv", "maps/fdm.ply"])
                or check_map_csv(os.path.join(run, "maps", "fdm.csv")))


# ---------------------------------------------------------------------------
# views: saliency over distinct poses on two meshes, plus the baseline

class Views(Workload):
    """Recording-free saliency on a closed sphere and an open grid.

    On the sphere few vertices are visible, visibility dominates and
    uniqueness is exact; on the grid seen from above every vertex is
    visible, more than the exact limit, so FPFH and the subsampled
    uniqueness dominate.  No ray is cast and no recording is read.
    """

    name = "views"

    def __init__(self, toy: bool = False):
        self.sphere_subdiv = 3 if toy else 4
        self.sphere_poses = 1 if toy else 3
        self.grid_n = 20 if toy else 50
        # between the sphere's visible count and the grid's vertex count,
        # so the sphere takes the exact path and the grid the subsampled one
        self.exact_limit = 300 if toy else 2000
        self.sample_size = 150 if toy else 1000

    def prepare(self, inputs: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        sphere = primitives.bumpy_sphere(self.sphere_subdiv, seed=0)
        grid = primitives.plane_grid(self.grid_n, self.grid_n)
        self.sphere = os.path.join(inputs, "sphere.ply")
        self.grid = os.path.join(inputs, "grid.ply")
        save_ply(sphere, self.sphere)
        save_ply(grid, self.grid)
        self.meshes = [self.sphere, self.grid]
        # distinct directions evenly around the sphere, 1.5 m out, each
        # turned by a few seeded degrees
        sphere_poses = []
        for k in range(self.sphere_poses):
            az = 2.0 * math.pi * k / self.sphere_poses + rng.uniform(-0.1, 0.1)
            el = 0.3 * (-1) ** k + rng.uniform(-0.1, 0.1)
            d = np.array([math.cos(el) * math.cos(az), math.sin(el),
                          math.cos(el) * math.sin(az)])
            sphere_poses.append(facing_pose(CENTER + 1.5 * d))
        # from above, near enough the middle that the whole grid is in view
        jx, jz = rng.uniform(-0.1, 0.1, size=2)
        grid_poses = [facing_pose(CENTER + np.array([jx, 1.0, jz]),
                                  CENTER + np.array([jx, 0.0, jz]))]
        self.sphere_pose_file = os.path.join(inputs, "sphere_poses.txt")
        self.grid_pose_file = os.path.join(inputs, "grid_poses.txt")
        write_poses(self.sphere_pose_file, sphere_poses)
        write_poses(self.grid_pose_file, grid_poses)
        self.expect = {"sphere": (sphere, sphere_poses, False),
                       "grid": (grid, grid_poses, True)}
        self.sizes = {
            "sphere_vertices": len(sphere.vertices),
            "sphere_triangles": len(sphere.triangles),
            "grid_vertices": len(grid.vertices),
            "grid_triangles": len(grid.triangles),
            "poses": len(sphere_poses) + len(grid_poses),
            "uniqueness_exact_limit": self.exact_limit,
            "uniqueness_sample_size": self.sample_size,
        }

    def _limits(self) -> list[str]:
        return ["--set", f"uniqueness_exact_limit={self.exact_limit}",
                "--set", f"uniqueness_sample_size={self.sample_size}"]

    def steps(self, run: str) -> list[Step]:
        return [
            Step("saliency", ["saliency", "--mesh", self.sphere, "--poses",
                              self.sphere_pose_file, "--out",
                              os.path.join(run, "sal_sphere")] + self._limits(),
                 ["sal_sphere"], lambda r: self.gate_saliency(r, "sphere")),
            Step("saliency", ["saliency", "--mesh", self.grid, "--poses",
                              self.grid_pose_file, "--out",
                              os.path.join(run, "sal_grid")] + self._limits(),
                 ["sal_grid"], lambda r: self.gate_saliency(r, "grid")),
            Step("baseline", ["baseline", "--mesh", self.sphere, "--out",
                              os.path.join(run, "base", "curvature")],
                 ["base"], lambda r: check_map_csv(
                     os.path.join(r, "base", "curvature.csv"))),
        ]

    def gate_saliency(self, run: str, which: str) -> list[str]:
        """S finite in [0, 1), positive somewhere, zero off the visible set.

        The visible set is bounded from outside without the rasterizer:
        a vertex outside the view frustum or facing away can never be
        visible.  Inside it, S must vanish wherever the centre bias C does.
        """
        mesh, poses, subsampled = self.expect[which]
        out = os.path.join(run, f"sal_{which}")
        metas = sorted(f for f in os.listdir(out) if f.endswith(".meta.json")) \
            if os.path.isdir(out) else []
        if len(metas) != len(poses):
            return [f"{which}: {len(metas)} pose outputs for {len(poses)} poses"]
        problems = []
        for name in metas:
            meta = read_json(os.path.join(out, name))
            pid = meta["pose_id"]
            _, rows = read_csv(os.path.join(out, f"{pid}.csv"))
            s = np.array([float(r[1]) for r in rows])
            c = np.array([float(r[3]) for r in rows])
            cand = _frustum_front(mesh, meta["pose_p"], meta["pose_o"])
            if not np.isfinite(s).all() or s.min() < 0.0 or s.max() >= 1.0:
                problems.append(f"{which} {pid}: S outside [0, 1)")
            elif not s.max() > 0.0:
                problems.append(f"{which} {pid}: S is zero everywhere")
            elif s[~cand].any() or s[c == 0.0].any():
                problems.append(f"{which} {pid}: S nonzero off the visible set")
            if meta["uniqueness_subsampled"] is not subsampled:
                problems.append(f"{which} {pid}: uniqueness_subsampled is "
                                f"{meta['uniqueness_subsampled']}")
        return problems


def _frustum_front(mesh, pose_p, pose_o) -> np.ndarray:
    """Vertices inside the default camera frustum and facing the eye."""
    from meshgaze.gaze import rotation_matrix
    p = np.asarray(pose_p, dtype=np.float64)
    vp = (mesh.vertices - p) @ rotation_matrix(pose_o)
    z = vp[:, 2]
    tan_h = math.tan(math.radians(CFG.cam_hfov_deg) / 2.0)
    tan_v = math.tan(math.radians(CFG.cam_vfov_deg) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = (z >= CFG.cam_near) & (np.abs(vp[:, 0]) <= z * tan_h) & \
            (np.abs(vp[:, 1]) <= z * tan_v)
    front = np.einsum("ij,ij->i", mesh.normals, p - mesh.vertices) > 0.0
    return inside & front


# ---------------------------------------------------------------------------
# study: fdm --by-pose -> baseline -> evaluate -> analyze

class Study(Workload):
    """Recorded poses over a wide arc on two bumpy spheres.

    Recordings are generated and processed while preparing (untimed).  The
    timed verbs compute visibility per pose bucket twice (in ``fdm
    --by-pose`` and in ``analyze``), write map CSVs and read them back.
    """

    name = "study"

    def __init__(self, toy: bool = False):
        self.subdiv = 3
        self.subjects = 3
        self.duration_s = 4.0 if toy else 8.0
        self.span_deg = 80.0

    def prepare(self, inputs: str, seed: int) -> None:
        from meshgaze.cli import main as cli_main
        self.mesh_dir = os.path.join(inputs, "meshes")
        self.fix_dir = os.path.join(inputs, "fix")
        os.makedirs(self.mesh_dir)
        self.sizes = {"subjects": self.subjects, "span_deg": self.span_deg}
        self.meshes = []
        for k in range(2):
            mid = f"m{k}"
            mesh = primitives.bumpy_sphere(self.subdiv, seed=k + 1)
            path = os.path.join(self.mesh_dir, f"{mid}.ply")
            save_ply(mesh, path)
            self.meshes.append(path)
            scenario = os.path.join(inputs, f"{mid}.json")
            # the arc is centred on the direction the targets face
            viewer = (0.0, 1.6, -1.5)
            sc = write_scenario(scenario, mesh, mid, viewer, 2 * seed + k,
                                duration_s=self.duration_s, noise_deg=0.3,
                                subjects=self.subjects, rate_hz=60.0,
                                start_angle_deg=270.0 - self.span_deg / 2
                                - 7.0 * (self.subjects - 1) / 2,
                                span_deg=self.span_deg)
            rec = os.path.join(inputs, "recs", mid)
            fix = os.path.join(self.fix_dir, mid)
            for argv in (["synth", "--scenario", scenario, "--mesh", path,
                          "--out", rec],
                         ["process", "--mesh", path, "--recordings", rec,
                          "--out", fix]):
                if cli_main(argv) != 0:
                    raise RuntimeError(f"preparing study: {argv[0]} failed")
            summary = read_json(os.path.join(fix, "summary.json"))
            self.sizes[mid] = {
                "vertices": len(mesh.vertices),
                "triangles": len(mesh.triangles),
                "samples": sc.subjects * int(round(sc.duration_s * sc.rate_hz)),
                "fixations": summary["total_fixations"],
            }

    def steps(self, run: str) -> list[Step]:
        m0 = self.meshes[0]
        gt = os.path.join(run, "gt")
        base = os.path.join(run, "base", "curvature")
        pred = os.path.join(run, "pred")
        return [
            Step("fdm_by_pose", ["fdm", "--mesh", m0, "--fixations",
                                 os.path.join(self.fix_dir, "m0"), "--out", gt,
                                 "--by-pose"], ["gt"], self.gate_gt),
            Step("baseline", ["baseline", "--mesh", m0, "--out", base],
                 ["base"], lambda r: check_map_csv(
                     os.path.join(r, "base", "curvature.csv"))),
            Step("evaluate", ["evaluate", "--ground-truth", gt,
                              "--predictions", pred,
                              "--out", os.path.join(run, "report.json")],
                 ["pred", "report.json", "report.csv"], self.gate_evaluate,
                 before=lambda: _predictions_per_view(gt, base + ".csv", pred)),
            Step("analyze", ["analyze", "--mesh-dir", self.mesh_dir,
                             "--fixations", self.fix_dir,
                             "--out", os.path.join(run, "stats")],
                 ["stats"], self.gate_analyze),
        ]

    def gate_gt(self, run: str) -> list[str]:
        gt = os.path.join(run, "gt")
        if not os.path.exists(os.path.join(gt, "weights.json")):
            return ["missing output gt/weights.json"]
        buckets = read_json(os.path.join(gt, "weights.json"))
        self.sizes["buckets"] = len(buckets)     # known once the verb ran
        problems = []
        for b in buckets:
            problems += check_map_csv(os.path.join(gt, f"{b}.csv"),
                                      positive=False)
        return problems

    def gate_evaluate(self, run: str) -> list[str]:
        path = os.path.join(run, "report.json")
        if not os.path.exists(path):
            return ["missing output report.json"]
        agg = read_json(path)["aggregate"]
        if not all(math.isfinite(agg[k]) for k in ("E_cc", "E_se", "E_kl")):
            return [f"non-finite aggregate {agg}"]
        return []

    def gate_analyze(self, run: str) -> list[str]:
        stats = os.path.join(run, "stats")
        names = ["inter_observer.json", "bias.json",
                 "direction_dependence.json"]
        problems = _missing(stats, names)
        if problems:
            return problems
        inter, bias, vdd = (read_json(os.path.join(stats, n)) for n in names)
        if "skipped" in inter or not all(
                math.isfinite(inter.get(k, math.nan)) for k in ("t", "p")):
            problems.append(f"inter-observer test: {inter.get('skipped')}")
        if "skipped" in bias or not bias["rows"]:
            problems.append(f"bias: {bias.get('skipped', 'no rows')}")
        for mid in ("m0", "m1"):
            entry = vdd["per_mesh"].get(mid, {"skipped": "absent"})
            if "skipped" in entry or not math.isfinite(entry["correlation"]):
                problems.append(f"direction dependence {mid}: "
                                f"{entry.get('skipped')}")
            elif not any(r["mesh"] == mid for r in bias["rows"]):
                problems.append(f"bias: no rows for {mid}")
        return problems


def _predictions_per_view(gt: str, prediction: str, out: str) -> None:
    """Name one copy of the baseline after every ground-truth view."""
    os.makedirs(out, exist_ok=True)
    for f in sorted(os.listdir(gt)):
        if f.endswith(".csv") and not f.endswith(".vis.csv"):
            shutil.copyfile(prediction, os.path.join(out, f))


WORKLOADS = {"recordings": Recordings, "views": Views, "study": Study}
