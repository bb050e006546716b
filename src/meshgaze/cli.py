"""Command-line front end: process, fdm, saliency, baseline, evaluate,
analyze, synth.

Every command takes --config FILE (flat key=value) plus repeatable
--set KEY=VALUE overrides, and is a pure function of its inputs, the
config, and the seeds: reruns write byte-identical outputs.  All file
writes are atomic (temp file + rename) and every metadata sidecar embeds
the package version.

The CLI runs numpy's BLAS on one thread.  With more, OpenBLAS keeps
worker threads spinning for nothing in these short processes, and splits
the uniqueness product by core count, which changes its rounding and so
the saliency bytes.  The variable is set, not defaulted, so the caller's
environment cannot change the output.  OpenBLAS reads it only when numpy
loads, which ``import meshgaze`` does not do; right after that the
caller's value (or its absence) is put back, so a program that imports
this module passes its own setting on to the processes it starts.  No
verb loads a second BLAS (scipy) that would read the variable later.

The imports below (numpy and every meshgaze module) leave about 33,000
objects that live as long as the process.  The cyclic GC would scan them
again and again while they are made, and once more at interpreter
shutdown, which together cost a short verb process about a tenth of its
CPU.  So the GC is switched off while they run; in a ``finally`` they are
moved to the permanent generation (``gc.freeze``) and the GC is switched
back on if it was on before.  The freeze happens once, at import: a
freeze on every ``main()`` call would also pin the garbage that a
program calling ``main()`` in-process had made by then.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys

_GC_WAS_ENABLED = gc.isenabled()
gc.disable()
try:
    _CALLER_BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    import numpy as np  # after the BLAS thread count is set

    if _CALLER_BLAS_THREADS is None:
        del os.environ["OPENBLAS_NUM_THREADS"]
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = _CALLER_BLAS_THREADS

    from . import __version__
    from .config import MeshgazeError, RunConfig, apply_overrides, load_config
    from .evaluation import (EvaluationError, ViewScore, bias_study,
                             direction_dependence_study, inter_observer_study,
                             left_preference_study, metric_cc, metric_kl,
                             metric_se, saccade_study, weighted_eval)
    from .fdm import (FdmError, bucket_views, build_ground_truth, load_map_csv,
                      save_map_csv, save_map_ply, splat_fdm)
    from .fixation import (Fixations, extract_fixations, load_fixations,
                           save_fixations)
    from .gaze import GazeError, load_recording, save_recording, trace_samples
    from .io import read_text, read_vertex_csv, write_csv, write_json
    from .mesh import Mesh, load_mesh
    from .saliency import baseline_curvature_saliency, saliency_map
    from .synth import (ScenarioError, check_targets_reachable,
                        generate_recording, load_scenario)
    from .visibility import (CameraModel, ViewPose, VisibilityError,
                             camera_from_config, load_visibility,
                             save_visibility)
finally:
    gc.freeze()
    if _GC_WAS_ENABLED:
        gc.enable()


def _load_cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    cfg.validate()
    return cfg


def _mesh_from_cfg(path, cfg) -> Mesh:
    return load_mesh(path, scale=cfg.mesh_scale, translate=cfg.mesh_translate())


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands

def cmd_process(args) -> int:
    cfg = _load_cfg(args)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    rec_files = sorted(f for f in os.listdir(args.recordings) if f.endswith(".csv"))
    if not rec_files:
        raise GazeError(f"no recordings found in {args.recordings!r}")
    os.makedirs(args.out, exist_ok=True)
    summary = {"version": __version__, "mesh": os.path.basename(args.mesh),
               "recordings": {}, "total_fixations": 0}
    for name in rec_files:
        rec_id = os.path.splitext(name)[0]
        samples = load_recording(os.path.join(args.recordings, name),
                                 cfg.screen_half_extent)
        traced = trace_samples(samples, mesh, cfg.d_screen)
        fixations, stats = extract_fixations(traced, cfg, rec_id)
        warnings = []
        if stats["miss_samples"] == stats["samples"]:
            warnings.append("all sight-lines missed the mesh")
        if not len(fixations):
            warnings.append("no fixations detected")
        for w in warnings:
            _warn(f"{rec_id}: {w}")
        save_fixations(os.path.join(args.out, f"{rec_id}.csv"), fixations)
        stats["warnings"] = warnings
        summary["recordings"][rec_id] = stats
        summary["total_fixations"] += stats["fixations"]
    write_json(os.path.join(args.out, "summary.json"), summary)
    return 0


def _load_fixation_dir(path) -> Fixations:
    """The fixations of every CSV in a directory, files in name order."""
    return Fixations.concat(load_fixations(os.path.join(path, name))
                            for name in sorted(os.listdir(path))
                            if name.endswith(".csv"))


def cmd_fdm(args) -> int:
    cfg = _load_cfg(args)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    fixations = _load_fixation_dir(args.fixations)
    os.makedirs(args.out, exist_ok=True)
    if not args.by_pose:
        fdm = splat_fdm(mesh, fixations, cfg.sigma_fdm, cfg.fdm_cutoff_sigmas)
        if fdm.flagged:
            _warn("no fixations: all-zero density map")
        save_map_csv(os.path.join(args.out, "fdm.csv"), fdm.values)
        save_map_ply(os.path.join(args.out, "fdm.ply"), mesh, fdm.values)
        write_json(os.path.join(args.out, "fdm.meta.json"),
                   {"version": __version__, "sigma_fdm": cfg.sigma_fdm,
                    "cutoff_sigmas": cfg.fdm_cutoff_sigmas,
                    "fixations": len(fixations)})
        return 0

    # per-pose ground truth: bucket fixations, gate by per-bucket visibility
    weights = {}
    meta = {"version": __version__, "sigma_fdm": cfg.sigma_fdm,
            "buckets": {}}
    for bucket, rows, pose, vs in bucket_views(mesh, fixations, cfg):
        gt = build_ground_truth(mesh, fixations[rows], bucket, vs,
                                cfg.sigma_fdm, cfg.fdm_cutoff_sigmas)
        if gt.map.flagged:
            _warn(f"bucket {bucket}: density is zero on the visible set")
        save_map_csv(os.path.join(args.out, f"{bucket}.csv"), gt.map.values)
        save_visibility(os.path.join(args.out, f"{bucket}.vis.csv"), vs)
        weights[bucket] = gt.a_w
        meta["buckets"][bucket] = {
            "a_w": gt.a_w, "fixations": len(rows),
            "pose_p": pose.p.tolist(), "pose_o": pose.o_deg.tolist(),
        }
    write_json(os.path.join(args.out, "weights.json"), weights)
    write_json(os.path.join(args.out, "gt_meta.json"), meta)
    return 0


def _parse_pose(text: str, cam: CameraModel) -> ViewPose:
    try:
        vals = [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        vals = []
    if len(vals) != 6:
        raise VisibilityError(f"pose must have 6 numbers, got {text!r}")
    return ViewPose(p=np.array(vals[:3]), o_deg=np.array(vals[3:]), camera=cam)


def _read_poses(path, cam: CameraModel) -> list[ViewPose]:
    """A --poses file: one pose per line; blank and '#' lines are skipped."""
    text = read_text(path, "poses file", VisibilityError)
    return [_parse_pose(line, cam) for line in text.split("\n")
            if line.strip() and not line.startswith("#")]


def cmd_saliency(args) -> int:
    cfg = _load_cfg(args)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    cam = camera_from_config(cfg)
    poses = [_parse_pose(t, cam) for t in (args.pose or [])]
    if args.poses:
        poses += _read_poses(args.poses, cam)
    if not poses:
        raise VisibilityError("no poses given (use --pose or --poses)")
    os.makedirs(args.out, exist_ok=True)
    for pose in poses:
        smap = saliency_map(mesh, pose, cfg)
        pid = smap.pose_id
        if smap.flagged:
            _warn(f"pose {pid}: empty visible set, all-zero saliency")
        if smap.isolated:
            _warn(f"pose {pid}: {smap.isolated} of {smap.visible} visible "
                  f"vertices have no neighbour within the FPFH radius "
                  f"{smap.fpfh_radius:.6g}")
        # .tolist() yields Python floats; numpy scalars repr as np.float64(..)
        write_csv(os.path.join(args.out, f"{pid}.csv"), ["vertex_id", "S", "U", "C"],
                  ((i, repr(s), repr(u), repr(c)) for i, (s, u, c) in
                   enumerate(zip(smap.s.tolist(), smap.u.tolist(),
                                 smap.c.tolist()))))
        save_map_ply(os.path.join(args.out, f"{pid}.ply"), mesh, smap.s)
        write_json(os.path.join(args.out, f"{pid}.meta.json"), {
            "version": __version__, "pose_id": pid,
            "pose_p": [float(x) for x in pose.p],
            "pose_o": [float(x) for x in pose.o_deg],
            "camera": {"hfov_deg": cam.hfov_deg, "vfov_deg": cam.vfov_deg,
                       "near": cam.near},
            "params": smap.params,
            "flagged_empty": smap.flagged,
            "uniqueness_subsampled": smap.subsampled,
        })
    return 0


def cmd_baseline(args) -> int:
    cfg = _load_cfg(args)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    values = baseline_curvature_saliency(mesh, eps_frac=cfg.baseline_eps_frac,
                                         guard=cfg.baseline_guard)
    base, _ = os.path.splitext(args.out)
    save_map_csv(base + ".csv", values)
    save_map_ply(base + ".ply", mesh, values)
    write_json(base + ".meta.json",
               {"version": __version__, "eps_frac": cfg.baseline_eps_frac,
                "guard": cfg.baseline_guard})
    return 0


def _read_prediction(path) -> np.ndarray:
    """Accept both plain (vertex_id,value) maps and (vertex_id,S,U,C) exports."""
    return read_vertex_csv(path, ["vertex_id"], "prediction file", FdmError)


def _read_weights(path) -> dict:
    """Per-view visit weights A_w: a JSON object of integers >= 1."""
    try:
        weights = json.loads(read_text(path, "weights file", EvaluationError))
    except ValueError as exc:
        raise EvaluationError(f"weights file {path!r}: {exc}") from exc
    if not isinstance(weights, dict):
        raise EvaluationError(f"weights file {path!r}: not a JSON object")
    for pid, w in weights.items():
        if type(w) is not int or w < 1:      # bool and float are rejected
            raise EvaluationError(
                f"weights file {path!r}: weight of {pid!r} must be an "
                f"integer >= 1, got {w!r}")
    return weights


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    gt_files = {os.path.splitext(f)[0]: os.path.join(args.ground_truth, f)
                for f in os.listdir(args.ground_truth)
                if f.endswith(".csv") and not f.endswith(".vis.csv")}
    pred_files = {os.path.splitext(f)[0]: os.path.join(args.predictions, f)
                  for f in os.listdir(args.predictions) if f.endswith(".csv")}
    if not gt_files:
        raise EvaluationError("no ground-truth maps found")
    missing = sorted(set(gt_files) - set(pred_files))
    if missing:
        raise EvaluationError(f"predictions missing for pose ids: {missing}")
    weights_path = os.path.join(args.ground_truth, "weights.json")
    weights = _read_weights(weights_path) if os.path.exists(weights_path) else {}
    scores = []
    per_view = {}
    for pid in sorted(gt_files):
        g = load_map_csv(gt_files[pid])
        r = _read_prediction(pred_files[pid])
        vis_path = os.path.join(args.ground_truth, f"{pid}.vis.csv")
        domain = None
        if os.path.exists(vis_path):
            domain = load_visibility(vis_path)
        a_w = weights.get(pid, 1)
        try:
            cc = metric_cc(g, r, domain)
            se = metric_se(g, r, domain, cfg.se_variant)
            kl = metric_kl(g, r, domain, cfg.eps_kl_floor)
        except EvaluationError as exc:
            raise EvaluationError(f"view {pid!r}: {exc}") from exc
        scores.append(ViewScore(pose_id=pid, cc=cc, se=se, kl=kl, a_w=a_w))
        per_view[pid] = {"cc": cc, "se": se, "kl": kl, "A_w": a_w}
    report = {
        "version": __version__,
        "views": per_view,
        "aggregate": {
            "E_cc": weighted_eval(scores, "cc"),
            "E_se": weighted_eval(scores, "se"),
            "E_kl": weighted_eval(scores, "kl"),
        },
    }
    write_json(args.out, report)
    agg = report["aggregate"]
    csv_rows = [(pid, repr(v["cc"]), repr(v["se"]), repr(v["kl"]), v["A_w"])
                for pid, v in sorted(per_view.items())]
    csv_rows.append(("aggregate", repr(agg["E_cc"]), repr(agg["E_se"]),
                     repr(agg["E_kl"]), sum(s.a_w for s in scores)))
    write_csv(os.path.splitext(args.out)[0] + ".csv",
              ["pose_id", "cc", "se", "kl", "A_w"], csv_rows)
    return 0


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    scenario = load_scenario(args.scenario)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    n_verts = len(mesh.vertices)
    for t in scenario.targets:
        if not 0 <= int(t) < n_verts:
            raise ScenarioError(f"target vertex {t} out of range")
    os.makedirs(args.out, exist_ok=True)
    for subject in range(scenario.subjects):
        samples = generate_recording(scenario, mesh, cfg, subject)
        if subject == 0:
            check_targets_reachable(scenario, mesh, cfg, samples)
        save_recording(os.path.join(args.out, f"s{subject:02d}.csv"), samples)
    write_json(os.path.join(args.out, "targets.json"), {
        "version": __version__,
        "mesh_id": scenario.mesh_id,
        "target_vertex_ids": [int(t) for t in scenario.targets],
        "target_positions": [[float(x) for x in mesh.vertices[int(t)]]
                             for t in scenario.targets],
        "subjects": scenario.subjects,
        "noise_deg": scenario.noise_deg,
    })
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_cfg(args)
    mesh_files = {}
    for name in sorted(os.listdir(args.mesh_dir)):
        stem, ext = os.path.splitext(name)
        if ext.lower() in (".obj", ".ply"):
            mesh_files[stem] = os.path.join(args.mesh_dir, name)
    fix_dirs = {name: os.path.join(args.fixations, name)
                for name in sorted(os.listdir(args.fixations))
                if os.path.isdir(os.path.join(args.fixations, name))}
    shared = sorted(set(mesh_files) & set(fix_dirs))
    if not shared:
        raise EvaluationError(
            "analyze needs per-mesh fixation subdirectories matching mesh files")
    os.makedirs(args.out, exist_ok=True)

    def write(name, report):
        write_json(os.path.join(args.out, name),
                   {"version": __version__, **report})

    meshes = {m: _mesh_from_cfg(mesh_files[m], cfg) for m in shared}
    fixations = {m: _load_fixation_dir(fix_dirs[m]) for m in shared}
    write("inter_observer.json", inter_observer_study(meshes, fixations, cfg))
    write("bias.json", bias_study(meshes, fixations, cfg))
    write("saccade.json", saccade_study(fixations))
    vdd = direction_dependence_study(meshes, fixations, cfg)
    write("direction_dependence.json", vdd)
    write_csv(os.path.join(args.out, "direction_dependence.csv"),
              ["mesh", "correlation", "abs_correlation"],
              [(m, repr(r["correlation"]), repr(r["abs_correlation"]))
               for m, r in vdd["per_mesh"].items() if "correlation" in r])

    if not args.recordings:
        write("left_preference.json",
              {"skipped": "no --recordings directory given"})
        return 0
    recordings, problems = {}, {}
    for name in sorted(os.listdir(args.recordings)):
        if name.endswith(".csv"):
            try:
                recordings[name] = load_recording(
                    os.path.join(args.recordings, name), cfg.screen_half_extent)
            except GazeError as exc:
                problems[name] = exc
    report, undecided = left_preference_study(recordings, cfg)
    problems.update(undecided)
    for name in sorted(problems):
        _warn(f"left-preference: {name}: {problems[name]}")
    write("left_preference.json", report)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meshgaze",
        description="6DoF gaze processing and mesh saliency toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("process", help="recordings -> fixation CSVs")
    p.add_argument("--mesh", required=True)
    p.add_argument("--recordings", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("fdm", help="fixations -> density maps / ground truth")
    p.add_argument("--mesh", required=True)
    p.add_argument("--fixations", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--by-pose", action="store_true",
                   help="emit per-pose-bucket ground truth with visit weights")
    common(p)
    p.set_defaults(func=cmd_fdm)

    p = sub.add_parser("saliency", help="per-pose saliency maps")
    p.add_argument("--mesh", required=True)
    p.add_argument("--pose", action="append",
                   help="px,py,pz,ox,oy,oz (repeatable)")
    p.add_argument("--poses", help="file with one pose per line")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("baseline", help="curvature-contrast baseline map")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="behavioral statistics reports")
    p.add_argument("--mesh-dir", required=True)
    p.add_argument("--fixations", required=True,
                   help="directory with one subdirectory of fixation CSVs per mesh")
    p.add_argument("--recordings", help="raw recordings (for movement preference)")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="generate synthetic recordings")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_synth)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (MeshgazeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
