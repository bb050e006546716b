"""Command-line front end: process, fdm, saliency, baseline, evaluate,
analyze, synth.

Every command takes --config FILE (flat key=value) plus repeatable
--set KEY=VALUE overrides, and is a pure function of its inputs, the
config, and the seeds: reruns write byte-identical outputs.  All file
writes are atomic (temp file + rename) and every metadata sidecar embeds
the package version.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

import numpy as np

from . import __version__
from .config import MeshgazeError, RunConfig, apply_overrides, load_config
from .evaluation import (EvaluationError, ViewScore, bias_distance,
                         initial_move_direction, inter_observer_test,
                         metric_cc, metric_kl, metric_se,
                         viewing_direction_dependence, weighted_eval)
from .fdm import (FdmError, FixationDensityMap, build_ground_truth,
                  load_map_csv, plcc, pose_bucket, save_map_csv, save_map_ply,
                  splat_fdm)
from .fixation import (FixationError, extract_fixations, load_fixations,
                       saccade_amplitude, save_fixations)
from .gaze import GazeError, load_recording, trace_samples
from .mesh import Mesh, _atomic_write, load_mesh, read_vertex_csv
from .saliency import baseline_curvature_saliency, saliency_map
from .synth import (ScenarioError, check_targets_reachable, generate_recording,
                    scenario_from_json)
from .visibility import (CameraModel, ViewPose, VisibilityError,
                         camera_from_config, pose_hash, save_visibility,
                         visible_points)


def _write_json(path, obj) -> None:
    _atomic_write(os.fspath(path), json.dumps(obj, indent=2, sort_keys=True) + "\n")


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
        points, stats = extract_fixations(traced, cfg)
        warnings = []
        if stats["miss_samples"] == stats["samples"]:
            warnings.append("all sight-lines missed the mesh")
        if not points:
            warnings.append("no fixations detected")
        for w in warnings:
            _warn(f"{rec_id}: {w}")
        save_fixations(os.path.join(args.out, f"{rec_id}.csv"), rec_id, points)
        stats["warnings"] = warnings
        summary["recordings"][rec_id] = stats
        summary["total_fixations"] += stats["fixations"]
    _write_json(os.path.join(args.out, "summary.json"), summary)
    return 0


def _load_fixation_dir(path):
    """All fixation rows in a directory: [(recording_id, cluster_id, point)]."""
    rows = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".csv"):
            rows.extend(load_fixations(os.path.join(path, name)))
    return rows


def cmd_fdm(args) -> int:
    cfg = _load_cfg(args)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    rows = _load_fixation_dir(args.fixations)
    os.makedirs(args.out, exist_ok=True)
    if not args.by_pose:
        points = [fp for _, _, fp in rows]
        fdm = splat_fdm(mesh, points, cfg.sigma_fdm, cfg.fdm_cutoff_sigmas,
                        provenance={"subject": "pooled"})
        if fdm.flagged:
            _warn("no fixations: all-zero density map")
        save_map_csv(os.path.join(args.out, "fdm.csv"), fdm.values)
        save_map_ply(os.path.join(args.out, "fdm.ply"), mesh, fdm.values)
        _write_json(os.path.join(args.out, "fdm.meta.json"),
                    {"version": __version__, "sigma_fdm": cfg.sigma_fdm,
                     "cutoff_sigmas": cfg.fdm_cutoff_sigmas,
                     "fixations": len(points)})
        return 0

    # per-pose ground truth: bucket fixations, gate by per-bucket visibility
    tagged = [(rec_id, fp) for rec_id, _, fp in rows]
    buckets = defaultdict(list)
    for rec_id, fp in tagged:
        buckets[pose_bucket(fp.pose_p, fp.pose_o, cfg.pose_grid_m,
                            cfg.pose_angle_bin_deg)].append((rec_id, fp))
    cam = camera_from_config(cfg)
    weights = {}
    meta = {"version": __version__, "sigma_fdm": cfg.sigma_fdm,
            "buckets": {}}
    for bucket in sorted(buckets):
        entries = buckets[bucket]
        rep = entries[0][1]
        pose = ViewPose(p=rep.pose_p, o_deg=rep.pose_o, camera=cam)
        vs = visible_points(mesh, pose, cfg.depth_tol_frac)
        gt = build_ground_truth(mesh, entries, bucket, vs, cfg.sigma_fdm,
                                cfg.fdm_cutoff_sigmas, cfg.pose_grid_m,
                                cfg.pose_angle_bin_deg)
        if gt.map.flagged:
            _warn(f"bucket {bucket}: density is zero on the visible set")
        save_map_csv(os.path.join(args.out, f"{bucket}.csv"), gt.map.values)
        save_visibility(os.path.join(args.out, f"{bucket}.vis.csv"), vs)
        weights[bucket] = gt.a_w
        meta["buckets"][bucket] = {
            "a_w": gt.a_w, "fixations": len(entries),
            "pose_p": [float(x) for x in rep.pose_p],
            "pose_o": [float(x) for x in rep.pose_o],
        }
    _write_json(os.path.join(args.out, "weights.json"), weights)
    _write_json(os.path.join(args.out, "gt_meta.json"), meta)
    return 0


def _parse_pose(text: str, cam: CameraModel) -> ViewPose:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 6:
        raise VisibilityError(f"pose must have 6 numbers, got {text!r}")
    vals = [float(p) for p in parts]
    return ViewPose(p=np.array(vals[:3]), o_deg=np.array(vals[3:]), camera=cam)


def cmd_saliency(args) -> int:
    cfg = _load_cfg(args)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    cam = camera_from_config(cfg)
    poses = [_parse_pose(t, cam) for t in (args.pose or [])]
    if args.poses:
        with open(args.poses, "r", encoding="utf-8") as fh:
            poses += [_parse_pose(line, cam) for line in fh
                      if line.strip() and not line.startswith("#")]
    if not poses:
        raise VisibilityError("no poses given (use --pose or --poses)")
    os.makedirs(args.out, exist_ok=True)
    for pose in poses:
        smap = saliency_map(mesh, pose, cfg)
        pid = smap.pose_id
        if smap.flagged:
            _warn(f"pose {pid}: empty visible set, all-zero saliency")
        rows = ["vertex_id,S,U,C"]
        # .tolist() yields Python floats; numpy scalars repr as np.float64(..)
        for i, (s, u, c) in enumerate(zip(smap.s.tolist(), smap.u.tolist(),
                                          smap.c.tolist())):
            rows.append(f"{i},{s!r},{u!r},{c!r}")
        _atomic_write(os.path.join(args.out, f"{pid}.csv"), "\n".join(rows) + "\n")
        save_map_ply(os.path.join(args.out, f"{pid}.ply"), mesh, smap.s)
        _write_json(os.path.join(args.out, f"{pid}.meta.json"), {
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
    _write_json(base + ".meta.json",
                {"version": __version__, "eps_frac": cfg.baseline_eps_frac,
                 "guard": cfg.baseline_guard})
    return 0


def _read_prediction(path) -> np.ndarray:
    """Accept both plain (vertex_id,value) maps and (vertex_id,S,U,C) exports."""
    return read_vertex_csv(path, ["vertex_id"], "prediction file", FdmError)


def _read_weights(path) -> dict:
    """Per-view visit weights A_w: a JSON object of integers >= 1."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            weights = json.load(fh)
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
            from .visibility import load_visibility
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
    _write_json(args.out, report)
    csv_rows = ["pose_id,cc,se,kl,A_w"]
    for pid in sorted(per_view):
        v = per_view[pid]
        csv_rows.append(f"{pid},{v['cc']!r},{v['se']!r},{v['kl']!r},{v['A_w']}")
    agg = report["aggregate"]
    csv_rows.append(f"aggregate,{agg['E_cc']!r},{agg['E_se']!r},{agg['E_kl']!r},"
                    f"{sum(s.a_w for s in scores)}")
    _atomic_write(os.path.splitext(args.out)[0] + ".csv",
                  "\n".join(csv_rows) + "\n")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    with open(args.scenario, "r", encoding="utf-8") as fh:
        scenario = scenario_from_json(fh.read())
    mesh = _mesh_from_cfg(args.mesh, cfg)
    n_verts = len(mesh.vertices)
    for t in scenario.targets:
        if not 0 <= int(t) < n_verts:
            raise ScenarioError(f"target vertex {t} out of range")
    os.makedirs(args.out, exist_ok=True)
    from .gaze import save_recording
    for subject in range(scenario.subjects):
        samples = generate_recording(scenario, mesh, cfg, subject)
        if subject == 0:
            check_targets_reachable(scenario, mesh, cfg, samples)
        save_recording(os.path.join(args.out, f"s{subject:02d}.csv"), samples)
    _write_json(os.path.join(args.out, "targets.json"), {
        "version": __version__,
        "mesh_id": scenario.mesh_id,
        "target_vertex_ids": [int(t) for t in scenario.targets],
        "target_positions": [[float(x) for x in mesh.vertices[int(t)]]
                             for t in scenario.targets],
        "subjects": scenario.subjects,
        "noise_deg": scenario.noise_deg,
    })
    return 0


def _per_subject_maps(mesh, rows, cfg):
    """subject (= recording id) -> pooled FixationDensityMap on this mesh."""
    by_subject = defaultdict(list)
    for rec_id, _, fp in rows:
        by_subject[rec_id].append(fp)
    return {s: splat_fdm(mesh, pts, cfg.sigma_fdm, cfg.fdm_cutoff_sigmas,
                         provenance={"subject": s})
            for s, pts in sorted(by_subject.items())}


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

    meshes = {m: _mesh_from_cfg(mesh_files[m], cfg) for m in shared}
    fixrows = {m: _load_fixation_dir(fix_dirs[m]) for m in shared}
    subj_maps = {m: _per_subject_maps(meshes[m], fixrows[m], cfg)
                 for m in shared}

    # --- inter-observer agreement -------------------------------------
    same, cross = [], []
    for m in shared:
        maps = list(subj_maps[m].values())
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                try:
                    same.append(plcc(maps[i], maps[j]))
                except FdmError:
                    pass
    for mi in range(len(shared)):
        for mj in range(mi + 1, len(shared)):
            a_maps = list(subj_maps[shared[mi]].values())
            b_maps = list(subj_maps[shared[mj]].values())
            for a in a_maps:
                for b in b_maps:
                    # different meshes: compare on the shared vertex-count prefix
                    k = min(len(a.values), len(b.values))
                    try:
                        cross.append(plcc(a.values[:k], b.values[:k]))
                    except FdmError:
                        pass
    inter = {"version": __version__, "same_mesh_pairs": len(same),
             "cross_mesh_pairs": len(cross),
             "note": ("cross-mesh similarity uses index pairing over the "
                      "shared vertex-count prefix and serves as a noise "
                      "baseline")}
    if len(same) >= 2 and len(cross) >= 2:
        try:
            t, p = inter_observer_test(same, cross)
            inter.update(t=t, p=p, mean_same=float(np.mean(same)),
                         mean_cross=float(np.mean(cross)))
        except EvaluationError as exc:
            inter["skipped"] = str(exc)
    else:
        inter["skipped"] = "need >= 2 similarity pairs on each side"
    _write_json(os.path.join(args.out, "inter_observer.json"), inter)

    # --- center / depth bias ------------------------------------------
    cam = camera_from_config(cfg)
    bias_rows = []
    for m in shared:
        buckets = defaultdict(list)
        for rec_id, _, fp in fixrows[m]:
            buckets[pose_bucket(fp.pose_p, fp.pose_o, cfg.pose_grid_m,
                                cfg.pose_angle_bin_deg)].append(fp)
        for bucket in sorted(buckets):
            pts = buckets[bucket]
            if len(pts) < 3:
                continue
            rep = pts[0]
            pose = ViewPose(p=rep.pose_p, o_deg=rep.pose_o, camera=cam)
            vs = visible_points(meshes[m], pose, cfg.depth_tol_frac)
            if vs.empty:
                continue
            fpos = np.stack([fp.position for fp in pts])
            vpos = meshes[m].vertices[vs.ids]
            bias_rows.append({
                "mesh": m, "bucket": bucket, "fixations": len(pts),
                "d_f_center": bias_distance(fpos, vs.center),
                "d_v_center": bias_distance(vpos, vs.center),
                "d_f_head": bias_distance(fpos, rep.pose_p),
                "d_v_head": bias_distance(vpos, rep.pose_p),
            })
    bias_report = {"version": __version__, "rows": bias_rows}
    if bias_rows:
        bias_report["mean_d_f_center"] = float(np.mean([r["d_f_center"] for r in bias_rows]))
        bias_report["mean_d_v_center"] = float(np.mean([r["d_v_center"] for r in bias_rows]))
        bias_report["mean_d_f_head"] = float(np.mean([r["d_f_head"] for r in bias_rows]))
        bias_report["mean_d_v_head"] = float(np.mean([r["d_v_head"] for r in bias_rows]))
    else:
        bias_report["skipped"] = "no pose bucket had >= 3 fixations"
    _write_json(os.path.join(args.out, "bias.json"), bias_report)

    # --- saccade amplitudes ---------------------------------------------
    amplitudes = []
    for m in shared:
        by_rec = defaultdict(list)
        for rec_id, cluster_id, fp in fixrows[m]:
            by_rec[rec_id].append((cluster_id, fp))
        for rec_id, pairs in sorted(by_rec.items()):
            pairs.sort(key=lambda x: x[0])
            for (_, fa), (_, fb) in zip(pairs, pairs[1:]):
                try:
                    amplitudes.append(saccade_amplitude(fa, fb))
                except FixationError:
                    pass
    sac = {"version": __version__, "count": len(amplitudes)}
    if amplitudes:
        arr = np.asarray(amplitudes)
        sac.update(mean_deg=float(arr.mean()), median_deg=float(np.median(arr)),
                   std_deg=float(arr.std()), max_deg=float(arr.max()))
    else:
        sac["skipped"] = "no consecutive fixation pairs"
    _write_json(os.path.join(args.out, "saccade.json"), sac)

    # --- viewing-direction dependence -----------------------------------
    vdd_report = {"version": __version__, "per_mesh": {}}
    vdd_csv = ["mesh,correlation,abs_correlation"]
    for m in shared:
        per_pose = defaultdict(list)
        for rec_id, _, fp in fixrows[m]:
            per_pose[(rec_id,
                      pose_bucket(fp.pose_p, fp.pose_o, cfg.pose_grid_m,
                                  cfg.pose_angle_bin_deg))].append(fp)
        # height filter: keep the modal height grid cell
        def ycell(fp):
            return int(np.floor(fp.pose_p[1] / cfg.pose_grid_m))
        cells = defaultdict(int)
        for pts in per_pose.values():
            cells[ycell(pts[0])] += 1
        if not cells:
            vdd_report["per_mesh"][m] = {"skipped": "no fixations"}
            continue
        modal = max(sorted(cells), key=lambda c: cells[c])
        entries = []
        for (rec_id, bucket), pts in sorted(per_pose.items()):
            if ycell(pts[0]) != modal:
                continue
            fdm = splat_fdm(meshes[m], pts, cfg.sigma_fdm, cfg.fdm_cutoff_sigmas)
            entries.append((pts[0].pose_o, fdm.values))
        try:
            corr = viewing_direction_dependence(
                entries, cfg.vdd_max_angle_deg, cfg.vdd_repetitions, cfg.seed)
            vdd_report["per_mesh"][m] = {"correlation": corr,
                                         "abs_correlation": abs(corr),
                                         "maps": len(entries)}
            vdd_csv.append(f"{m},{corr!r},{abs(corr)!r}")
        except EvaluationError as exc:
            vdd_report["per_mesh"][m] = {"skipped": str(exc), "maps": len(entries)}
    _write_json(os.path.join(args.out, "direction_dependence.json"), vdd_report)
    _atomic_write(os.path.join(args.out, "direction_dependence.csv"),
                  "\n".join(vdd_csv) + "\n")

    # --- initial lateral preference --------------------------------------
    left_report = {"version": __version__}
    if args.recordings:
        counts = {"Left": 0, "Right": 0, "None": 0}
        for name in sorted(os.listdir(args.recordings)):
            if not name.endswith(".csv"):
                continue
            try:
                samples = load_recording(os.path.join(args.recordings, name),
                                         cfg.screen_half_extent)
                counts[initial_move_direction(samples, cfg.move_gate_m)] += 1
            except (GazeError, EvaluationError) as exc:
                _warn(f"left-preference: {name}: {exc}")
        decided = counts["Left"] + counts["Right"]
        left_report.update(counts=counts)
        if decided:
            left_report["left_fraction"] = counts["Left"] / decided
    else:
        left_report["skipped"] = "no --recordings directory given"
    _write_json(os.path.join(args.out, "left_preference.json"), left_report)
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
