"""Command-line front end: process, fdm, saliency, baseline, evaluate,
analyze, synth.

Each verb is a file adapter: it reads its input files, hands them to the
library and writes the results.  ``main`` loads the --config FILE (flat
key=value) and the repeatable --set KEY=VALUE overrides that every verb
takes.  A verb is a pure function of its inputs, the config, and the
seeds: reruns write byte-identical outputs.  A verb's outputs appear
together or not at all: ``main`` runs it on a stage of --out
(``io.staged``), so a verb that fails leaves --out absent or unchanged.
Every metadata sidecar embeds the package version.

The CLI runs numpy's BLAS on one thread.  With more, OpenBLAS keeps
worker threads spinning for nothing in these short processes, and splits
the uniqueness product by core count, which changes its rounding and so
the saliency bytes.  The variable is set, not defaulted, so the caller's
environment cannot change the output.  OpenBLAS reads it only when numpy
loads, which ``import meshgaze`` does not do; right after that the
caller's value (or its absence) is put back, so a program that imports
this module passes its own setting on to the processes it starts.  No
verb loads a second BLAS (scipy) that would read the variable later.

Importing numpy leaves about 31,000 objects that live as long as the
process.  The cyclic GC would scan them again and again while they are
made, and once more at interpreter shutdown, which together cost a short
verb process about a tenth of its CPU.  So the GC is switched off while
numpy loads; in a ``finally`` its objects are moved to the permanent
generation (``gc.freeze``) and the GC is switched back on if it was on
before.  The freeze happens once, at import: a freeze on every ``main()``
call would also pin the garbage that a program calling ``main()``
in-process had made by then.  The meshgaze modules are only registered
here (``_lazy``, ``importlib.util.LazyLoader``): each is compiled and run
on first attribute access, so a verb pays only for the modules it uses
(and their objects are not frozen).
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
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
finally:
    gc.freeze()
    if _GC_WAS_ENABLED:
        gc.enable()


def _lazy(name: str):
    """meshgaze.<name>, put in sys.modules now and run on first use."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        def exec_module(module, run=spec.loader.exec_module):
            try:
                run(module)
            except BaseException as err:    # dropped, as a failed import is
                def unusable(attr, cause=err):
                    raise ImportError(f"{fullname} raised on first use") from cause
                sys.modules.pop(fullname, None)
                vars(sys.modules[__package__]).pop(name, None)
                for key in [k for k in vars(module) if k[:2] != "__"]:
                    del vars(module)[key]              # no half-run names
                module.__getattr__ = unusable
                raise
        spec.loader.exec_module = exec_module
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[fullname])
        setattr(sys.modules[__package__], name, sys.modules[fullname])
    return sys.modules[fullname]


(_config, _evaluation, _fdm, _fixation, _gaze, _io, _mesh, _saliency, _synth,
 _visibility) = map(_lazy, ("config", "evaluation", "fdm", "fixation", "gaze",
                            "io", "mesh", "saliency", "synth", "visibility"))


def _mesh_from_cfg(path, cfg) -> _mesh.Mesh:
    return _mesh.load_mesh(path, scale=cfg.mesh_scale,
                           translate=cfg.mesh_translate())


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _listing(directory, keep=lambda name: name.endswith(".csv"),
             stem=False) -> dict:
    """{name, or name without extension: path} of the entries of a
    directory that keep accepts, in name order; two names of one stem
    raise MeshgazeError."""
    out = {}
    for name in filter(keep, sorted(os.listdir(directory))):
        path = os.path.join(directory, name)
        key = os.path.splitext(name)[0] if stem else name
        if key in out:
            raise _config.MeshgazeError(
                f"{out[key]!r} and {path!r} share the stem {key!r}")
        out[key] = path
    return out


def _sidecar(path, /, **fields) -> None:
    """A JSON metadata file that carries the package version."""
    _io.write_json(path, {"version": __version__, **fields})


# ---------------------------------------------------------------------------
# commands

def cmd_process(args, cfg) -> int:
    mesh = _mesh_from_cfg(args.mesh, cfg)
    rec_files = _listing(args.recordings, stem=True)
    if not rec_files:
        raise _gaze.GazeError(f"no recordings found in {args.recordings!r}")
    summary = {}
    for rec_id, path in rec_files.items():
        recording = _gaze.load_recording(path, cfg.screen_half_extent)
        traced = _gaze.trace_samples(recording, mesh, cfg.d_screen)
        fixations, stats = _fixation.extract_fixations(recording, traced, cfg, rec_id)
        warnings = []
        if stats["miss_samples"] == stats["samples"]:
            warnings.append("all sight-lines missed the mesh")
        if not len(fixations):
            warnings.append("no fixations detected")
        for w in warnings:
            _warn(f"{rec_id}: {w}")
        stats["warnings"] = warnings
        summary[rec_id] = stats
        _fixation.save_fixations(os.path.join(args.out, f"{rec_id}.csv"), fixations)
    _sidecar(os.path.join(args.out, "summary.json"),
             mesh=os.path.basename(args.mesh), recordings=summary,
             total_fixations=sum(s["fixations"] for s in summary.values()))
    return 0


def _load_fixation_dir(path) -> _fixation.Fixations:
    """The fixations of every CSV in a directory, files in name order."""
    return _fixation.Fixations.concat(
        map(_fixation.load_fixations, _listing(path).values()))


def cmd_fdm(args, cfg) -> int:
    mesh = _mesh_from_cfg(args.mesh, cfg)
    fixations = _load_fixation_dir(args.fixations)
    if not args.by_pose:
        values = _fdm.splat_fdm(mesh, fixations, cfg.sigma_fdm,
                                cfg.fdm_cutoff_sigmas)
        if not (values > 0).any():
            _warn("no fixations: all-zero density map")
        _fdm.save_map_csv(os.path.join(args.out, "fdm.csv"), values)
        _fdm.save_map_ply(os.path.join(args.out, "fdm.ply"), mesh, values)
        _sidecar(os.path.join(args.out, "fdm.meta.json"),
                 sigma_fdm=cfg.sigma_fdm, cutoff_sigmas=cfg.fdm_cutoff_sigmas,
                 fixations=len(fixations))
        return 0

    # per-pose ground truth: bucket fixations, gate by per-bucket visibility
    weights, buckets = {}, {}
    for bucket, rows, pose, vs in _fdm.bucket_views(mesh, fixations, cfg):
        values, a_w = _fdm.build_ground_truth(
            mesh, fixations[rows], bucket, vs, cfg.sigma_fdm,
            cfg.fdm_cutoff_sigmas)
        if not (values > 0).any():
            _warn(f"bucket {bucket}: density is zero on the visible set")
        _fdm.save_map_csv(os.path.join(args.out, f"{bucket}.csv"), values)
        _visibility.save_visibility(os.path.join(args.out, f"{bucket}.vis.csv"), vs)
        weights[bucket] = a_w
        buckets[bucket] = {"a_w": a_w, "fixations": len(rows),
                           "pose_p": pose.p.tolist(), "pose_o": pose.o_deg.tolist()}
    _io.write_json(os.path.join(args.out, "weights.json"), weights)
    _sidecar(os.path.join(args.out, "gt_meta.json"), sigma_fdm=cfg.sigma_fdm,
             buckets=buckets)
    return 0


def cmd_saliency(args, cfg) -> int:
    mesh = _mesh_from_cfg(args.mesh, cfg)
    cam = _visibility.camera_from_config(cfg)
    poses = [_visibility.parse_pose(t, cam) for t in (args.pose or [])]
    if args.poses:
        poses += _visibility.load_poses(args.poses, cam)
    if not poses:
        raise _visibility.VisibilityError("no poses given (use --pose or --poses)")
    for pose in poses:
        smap = _saliency.saliency_map(mesh, pose, cfg)
        pid = smap.pose_id
        if smap.flagged:
            _warn(f"pose {pid}: empty visible set, all-zero saliency")
        if smap.isolated:
            _warn(f"pose {pid}: {smap.isolated} of {smap.visible} visible "
                  f"vertices have no neighbour within the FPFH radius "
                  f"{smap.fpfh_radius:.6g}")
        _fdm.save_saliency_csv(os.path.join(args.out, f"{pid}.csv"),
                               smap.s, smap.u, smap.c)
        _fdm.save_map_ply(os.path.join(args.out, f"{pid}.ply"), mesh, smap.s)
        _sidecar(os.path.join(args.out, f"{pid}.meta.json"), pose_id=pid,
                 pose_p=pose.p.tolist(), pose_o=pose.o_deg.tolist(),
                 camera={"hfov_deg": cam.hfov_deg, "vfov_deg": cam.vfov_deg,
                         "near": cam.near},
                 params=smap.params, flagged_empty=smap.flagged,
                 uniqueness_subsampled=smap.subsampled)
    return 0


def cmd_baseline(args, cfg) -> int:
    mesh = _mesh_from_cfg(args.mesh, cfg)
    values = _saliency.baseline_curvature_saliency(
        mesh, eps_frac=cfg.baseline_eps_frac, guard=cfg.baseline_guard)
    base, _ = os.path.splitext(args.out)
    _fdm.save_map_csv(base + ".csv", values)
    _fdm.save_map_ply(base + ".ply", mesh, values)
    _sidecar(base + ".meta.json", eps_frac=cfg.baseline_eps_frac,
             guard=cfg.baseline_guard)
    return 0


# perfbench/tracing.py times this reader as fdm.prediction_read
def _read_prediction(path) -> np.ndarray:
    """Accept both plain (vertex_id,value) maps and (vertex_id,S,U,C) exports."""
    return _io.read_vertex_csv(path, ["vertex_id"], "prediction file", _fdm.FdmError)


def cmd_evaluate(args, cfg) -> int:
    gt_files = _listing(args.ground_truth, stem=True, keep=lambda f:
                        f.endswith(".csv") and not f.endswith(".vis.csv"))
    pred_files = _listing(args.predictions, stem=True)
    if not gt_files:
        raise _evaluation.EvaluationError("no ground-truth maps found")
    missing = sorted(set(gt_files) - set(pred_files))
    if missing:
        raise _evaluation.EvaluationError(
            f"predictions missing for pose ids: {missing}")
    weights_path = os.path.join(args.ground_truth, "weights.json")
    weights = (_evaluation.load_weights(weights_path)
               if os.path.exists(weights_path) else {})

    def views():                     # each view read when it is scored
        for pid in sorted(gt_files):
            vis_path = os.path.join(args.ground_truth, f"{pid}.vis.csv")
            yield (pid, _fdm.load_map_csv(gt_files[pid]),
                   _read_prediction(pred_files[pid]),
                   _visibility.load_visibility(vis_path)
                   if os.path.exists(vis_path) else None,
                   weights.get(pid, 1))

    report = _evaluation.evaluate_views(views(), cfg)
    _sidecar(args.out, **report)
    per_view, agg = report["views"], report["aggregate"]
    csv_rows = [(pid, repr(v["cc"]), repr(v["se"]), repr(v["kl"]), v["A_w"])
                for pid, v in sorted(per_view.items())]
    csv_rows.append(("aggregate", repr(agg["E_cc"]), repr(agg["E_se"]),
                     repr(agg["E_kl"]), sum(v["A_w"] for v in per_view.values())))
    _io.write_csv(os.path.splitext(args.out)[0] + ".csv",
                  ["pose_id", "cc", "se", "kl", "A_w"], csv_rows)
    return 0


def cmd_synth(args, cfg) -> int:
    scenario = _synth.load_scenario(args.scenario)
    mesh = _mesh_from_cfg(args.mesh, cfg)
    targets = _synth.target_positions(scenario, mesh)
    for subject in range(scenario.subjects):
        recording = _synth.generate_recording(scenario, mesh, cfg, subject)
        if subject == 0:
            _synth.check_targets_reachable(scenario, mesh, cfg, recording)
        _gaze.save_recording(os.path.join(args.out, f"s{subject:02d}.csv"),
                             recording)
    _sidecar(os.path.join(args.out, "targets.json"), mesh_id=scenario.mesh_id,
             target_vertex_ids=[int(t) for t in scenario.targets],
             target_positions=targets.tolist(), subjects=scenario.subjects,
             noise_deg=scenario.noise_deg)
    return 0


def cmd_analyze(args, cfg) -> int:
    mesh_files = _listing(args.mesh_dir, stem=True, keep=lambda f:
                          os.path.splitext(f)[1].lower() in (".obj", ".ply"))
    fix_dirs = _listing(args.fixations, lambda f:
                        os.path.isdir(os.path.join(args.fixations, f)))
    shared = sorted(set(mesh_files) & set(fix_dirs))
    if not shared:
        raise _evaluation.EvaluationError(
            "analyze needs per-mesh fixation subdirectories matching mesh files")
    meshes = {m: _mesh_from_cfg(mesh_files[m], cfg) for m in shared}
    fixations = {m: _load_fixation_dir(fix_dirs[m]) for m in shared}
    _sidecar(os.path.join(args.out, "inter_observer.json"),
             **_evaluation.inter_observer_study(meshes, fixations, cfg))
    _sidecar(os.path.join(args.out, "bias.json"),
             **_evaluation.bias_study(meshes, fixations, cfg))
    _sidecar(os.path.join(args.out, "saccade.json"),
             **_evaluation.saccade_study(fixations))
    vdd = _evaluation.direction_dependence_study(meshes, fixations, cfg)
    _sidecar(os.path.join(args.out, "direction_dependence.json"), **vdd)
    _io.write_csv(os.path.join(args.out, "direction_dependence.csv"),
                  ["mesh", "correlation", "abs_correlation"],
                  [(m, repr(r["correlation"]), repr(r["abs_correlation"]))
                   for m, r in vdd["per_mesh"].items() if "correlation" in r])

    if not args.recordings:
        _sidecar(os.path.join(args.out, "left_preference.json"),
                 skipped="no --recordings directory given")
        return 0
    recordings, problems = {}, {}
    for name, path in _listing(args.recordings).items():
        try:
            recordings[name] = _gaze.load_recording(path, cfg.screen_half_extent)
        except _gaze.GazeError as exc:
            problems[name] = exc
    report, undecided = _evaluation.left_preference_study(recordings, cfg)
    problems.update(undecided)
    for name in sorted(problems):
        _warn(f"left-preference: {name}: {problems[name]}")
    _sidecar(os.path.join(args.out, "left_preference.json"), **report)
    return 0


# verb -> (command, help, its arguments in order); a bare flag is required
_VERBS = {
    "process": (cmd_process, "recordings -> fixation CSVs",
                ["--mesh", "--recordings", "--out"]),
    "fdm": (cmd_fdm, "fixations -> density maps / ground truth", [
        "--mesh", "--fixations", "--out", ("--by-pose", dict(
            action="store_true",
            help="emit per-pose-bucket ground truth with visit weights"))]),
    "saliency": (cmd_saliency, "per-pose saliency maps", [
        "--mesh",
        ("--pose", dict(action="append", help="px,py,pz,ox,oy,oz (repeatable)")),
        ("--poses", dict(help="file with one pose per line")), "--out"]),
    "baseline": (cmd_baseline, "curvature-contrast baseline map", [
        "--mesh", ("--out", dict(required=True, help="output path prefix"))]),
    "evaluate": (cmd_evaluate, "score predictions against ground truth", [
        "--ground-truth", "--predictions",
        ("--out", dict(required=True, help="report JSON path"))]),
    "analyze": (cmd_analyze, "behavioral statistics reports", [
        "--mesh-dir", ("--fixations", dict(required=True, help="directory with one "
                                           "subdirectory of fixation CSVs per mesh")),
        ("--recordings", dict(help="raw recordings (for movement preference)")),
        "--out"]),
    "synth": (cmd_synth, "generate synthetic recordings",
              ["--scenario", "--mesh", "--out"]),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="meshgaze",
        description="6DoF gaze processing and mesh saliency toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for verb, (func, help_text, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for arg in arguments:
            flag, kw = (arg, {"required": True}) if isinstance(arg, str) else arg
            p.add_argument(flag, **kw)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config.load_config(args.config) if args.config else _config.RunConfig()
        if args.set:
            cfg = _config.apply_overrides(cfg, args.set)
        with _io.staged(args.out) as args.out:
            return args.func(args, cfg)
    except (_config.MeshgazeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
