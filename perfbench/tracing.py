"""Spans around calls into meshgaze's layers, recorded from outside.

``install(tracer)`` wraps each public function listed in ``TARGETS`` under
every name it is looked up by: the defining module and every other
``meshgaze`` module that bound it with ``from ... import``.  A wrapper on
the defining module alone would miss those calls.  A target that no longer
exists is skipped and its layer reported as unmeasured.

Each span records its name, start, end, parent span and work counts.  Spans
stay in memory and ``Tracer.dump`` writes them out when the process ends.
``layer_metrics`` turns the spans of one traced sequence into the per-layer
metrics.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
import time


def _rows(result, *args, **kwargs):
    return {"rows": len(result)}


def _recording_rows_written(result, path, samples, *a, **k):
    return {"rows": len(samples)}


def _trace_counts(result, *a, **k):
    return {"rays": len(result), "hits": sum(r is not None for _, r in result)}


def _fixation_counts(result, *a, **k):
    return {"fixations": len(result[0])}


def _visibility_counts(result, mesh, pose, *a, **k):
    key = hashlib.sha1(mesh.vertices.tobytes())
    key.update(repr((pose.p.tolist(), pose.o_deg.tolist(),
                     vars(pose.camera))).encode())
    return {"triangles": len(mesh.triangles), "visible": len(result.ids),
            "pose": key.hexdigest()}


def _fpfh_counts(result, positions, *a, **k):
    return {"points": len(positions)}


def _uniqueness_counts(result, positions, descriptors, exact_limit=5000,
                       sample_size=5000, *a, **k):
    n = len(positions)
    subsampled = bool(result[1])
    return {"cells": n * (sample_size if subsampled else n),
            "subsampled": int(subsampled)}


def _map_rows_written(result, path, values, *a, **k):
    return {"rows": len(values)}


# span name -> (module, attribute path, counts(result, *args, **kwargs))
TARGETS = {
    "mesh.load": ("meshgaze.mesh", "load_mesh", None),
    "bvh.build": ("meshgaze.bvh", "TriangleBVH.__init__", None),
    "gaze.trace": ("meshgaze.gaze", "trace_samples", _trace_counts),
    "gaze.recording_read": ("meshgaze.gaze", "load_recording", _rows),
    "gaze.recording_write": ("meshgaze.gaze", "save_recording",
                             _recording_rows_written),
    "synth.generate": ("meshgaze.synth", "generate_recording", None),
    "synth.reach_check": ("meshgaze.synth", "check_targets_reachable", None),
    "fixation.extract": ("meshgaze.fixation", "extract_fixations",
                         _fixation_counts),
    "visibility.visible": ("meshgaze.visibility", "visible_points",
                           _visibility_counts),
    "saliency.fpfh": ("meshgaze.saliency", "compute_fpfh", _fpfh_counts),
    "saliency.uniqueness": ("meshgaze.saliency", "uniqueness",
                            _uniqueness_counts),
    "saliency.map": ("meshgaze.saliency", "saliency_map", None),
    "saliency.baseline": ("meshgaze.saliency", "baseline_curvature_saliency",
                          None),
    "fdm.splat": ("meshgaze.fdm", "splat_fdm", None),
    "fdm.ground_truth": ("meshgaze.fdm", "build_ground_truth", None),
    "fdm.map_write": ("meshgaze.fdm", "save_map_csv", _map_rows_written),
    "fdm.map_read": ("meshgaze.fdm", "load_map_csv", _rows),
    "fdm.prediction_read": ("meshgaze.cli", "_read_prediction", _rows),
    "evaluation.cc": ("meshgaze.evaluation", "metric_cc", None),
    "evaluation.se": ("meshgaze.evaluation", "metric_se", None),
    "evaluation.kl": ("meshgaze.evaluation", "metric_kl", None),
    "evaluation.vdd": ("meshgaze.evaluation", "viewing_direction_dependence",
                       None),
    "evaluation.inter_observer": ("meshgaze.evaluation", "inter_observer_test",
                                  None),
}


class Tracer:
    """In-memory span list for one process; spans nest by call order."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, counts]
        self.stack = []
        self.unmeasured = []

    def wrap(self, name, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counts is not None:
                try:
                    span[4] = counts(result, *args, **kwargs)
                except Exception:   # the function changed shape: keep running
                    self.unmeasured.append(name)
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "unmeasured": self.unmeasured}, fh)


def install(tracer: Tracer) -> None:
    """Wrap every target under each name that refers to it."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "meshgaze" or n.startswith("meshgaze.")]
    for name, (modname, attr, counts) in TARGETS.items():
        owner = sys.modules.get(modname)
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, parts[-1], None) if owner is not None else None
        if not callable(fn):
            tracer.unmeasured.append(name)
            continue
        wrapped = tracer.wrap(name, fn, counts)
        if len(parts) > 1:                       # a method: patch the class
            setattr(owner, parts[-1], wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced sequence

# metric -> span names whose durations it sums
TIMES = {
    "mesh.load_s": ["mesh.load"],
    "bvh.build_s": ["bvh.build"],
    "gaze.trace_s": ["gaze.trace"],
    "gaze.recording_read_s": ["gaze.recording_read"],
    "gaze.recording_write_s": ["gaze.recording_write"],
    "synth.generate_s": ["synth.generate"],
    "synth.reach_check_s": ["synth.reach_check"],
    "fixation.extract_s": ["fixation.extract"],
    "visibility.visible_s": ["visibility.visible"],
    "saliency.fpfh_s": ["saliency.fpfh"],
    "saliency.uniqueness_s": ["saliency.uniqueness"],
    "saliency.baseline_s": ["saliency.baseline"],
    "fdm.splat_s": ["fdm.splat"],
    "fdm.ground_truth_s": ["fdm.ground_truth"],
    "fdm.map_write_s": ["fdm.map_write"],
    "fdm.map_read_s": ["fdm.map_read", "fdm.prediction_read"],
    "evaluation.metrics_s": ["evaluation.cc", "evaluation.se",
                             "evaluation.kl"],
    "evaluation.vdd_s": ["evaluation.vdd"],
    "evaluation.inter_observer_s": ["evaluation.inter_observer"],
}

# metric -> (span names, count key)
COUNTS = {
    "gaze.rays": (["gaze.trace"], "rays"),
    "gaze.recording_rows": (["gaze.recording_read", "gaze.recording_write"],
                            "rows"),
    "fixation.fixations": (["fixation.extract"], "fixations"),
    "visibility.triangles": (["visibility.visible"], "triangles"),
    "visibility.visible_vertices": (["visibility.visible"], "visible"),
    "saliency.fpfh_points": (["saliency.fpfh"], "points"),
    "saliency.uniqueness_cells": (["saliency.uniqueness"], "cells"),
    "fdm.map_rows": (["fdm.map_write", "fdm.map_read",
                      "fdm.prediction_read"], "rows"),
}

VERBS = ["synth", "process", "fdm", "fdm_by_pose", "saliency", "baseline",
         "evaluate", "analyze"]


def layer_metrics(processes) -> dict:
    """Per-layer metrics of one sequence.

    processes: one ``{"verb", "spans", "unmeasured"}`` dict per traced verb
    process.  A metric whose spans were not recorded because the wrapped
    function no longer exists is None.
    """
    spans = [s for p in processes for s in p["spans"]]
    missing = {n for p in processes for n in p["unmeasured"]}

    def picked(names):
        return [s for s in spans if s[0] in names]

    def total(names):
        if missing & set(names):
            return None
        return sum(s[2] - s[1] for s in picked(names))

    def count(names, key):
        if missing & set(names):
            return None
        return sum((s[4] or {}).get(key, 0) for s in picked(names))

    out = {m: total(names) for m, names in TIMES.items()}
    out.update({m: count(names, key) for m, (names, key) in COUNTS.items()})

    rays, hits = count(["gaze.trace"], "rays"), count(["gaze.trace"], "hits")
    trace_s = out["gaze.trace_s"]
    out["gaze.rays_per_s"] = None if rays is None else (
        rays / trace_s if trace_s else 0.0)
    out["gaze.hit_frac"] = None if rays is None else (
        hits / rays if rays else 0.0)

    vis = None if "visibility.visible" in missing else \
        picked(["visibility.visible"])
    out["visibility.calls"] = None if vis is None else len(vis)
    out["visibility.distinct_poses"] = None if vis is None else \
        len({s[4]["pose"] for s in vis})
    out["fdm.splat_calls"] = None if "fdm.splat" in missing else \
        len(picked(["fdm.splat"]))
    uniq = None if "saliency.uniqueness" in missing else \
        picked(["saliency.uniqueness"])
    out["saliency.uniqueness_subsampled_frac"] = None if uniq is None else (
        sum(s[4]["subsampled"] for s in uniq) / len(uniq) if uniq else 0.0)
    out["saliency.map_self_s"] = None if "saliency.map" in missing else \
        _self_time(processes, "saliency.map")

    for verb in VERBS:
        out[f"cli.{verb}_s"] = sum(
            s[2] - s[1] for p in processes if p["verb"] == verb
            for s in p["spans"] if s[0] == "cli.main")
    return out


def _self_time(processes, name) -> float:
    """Duration of the named spans minus the time their children cover."""
    total = 0.0
    for p in processes:
        spans = p["spans"]
        for i, s in enumerate(spans):
            if s[0] == name:
                children = sum(c[2] - c[1] for c in spans if c[3] == i)
                total += (s[2] - s[1]) - children
    return total
