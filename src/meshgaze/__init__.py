"""meshgaze: reconstruct 3D fixations from 6DoF gaze recordings and
predict where people look on meshes.

The pipeline runs recording -> sight-line intersection -> fixation
classification -> density maps, and independently mesh + viewpoint ->
visibility-gated saliency.  Everything is deterministic for a fixed
config and seed.

The names in ``__all__`` are imported from their submodules on first use
(PEP 562), so ``import meshgaze`` loads no numpy.  That lets
``meshgaze.cli`` fix numpy's BLAS thread count before numpy loads.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("MeshgazeError", "ConfigError", "RunConfig", "load_config",
               "parse_config"),
    "mesh": ("Mesh", "MeshError", "load_mesh", "save_ply"),
    "gaze": ("GazeError", "PoseSample", "head_orientations", "load_recording",
             "screen_frames", "screen_point", "trace_samples"),
    "fixation": ("FixationError", "Fixations", "classify_ivt",
                 "extract_fixations", "load_fixations", "save_fixations"),
    "visibility": ("CameraModel", "ViewPose", "VisibilityError", "pose_hash",
                   "visible_points"),
    "fdm": ("FdmError", "FixationDensityMap", "build_ground_truth", "plcc",
            "splat_fdm"),
    "saliency": ("SaliencyError", "SaliencyMap", "baseline_curvature_saliency",
                 "compute_fpfh", "saliency_map", "uniqueness"),
    "evaluation": ("EvaluationError", "inter_observer_test", "metric_cc",
                   "metric_kl", "metric_se", "weighted_eval"),
    "synth": ("ScenarioError", "SyntheticScenario", "generate_recording"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
