"""meshgaze: reconstruct 3D fixations from 6DoF gaze recordings and
predict where people look on meshes.

The pipeline runs recording -> sight-line intersection -> fixation
classification -> density maps, and independently mesh + viewpoint ->
visibility-gated saliency.  Everything is deterministic for a fixed
config and seed.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .config import (ConfigError, MeshgazeError, RunConfig, load_config,
                     parse_config)
from .mesh import Mesh, MeshError, load_mesh, save_ply
from .gaze import (GazeError, PoseSample, head_orientation, load_recording,
                   screen_frame, screen_point, trace_samples)
from .fixation import (FixationError, FixationPoint, classify_ivt,
                       extract_fixations, load_fixations, save_fixations)
from .visibility import (CameraModel, ViewPose, VisibilityError, pose_hash,
                         visible_points)
from .fdm import (FdmError, FixationDensityMap, build_ground_truth, plcc,
                  splat_fdm)
from .saliency import (SaliencyError, SaliencyMap, baseline_curvature_saliency,
                       compute_fpfh, saliency_map, uniqueness)
from .evaluation import (EvaluationError, inter_observer_test, metric_cc,
                         metric_kl, metric_se, weighted_eval)
from .synth import ScenarioError, SyntheticScenario, generate_recording

__all__ = [
    "__version__",
    "MeshgazeError", "ConfigError", "RunConfig", "load_config", "parse_config",
    "Mesh", "MeshError", "load_mesh", "save_ply",
    "GazeError", "PoseSample", "head_orientation", "load_recording",
    "screen_frame", "screen_point", "trace_samples",
    "FixationError", "FixationPoint", "classify_ivt", "extract_fixations",
    "load_fixations", "save_fixations",
    "CameraModel", "ViewPose", "VisibilityError", "pose_hash",
    "visible_points",
    "FdmError", "FixationDensityMap", "build_ground_truth", "plcc",
    "splat_fdm",
    "SaliencyError", "SaliencyMap", "baseline_curvature_saliency",
    "compute_fpfh", "saliency_map", "uniqueness",
    "EvaluationError", "inter_observer_test", "metric_cc", "metric_kl",
    "metric_se", "weighted_eval",
    "ScenarioError", "SyntheticScenario", "generate_recording",
]
