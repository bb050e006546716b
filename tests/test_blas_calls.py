"""A ratchet on the call sites that route through BLAS.

`@`, np.dot, np.matmul and np.linalg.norm without axis= hand their sums
to BLAS, whose summation order depends on the library and its thread
count, so each one ties the output bytes to the BLAS build.  The table
pins today's sites per (module, enclosing function); a new site fails
the test, and one that goes away must leave the table with it.
"""
import ast
import collections
import os

import meshgaze

PACKAGE = os.path.dirname(meshgaze.__file__)

PINNED = {
    "evaluation.weighted_eval": 1,
    "evaluation.viewing_direction_dependence.corr_of": 3,
    "evaluation.initial_move_direction": 1,
    "fdm.plcc": 3,
    "fixation.group_clusters": 1,
    "fixation.cluster_center_random_walk": 1,
    "gaze.rowdot": 1,
    "gaze.rotation_matrix": 2,
    "gaze.head_orientations": 1,
    "mesh.bounding_box_diagonal": 1,
    "primitives.icosphere.midpoint": 1,
    "saliency.uniqueness": 1,
}


def _is_blas(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call):
        name = ast.unparse(node.func)
        return name in ("np.dot", "np.matmul") or (
            name == "np.linalg.norm"
            and not any(k.arg == "axis" for k in node.keywords))
    return False


def _blas_sites(tree, scope, counts):
    """Count the BLAS-routed nodes under tree by dotted enclosing scope."""
    for child in ast.iter_child_nodes(tree):
        if _is_blas(child):
            counts[scope] += 1
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}"
        _blas_sites(child, inner, counts)


def test_blas_routed_calls_stay_pinned():
    counts = collections.Counter()
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            _blas_sites(ast.parse(fh.read(), filename=name), name[:-3], counts)
    assert dict(counts) == PINNED
