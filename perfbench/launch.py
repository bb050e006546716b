"""Run one meshgaze verb, or the set-up probe, in a fresh interpreter.

    python3 perfbench/launch.py VERB ARGS...               # cli.main
    python3 perfbench/launch.py --spans FILE VERB ARGS...  # traced cli.main
    python3 perfbench/launch.py --setup MESH...            # set-up probe

The set-up probe pays what every verb pays before its per-item work:
importing ``meshgaze.cli``, loading the mesh files and building their
normals, k-d tree and BVH.  With ``--spans`` the layer wrappers of
``tracing.py`` are installed before ``cli.main`` runs and the spans are
written to FILE when it returns.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup_probe(paths) -> int:
    from meshgaze import cli  # noqa: F401  (the import is part of set-up)
    from meshgaze.mesh import load_mesh
    for path in paths:
        mesh = load_mesh(path)
        for index in ("normals", "kdtree", "bvh"):
            if hasattr(type(mesh), index):
                getattr(mesh, index)
    return 0


def main(argv) -> int:
    if argv[:1] == ["--setup"]:
        return setup_probe(argv[1:])
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    from meshgaze import cli
    if spans is None:
        return cli.main(argv)
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
