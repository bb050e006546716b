"""The runtime is numpy plus the standard library.

scipy, mpmath and hypothesis serve the tests only, as oracles and
generators (the `test` extra in pyproject.toml); no module under
src/meshgaze may import them, at module level or inside a function.
"""
import ast
import os
import re
import sys

import pytest

import meshgaze

PACKAGE = os.path.dirname(meshgaze.__file__)
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)), "pyproject.toml")
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "meshgaze"}


def _imported_packages(path):
    """(line, top-level package) of every import in one source file;
    relative imports count as meshgaze."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            name = "meshgaze" if node.level else node.module.split(".")[0]
            yield node.lineno, name


def test_runtime_imports_only_stdlib_and_numpy():
    sources = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "evaluation.py" in sources and "cli.py" in sources
    foreign = [f"{name}:{line}: {package}" for name in sources
               for line, package in _imported_packages(os.path.join(PACKAGE, name))
               if package not in ALLOWED]
    assert foreign == []


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    if not os.path.exists(PYPROJECT):
        pytest.skip("meshgaze is not imported from a source checkout")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
             for dep in project["dependencies"]]
    assert names == ["numpy"]
    test_extra = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                  for dep in project["optional-dependencies"]["test"]]
    assert "scipy" in test_extra
