"""The runtime is numpy plus the standard library, and nothing more.

scipy, mpmath and hypothesis serve the tests only, as oracles and
generators (the `test` extra in pyproject.toml); no module under
src/meshgaze may import them, at module level or inside a function.
Likewise no function or class under src/meshgaze may exist for the tests
alone: test-only helpers and oracles live in tests/conftest.py.
"""
import ast
import os
import re
import sys

import pytest

import meshgaze

PACKAGE = os.path.dirname(meshgaze.__file__)
CHECKOUT = os.path.dirname(os.path.dirname(PACKAGE))
PYPROJECT = os.path.join(CHECKOUT, "pyproject.toml")
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


def _mentions(node):
    """Every name a syntax tree mentions: Name ids, Attribute names, import
    aliases and string constants (which covers __init__._EXPORTS)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_library_function_and_class_has_a_user():
    """Each top-level function and class of src/meshgaze is named somewhere
    other than its own definition: in src/meshgaze, in perfbench/*.py or in
    README.md.  What only the tests call belongs in tests/conftest.py.
    Dunder names (the PEP 562 module __getattr__) are the interpreter's."""
    perfbench = os.path.join(CHECKOUT, "perfbench")
    readme = os.path.join(CHECKOUT, "README.md")
    if not (os.path.exists(PYPROJECT) and os.path.isdir(perfbench)
            and os.path.exists(readme)):
        pytest.skip("meshgaze is not imported from a source checkout")
    defined, used = [], {}          # used: name -> places that mention it
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for k, stmt in enumerate(tree.body):
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not stmt.name.startswith("__")):
                defined.append((name, k, stmt.name))
            for word in _mentions(stmt):
                used.setdefault(word, set()).add((name, k))
    text = ""
    for path in [os.path.join(perfbench, f) for f in sorted(os.listdir(perfbench))
                 if f.endswith(".py")] + [readme]:
        with open(path, encoding="utf-8") as fh:
            text += fh.read() + "\n"
    unused = [f"{module}: {name}" for module, k, name in defined
              if not used.get(name, set()) - {(module, k)}
              and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
