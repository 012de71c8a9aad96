"""The benchmark's hooks into the package still resolve.

``perfbench/`` drives the package by name: ``spans.py`` wraps the
functions listed in ``TRACED`` and ``child.py`` calls the package's API
directly.  A rename or deletion here would otherwise surface only as a
broken benchmark run.  The benchmark's files are read as text (parsed,
never imported), so this test leaves that directory untouched.
"""

import ast
import importlib
from pathlib import Path

import dbcayley
import dbcayley.cli  # binds the attribute child.py reads as dbcayley.cli.main
from dbcayley import GroupParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _dotted(node):
    """``a.b.c`` for a chain of attribute accesses on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_traced_functions_resolve():
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.walk(_tree("spans.py"))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert traced
    for module, name, _span in traced:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def test_child_names_resolve():
    package_names, params_names = set(), set()
    for node in ast.walk(_tree("child.py")):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        root, _, rest = (dotted or "").partition(".")
        if root == "dbcayley":
            package_names.add(rest)
        elif root == "params":
            params_names.add(rest)
    assert {"build", "parse_spec", "validate", "cli.main"} <= package_names
    assert {"decode", "encode", "mul"} <= params_names
    for name in package_names:
        target = dbcayley
        for part in name.split("."):
            target = getattr(target, part)
    for name in params_names:
        assert callable(getattr(GroupParams, name)), name
