"""No module of the package reaches into another's private names.

A name with a leading underscore belongs to the module that defines it.
Walks the syntax tree of every ``src/cosmix/*.py`` file and fails on
``from .x import _name`` and on ``alias._name`` where ``alias`` is a
cosmix module. The pool, the span size and the process settings live in
``runtime`` only: ``autodiff`` and ``features`` keep no copy of them.
"""
import ast
from pathlib import Path

import cosmix
from cosmix import autodiff, features

SRC = Path(cosmix.__file__).resolve().parent


def private(name):
    return name.startswith("_") and not name.endswith("__")


def reaches(path):
    """``file:line: what`` for each use of another module's private name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "cosmix"
        if not inside:
            continue
        # `from . import x as y` and `from cosmix import x` bind modules
        binds_modules = node.module is None or node.module == "cosmix"
        for alias in node.names:
            if binds_modules:
                modules.add(alias.asname or alias.name)
            elif private(alias.name):
                found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}"
                             f"{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules and private(node.attr):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    found = [line for path in sorted(SRC.glob("*.py")) for line in reaches(path)]
    assert not found, "private names used across modules:\n" + "\n".join(found)


def test_runtime_names_live_in_runtime_only():
    tree = ast.parse((SRC / "runtime.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert {"BLOCK_CLIPS", "MIN_MADDS", "POOL_WORKERS", "_pool", "_share",
            "in_blocks"} <= defined
    for module in (autodiff, features):
        assert not defined & set(vars(module)), module.__name__
