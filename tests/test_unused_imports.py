"""Every name a ``src/repro`` module imports is used in that module.

No linter ships with the project, so this parses each module with
``ast``. Package ``__init__.py`` files are exempt: their imports are
re-exports.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name → line of every import, ``__future__`` excepted."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    names[a.asname or a.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations and
    ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in
                           args.posonlyargs + args.args + args.kwonlyargs
                           + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})"
            for name, line in sorted(imported_names(tree).items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_annotation_uses():
    src = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Any, Optional\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(src) == ["Any (line 4)", "math (line 2)"]
