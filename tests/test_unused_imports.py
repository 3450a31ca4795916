"""No module under ``src/``, ``tests/`` or ``tools/`` imports a name it never uses.

A static scan with :mod:`ast`: a name an ``import`` binds must be read
somewhere in its module — as a name, inside a quoted annotation, or in
``__all__``.  Exempt are ``from __future__`` imports, ``__init__.py``
files (their imports are the package's re-exports) and names that a
function of the module takes as a parameter (a pytest fixture imported
so that tests can request it).
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "tools")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name → line of every binding an import statement makes."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    """Every annotation expression of the module's functions and fields."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads, plus those it exempts (see the docstring)."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:  # a string argument, not a quoted type
                    continue
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            used |= {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    return used


def unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each import binding ``path`` never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    bound = sorted(_imported(tree).items(), key=lambda item: item[1])
    return [(line, name) for name, line in bound if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not hits, "unused imports:\n" + "\n".join(hits)


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Any as A, Optional\n"
        "from fixtures import tmp_dir\n"
        "def f(x: 'A', tmp_dir) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(module) == [(2, "json"), (4, "Optional")]
