"""No module in ``src/`` imports a name it never uses.

A stdlib-``ast`` stand-in for a linter's F401 check.  Package
``__init__.py`` files are skipped (their imports are re-exports), as are
names listed in a module's ``__all__`` and import lines marked
``# noqa: F401`` (imported for a side effect, or for a patch target).
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _module_imports(tree: ast.Module):
    """Import statements at module level, also inside module-level ``if``/``try`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations (``"SGLResult | str"``)."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {name.id for name in ast.walk(parsed) if isinstance(name, ast.Name)}
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def unused_imports(text: str, label: str) -> list[str]:
    """``label:line: name`` for each module-level import that ``text`` never uses."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = _used_names(tree) | _exported(tree)
    unused = []
    for node in _module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append(f"{label}:{node.lineno}: {name}")
    return unused


def test_no_unused_module_level_imports():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 50
    found = [
        line
        for path in modules
        for line in unused_imports(path.read_text(encoding="utf-8"), str(path.relative_to(SRC)))
    ]
    assert found == []


def test_the_check_sees_an_unused_import():
    text = (
        "from typing import TYPE_CHECKING\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "import json\n"
        "import scipy.sparse as sp\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path, PurePath\n"
        "__all__ = ['json']\n"
        "def f(p: 'Path | None') -> None:\n"
        "    return TYPE_CHECKING\n"
    )
    assert sorted(unused_imports(text, "probe.py")) == [
        "probe.py:2: os",
        "probe.py:5: sp",
        "probe.py:7: PurePath",
    ]
