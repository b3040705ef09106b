"""Every module-level import under ``src/repro`` is used by its module.

An ``ast`` walk, no linter needed: a name a module imports must appear
in its code (or in a string annotation, for imports kept for type
checkers).  Exempt are the packages' ``__init__.py`` re-exports, names
listed in a module's ``__all__``, and names another module of the
package imports from it.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path
from typing import Dict, Iterator, List, Set

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module(root: Path, path: Path) -> str:
    parts = list(path.relative_to(root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source_of(root: Path, path: Path, node: ast.ImportFrom) -> str:
    """The absolute name of the module *node* imports from."""
    if not node.level:
        return node.module or ""
    package = _module(root, path).split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[:len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _bound(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-level import statements, those under a module-level
    ``if`` or ``try`` (``TYPE_CHECKING`` guards, fallbacks) included."""
    for node in tree.body:
        nested = ast.walk(node) if isinstance(node, (ast.If, ast.Try)) \
            else [node]
        for stmt in nested:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt


def _names(stmt: ast.stmt) -> List[str]:
    if isinstance(stmt, ast.ImportFrom):
        if stmt.module == "__future__":
            return []
        return [a.asname or a.name for a in stmt.names if a.name != "*"]
    return [a.asname or a.name.split(".")[0] for a in stmt.names]


def _used(tree: ast.Module) -> Set[str]:
    """Names the module reads, plus those in string annotations."""
    used: Set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    text = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(text)
                            if isinstance(n, ast.Name))
    return used


def unused_imports(root: Path = ROOT) -> List[str]:
    """``path:line: name`` for each unused import of the package at
    *root*."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(root.rglob("*.py"))}
    # names some module of the package imports from another one
    imported: Dict[str, Set[str]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _source_of(root, path, node)
                imported.setdefault(source, set()).update(
                    a.name for a in node.names)
    found = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        used = _used(tree) | imported.get(_module(root, path), set())
        for stmt in _bound(tree):
            for name in _names(stmt):
                if name not in used:
                    found.append(f"{path.relative_to(root.parent.parent)}:"
                                 f"{stmt.lineno}: {name}")
    return found


def test_no_unused_module_level_imports():
    assert unused_imports() == []


def test_the_walk_finds_an_unused_import(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .a import kept\n")
    (package / "a.py").write_text(
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import os\n"
        "if TYPE_CHECKING:\n"
        "    from .b import Thing\n"
        "from .b import kept\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'Thing') -> List[int]:\n"
        "    return [os.sep]\n")
    (package / "b.py").write_text("Thing = kept = None\n")
    assert unused_imports(package) == [
        f"src{os.sep}repro{os.sep}a.py:1: Dict"]
