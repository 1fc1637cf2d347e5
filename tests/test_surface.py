"""Every public function and class is reached from the program, not only from tests.

A name in np_atlas.__all__ counts as reached when the library modules or the
benchmark use it outside its own top-level def or class, either in code or,
in perfbench, as a "module.name" string (the tracer names its targets so).
Every module-level function, class and constant of the library modules is
held to the same rule, so a leftover helper or constant is caught too.
"""

import ast
import inspect
import re
from pathlib import Path

import np_atlas

ROOT = Path(__file__).resolve().parent.parent
FILES = [p for p in sorted((ROOT / "src" / "np_atlas").glob("*.py")) if p.name != "__init__.py"]
BENCH_FILES = sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"(\w+)\.(\w+)")


def _used_names(node: ast.AST) -> set[str]:
    """Names read in node: loaded names and attributes, never assignment targets."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _references() -> tuple[set[str], set[tuple[str, str]]]:
    """Names used in code, and (module, name) pairs named by perfbench strings."""
    names: set[str] = set()
    dotted: set[tuple[str, str]] = set()
    for path in FILES + BENCH_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            used = _used_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                used.discard(stmt.name)
            names |= used
        if path in BENCH_FILES:
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    match = DOTTED.fullmatch(node.value)
                    if match:
                        dotted.add(match.groups())
    return names, dotted


def test_every_public_function_and_class_is_reached():
    names, dotted = _references()
    unreached = []
    for name in np_atlas.__all__:
        obj = getattr(np_atlas, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        module = obj.__module__.rsplit(".", 1)[-1]
        if name not in names and (module, name) not in dotted:
            unreached.append(f"{module}.{name}")
    assert not unreached, f"public names only tests reach: {unreached}"


def test_every_module_level_name_is_read():
    names, dotted = _references()
    unread = []
    for path in FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            for name in _defined_names(stmt):
                if name not in names and (path.stem, name) not in dotted:
                    unread.append(f"{path.stem}.{name}")
    assert not unread, f"module-level names no code reads: {unread}"
