"""Three rules of the package's source, each kept in one place.

An exact-int test, `type(x) is int` or `type(x) is not int`, appears only
inside partitions.check_int and check_ints, so every int input is refused
through one helper with one message shape.  No module has a global
statement: state shared between calls lives in functools caches, not in
rebound module globals.  Every import is relative or names a standard-library
module, inside functions and under TYPE_CHECKING too, since pyproject.toml
declares no dependencies."""

import ast
import sys
from pathlib import Path

import np_atlas

PACKAGE = Path(np_atlas.__file__).resolve().parent
INT_CHECKERS = [("partitions.py", "check_int"), ("partitions.py", "check_ints")]


def _is_type_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type"


def _imported_tops(node: ast.AST) -> list[str]:
    """The top-level module names an absolute import statement reads."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []


def _rule_sites(tree: ast.AST, function: str | None = None):
    """(line, kind, innermost enclosing function or None) of each int type test,
    each global statement and each import of a module outside the standard
    library."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        if isinstance(node, ast.Global):
            yield node.lineno, "global statement", inner
        elif any(top not in sys.stdlib_module_names for top in _imported_tops(node)):
            yield node.lineno, "non-stdlib import", inner
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if (any(map(_is_type_call, operands))
                    and any(isinstance(o, ast.Name) and o.id == "int" for o in operands)):
                yield node.lineno, "int type test", inner
        yield from _rule_sites(node, inner)


def _package_sites(kind: str) -> list[tuple[str, int, str | None]]:
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    return [(path.name, line, function) for path in modules
            for line, found, function in _rule_sites(ast.parse(path.read_text(), str(path)))
            if found == kind]


def test_scan_finds_each_kind_of_site():
    source = ("def f(x):\n"
              "    def g(y):\n"
              "        return type(y) != int\n"
              "    global seen\n"
              "    return type(x) is not int\n"
              "ok = int is type(z)\n"
              "other = type(z) is str or isinstance(z, int)\n"
              "from . import partitions\n"
              "if TYPE_CHECKING:\n"
              "    import os.path, numpy\n"
              "def h():\n"
              "    import argparse\n"
              "    from sympy.core import S\n")
    assert sorted(_rule_sites(ast.parse(source)), key=str) == [
        (10, "non-stdlib import", None), (13, "non-stdlib import", "h"),
        (3, "int type test", "g"), (4, "global statement", "f"),
        (5, "int type test", "f"), (6, "int type test", None)]


def test_int_type_tests_live_only_in_the_int_checkers():
    found = _package_sites("int type test")
    assert sorted({(name, function) for name, _, function in found}) == INT_CHECKERS
    assert len(found) == len(INT_CHECKERS)


def test_package_has_no_global_statement():
    assert _package_sites("global statement") == []


def test_package_imports_only_the_standard_library():
    assert _package_sites("non-stdlib import") == []
