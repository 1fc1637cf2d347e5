"""No module of the package does float arithmetic: every rational is a
Fraction or a pair of ints.  The scan refuses true division, float literals
and calls of float, so a float cannot enter the certification path through
the package's own source."""

import ast
from pathlib import Path

import np_atlas

PACKAGE = Path(np_atlas.__file__).resolve().parent


def _float_sites(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "call of float"


def test_scan_finds_each_kind_of_float_site():
    source = "x = a / b\ny = 0.5\nz = float(x)\nx /= 2\nw = a // b\n"
    assert sorted(_float_sites(ast.parse(source))) == [
        (1, "true division"), (2, "float literal 0.5"), (3, "call of float"), (4, "true division")]


def test_package_has_no_float_arithmetic():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 9
    found = [f"{path.name}:{line}: {kind}" for path in modules
             for line, kind in _float_sites(ast.parse(path.read_text(), str(path)))]
    assert found == []
