"""Exactness is the product: no module of the package computes with a float.
An AST scan of each source file finds a float constant, a true division
(`/` or `/=`) and a call of `float`."""

import ast
from pathlib import Path

import pytest

import motivecalc

SRC = Path(motivecalc.__file__).parent


def inexact(source: str) -> list[tuple[int, str]]:
    """(line, what) of each float constant, true division and float() call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) is float:
            found.append((node.lineno, "float constant"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float call"))
    return sorted(found)


@pytest.mark.parametrize(
    "source, found",
    [
        ("x = 0.5", [(1, "float constant")]),
        ("x = 1e3", [(1, "float constant")]),
        ("y = a / b", [(1, "true division")]),
        ("y = 1\ny /= 2", [(2, "true division")]),
        ("z = float(s)", [(1, "float call")]),
        ("def f(a, b):\n    return a // b, a % b, a * b, int('0.5'), str(2)", []),
    ],
)
def test_the_scan_finds_inexact_arithmetic(source, found):
    assert inexact(source) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_computes_with_floats(path):
    assert inexact(path.read_text(encoding="utf-8")) == []
