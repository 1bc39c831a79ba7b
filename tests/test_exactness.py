"""Exactness is the product: no module of the package computes with a float,
and every value compares by one rule. An AST scan of each source file finds
a float constant, a true division (`/` or `/=`), a call of `float` and each
class that defines its own `__eq__`."""

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


def eq_definers(source: str) -> list[str]:
    """Names of the classes whose body defines or assigns __eq__."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            getattr(stmt, "name", None) == "__eq__"
            or any(getattr(t, "id", None) == "__eq__" for t in getattr(stmt, "targets", ()))
            for stmt in node.body
        )
    ]


@pytest.mark.parametrize(
    "source, found",
    [
        ("class A:\n    def __eq__(self, other):\n        return True", ["A"]),
        ("class A:\n    __eq__ = object.__eq__", ["A"]),
        ("class A:\n    class B:\n        def __eq__(self, other): ...", ["B"]),
        ("class A:\n    def _key(self): ...\ndef __eq__(a, b): ...", []),
    ],
)
def test_the_scan_finds_eq_definitions(source, found):
    assert eq_definers(source) == found


def test_frozen_states_the_only_equality():
    # every value type inherits Frozen.__eq__ and narrows _key() at most
    found = [name for path in SRC.glob("*.py") for name in eq_definers(path.read_text("utf-8"))]
    assert found == ["Frozen"]
