"""The modules of the package share only public names: a private name, such
as tatepoly's packed-digit helpers, is used only in the module defining it.
Only gm loads dataclasses."""

import ast
from pathlib import Path

import pytest

import motivecalc

SRC = Path(motivecalc.__file__).parent


def private_sibling_imports(source: str) -> list[str]:
    """Each underscore name the source imports from a sibling module."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("motivecalc"))
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .tatepoly import MAX_DIM, _unpack", ["line 1: _unpack"]),
        ("from motivecalc.tatepoly import _pack", ["line 1: _pack"]),
        ("from __future__ import annotations\nfrom .tatepoly import ONE", []),
        ("def _f(): pass\n_f()", []),
    ],
)
def test_the_check_finds_private_imports(source, found):
    assert private_sibling_imports(source) == found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_from_a_sibling(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Each module the source imports, a relative one with its leading dots."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("." * node.level + (node.module or ""))
    return out


@pytest.mark.parametrize(
    "source, found",
    [
        ("import dataclasses", {"dataclasses"}),
        ("from dataclasses import dataclass", {"dataclasses"}),
        ("def f():\n    import dataclasses as d", {"dataclasses"}),
        ("from . import motive\nfrom .tatepoly import ONE", {".", ".tatepoly"}),
    ],
)
def test_the_check_finds_imported_modules(source, found):
    assert imported_modules(source) == found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "gm.py"), ids=lambda p: p.name
)
def test_expression_modules_do_not_import_dataclasses(path):
    """Every value type is a tatepoly.Frozen class, and the import costs a
    cold start; gm keeps dataclasses only for GMScenario, whose fields
    perfbench reads."""
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))
