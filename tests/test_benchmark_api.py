"""The package API the benchmark harness calls. perfbench/ is not changed
together with the package, so a simplification that removes or reshapes a
name it uses must fail here, not in a benchmark run. The harness files are
read as source, never imported."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import motivecalc
import motivecalc.cli
import motivecalc.dsl
from motivecalc import GMScenario, NormalForm, ladder, perturbed, solve_tensor_factor
from motivecalc.tatepoly import ONE

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def dotted_uses(source: str, root: str) -> set[str]:
    """Every attribute chain read from the name `root`, e.g. "dsl.tokenize"
    for ``mc.dsl.tokenize``; a chain's prefixes are listed too."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == root:
            found.add(".".join(reversed(chain)))
    return found


def test_the_scan_finds_nested_chains():
    source = "mc.a(x.b)\ny = mc.dsl.tokenize(t).c\nz = other.d"
    assert dotted_uses(source, "mc") == {"a", "dsl", "dsl.tokenize"}


# (harness file, the name it binds the package to)
HARNESS = [("worker.py", "mc"), ("probe.py", "motivecalc")]


@pytest.mark.parametrize("name, root", HARNESS)
def test_every_name_the_harness_reads_resolves(name, root):
    uses = dotted_uses((PERFBENCH / name).read_text(encoding="utf-8"), root)
    assert uses
    missing = []
    for chain in sorted(uses):
        value = motivecalc
        for attr in chain.split("."):
            if not hasattr(value, attr):
                missing.append(chain)
                break
            value = getattr(value, attr)
    assert missing == []


def test_worker_reads_cli_and_dsl_names():
    uses = dotted_uses((PERFBENCH / "worker.py").read_text(encoding="utf-8"), "mc")
    assert {"dsl.tokenize", "cli.main", "cli.build_arg_parser"} <= uses


def test_scenario_facts_as_the_worker_filters_them():
    base = GMScenario()
    facts = [f.name for f in fields(GMScenario) if f.init and f.type == "int"]
    assert len(facts) == 15
    for fact in facts:
        assert getattr(perturbed(base, **{fact: getattr(base, fact) + 1}), fact) == (
            getattr(base, fact) + 1
        )


def test_atoms_register_with_a_third_positional_field():
    atlas = motivecalc.Atlas()
    atlas.registry.register(motivecalc.MotiveAtom("X", 6, frozenset({"unknown"})))
    assert atlas.registry.atom("X").top == 6


def test_solve_result_carries_the_normal_form():
    m1 = ladder(0, 1) ** 2
    rhs = NormalForm({"K3": m1 * ladder(0, 2), "B": ONE})
    solved = solve_tensor_factor("X", m1, NormalForm({"B": ONE}), rhs)
    assert solved.normal_form == NormalForm({"K3": ladder(0, 2)})


def test_token_count_is_the_tokens_plus_end():
    # Q ( 6 ) + K3 * L ^ 2, then END
    assert len(motivecalc.dsl.tokenize("Q(6) + K3 * L^2")) == 11
    assert len(motivecalc.dsl.tokenize("")) == 1
