"""Golden tests pinning the CLI's stdout and exit code byte for byte.

``golden_cli.json`` holds, for every subcommand in text and ``--json`` form,
the argv, optional stdin, exit code and exact stdout the CLI produced before
its internals were consolidated.  Refactors must keep these outputs
unchanged; do not regenerate the file to make a change pass.
"""

import io
import json
from pathlib import Path

import pytest

from motivecalc.cli import SCHEMA, main
from motivecalc.gm import GMScenario, full_report

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, monkeypatch, name):
    case = GOLDEN[name]
    code, out, err = run(capsys, monkeypatch, case["argv"], case.get("stdin", ""))
    assert (code, out, err) == (case["code"], case["stdout"], "")


# atlas-dump writes its own JSON, with no "command" key
ENVELOPED = sorted(
    name
    for name, case in GOLDEN.items()
    if "--json" in case["argv"] and case["argv"][0] != "atlas-dump"
)


@pytest.mark.parametrize("name", ENVELOPED)
def test_json_envelope(name):
    case = GOLDEN[name]
    data = json.loads(case["stdout"])
    assert data["command"] == case["argv"][0]
    assert data["schema"] == SCHEMA


def test_full_report_leaves_the_envelope_to_the_cli():
    assert "schema" not in full_report(GMScenario())


INPUT_ERRORS = {
    "syntax": ["euler", "Q(6) +"],
    "syntax_json": ["euler", "--json", "Q(6) +"],
    "unknown_identifier": ["normalize", "Nope"],
    "unknown_identifier_json": ["normalize", "--json", "Nope"],
    "missing_realization": ["hodge", "X"],
    "missing_realization_twisted": ["betti", "X * L"],
    "bad_arity": ["dim", "Bl(P(4), P(2), 1)"],
    "dimension_mismatch": ["dim", "Bl(P(4), K3, 3)"],
    "non_cellular_product": ["normalize", "Prod(K3, K3)"],
    "bad_twist_polynomial": ["solve", "L + x", "P(0)", "P(0)"],
    "bad_twist_polynomial_json": ["solve", "--json", "L + x", "P(0)", "P(0)"],
    "bad_solve_summand": ["solve", "1", "Q(6) +", "Q(6)"],
    "missing_atlas_file": ["normalize", "--atlas", "no/such/atlas.json", "P(1)"],
}


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_error_exit_2(capsys, monkeypatch, name):
    code, out, err = run(capsys, monkeypatch, INPUT_ERRORS[name])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
