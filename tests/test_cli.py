import io
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import motivecalc
from motivecalc import TatePolynomial, ladder
import motivecalc.cli as cli
from motivecalc.cli import main
from motivecalc.gm import GMScenario, perturbed, verify_identity

from strategies import carried


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExprCommands:
    def test_euler(self, capsys):
        code, out, _ = run(capsys, "euler", "Q(6) + K3 * L^2")
        assert code == 0
        assert out.strip() == "32"

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "Q(6) + Q(6) * L")
        assert code == 0
        assert out.strip() == "{Q6: 1 + L}"

    def test_normalize_json(self, capsys):
        code, out, _ = run(capsys, "normalize", "--json", "Q(6) + K3 * L^2")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "motive-calc/1"
        assert data["normal_form"] == {"K3": "L^2", "Q6": "1"}

    def test_hodge_prints_diamond(self, capsys):
        code, out, _ = run(capsys, "hodge", "Q(6) + K3 * L^2")
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows[6] == ["0", "0", "1", "22", "1", "0", "0"]

    def test_betti(self, capsys):
        code, out, _ = run(capsys, "betti", "Q(6) + K3 * L^2")
        assert code == 0
        assert out.split() == "1 0 1 0 2 0 24 0 2 0 1 0 1".split()

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "Hilb2QY * (1 + L)")
        assert code == 0
        assert out.strip() == "4"

    def test_stdin_expression(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Q(6)"))
        code, out, _ = run(capsys, "euler", "-")
        assert code == 0
        assert out.strip() == "8"

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "euler", "Q(6) +")
        assert code == 2
        assert "error" in err

    def test_unknown_identifier_exit_2(self, capsys):
        code, _, err = run(capsys, "normalize", "Nope")
        assert code == 2

    def test_missing_realization_exit_2(self, capsys):
        # X has no Hodge table
        code, _, err = run(capsys, "hodge", "X * L")
        assert code == 2

    def test_missing_realization_names_atom(self, capsys):
        code, out, err = run(capsys, "hodge", "X")
        assert (code, out) == (2, "")
        assert err == "error: no Hodge realization for atom 'X'\n"


class TestSolve:
    def test_gm_cancellation(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "1 + 2L + 2L^2 + 2L^3 + L^4",
            "Hilb2QY * (L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6)",
            "Q(6) * (1 + 2L + 2L^2 + 2L^3 + L^4)"
            " + K3 * (L^2 + 2L^3 + 2L^4 + 2L^5 + L^6)"
            " + Hilb2QY * (L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6)",
        )
        assert code == 0
        assert out.strip() == "{K3: L^2, Q6: 1}"

    def test_not_divisible_exit_1(self, capsys):
        code, out, _ = run(capsys, "solve", "1 + L", "P(0) * L^0", "Q(6)")
        assert code == 1
        assert "NotDivisible" in out or "NotASummand" in out

    # dense twists: div_exact packs them into ints, and these two are
    # refused before or after the packed division
    @pytest.mark.parametrize(
        "m1,twist",
        [
            (ladder(0, 19), carried(ladder(0, 19) * TatePolynomial({0: 200}), ladder(0, 19))),
            (ladder(0, 20) * TatePolynomial({0: 70000}), ladder(0, 40)),
        ],
    )
    def test_packed_refusal_exit_1(self, capsys, m1, twist):
        code, out, err = run(capsys, "solve", str(m1), "P(0)", f"K3 * ({twist}) + P(0)")
        assert (code, err) == (1, "")
        assert out == f"solve failed: NotDivisibleError: {twist} is not divisible by {m1}\n"

    def test_stdin_read_for_at_most_one_expression(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("K3 * L"))
        message = "error: at most one of m2 and rhs may be '-'\n"
        assert run(capsys, "solve", "1", "-", "-") == (2, "", message)
        # refused before reading: stdin is still there for one '-'
        assert run(capsys, "solve", "1", "-", "K3 * L + X") == (0, "{X: 1}\n", "")

    def test_zero_tensor_factor_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "0", "P(1)", "P(1)")
        assert (code, out) == (2, "")
        assert err == "error: tensor factor must be nonzero\n"


class TestVerify:
    def test_quiet_final_line(self, capsys):
        code, out, _ = run(capsys, "verify-gm6", "--quiet")
        assert code == 0
        assert out.strip() == "identity: OK; M(X) = Q(6) + K3*L^2; torsion: FREE"

    def test_full_report(self, capsys):
        code, out, _ = run(capsys, "verify-gm6")
        assert code == 0
        assert "Euler characteristic: 32" in out
        assert out.strip().endswith("identity: OK; M(X) = Q(6) + K3*L^2; torsion: FREE")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify-gm6", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["identity_ok"] is True
        assert data["euler"] == 32
        assert data["torsion"]["conclusion"] == "free"

    @pytest.mark.parametrize(
        "changes",
        [{"codim_d2": 5}, {"px_fiber": 2, "ux_fiber": 2}],
        ids=["rejected-at-a-gate", "normal-forms-differ"],
    )
    def test_failed_identity_exits_1(self, capsys, monkeypatch, changes):
        bad = perturbed(GMScenario(), **changes)
        monkeypatch.setattr(cli, "GMScenario", lambda: bad)
        message = verify_identity(bad).message
        assert run(capsys, "verify-gm6") == (1, f"identity: FAILED; {message}\n", "")
        code, out, err = run(capsys, "verify-gm6", "--json")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["identity_ok"] is False and report["message"] == message

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify-gm6", "--json")
        _, out2, _ = run(capsys, "verify-gm6", "--json")
        assert out1 == out2


# (command, input read beside a loaded atlas-dump, the builtin input it must
# print like without the file)
DUMP_CASES = [
    ("hodge", "P4", "P(4)"),
    ("hodge", "P(4)", "P(4)"),
    ("hodge", "K3", "K3"),
    ("hodge", "Prod(P4, K3)", "Prod(P(4), K3)"),
    ("normalize", "Prod(P4, X)", "Prod(P(4), X)"),
]


class TestAtlas:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "atlas-dump")
        assert code == 0
        data = json.loads(out)
        names = [e["name"] for e in data["entries"]]
        assert {"P4", "Q6", "Gr(2,5)", "K3", "Hilb2K3"} <= set(names)
        assert names == sorted(names)

    def test_dump_entries_load_as_an_atlas_file(self, capsys, tmp_path):
        # an entry equal to a builtin's is that entry, so the dump, once or
        # twice, changes no output; P4 reads the dump's entry for P(4)
        _, out, _ = run(capsys, "atlas-dump")
        entries = json.loads(out)["entries"]
        for copies in (1, 2):
            path = tmp_path / f"dump{copies}.json"
            path.write_text(json.dumps(entries * copies))
            for command, expr, builtin in DUMP_CASES:
                expected = run(capsys, command, builtin)
                assert expected[0] == 0
                got = run(capsys, command, "--atlas", str(path), expr)
                assert got == expected, (copies, command, expr)

    def test_extra_atlas_file(self, capsys, tmp_path):
        extra = [
            {
                "name": "Ell",
                "dim": 1,
                "torsion_free": True,
                "diamond": {
                    "n": 1,
                    "h": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
                },
            }
        ]
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(extra))
        code, out, _ = run(capsys, "euler", "--atlas", str(path), "Ell * L")
        assert code == 0
        assert out.strip() == "0"

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("{not json", id="not-json"),
            # deeper than the JSON reader's recursion limit
            pytest.param("[" * 100000 + "]" * 100000, id="deep-nesting"),
        ],
    )
    def test_bad_atlas_file_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "normalize", "--atlas", str(path), "P(1)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, dim, code, stream",
        [
            # the scenario atoms take a diamond of their registered dimension
            ("X", 6, 0, "1 0 1 0 1 0 1 0 1 0 1 0 1\n"),
            ("Hilb2QY", 3, 0, "1 0 1 0 1 0 1\n"),
            ("X", 5, 2, "error: atom 'X' already registered with dim 6, not 5\n"),
        ],
    )
    def test_atlas_entry_for_scenario_atom(self, capsys, tmp_path, name, dim, code, stream):
        h = [[k, k, 1] for k in range(dim + 1)]
        path = tmp_path / "extra.json"
        path.write_text(json.dumps([{"name": name, "dim": dim, "h": h}]))
        got, out, err = run(capsys, "betti", "--atlas", str(path), name)
        assert got == code
        # a refusal names the file and the item
        named = stream.replace("error: ", f"error: atlas file {path}: item 0: ", 1)
        assert (out, err) == ((stream, "") if code == 0 else ("", named))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"name": "S", "dim": 2, "h": []}, "top level must be a list of objects"),
            ([["S", 2]], "item 0 must be an object"),
            ([{"dim": 2, "h": []}], "item 0: 'name' must be a string"),
            (
                [{"name": "S", "dim": "2", "h": [[0, 0, 1], [1, 1, 1], [2, 2, 1]]}],
                "item 0: 'dim' must be a nonnegative integer",
            ),
            ([{"name": "S", "dim": True, "h": []}], "'dim' must be a nonnegative integer"),
            ([{"name": "S", "dim": -1, "h": []}], "'dim' must be a nonnegative integer"),
            ([{"name": "S", "dim": 2}], "'h' must be a list of [p, q, v] integer triples"),
            ([{"name": "S", "dim": 2, "h": [[0, 0]]}], "'h' must be a list of"),
            ([{"name": "S", "dim": 2, "h": [[0, 0, "1"]]}], "'h' must be a list of"),
            ([{"name": "S", "dim": 2, "diamond": 5}], "'diamond.h' must be a list of"),
            (
                [{"name": "S", "dim": 0, "h": [[0, 0, 1]], "torsion_free": "false"}],
                "'torsion_free' must be a boolean",
            ),
            (
                [{"name": "S", "dim": 1, "h": [[0, 0, 1], [1, 1, 1]], "cells": 2}],
                "item 0: 'cells' must be null or a twist polynomial",
            ),
            (
                [{"name": "S", "dim": 1, "h": [[0, 0, 1], [1, 1, 1]], "cells": "1 +"}],
                "'cells' must be a twist polynomial: expected a polynomial term, got 'end",
            ),
            (
                [{"name": "S", "dim": 1, "h": [[0, 0, 1], [1, 1, 1]], "cells": "1 + 2L"}],
                "'cells' must be a twist polynomial whose diagonal diamond is 'h'",
            ),
            (
                [{"name": "S", "dim": 1, "diamond": {"h": [[0, 0, 1], [1, 1, 1]]}, "cells": "1"}],
                "'cells' must be a twist polynomial whose diagonal diamond is 'diamond.h'",
            ),
            (
                [{"name": "S", "dim": 0, "h": [], "cells": "0"}],
                "'cells' must be a twist polynomial whose diagonal diamond is 'h'",
            ),
            # a repeated (p, q) is refused, not read last-wins
            (
                [{"name": "E", "dim": 1, "h": [[0, 0, 5], [0, 0, 1], [1, 1, 1]]}],
                "item 0: 'h' must be a list of [p, q, v] integer triples with no (p, q) twice",
            ),
            (
                [
                    {"name": "S", "dim": 0, "h": [[0, 0, 1]]},
                    {"name": "E", "dim": 1, "diamond": {"h": [[0, 0, 1], [1, 1, 1], [1, 1, 1]]}},
                ],
                "item 1: 'diamond.h' must be a list of [p, q, v] integer triples with no (p, q) twice",
            ),
            # refusals of the values an item builds name the item too
            ([{"name": "S", "dim": 2, "h": [[5, 5, 1]]}], "item 0: entry (5,5) outside [0,2]^2"),
            (
                [{"name": "S", "dim": 2, "h": [[0, 0, 1], [1, 0, 1]]}],
                "item 0: diamond of S fails symmetry checks",
            ),
            (
                [
                    {"name": "P2", "dim": 2, "h": [[0, 0, 1], [1, 1, 1], [2, 2, 1]]},
                    {"name": "P2", "dim": 2, "h": [[0, 0, 1], [1, 1, 2], [2, 2, 1]]},
                ],
                "item 1: entry 'P2' already present",
            ),
            # the diamond's own dimension is read, not dropped
            (
                [{"name": "S", "dim": 2, "diamond": {"n": 7, "h": [[k, k, 1] for k in range(3)]}}],
                "item 0: 'diamond.n' must be absent or equal to 'dim'",
            ),
            (
                [{"name": "E", "dim": 1, "diamond": {"n": True, "h": [[0, 0, 1], [1, 1, 1]]}}],
                "item 0: 'diamond.n' must be absent or equal to 'dim'",
            ),
            (
                [{"name": "E", "dim": 1, "diamond": {"n": 1.0, "h": [[0, 0, 1], [1, 1, 1]]}}],
                "item 0: 'diamond.n' must be absent or equal to 'dim'",
            ),
        ],
    )
    def test_atlas_schema_violation_exit_2(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "normalize", "--atlas", str(path), "P(1)")
        assert code == 2
        assert out == ""
        assert err.startswith("error: atlas file ") and message in err
        assert len(err.splitlines()) == 1


def test_deep_nesting_exit_2(capsys):
    code, out, err = run(capsys, "dim", "(" * 3000 + "P(1)" + ")" * 3000)
    assert code == 2
    assert out == ""
    assert err == "error: expression nested deeper than 200 levels (line 1, column 201)\n"


def test_end_of_input_column_is_relative_to_its_line(capsys):
    code, _, err = run(capsys, "dim", "K3 +\n")
    assert code == 2
    assert err == "error: expected expression, got 'end of input' (line 2, column 1)\n"
    # a '*' after a coefficient needs an 'L', even at the end of the input
    message = "error: expected 'L', got 'end of input' (line 1, column 4)\n"
    assert run(capsys, "solve", "2 *", "P(0)", "P(0)") == (2, "", message)


ONES = "1" * 5000


@pytest.mark.parametrize(
    "argv, col",
    [
        pytest.param(("dim", f"P({ONES})"), 3, id="builtin-argument"),
        pytest.param(("normalize", f"K3 * ({ONES} L)"), 7, id="twist-coefficient"),
        pytest.param(("solve", ONES, "P(0)", "P(0)"), 1, id="solve-polynomial"),
    ],
)
def test_overlong_numeral_error_has_position(capsys, argv, col):
    # past Python's int-conversion limit a numeral is a syntax error at its token
    limit = sys.get_int_max_str_digits()
    message = f"error: numeral has 5000 digits, more than {limit} (line 1, column {col})\n"
    assert run(capsys, *argv) == (2, "", message)


NINES = "9" * 100_000
CUT = "... (100000 characters) (line 1, column"


@pytest.mark.parametrize(
    "text, message",
    [
        (f"K3*{NINES}", f"expected a twist, got '{'9' * 32}'{CUT} 4)"),
        ("Ab" * 50_000, f"unknown identifier '{'Ab' * 16}'{CUT} 1)"),
    ],
    ids=["numeral", "identifier"],
)
def test_a_long_token_is_quoted_by_its_prefix(capsys, monkeypatch, text, message):
    # a one-line error stays short however long the token it names
    assert run(capsys, "betti", text) == (2, "", f"error: {message}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(capsys, "betti", "-") == (2, "", f"error: {message}\n")


def run_fresh(*argv):
    """Run the CLI in a fresh interpreter under a timeout and a 512 MiB
    address-space limit, so unbounded work fails fast instead of hanging or
    exhausting memory."""
    src = str(Path(motivecalc.__file__).resolve().parents[1])
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from motivecalc.cli import main; sys.exit(main(sys.argv[2:]))"
    )

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc = subprocess.run(
        [sys.executable, "-c", script, src, *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit_memory,
    )
    return proc.returncode, proc.stdout, proc.stderr


CAP_ERROR = "error: top weight {} exceeds the Hodge realization cap 1000\n"


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(("dim", "P(1)"), (0, "1\n", ""), id="dim"),
        pytest.param(("hodge", "S"), (2, "", CAP_ERROR.format(100000)), id="hodge"),
        pytest.param(("betti", "S"), (2, "", CAP_ERROR.format(100000)), id="betti"),
        pytest.param(("euler", "S"), (2, "", CAP_ERROR.format(100000)), id="euler"),
    ],
)
def test_huge_atlas_dimension_is_checked_at_once(tmp_path, argv, expected):
    # the symmetry check visits stored entries only, not the (n+1)^2 grid,
    # and realization refuses a top weight above hodge.MAX_DIM up front
    path = tmp_path / "big.json"
    path.write_text(json.dumps([{"name": "S", "dim": 100000, "h": []}]))
    command, expr = argv
    assert run_fresh(command, "--atlas", str(path), expr) == expected


def test_huge_exponent_is_refused_before_realizing():
    expected = (2, "", CAP_ERROR.format(100000001))
    assert run_fresh("betti", "P(1) * L^100000000") == expected


def test_realization_cap_boundary(capsys):
    code, out, _ = run(capsys, "betti", "P(0) * L^1000")
    assert code == 0
    assert out.split() == ["0"] * 2000 + ["1"]
    assert run(capsys, "betti", "P(0) * L^1001") == (2, "", CAP_ERROR.format(1001))


@pytest.mark.parametrize(
    "expr, message",
    [
        ("Q(0)", "Q: dimension 0 outside 1..1000"),
        ("Gr(3,2)", "Gr: need 1 <= k < n and k(n - k) <= 1000"),
        ("PB(K3, 0)", "PB: bundle rank 0 outside 1..1001"),
        ("Fib(K3, 1001)", "Fib: fiber dimension 1001 outside 0..1000"),
        ("Bl(P(4), P(2), 1)", "Bl: blow-up codimension 1 outside 2..1001"),
        ("Bl(P(4), K3, 3)", "Bl: center dim 2 + codim 3 != ambient dim 4"),
        ("Prod(K3, K3)", "Prod: product needs at least one cellular atlas factor"),
        ("Hilb2(P(1))", "Hilb2: input must be a surface"),
        ("Hilb2(K3 + K3)", "Hilb2: argument must name an atlas surface"),
    ],
)
def test_builtin_error_names_builtin_and_position(capsys, expr, message):
    assert run(capsys, "dim", expr) == (2, "", f"error: {message} (line 1, column 1)\n")


@pytest.mark.parametrize(
    "expr, column",
    [("K3 + Bl(P(4), K3, 3)", 6), ("K3 + Fib(Bl(P(4), K3, 3), 1)", 10)],
)
def test_nested_builtin_error_names_its_own_position(capsys, expr, column):
    # the first case is the README's example, verbatim
    message = "error: Bl: center dim 2 + codim 3 != ambient dim 4"
    assert run(capsys, "dim", expr) == (2, "", f"{message} (line 1, column {column})\n")


def test_atlas_clash_names_builtin_and_position(capsys, tmp_path):
    # a file entry under a builtin's name that is not its entry (no torsion
    # flag, no cells); the plain identifier K3 is placed like a builtin
    cases = [
        ("P1", 1, "K3 + P(1)", "error: P: entry 'P1' already present (line 1, column 6)\n"),
        ("K3", 2, "P(1) + K3", "error: K3: entry 'K3' already present (line 1, column 8)\n"),
    ]
    for name, dim, expr, message in cases:
        path = tmp_path / f"{name}.json"
        h = [[k, k, 1] for k in range(dim + 1)]
        path.write_text(json.dumps([{"name": name, "dim": dim, "h": h}]))
        assert run(capsys, "dim", "--atlas", str(path), expr) == (2, "", message)


@pytest.mark.parametrize("command", ["normalize", "dim"])
@pytest.mark.parametrize(
    "expr",
    [
        "P(10000000)",
        "Q(10000000)",
        "PB(K3, 10000000)",
        "Fib(K3, 10000000)",
        "Gr(2,2000)",
        "Gr(300,600)",
        "P(1001)",
        "Gr(1,1002)",
    ],
)
def test_builtin_caps_exit_2(command, expr):
    code, out, err = run_fresh(command, expr)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {expr.split('(')[0]}: ")
    assert err.endswith(" (line 1, column 1)\n") and err.count("\n") == 1


def test_builtin_cap_boundary():
    assert run_fresh("betti", "P(1000)") == (0, " ".join(["1", "0"] * 1000 + ["1"]) + "\n", "")
    code, out, err = run_fresh("hodge", "P(1000)")
    assert (code, err, len(out.splitlines())) == (0, "", 2001)
    # q-Pascal keeps only the columns up to min(k, n - k)
    assert run_fresh("hodge", "Gr(1,1001)") == run_fresh("hodge", "Gr(1000,1001)") == (0, out, "")


def test_oversized_diamond_is_refused_before_it_is_built():
    # about 4 KB of input whose text diamond would be 2001 rows of 4002-wide cells
    code, out, err = run_fresh("hodge", f"P(1000) * ({'9' * 4000})")
    assert (code, out) == (2, "")
    assert err == (
        "error: Hodge diamond of dimension 1000 with cell width 4002 would render "
        f"up to {2001**2 * 4002} characters, over the bound {2**27}\n"
    )


def test_hodge_json_is_not_bounded_by_the_rendering_bound():
    expr = f"P(1000) * ({'9' * 40})"
    code, out, err = run_fresh("hodge", "--json", expr)
    assert (code, err) == (0, "")
    assert json.loads(out)["hodge"]["h"][-1] == [1000, 1000, int("9" * 40)]
    code, out, err = run_fresh("hodge", expr)
    assert (code, out) == (2, "")
    assert f"up to {2001**2 * 42} characters" in err and err.count("\n") == 1


# 381 characters whose twist product has 2^25 terms
TWIST_BOMB = "K3" + "".join(f" * (1 + L^{1 << i})" for i in range(25))


def test_twist_product_is_capped():
    code, out, err = run_fresh("normalize", TWIST_BOMB)
    assert (code, out) == (2, "")
    assert err.startswith("error: twist product of ") and err.count("\n") == 1
    # dim reads degrees only and never multiplies the twists
    assert run_fresh("dim", TWIST_BOMB) == (0, f"{2 + (1 << 25) - 1}\n", "")


def fmt(pattern):
    """Map a tuple of strings into `pattern`."""
    return lambda parts: pattern.format(*parts)


# small naturals, which build something, come up more often than the caps
NATS = st.sampled_from(
    ["0", "1", "2", "3", "0", "1", "2", "3", "1000", "1001", "10000000", "1000000000"]
)
POLYS = st.lists(
    st.one_of(
        NATS, st.just("L"), NATS.map("L^{}".format), st.tuples(NATS, NATS).map(fmt("{}L^{}"))
    ),
    min_size=1,
    max_size=3,
).map(" + ".join)
TWISTS = st.one_of(st.just("L"), NATS.map("L^{}".format), POLYS.map("({})".format))


def dsl_texts(depth=3):
    """DSL programs nesting at most `depth` levels of builtins, sums, twists
    and parentheses."""
    exprs = st.one_of(
        st.sampled_from(["K3", "X", "Hilb2QY", "S", "P1"]),
        st.tuples(st.sampled_from(["P", "Q"]), NATS).map(fmt("{}({})")),
        st.tuples(NATS, NATS).map(fmt("Gr({},{})")),
    )
    for _ in range(depth):
        e = exprs
        exprs = st.one_of(
            e,
            e.map("Hilb2({})".format),
            st.tuples(st.sampled_from(["PB", "Fib"]), e, NATS).map(fmt("{}({}, {})")),
            st.tuples(e, e, NATS).map(fmt("Bl({}, {}, {})")),
            st.tuples(e, e).map(fmt("Prod({}, {})")),
            st.tuples(e, e).map(fmt("{} + {}")),
            st.tuples(e, TWISTS).map(fmt("{} * {}")),
            e.map("({})".format),
        )
    return exprs


def splice(parts):
    """`noise` inserted into `text` at offset `at` (mod its length + 1)."""
    text, noise, at = parts
    at %= len(text) + 1
    return text[:at] + noise + text[at:]


TRIPLES = st.lists(st.integers(0, 2), min_size=3, max_size=3)
# an even surface, a surface with odd cohomology, a curve, a huge atom
DIAMONDS = [
    (2, [[0, 0, 1], [1, 1, 1], [2, 2, 1]]),
    (2, [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 2], [2, 1, 1], [1, 2, 1], [2, 2, 1]]),
    (1, [[0, 0, 1], [1, 1, 1]]),
    (100000, []),
]
ATLAS_ENTRIES = st.tuples(
    st.sampled_from(["S", "S", "K3", "P1"]),
    st.one_of(
        st.sampled_from(DIAMONDS),
        st.tuples(st.integers(0, 2), st.lists(TRIPLES)),
    ),
    st.booleans(),
).map(lambda t: {"name": t[0], "dim": t[1][0], "h": t[1][1], "torsion_free": t[2]})
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text("SPK31", max_size=3),
    lambda c: st.lists(c, max_size=3) | st.dictionaries(st.sampled_from(["name", "dim", "h"]), c),
    max_leaves=8,
)


TEXTS = st.tuples(
    dsl_texts(), st.text("PQGrHilb2BFiodK3LSX0123456789+*^(), \n", max_size=10), st.integers(0)
).map(splice)


SURFACE = {"name": "S", "dim": 2, "h": [[0, 0, 1], [1, 1, 1], [2, 2, 1]], "torsion_free": True}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    argv=st.one_of(
        st.tuples(st.sampled_from(["normalize", "hodge", "betti", "euler", "dim"]), TEXTS),
        st.tuples(st.just("solve"), POLYS, TEXTS, TEXTS),
    ),
    as_json=st.booleans(),
    atlas=st.one_of(st.none(), st.lists(ATLAS_ENTRIES, min_size=1, max_size=2), JSON),
)
# a successful --json run of every command, which the derandomized draw never makes
@example(argv=("normalize", "Q(6) + K3 * L^2"), as_json=True, atlas=None)
@example(argv=("hodge", "P(2) * (1 + L)"), as_json=True, atlas=None)
@example(argv=("betti", "S * L + K3"), as_json=True, atlas=[SURFACE])
@example(argv=("euler", "Gr(2,4) + Q(3) * L"), as_json=True, atlas=None)
@example(argv=("dim", "Hilb2(K3) * L^3"), as_json=True, atlas=None)
@example(argv=("solve", "1 + L", "K3", "K3 + K3 * (1 + L)"), as_json=True, atlas=None)
def test_cli_exit_contract_fuzz(argv, as_json, atlas):
    # exit 0 or 2 for any input, or 1 for a solve that fails, within
    # run_fresh's time and memory limits
    argv = [argv[0], *["--json"] * as_json, *argv[1:]]
    with tempfile.TemporaryDirectory() as tmp:
        if atlas is not None:
            path = Path(tmp, "atlas.json")
            path.write_text(json.dumps(atlas))
            argv[1:1] = ["--atlas", str(path)]
        code, out, err = run_fresh(*argv)
    assert code in ((0, 1, 2) if argv[0] == "solve" else (0, 2)), err
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    elif as_json:
        payload = json.loads(out)
        assert err == "" and out.count("\n") == 1 and isinstance(payload, dict)
        assert payload["schema"] == "motive-calc/1" and payload["command"] == argv[0]
    else:
        assert err == "" and out


@pytest.mark.parametrize(
    "cls",
    [
        motivecalc.dsl.DslError,
        motivecalc.UnregisteredAtomError,
        motivecalc.hodge.MissingRealizationError,
        motivecalc.DimensionMismatchError,
        motivecalc.formulas.NonCellularFactorError,
        motivecalc.formulas.InvalidRankError,
        motivecalc.atlas.OddCohomologyError,
        motivecalc.ScenarioError,
    ],
)
def test_input_errors_are_value_or_key_errors(cls):
    # the CLI maps exactly ValueError, KeyError and OSError to exit 2
    assert issubclass(cls, (ValueError, KeyError))


def test_runtime_is_pure_stdlib():
    # diff against the modules loaded at start-up, which site hooks may extend
    script = (
        "import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
        "import motivecalc, motivecalc.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = str(Path(motivecalc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-I", "-c", script, src], capture_output=True, text=True, check=True
    ).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert "motivecalc" in loaded
    assert loaded - {"motivecalc"} <= sys.stdlib_module_names
