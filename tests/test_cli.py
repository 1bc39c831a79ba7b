import json
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import motivecalc
from motivecalc.cli import main


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
        import io

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

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "verify-gm6", "--json")
        _, out2, _ = run(capsys, "verify-gm6", "--json")
        assert out1 == out2


class TestAtlas:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "atlas-dump")
        assert code == 0
        data = json.loads(out)
        names = [e["name"] for e in data["entries"]]
        assert {"P4", "Q6", "Gr(2,5)", "K3", "Hilb2K3"} <= set(names)
        assert names == sorted(names)

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

    def test_bad_atlas_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "euler", "--atlas", str(path), "K3")
        assert code == 2

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
    "cls",
    [
        motivecalc.DslError,
        motivecalc.UnregisteredAtomError,
        motivecalc.MissingRealizationError,
        motivecalc.DimensionMismatchError,
        motivecalc.NonCellularFactorError,
        motivecalc.InvalidRankError,
        motivecalc.OddCohomologyError,
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
