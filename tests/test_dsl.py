import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from motivecalc import (
    Atlas,
    Atom,
    NormalForm,
    Sum,
    TatePolynomial,
    TensorTwist,
    ladder,
    normalize,
)
from motivecalc.dsl import (
    MAX_DEPTH,
    ArityError,
    DslError,
    DslSyntaxError,
    Parser,
    UnknownIdentifierError,
    tokenize,
)
from motivecalc.formulas import DimensionMismatchError

from strategies import motive_exprs, print_expr, session_atlas

P = Parser(Atlas()).parse_polynomial


@pytest.fixture()
def parser():
    return Parser(session_atlas())


class TestParse:
    def test_sum_with_twist(self, parser):
        e = parser.parse("Q(6) + K3 * L^2")
        assert isinstance(e, Sum)
        assert e.children[0] == Atom("Q6")
        assert e.children[1] == TensorTwist(Atom("K3"), P("L^2"))

    def test_first_blowup_stage(self, parser):
        parser.atlas.registry.register(
            __import__("motivecalc").MotiveAtom("Hilb2QY", 3)
        )
        e = parser.parse("Bl(Prod(Q(6), P(4)), Fib(Hilb2QY, 1), 6)")
        assert normalize(e) == NormalForm(
            {
                "Q6": ladder(0, 4),
                "Hilb2QY": ladder(0, 1) * ladder(1, 5),
            }
        )

    def test_pb_rank_zero_rejected(self, parser):
        with pytest.raises(ArityError):
            parser.parse("PB(K3, 0)")

    def test_polynomial_twist(self, parser):
        e = parser.parse("K3 * (1 + 2L + L^2)")
        assert normalize(e) == NormalForm({"K3": P("1 + 2L + L^2")})

    def test_l_to_the_zero_is_unit(self, parser):
        assert normalize(parser.parse("K3 * L^0")) == normalize(parser.parse("K3"))

    def test_parenthesized_expr(self, parser):
        e = parser.parse("(Q(6) + K3) * L")
        assert normalize(e) == NormalForm({"Q6": P("L"), "K3": P("L")})

    def test_hilb2_builtin(self, parser):
        e = parser.parse("Hilb2(K3)")
        assert e == Atom("Hilb2K3")
        assert parser.atlas.get("Hilb2K3").diamond.euler() == 324

    def test_gr_builtin(self, parser):
        assert parser.parse("Gr(2,5)") == Atom("Gr(2,5)")

    def test_whitespace_insensitive(self, parser):
        a = parser.parse("Q(6)+K3*L^2")
        b = parser.parse("  Q( 6 )  +  K3 * L ^ 2 ")
        assert normalize(a) == normalize(b)


class TestErrors:
    @pytest.mark.parametrize(
        "text, line, col",
        [
            pytest.param("Q(6) + + K3", 1, 8, id="double-plus"),
            # a '*' after a coefficient needs an 'L'
            pytest.param("K3 * (2 *)", 1, 10, id="star-before-paren"),
            pytest.param("K3 * (2 * + L)", 1, 11, id="star-before-plus"),
        ],
    )
    def test_syntax_error_has_position(self, parser, text, line, col):
        with pytest.raises(DslSyntaxError) as exc:
            parser.parse(text)
        assert exc.value.line == line
        assert exc.value.col == col

    def test_unknown_identifier(self, parser):
        with pytest.raises(UnknownIdentifierError):
            parser.parse("Mystery * L")

    def test_bare_l_rejected_as_factor(self, parser):
        with pytest.raises(DslSyntaxError):
            parser.parse("L + K3")

    def test_unexpected_character(self, parser):
        with pytest.raises(DslSyntaxError):
            parser.parse("K3 @ L")

    def test_arity_error_bad_codim(self, parser):
        with pytest.raises(ArityError):
            parser.parse("Bl(P(4), P(2), 1)")

    def test_blowup_dimension_checked(self, parser):
        with pytest.raises(ArityError) as exc:
            parser.parse("Bl(P(4), K3, 3)")
        assert (exc.value.line, exc.value.col) == (1, 1)
        assert isinstance(exc.value.__cause__, DimensionMismatchError)

    @pytest.mark.parametrize(
        "bad",
        [
            "Q(0)",
            "Gr(3,2)",
            "PB(K3, 0)",
            "Bl(P(4), P(2), 1)",
            "Bl(P(4), K3, 3)",
            "Prod(K3, K3)",
            "Hilb2(P(1))",
            "Hilb2(K3 + K3)",
        ],
    )
    @pytest.mark.parametrize("context", ["{}", "K3 +\n  Fib(Prod({}, P(1)), 1)"])
    def test_builtin_error_names_builtin_and_position(self, parser, bad, context):
        # an inner builtin's error is raised once, at the inner name
        text = context.format(bad)
        with pytest.raises(DslError) as exc:
            parser.parse(text)
        assert (exc.value.line, exc.value.col) == naive_position(text, text.index(bad))
        assert str(exc.value).startswith(bad.split("(")[0] + ": ")

    def test_zero_twist_rejected(self, parser):
        with pytest.raises(ArityError):
            parser.parse("K3 * (0)")

    def test_trailing_input(self, parser):
        with pytest.raises(DslSyntaxError):
            parser.parse("K3 K3")


def naive_position(text, at):
    """1-based (line, column) of offset `at`, counted from offset 0."""
    return text.count("\n", 0, at) + 1, at - (text.rfind("\n", 0, at) + 1) + 1


NAIVE_TOKEN = r"(?P<NAT>\d+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)|(?P<SYM>[+*^(),])"


def naive_tokens(text):
    """(kind, text, line, col) of every token, each located from offset 0."""
    out = [
        (m.lastgroup, m.group(), *naive_position(text, m.start()))
        for m in re.finditer(NAIVE_TOKEN, text)
    ]
    # END sits just past the text
    return out + [("END", "", *naive_position(text, len(text)))]


MULTILINE_PROGRAMS = [
    "Q(6) + K3 * L^2",
    "\nQ(6)\n+ K3 * L^2\n",
    "\n\n  Q(6) +\n\n\n   K3 *\n L^2\n\n",
    "Fib(Q(6),\n  2)\n\n+ P(4) * (1 +\n 2L)   \n",
    "\n" * 5,
    "",
]


class TestTokenizePositions:
    @pytest.mark.parametrize("text", MULTILINE_PROGRAMS)
    def test_matches_naive_reference(self, text):
        got = [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
        assert got == naive_tokens(text)

    @pytest.mark.parametrize("text", ["Q(6) +\n\n  K3 @ L", "\nQ(6)\n +  K3 * L^2 $\n"])
    def test_error_matches_naive_reference(self, text):
        with pytest.raises(DslSyntaxError) as exc:
            tokenize(text)
        bad = next(i for i, ch in enumerate(text) if ch in "@$")
        assert (exc.value.line, exc.value.col) == naive_position(text, bad)
        assert exc.value.line == 3

    # '\x0b' and '\x1c' are whitespace to str.isspace, '\r' is not a newline,
    # '٣' is a digit; '@', 'é' and a leading '_' are no token
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="LK3Q6_ +*^(),\n\r\t\x0b\x1c٣@é", max_size=30))
    def test_random_text_matches_naive_reference(self, text):
        covered = {i for m in re.finditer(NAIVE_TOKEN, text) for i in range(*m.span())}
        bad = [i for i, ch in enumerate(text) if i not in covered and not ch.isspace()]
        if not bad:
            got = [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
            assert got == naive_tokens(text)
            return
        with pytest.raises(DslSyntaxError) as exc:
            tokenize(text)
        assert (exc.value.line, exc.value.col) == naive_position(text, bad[0])
        assert str(exc.value).startswith(f"unexpected character {text[bad[0]]!r}")

    def test_parse_error_on_line_three(self, parser):
        with pytest.raises(DslSyntaxError) as exc:
            parser.parse("Q(6)\n+ K3 * L^2\n+ + P(4)")
        assert (exc.value.line, exc.value.col) == (3, 3)


class TestNestingDepth:
    def test_deepest_accepted(self, parser):
        depth = MAX_DEPTH - 1  # the outermost expression is the first level
        e = parser.parse("(" * depth + "K3" + ")" * depth)
        assert e == Atom("K3")

    def test_deeper_rejected_with_position(self, parser):
        with pytest.raises(DslSyntaxError) as exc:
            parser.parse("(" * 3000 + "K3" + ")" * 3000)
        assert str(exc.value) == (
            f"expression nested deeper than {MAX_DEPTH} levels (line 1, column {MAX_DEPTH + 1})"
        )

    def test_builtin_arguments_count(self, parser):
        with pytest.raises(DslSyntaxError, match="nested deeper"):
            parser.parse("PB(" * MAX_DEPTH + "K3" + ", 1)" * MAX_DEPTH)

    def test_siblings_do_not_add_up(self, parser):
        e = parser.parse(" + ".join(["(K3)"] * (2 * MAX_DEPTH)))
        assert normalize(e) == NormalForm({"K3": TatePolynomial({0: 2 * MAX_DEPTH})})

    def test_parser_reusable_after_depth_error(self, parser):
        with pytest.raises(DslSyntaxError):
            parser.parse("(" * 3000 + "K3" + ")" * 3000)
        assert parser.parse("(K3)") == Atom("K3")


class TestPrintRoundTrip:
    def test_examples(self, parser):
        for text in [
            "Q(6) + K3 * L^2",
            "PB(K3, 4)",
            "Fib(Q(6), 2) + P(4) * (1 + 2L)",
            "(K3 + Q(6)) * L^3",
        ]:
            e = parser.parse(text)
            assert normalize(parser.parse(print_expr(e))) == normalize(e)

    @settings(max_examples=1000, deadline=None)
    @given(motive_exprs())
    def test_random_trees(self, e):
        parser = Parser(session_atlas())
        assert normalize(parser.parse(print_expr(e))) == normalize(e)

    def test_deterministic_output(self, parser):
        e1 = parser.parse("Q(6) + K3 * L^2")
        e2 = parser.parse("Q(6) + K3 * L^2")
        assert print_expr(e1) == print_expr(e2)

    def test_long_flat_twist_chain_prints_back_identically(self, parser):
        text = "K3" + " * L" * 3000
        assert print_expr(parser.parse(text)) == text

    def test_deep_tree_built_in_code(self):
        e = Atom("K3")
        for _ in range(5000):
            e = TensorTwist(e, ladder(0, 1))
        assert print_expr(e) == "K3" + " * (1 + L)" * 5000
