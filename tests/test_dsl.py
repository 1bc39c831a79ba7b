import contextlib
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
import motivecalc.dsl as dsl
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
        assert e.children[0] == Atom("Q6", 6)
        assert e.children[1] == TensorTwist(Atom("K3", 2), P("L^2"))

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
        assert e == Atom("Hilb2K3", 4)
        assert parser.atlas.get("Hilb2K3").diamond.euler() == 324

    def test_gr_builtin(self, parser):
        assert parser.parse("Gr(2,5)") == Atom("Gr(2,5)", 6)

    def test_whitespace_insensitive(self, parser):
        a = parser.parse("Q(6)+K3*L^2")
        b = parser.parse("  Q( 6 )  +  K3 * L ^ 2 ")
        assert normalize(a) == normalize(b)


def test_terms_share_their_twist_constants(monkeypatch):
    # every PB, Bl and L^k reads a shared ladder, so the checking constructor
    # runs at most once per atlas entry the program names, not once per term
    checked, init = [], TatePolynomial.__init__
    monkeypatch.setattr(TatePolynomial, "__init__", lambda p, c: checked.append(c) or init(p, c))
    e = Parser(Atlas()).parse(" + ".join(["PB(P(3), 2) * L^5 + Bl(P(6), P(2), 4)"] * 100))
    assert len(e.children) == 200 and len(checked) <= 3


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


NAIVE_TOKEN = r"\d+|[A-Za-z][A-Za-z0-9_]*|[+*^(),]"


def naive_tokens(text):
    """(text, line, col) of every token, each located from offset 0."""
    out = [(m.group(), *naive_position(text, m.start())) for m in re.finditer(NAIVE_TOKEN, text)]
    # END sits just past the text
    return out + [("", *naive_position(text, len(text)))]


MULTILINE_PROGRAMS = [
    "Q(6) + K3 * L^2",
    "\nQ(6)\n+ K3 * L^2\n",
    "\n\n  Q(6) +\n\n\n   K3 *\n L^2\n\n",
    "Fib(Q(6),\n  2)\n\n+ P(4) * (1 +\n 2L)   \n",
    "\n" * 5,
    "",
    # '\r' and '\f' are blanks inside a line, not line breaks
    "Q(6) +\r\n  K3 * L^2\r\n",
    "Q(6)\f+ K3\n\f* L^2",
    "Q(6) + K3 * L^2\n\n  \n",
]


class TestTokenizePositions:
    @pytest.mark.parametrize("text", MULTILINE_PROGRAMS)
    def test_matches_naive_reference(self, text):
        got = [(t.text, t.line, t.col) for t in tokenize(text)]
        assert got == naive_tokens(text)

    @pytest.mark.parametrize("text", ["Q(6) +\n\n  K3 @ L", "\nQ(6)\n +  K3 * L^2 $\n"])
    def test_error_matches_naive_reference(self, text):
        with pytest.raises(DslSyntaxError) as exc:
            tokenize(text)
        bad = next(i for i, ch in enumerate(text) if ch in "@$")
        assert (exc.value.line, exc.value.col) == naive_position(text, bad)
        assert exc.value.line == 3

    # '\x0b' and '\x1c' are whitespace to str.isspace, '\r' is not a newline,
    # '٣' is a digit; '@', 'é' and a leading '_' are no token.  The parser
    # reads its own token texts: it must read tokenize's, and report the
    # first bad character as tokenize does.
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="LK3Q6_ +*^(),\n\r\t\x0b\x1c٣@é", max_size=30))
    def test_random_text_matches_naive_reference(self, text):
        covered = {i for m in re.finditer(NAIVE_TOKEN, text) for i in range(*m.span())}
        bad = [i for i, ch in enumerate(text) if i not in covered and not ch.isspace()]
        parser = Parser(Atlas())
        if not bad:
            got = [(t.text, t.line, t.col) for t in tokenize(text)]
            assert got == naive_tokens(text)
            with contextlib.suppress(DslError):
                parser.parse(text)
            assert parser._t == [t[0] for t in got]
            return
        for read in (tokenize, parser.parse):
            with pytest.raises(DslSyntaxError) as exc:
                read(text)
            assert (exc.value.line, exc.value.col) == naive_position(text, bad[0])
            assert str(exc.value).startswith(f"unexpected character {text[bad[0]]!r}")

    def test_parse_error_on_line_three(self, parser):
        with pytest.raises(DslSyntaxError) as exc:
            parser.parse("Q(6)\n+ K3 * L^2\n+ + P(4)")
        assert (exc.value.line, exc.value.col) == (3, 3)


class TestParserTexts:
    """The parser reads token texts and runs tokenize only to place an error."""

    @pytest.mark.parametrize(
        "text, message",
        [
            # '²' passes str.isdigit but is no \d
            ("K3 * L^²", "unexpected character '²' (line 1, column 8)"),
            ("K3 + é", "unexpected character 'é' (line 1, column 6)"),
            # the text would parse without it
            ("K3 é", "unexpected character 'é' (line 1, column 4)"),
            # the syntax error at the second '+' comes first in the text
            ("K3 + + é", "unexpected character 'é' (line 1, column 8)"),
            ("P(2) + Z²", "unexpected character '²' (line 1, column 9)"),
            ("K3 +\n", "expected expression, got 'end of input' (line 2, column 1)"),
            ("K3 * (1 + 2 L", "expected ')', got 'end of input' (line 1, column 14)"),
        ],
    )
    def test_error_messages(self, parser, text, message):
        with pytest.raises(DslSyntaxError) as exc:
            parser.parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            # up to 32 characters a token is quoted whole, past them by its first 32
            ("K3 * " + "9" * 32, f"expected a twist, got '{'9' * 32}' (line 1, column 6)"),
            (
                "K3 * " + "9" * 33,
                f"expected a twist, got '{'9' * 32}'... (33 characters) (line 1, column 6)",
            ),
            (
                "K3 " + "K3" * 20,
                f"trailing input '{'K3' * 16}'... (40 characters) (line 1, column 4)",
            ),
            (
                "Q(6) +\n" + "Ab" * 500,
                f"unknown identifier '{'Ab' * 16}'... (1000 characters) (line 2, column 1)",
            ),
        ],
        ids=["numeral-of-32", "numeral-of-33", "trailing-input", "unknown-identifier"],
    )
    def test_a_long_token_is_quoted_by_its_prefix(self, parser, text, message):
        with pytest.raises(DslError) as exc:
            parser.parse(text)
        assert str(exc.value) == message

    def test_a_non_ascii_decimal_digit_is_a_numeral(self, parser):
        assert parser.parse("P(٣)") == Atom("P3", 3)

    @settings(max_examples=200, deadline=None)
    @given(motive_exprs(), st.data())
    def test_a_bad_character_in_a_valid_program(self, e, data):
        text = print_expr(e)
        at = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch == " "] + [len(text)]))
        bad = data.draw(st.sampled_from("@é_²"))
        text = text[:at] + " " + bad + text[at:]
        with pytest.raises(DslSyntaxError) as exc:
            Parser(session_atlas()).parse(text)
        assert str(exc.value) == f"unexpected character {bad!r} (line 1, column {at + 2})"

    def test_valid_input_does_not_tokenize(self, monkeypatch):
        program = (
            "Q(6) + K3 * L^2\n"
            "+ Gr(2,5) * (1 + 2L + L^2) + Hilb2(K3)\n"
            "+ PB(P(2), 3) + Fib(Q(4), 1) * L\n"
            "+ Bl(P(4), P(2), 2) + Prod(P(1), K3)\n"
        )
        expected = Parser(Atlas()).parse(program)

        def refuse(text):
            raise RuntimeError("tokenize ran")

        monkeypatch.setattr(dsl, "tokenize", refuse)
        parser = Parser(Atlas())
        assert parser.parse(program) == expected
        assert parser.parse_polynomial("1 + 2L + L^2") == TatePolynomial({0: 1, 1: 2, 2: 1})
        with pytest.raises(RuntimeError, match="tokenize ran"):
            parser.parse("K3 +")


class TestNestingDepth:
    def test_deepest_accepted(self, parser):
        depth = MAX_DEPTH - 1  # the outermost expression is the first level
        e = parser.parse("(" * depth + "K3" + ")" * depth)
        assert e == Atom("K3", 2)

    def test_deeper_rejected_with_position(self, parser):
        with pytest.raises(DslSyntaxError) as exc:
            parser.parse("(" * 3000 + "K3" + ")" * 3000)
        assert str(exc.value) == (
            f"expression nested deeper than {MAX_DEPTH} levels (line 1, column {MAX_DEPTH + 1})"
        )

    def test_builtin_arguments_count(self, parser):
        with pytest.raises(DslSyntaxError, match="nested deeper"):
            parser.parse("PB(" * MAX_DEPTH + "K3" + ", 1)" * MAX_DEPTH)

    @pytest.mark.parametrize(
        "nest",
        [
            # Hilb2 takes only a surface, so its argument nests in parentheses
            lambda d: "Hilb2(" + "(" * (d - 1) + "K3" + ")" * (d - 1) + ")",
            lambda d: "PB(" * d + "K3" + ", 1)" * d,
            lambda d: "Fib(" * d + "K3" + ", 0)" * d,
            lambda d: "Bl(" * d + "K3" + ", P(0), 2)" * d,
            lambda d: "Prod(" * d + "K3" + ", P(0))" * d,
        ],
        ids=["Hilb2", "PB", "Fib", "Bl", "Prod"],
    )
    def test_each_builtin_nests_to_the_limit(self, parser, nest):
        # nest(d) puts K3 d levels below the outermost expression
        parser.parse(nest(MAX_DEPTH - 1))
        with pytest.raises(DslSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parser.parse(nest(MAX_DEPTH))

    def test_siblings_do_not_add_up(self, parser):
        e = parser.parse(" + ".join(["(K3)"] * (2 * MAX_DEPTH)))
        assert normalize(e) == NormalForm({"K3": TatePolynomial({0: 2 * MAX_DEPTH})})

    def test_parser_reusable_after_depth_error(self, parser):
        with pytest.raises(DslSyntaxError):
            parser.parse("(" * 3000 + "K3" + ")" * 3000)
        assert parser.parse("(K3)") == Atom("K3", 2)


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
        e = Atom("K3", 2)
        for _ in range(5000):
            e = TensorTwist(e, ladder(0, 1))
        assert print_expr(e) == "K3" + " * (1 + L)" * 5000
