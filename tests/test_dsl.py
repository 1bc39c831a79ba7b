import pytest
from hypothesis import given, settings

from motivecalc import (
    Atom,
    NormalForm,
    Sum,
    TensorTwist,
    ladder,
    normalize,
    print_expr,
)
from motivecalc.dsl import (
    ArityError,
    DslSyntaxError,
    Parser,
    UnknownIdentifierError,
)
from motivecalc.formulas import DimensionMismatchError

from conftest import motive_exprs, session_atlas

P = Parser().parse_polynomial


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
    def test_syntax_error_has_position(self, parser):
        with pytest.raises(DslSyntaxError) as exc:
            parser.parse("Q(6) + + K3")
        assert exc.value.line == 1
        assert exc.value.col == 8

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
        with pytest.raises(DimensionMismatchError):
            parser.parse("Bl(P(4), K3, 3)")

    def test_zero_twist_rejected(self, parser):
        with pytest.raises(ArityError):
            parser.parse("K3 * (0)")

    def test_trailing_input(self, parser):
        with pytest.raises(DslSyntaxError):
            parser.parse("K3 K3")


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
