import pytest
from hypothesis import given, settings

from motivecalc import ONE, ZERO, L, NotDivisibleError, TatePolynomial, ladder

from motivecalc.dsl import Parser

from conftest import nonzero_tate_polys, tate_polys


P = Parser().parse_polynomial


def total(p: TatePolynomial) -> int:
    """Evaluation at L = 1: the total multiplicity sum(a_k)."""
    return sum(p.coeffs.values())


class TestArithmetic:
    def test_add_basic(self):
        assert ONE + L == P("1 + L")

    def test_add_assembles_fibration_coefficient(self):
        # (1+L+L^2+L^3+L^4) + L*(1+L+L^2) = 1+2L+2L^2+2L^3+L^4
        assert ladder(0, 4) + ladder(0, 2).shift(1) == P("1 + 2L + 2L^2 + 2L^3 + L^4")

    def test_add_zero_identity(self):
        p = P("3 + L^5")
        assert p + ZERO == p

    def test_mul_basic(self):
        assert ladder(0, 1) * ladder(1, 2) == P("L + 2L^2 + L^3")

    def test_mul_blowup_center_contribution(self):
        # hand expansion: (1+L)^2 (L+L^2) L = L^2 + 3L^3 + 3L^4 + L^5
        prod = ladder(0, 1) * ladder(0, 1) * ladder(1, 2) * L
        assert prod == P("L^2 + 3L^3 + 3L^4 + L^5")

    def test_hilb_coefficient_assembly(self):
        got = ladder(0, 1) * ladder(1, 5) + ladder(0, 1) ** 2 * ladder(1, 2) * L
        assert got == P("L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6")

    def test_degree_law(self):
        p, q = P("1 + L^3"), P("L^2 + L^4")
        assert (p * q).degree == p.degree + q.degree


class TestDivision:
    def test_y_coefficient_cancellation(self):
        num = P("L^2 + 2L^3 + 2L^4 + 2L^5 + L^6")
        den = P("1 + 2L + 2L^2 + 2L^3 + L^4")
        assert num.div_exact(den) == P("L^2")

    def test_divide_by_one(self):
        p = P("2 + 7L^3")
        assert p.div_exact(ONE) == p

    def test_not_divisible(self):
        # long division leaves a negative coefficient
        with pytest.raises(NotDivisibleError):
            P("1 + L^2").div_exact(P("1 + L"))

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ONE.div_exact(ZERO)


class TestEvalAtOne:
    def test_m1_total(self):
        assert total(P("1 + 2L + 2L^2 + 2L^3 + L^4")) == 8

    def test_zero(self):
        assert total(ZERO) == 0

    def test_m2_twist_total(self):
        assert total(P("L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6")) == 18


class TestRendering:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (ZERO, "0"),
            (ONE, "1"),
            (L, "L"),
            (P("1 + 2L + 2L^2 + 2L^3 + L^4"), "1 + 2L + 2L^2 + 2L^3 + L^4"),
        ],
    )
    def test_str(self, poly, text):
        assert str(poly) == text

    @given(tate_polys())
    def test_parse_roundtrip(self, p):
        assert P(str(p)) == p

    def test_invalid_text(self):
        with pytest.raises(ValueError):
            P("L + x")


class TestSemiringProperties:
    @given(tate_polys(), tate_polys())
    def test_commutativity(self, p, q):
        assert p + q == q + p
        assert p * q == q * p

    @given(tate_polys(), tate_polys(), tate_polys())
    def test_associativity_and_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=1000)
    @given(tate_polys(), nonzero_tate_polys())
    def test_div_exact_inverts_mul(self, p, d):
        assert (p * d).div_exact(d) == p

    @given(tate_polys(), tate_polys())
    def test_eval_at_one_is_homomorphism(self, p, q):
        assert total(p + q) == total(p) + total(q)
        assert total(p * q) == total(p) * total(q)


def test_invariants_rejected():
    with pytest.raises(ValueError):
        TatePolynomial({-1: 1})
    with pytest.raises(ValueError):
        TatePolynomial({0: -2})


def test_sparse_canonical_form():
    p = TatePolynomial({0: 1, 3: 0})
    assert p.coeffs == {0: 1}
    assert p.degree == 0
