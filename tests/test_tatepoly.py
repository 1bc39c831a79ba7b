from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivecalc import ONE, ZERO, Atlas, L, NotDivisibleError, TatePolynomial, ladder
from motivecalc.tatepoly import _dense

from motivecalc.dsl import Parser

from strategies import (
    EDGE_COEFFS,
    at,
    carried,
    dense_tate_polys,
    nonzero_tate_polys,
    tate_polys,
)


P = Parser(Atlas()).parse_polynomial


def total(p: TatePolynomial) -> int:
    """Evaluation at L = 1: the total multiplicity sum(a_k)."""
    return sum(p.coeffs.values())


class TestArithmetic:
    def test_add_basic(self):
        assert ONE + L == P("1 + L")

    def test_add_assembles_fibration_coefficient(self):
        # (1+L+L^2+L^3+L^4) + L*(1+L+L^2) = 1+2L+2L^2+2L^3+L^4
        assert ladder(0, 4) + ladder(0, 2) * L == P("1 + 2L + 2L^2 + 2L^3 + L^4")

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


class TestPower:
    @given(tate_polys(max_exp=5, max_coeff=5, max_size=4), st.integers(0, 12))
    def test_matches_repeated_multiplication(self, p, n):
        expected = ONE
        for _ in range(n):
            expected = expected * p
        assert p**n == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative power"):
            L**-1


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


def div_exact_reference(num: TatePolynomial, d: TatePolynomial) -> TatePolynomial:
    """Long division that looks up the lowest remaining degree with min()
    once per quotient term."""
    rem, dc = num.coeffs, d.coeffs
    quot = {}
    d_lo = min(dc)
    while rem:
        r_lo = min(rem)
        if r_lo < d_lo:
            raise NotDivisibleError(f"{num} is not divisible by {d}")
        c, m = divmod(rem[r_lo], dc[d_lo])
        if m:
            raise NotDivisibleError(f"{num} is not divisible by {d}")
        shift = r_lo - d_lo
        quot[shift] = c
        for k, a in dc.items():
            nv = rem.get(k + shift, 0) - a * c
            if nv < 0:
                raise NotDivisibleError(f"{num} is not divisible by {d}")
            if nv:
                rem[k + shift] = nv
            else:
                rem.pop(k + shift, None)
    return TatePolynomial(quot)


def outcome(divide, num, d):
    try:
        return divide(num, d)
    except NotDivisibleError as exc:
        return str(exc)


class TestDivisionMatchesReference:
    @settings(max_examples=500)
    @given(tate_polys(), nonzero_tate_polys(), tate_polys(max_exp=14, max_coeff=3, max_size=3))
    def test_quotient_or_refusal(self, p, d, extra):
        num = p * d + extra
        assert outcome(TatePolynomial.div_exact, num, d) == outcome(div_exact_reference, num, d)

    def test_sparse_dividend(self):
        far = L**10**12
        assert (ONE + far).div_exact(ONE) == ONE + far
        assert (far * (ONE + L)).div_exact(ONE + L) == far


def mul_reference(a: TatePolynomial, b: TatePolynomial) -> TatePolynomial:
    """Schoolbook product over every pair of terms."""
    out = {}
    for k1, a1 in a.coeffs.items():
        for k2, a2 in b.coeffs.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + a1 * a2
    return TatePolynomial(out)


# dense operands multiply and divide as packed ints; these compare that path
# with the schoolbook references above
DENSE = dense_tate_polys()
# sparse side: at most 6 terms, so the dict loops run; includes constants
SPARSE = tate_polys(max_coeff=2**64)
PACKED = settings(max_examples=60, deadline=None)


class TestPackedPath:
    @PACKED
    @given(DENSE)
    def test_strategy_reaches_the_packed_path(self, p):
        assert _dense(p.coeffs)

    @PACKED
    @given(DENSE, DENSE)
    def test_dense_product(self, p, q):
        assert p * q == mul_reference(p, q)

    @PACKED
    @given(DENSE, SPARSE)
    def test_dense_times_sparse(self, p, s):
        assert p * s == s * p == mul_reference(p, s)

    @pytest.mark.parametrize("c", (1, 3, *EDGE_COEFFS))
    @pytest.mark.parametrize("lo", (0, 10**12))
    def test_constant_coefficients(self, c, lo):
        const = TatePolynomial({0: c})
        p, q = L**lo * ladder(0, 30) * const, ladder(5, 24) * const
        assert p * q == mul_reference(p, q)
        assert (p * q).div_exact(q) == p

    @PACKED
    @given(DENSE, DENSE, tate_polys(max_exp=60, max_coeff=3, max_size=3))
    def test_dense_quotient_or_refusal(self, p, d, extra):
        num = p * d + extra
        assert outcome(TatePolynomial.div_exact, num, d) == outcome(div_exact_reference, num, d)

    @PACKED
    @given(DENSE, DENSE)
    def test_dense_by_dense_either_way(self, p, d):
        # mostly refused: p is rarely a multiple of d, and the packed
        # remainder, the width checks and the multiply-back all decide it
        assert outcome(TatePolynomial.div_exact, p, d) == outcome(div_exact_reference, p, d)

    @PACKED
    @given(DENSE, nonzero_tate_polys(max_coeff=2**64))
    def test_dense_by_sparse(self, p, s):
        assert (p * s).div_exact(s) == p
        assert (s * p).div_exact(p) == s


class TestPackedRefusals:
    def test_integer_multiple_that_is_no_product(self):
        # 200 * (1 + ... + L^19) times (1 + ... + L^19), its carries done at
        # one byte: the packed dividend is a multiple of the packed divisor,
        # and the quotient 200 + 200L + ... unpacks, but it multiplies back
        # to coefficients above 255
        d = ladder(0, 19)
        p = carried(d * TatePolynomial({0: 200}), d)
        assert max(p.coeffs.values()) < 256 and at(p, 256) % at(d, 256) == 0
        assert _dense(p.coeffs) and _dense(d.coeffs)
        assert outcome(TatePolynomial.div_exact, p, d) == f"{p} is not divisible by {d}"
        assert outcome(div_exact_reference, p, d) == f"{p} is not divisible by {d}"

    def test_three_term_integer_multiple(self):
        p, d = P("200 + 144L + 201L^2"), P("1 + L")
        assert p == carried(P("200 + 200L"), d) and at(p, 256) % at(d, 256) == 0
        with pytest.raises(NotDivisibleError):
            p.div_exact(d)

    def test_divisor_coefficient_above_the_dividend_width(self):
        p, d = ladder(0, 40), ladder(0, 20) * TatePolynomial({0: 70000})
        with pytest.raises(NotDivisibleError) as exc:
            p.div_exact(d)
        assert str(exc.value) == f"{p} is not divisible by {d}"

    def test_dividend_below_the_divisor(self):
        # packed from their own lowest degrees, the ints divide exactly:
        # only the degrees tell that the quotient would need L^-1
        p, d = ladder(0, 39), ladder(1, 20)
        assert at(p, 256) % at(ladder(0, 19), 256) == 0
        with pytest.raises(NotDivisibleError) as exc:
            p.div_exact(d)
        assert str(exc.value) == f"{p} is not divisible by {d}"


class TestWorkBounds:
    def test_dense_product_over_the_pair_cap(self):
        with pytest.raises(ValueError) as exc:
            ladder(0, 1000) * ladder(0, 1001)
        assert str(exc.value) == "twist product of 1003002 term pairs exceeds 1002001"

    def test_far_monomial_is_one_term(self):
        assert (L**10**12).coeffs == {10**12: 1}

    def test_far_dense_block_divides_at_once(self):
        far, start = L**10**12, perf_counter()
        with pytest.raises(NotDivisibleError):
            (far * ladder(0, 40)).div_exact(ladder(0, 20))
        assert (far * ladder(0, 41)).div_exact(ladder(0, 20)) == far * (ONE + L**21)
        assert perf_counter() - start < 1


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
    with pytest.raises(ValueError, match="^negative exponent -1$"):
        TatePolynomial({-1: 1})
    with pytest.raises(ValueError, match="^negative coefficient -2 at L\\^0$"):
        TatePolynomial({0: -2})


# exactness: a float or bool is refused, never truncated to an int
@pytest.mark.parametrize(
    "coeffs", [{1.5: 1}, {0: 2.7}, {True: 1}, {0: True}, {2: 2.0}, {"1": 1}, {-1.0: 1}]
)
def test_only_int_exponents_and_coefficients(coeffs):
    with pytest.raises(TypeError, match="needs an int exponent and coefficient"):
        TatePolynomial(coeffs)


def test_sparse_canonical_form():
    p = TatePolynomial({0: 1, 3: 0})
    assert p.coeffs == {0: 1}
    assert p.degree == 0
