import math
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivecalc import ONE, Atlas, L, NotDivisibleError, TatePolynomial, ladder
import motivecalc.tatepoly as tatepoly
from motivecalc.tatepoly import MAX_DIM, ZERO, _dense, _pack, _unpack, _width, gaussian_binomial

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

    def test_squares_from_the_base_never_from_one(self, monkeypatch):
        ops, mul = [], TatePolynomial.__mul__
        monkeypatch.setattr(TatePolynomial, "__mul__", lambda a, b: ops.append((a, b)) or mul(a, b))
        p = ONE + L
        assert p**0 == ONE and ops == []
        for n in range(1, 65):
            ops.clear()
            assert (p**n).coeffs == {k: math.comb(n, k) for k in range(n + 1)}
            assert len(ops) == n.bit_length() + n.bit_count() - 2
            assert all(ONE not in pair for pair in ops)


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


def calls(monkeypatch, name: str) -> list:
    """The argument tuples of every later call of tatepoly's function name."""
    made, f = [], getattr(tatepoly, name)
    monkeypatch.setattr(tatepoly, name, lambda *a: made.append(a) or f(*a))
    return made


def pack_reference(c: dict[int, int], w: int) -> int:
    digits = (c.get(k, 0).to_bytes(w, "little") for k in range(min(c), max(c) + 1))
    return int.from_bytes(b"".join(digits), "little")


def unpack_reference(n: int, w: int, lo: int) -> dict[int, int]:
    b = n.to_bytes((n.bit_length() + 7) // 8, "little")
    digits = {lo + i // w: int.from_bytes(b[i : i + w], "little") for i in range(0, len(b), w)}
    return {k: a for k, a in digits.items() if a}


class TestDigitWidths:
    def test_width_rounds_up_to_an_array_item(self):
        # 1, 2, 4 and 8 bytes go through array; wider digits keep their exact width
        table = {
            1: 1, 255: 1, 256: 2, 2**16 - 1: 2, 2**16: 4, 2**24: 4, 2**32 - 1: 4,
            2**32: 8, 2**40: 8, 2**64 - 1: 8, 2**64: 9, 2**72 - 1: 9, 2**72: 10, 2**128: 17,
        }
        assert {top: _width(top) for top in table} == table

    @pytest.mark.parametrize("w", (1, 2, 3, 4, 5, 8, 9, 16))
    @pytest.mark.parametrize("lo", (0, 10**12))
    @pytest.mark.parametrize("last", ("one", "full"))
    def test_pack_round_trip(self, w, lo, last):
        # full digits, zero gaps, and a top digit that fills its width or
        # leaves the int short of whole digits
        full = 2 ** (8 * w) - 1
        c = {lo: full, lo + 1: 1, lo + 4: 2 ** (8 * w - 1), lo + 5: full, lo + 9: 7}
        c[lo + 12] = 1 if last == "one" else full
        n = pack_reference(c, w)
        assert _pack(c, w, lo, lo + 12) == n
        assert _unpack(n, w, lo) == unpack_reference(n, w, lo) == c


class TestProductWidth:
    """A packed product's digits hold min(max(a) * b(1), max(b) * a(1))."""

    @staticmethod
    def packed_width(monkeypatch, a: TatePolynomial, b: TatePolynomial) -> int:
        unpacked = calls(monkeypatch, "_unpack")
        assert a * b == mul_reference(a, b)
        [(_, w, _)] = unpacked
        return w

    @pytest.mark.parametrize("w,wider", ((1, 2), (2, 4), (4, 8)))
    @pytest.mark.parametrize("over", (0, 1))
    def test_a_bound_at_the_top_of_a_width(self, monkeypatch, w, wider, over):
        # a is 16 ones, b is 15 ones and one coefficient c: the bound
        # min(1 * b(1), c * 16) is b(1) = c + 15, which the middle
        # coefficient of a * b reaches
        bound = 2 ** (8 * w) - 1 + over
        a, b = ladder(0, 15), ladder(1, 15) + TatePolynomial({0: bound - 15})
        assert _dense(a.coeffs) and _dense(b.coeffs)
        assert max((a * b).coeffs.values()) == bound
        assert self.packed_width(monkeypatch, a, b) == (wider if over else w)

    def test_a_constant_row_times_a_ladder_power(self, monkeypatch):
        # max(a) * max(b) * min(len) = 3 * 30162301 * 97 = 8777229591 would
        # take 8 bytes; max(a) * b(1) = 3 * 13^8 fits in 4
        a, b = TatePolynomial({j: 3 for j in range(577)}), ladder(0, 12) ** 8
        assert self.packed_width(monkeypatch, a, b) == 4


class TestCarryBound:
    def test_cellular_quotient_is_not_multiplied_back(self, monkeypatch):
        # the shape of a cellular cancellation: max(quot) * d(1) stays below
        # 2^(8w), so the unpacked digits are the quotient with no product
        n, d = gaussian_binomial(24, 12), ladder(0, 6) ** 4
        p = n * d
        assert _dense(p.coeffs) and _dense(d.coeffs)
        made = calls(monkeypatch, "_packed_product")
        assert p.div_exact(d) == n and made == []

    def test_quotient_past_the_bound_is_multiplied_back(self, monkeypatch):
        # 200 + L + ... + L^19 times 1 + ... + L^19 tops at 219, one byte;
        # max(quot) * d(1) = 200 * 20 is past 2^8, so the product decides
        q, d = TatePolynomial({0: 200}) + ladder(1, 19), ladder(0, 19)
        p = q * d
        assert max(p.coeffs.values()) < 256 and _dense(p.coeffs) and _dense(d.coeffs)
        made = calls(monkeypatch, "_packed_product")
        assert p.div_exact(d) == q and len(made) == 1


class TestPackedRefusals:
    def test_integer_multiple_that_is_no_product(self, monkeypatch):
        # c * (1 + ... + L^hi) times (1 + ... + L^hi), its carries done at
        # one byte: the packed dividend is a multiple of the packed divisor,
        # and the quotient c + cL + ... unpacks, but it multiplies back to
        # coefficients above 255.  At c = 31, hi = 15 the carry bound
        # max(quot) * d(1) = 496 is just past 2^8
        for c, hi in ((200, 19), (31, 15)):
            d = ladder(0, hi)
            p = carried(d * TatePolynomial({0: c}), d)
            assert max(p.coeffs.values()) < 256 and at(p, 256) % at(d, 256) == 0
            assert _dense(p.coeffs) and _dense(d.coeffs)
            made = calls(monkeypatch, "_packed_product")
            assert outcome(TatePolynomial.div_exact, p, d) == f"{p} is not divisible by {d}"
            assert len(made) == 1
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

    def test_nonzero_remainder_refused_before_unpacking(self, monkeypatch):
        # an exact multiple plus one term: the packed division leaves a
        # remainder, so no quotient is unpacked only to be thrown away
        p, d = ladder(0, 39) + L**5, ladder(0, 19)
        assert _dense(p.coeffs) and _dense(d.coeffs)
        unpacked = calls(monkeypatch, "_unpack")
        with pytest.raises(NotDivisibleError) as exc:
            p.div_exact(d)
        assert str(exc.value) == f"{p} is not divisible by {d}" and unpacked == []

    def test_dividend_below_the_divisor(self):
        # packed from their own lowest degrees, the ints divide exactly:
        # only the degrees tell that the quotient would need L^-1
        p, d = ladder(0, 39), ladder(1, 20)
        assert at(p, 256) % at(ladder(0, 19), 256) == 0
        with pytest.raises(NotDivisibleError) as exc:
            p.div_exact(d)
        assert str(exc.value) == f"{p} is not divisible by {d}"


class TestRefusalText:
    """A refusal keeps its operands and formats them only when its text is read."""

    @pytest.mark.parametrize(
        "p, d",
        [(P("1 + L^2"), P("1 + L")), (ladder(0, 39) + L**5, ladder(0, 19))],
        ids=["sparse", "packed"],
    )
    def test_operands_are_formatted_on_demand(self, monkeypatch, p, d):
        text = f"{p} is not divisible by {d}"
        rendered, render = [], TatePolynomial.__str__
        monkeypatch.setattr(TatePolynomial, "__str__", lambda q: rendered.append(q) or render(q))
        with pytest.raises(NotDivisibleError) as exc:
            p.div_exact(d)
        assert rendered == [] and exc.value.args == (p, d)
        assert str(exc.value) == text and rendered == [p, d]

    def test_a_message_prints_as_given(self):
        assert str(NotDivisibleError("6 is not divisible by 4")) == "6 is not divisible by 4"
        assert str(NotDivisibleError()) == ""


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


class TestSharedLadders:
    def test_a_ladder_is_built_once(self):
        assert ladder(0, 3) is ladder(0, 3)
        assert ladder(0, 3) == TatePolynomial({0: 1, 1: 1, 2: 1, 3: 1})

    def test_at_most_64_ladders_are_kept(self):
        built = [ladder(7, 7 + n) for n in range(200)]
        # asked for again newest first, so a hit never evicts one still to come
        kept = sum(ladder(7, 7 + n) is built[n] for n in reversed(range(200)))
        assert kept == 64
        assert tatepoly._ladder.cache_info().currsize <= 64

    def test_a_ladder_too_long_to_keep_is_rebuilt(self):
        # so the kept ladders hold at most 64 * (MAX_DIM + 1) terms
        assert ladder(0, MAX_DIM) is ladder(0, MAX_DIM)
        assert ladder(0, MAX_DIM + 1) is not ladder(0, MAX_DIM + 1)
        assert ladder(0, 5000) is not ladder(0, 5000)
        assert ladder(0, 5000) == TatePolynomial(dict.fromkeys(range(5001), 1))

    def test_a_shared_ladder_hands_out_copies(self):
        ladder(0, 3).coeffs[9] = 1
        assert ladder(0, 3).coeffs == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_negative_start_refused(self):
        with pytest.raises(ValueError, match="^negative exponent -1$"):
            ladder(-1, 3)
        assert ladder(-3, -4) == ZERO

    def test_parsed_twist_is_shared(self):
        parse = Parser(Atlas()).parse
        first, again = parse("P(2) * L^5"), parse("P(2) * L^5")
        assert first.twist is again.twist is ladder(5, 5)


def assert_checked(p: TatePolynomial) -> None:
    """p holds what the checking constructor would build from its terms:
    int degrees >= 0 to int coefficients > 0."""
    c = p.coeffs
    assert type(p) is TatePolynomial
    assert all(type(k) is int and k >= 0 and type(a) is int and a > 0 for k, a in c.items())
    assert p == TatePolynomial(c)


class TestUncheckedResults:
    """tatepoly builds its own results without the constructor's checks."""

    @PACKED
    @given(st.one_of(DENSE, SPARSE), st.one_of(DENSE, SPARSE.filter(bool)))
    def test_arithmetic(self, p, d):
        num = p * d
        for result in (p + d, num, p**3, d**2, num.div_exact(d)):
            assert_checked(result)

    @PACKED
    @given(DENSE, DENSE)
    def test_packed_quotient(self, p, d):
        assert _dense((p * d).coeffs)
        assert_checked((p * d).div_exact(d))

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_constants(self, n, k):
        assert_checked(ladder(k, n))
        if k <= n:
            assert_checked(gaussian_binomial(n, k))


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
