import pytest
from hypothesis import given, settings

from motivecalc import (
    Atom,
    AtomRegistry,
    MotiveAtom,
    NormalForm,
    NotASummandError,
    NotDivisibleError,
    Sum,
    TatePolynomial,
    TensorTwist,
    Unknown,
    UnregisteredAtomError,
    dim_of,
    ladder,
    normalize,
    solve_tensor_factor,
)
from motivecalc.dsl import Parser
from motivecalc.tatepoly import ONE, L

from conftest import motive_exprs, nonzero_tate_polys, tate_polys

P = Parser().parse_polynomial

M1 = P("1 + 2L + 2L^2 + 2L^3 + L^4")
M2_TWIST = P("L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6")

RHS_NF = NormalForm(
    {
        "B": M1,
        "Y": P("L^2 + 2L^3 + 2L^4 + 2L^5 + L^6"),
        "Hilb": M2_TWIST,
    }
)


def full_rhs_tree():
    """The double blow-up of the product side, written out as a raw tree."""
    B, Y, H = Atom("B"), Atom("Y"), Atom("Hilb")
    bp = B * ladder(0, 4)
    d2 = H * ladder(0, 1)
    d1p = (
        B * ladder(0, 2)
        + (Y * ladder(0, 3)) * ladder(1, 2)
        + (d2 * ladder(0, 1)) * ladder(1, 2)
    )
    return bp + d2 * ladder(1, 5) + d1p * L


class TestNormalize:
    def test_distributivity(self):
        B = Atom("B")
        e = B * ladder(0, 1) + B * P("L^2")
        assert normalize(e) == NormalForm({"B": ladder(0, 2)})

    def test_full_rhs_tree(self):
        assert normalize(full_rhs_tree()) == RHS_NF

    def test_unknown_with_tensor_factor(self):
        e = Unknown("X") * M1 + (Atom("Hilb") * ladder(0, 1)) * (
            ladder(0, 2) * ladder(1, 3)
        )
        assert normalize(e) == NormalForm({"X": M1, "Hilb": M2_TWIST})

    def test_rejects_empty_sum_and_zero_twist(self):
        with pytest.raises(ValueError):
            Sum(())
        with pytest.raises(ValueError):
            TensorTwist(Atom("B"), TatePolynomial.zero())


class TestEqual:
    def test_distributed_vs_factored(self):
        A = Atom("A")
        assert normalize(A * ladder(0, 1)) == normalize(A + A * L)

    def test_two_sided_identity(self):
        lhs = Unknown("X") * M1 + Atom("Hilb") * M2_TWIST
        rhs = full_rhs_tree()
        replaced = normalize(lhs).substitute(
            "X", NormalForm({"B": ONE, "Y": P("L^2")})
        )
        assert replaced == normalize(rhs)

    def test_distinct_atoms_differ(self):
        assert normalize(Atom("B")) != normalize(Atom("Y"))


class TestSubtractSummand:
    def test_removes_hilb_part(self):
        part = NormalForm({"Hilb": M2_TWIST})
        rest = RHS_NF.subtract(part)
        assert rest == NormalForm({"B": M1, "Y": P("L^2") * M1})

    def test_self_gives_zero(self):
        assert RHS_NF.subtract(RHS_NF).is_zero()

    def test_underflow(self):
        with pytest.raises(NotASummandError):
            NormalForm({"B": ONE}).subtract(NormalForm({"B": ladder(0, 1)}))


class TestSolveTensorFactor:
    def test_gm_instance(self):
        solved = solve_tensor_factor("X", M1, NormalForm({"Hilb": M2_TWIST}), RHS_NF)
        assert solved.normal_form == NormalForm({"B": ONE, "Y": P("L^2")})
        assert "not asserted" in solved.note

    def test_identity_case(self):
        rhs = NormalForm({"A": L})
        assert solve_tensor_factor("X", ONE, NormalForm(), rhs).normal_form == rhs

    def test_not_divisible(self):
        with pytest.raises(NotDivisibleError):
            solve_tensor_factor(
                "X", ladder(0, 1), NormalForm(), NormalForm({"A": P("1 + L^2")})
            )

    def test_missing_summand(self):
        with pytest.raises(NotASummandError):
            solve_tensor_factor(
                "X", ONE, NormalForm({"Z": ONE}), NormalForm({"A": ONE})
            )

    def test_zero_factor_is_bad_input(self):
        with pytest.raises(ValueError, match="tensor factor must be nonzero"):
            solve_tensor_factor("X", TatePolynomial.zero(), NormalForm(), NormalForm())

    @settings(max_examples=300)
    @given(tate_polys(max_exp=4), nonzero_tate_polys(max_exp=4))
    def test_roundtrip_reproduces_rhs(self, extra, m1):
        n = NormalForm({"A": extra, "B": ONE})
        m2 = NormalForm({"C": ladder(1, 3)})
        rhs = n.scale(m1) + m2
        solved = solve_tensor_factor("X", m1, m2, rhs).normal_form
        assert solved.scale(m1) + m2 == rhs


class TestDimOf:
    @pytest.fixture
    def registry(self):
        reg = AtomRegistry()
        reg.register(MotiveAtom("B", 6))
        reg.register(MotiveAtom("Hilb", 3))
        reg.register(MotiveAtom("pt", 0))
        return reg

    def test_twist_adds_weight(self, registry):
        assert dim_of(Atom("B") * P("L^4"), registry) == 10

    def test_point(self, registry):
        assert dim_of(Atom("pt"), registry) == 0

    def test_sum_takes_max(self, registry):
        e = Atom("Hilb") * ladder(0, 1)
        assert dim_of(e, registry) == 4

    def test_unregistered(self, registry):
        with pytest.raises(UnregisteredAtomError):
            dim_of(Atom("nope"), registry)


class TestNormalizeProperties:
    @settings(max_examples=1000)
    @given(motive_exprs(), motive_exprs())
    def test_respects_sum(self, a, b):
        assert normalize(a + b) == normalize(a) + normalize(b)

    @settings(max_examples=500)
    @given(motive_exprs(), nonzero_tate_polys())
    def test_respects_twist(self, a, p):
        assert normalize(a * p) == normalize(a).scale(p)

    @given(motive_exprs())
    def test_idempotent_under_rewrapping(self, a):
        assert normalize(Sum((a,))) == normalize(a)

    @given(motive_exprs(), motive_exprs(), motive_exprs())
    def test_equal_invariant_under_reassociation(self, a, b, c):
        assert normalize(Sum((a, Sum((b, c))))) == normalize(Sum((Sum((c, a)), b)))


def test_normal_form_serialization_sorted():
    nf = NormalForm({"Z": ONE, "A": L})
    assert nf.to_dict() == {"A": "L", "Z": "1"}
    assert list(nf.to_dict()) == ["A", "Z"]
    assert str(nf) == "{A: L, Z: 1}"


def test_registry_rejects_conflicting_reregistration():
    reg = AtomRegistry()
    reg.register(MotiveAtom("B", 6))
    reg.register(MotiveAtom("B", 6))  # identical is fine
    with pytest.raises(ValueError):
        reg.register(MotiveAtom("B", 5))
