import copy
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from motivecalc import (
    Atlas,
    Atom,
    AtomRegistry,
    MotiveAtom,
    MotiveExpr,
    NormalForm,
    NotASummandError,
    NotDivisibleError,
    Sum,
    TatePolynomial,
    TensorTwist,
    UnregisteredAtomError,
    dim_of,
    ladder,
    normalize,
    solve_tensor_factor,
)
from motivecalc.dsl import Parser
from motivecalc.motive import CANCELLATION_NOTE, Solved
from motivecalc.tatepoly import ONE, ZERO, L

from strategies import motive_exprs, nonzero_tate_polys, tate_polys

P = Parser(Atlas()).parse_polynomial

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
    bp = TensorTwist(B, ladder(0, 4))
    d2 = TensorTwist(H, ladder(0, 1))
    d1p = Sum(
        (
            TensorTwist(B, ladder(0, 2)),
            TensorTwist(TensorTwist(Y, ladder(0, 3)), ladder(1, 2)),
            TensorTwist(TensorTwist(d2, ladder(0, 1)), ladder(1, 2)),
        )
    )
    return Sum((bp, TensorTwist(d2, ladder(1, 5)), TensorTwist(d1p, L)))


class TestNormalize:
    def test_distributivity(self):
        B = Atom("B")
        e = Sum((TensorTwist(B, ladder(0, 1)), TensorTwist(B, P("L^2"))))
        assert normalize(e) == NormalForm({"B": ladder(0, 2)})

    def test_full_rhs_tree(self):
        assert normalize(full_rhs_tree()) == RHS_NF

    def test_unknown_with_tensor_factor(self):
        hilb = TensorTwist(Atom("Hilb"), ladder(0, 1))
        e = Sum((TensorTwist(Atom("X"), M1), TensorTwist(hilb, ladder(0, 2) * ladder(1, 3))))
        assert normalize(e) == NormalForm({"X": M1, "Hilb": M2_TWIST})

    def test_rejects_empty_sum_and_zero_twist(self):
        with pytest.raises(ValueError):
            Sum(())
        with pytest.raises(ValueError):
            TensorTwist(Atom("B"), ZERO)


class TestNodes:
    @pytest.mark.parametrize(
        "op",
        [
            lambda: 2 * L,
            lambda: L * 2,
            lambda: Atom("K3") + Atom("K3"),
            lambda: Atom("K3") * L,
        ],
        ids=["int*L", "L*int", "Atom+Atom", "Atom*L"],
    )
    def test_no_operators(self, op):
        # trees are built with Sum and TensorTwist, twists scale by twists
        with pytest.raises(TypeError):
            op()

    def test_every_node_is_a_motive_expr(self):
        k3 = Atom("K3")
        for node in (k3, Sum((k3,)), TensorTwist(k3, L)):
            assert isinstance(node, MotiveExpr)

    def test_equal_nodes_hash_equally(self):
        for build in (
            lambda: Atom("K3"),
            lambda: Sum((Atom("K3"), Atom("B"))),
            lambda: TensorTwist(Sum((Atom("K3"),)), ladder(0, 2)),
        ):
            a, b = build(), build()
            assert a is not b and a == b and hash(a) == hash(b)
        assert TensorTwist(Atom("K3"), L) != TensorTwist(Atom("K3"), ladder(0, 1))

    def test_equal_only_within_one_class(self):
        k3 = Atom("K3")
        assert k3 != ("K3",) and ("K3",) != k3
        assert k3 != Sum((k3,)) and Sum((k3,)) != (k3,)
        assert TensorTwist(k3, L) != (k3, L)

    def test_fields_are_read_only(self):
        k3 = Atom("K3")
        for node, field in ((k3, "name"), (Sum((k3,)), "children"), (TensorTwist(k3, L), "twist")):
            with pytest.raises(AttributeError):
                setattr(node, field, k3)
            with pytest.raises(AttributeError):
                delattr(node, field)
            with pytest.raises(AttributeError):
                node.other = 1
            assert not hasattr(node, "__dict__")
        assert k3.name == "K3"

    def test_copy_and_pickle_rebuild_equal_nodes(self):
        twisted = TensorTwist(Atom("B"), ladder(0, 2))
        assert copy.copy(twisted) == twisted and copy.copy(twisted).twist is twisted.twist
        tree = Sum((Atom("K3"), Sum((Atom("B"),)), twisted))
        for clone in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone == tree and type(clone.children[1]) is Sum

    def test_repr_is_the_field_form(self):
        k3 = Atom("K3")
        assert repr(k3) == "Atom(name='K3')"
        assert repr(Sum((k3,))) == "Sum(children=(Atom(name='K3'),))"
        assert repr(TensorTwist(k3, L)) == (
            "TensorTwist(child=Atom(name='K3'), twist=TatePolynomial({1: 1}))"
        )

    def test_walks_refuse_other_values(self):
        reg = AtomRegistry()
        reg.register(MotiveAtom("K3", 2))
        for bad in (("K3",), Sum((("K3",),)), TensorTwist("K3", L)):
            with pytest.raises(TypeError, match="not a MotiveExpr"):
                normalize(bad)
            with pytest.raises(TypeError, match="not a MotiveExpr"):
                dim_of(bad, reg)


class TestEqual:
    def test_distributed_vs_factored(self):
        A = Atom("A")
        assert normalize(TensorTwist(A, ladder(0, 1))) == normalize(Sum((A, TensorTwist(A, L))))

    def test_two_sided_identity(self):
        lhs = Sum((TensorTwist(Atom("X"), M1), TensorTwist(Atom("Hilb"), M2_TWIST)))
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
        assert RHS_NF.subtract(RHS_NF) == NormalForm()

    def test_underflow(self):
        cases = [
            ({"B": ONE}, {"B": ladder(0, 1)}, "B", 1),
            # several degrees underflow: the lowest is named
            ({"B": P("1 + L^3")}, {"B": P("L + 2L^3")}, "B", 1),
            # an atom absent from self underflows at its lowest degree
            ({"A": ONE}, {"A": ONE, "B": P("L^2 + L^5")}, "B", 2),
        ]
        for have, part, name, k in cases:
            with pytest.raises(NotASummandError) as exc:
                NormalForm(have).subtract(NormalForm(part))
            assert str(exc.value) == f"coefficient of {name} underflows at L^{k}"

    def test_exact_cancellation_drops_the_atom(self):
        rest = NormalForm({"A": L, "B": P("1 + 2L")}).subtract(NormalForm({"B": P("1 + 2L")}))
        assert rest == NormalForm({"A": L})


def normal_forms():
    polys = tate_polys(max_exp=3, max_coeff=3, max_size=3)
    return st.dictionaries(st.sampled_from("ABC"), polys, max_size=3).map(NormalForm)


def first_underflow(a: NormalForm, b: NormalForm):
    """Reference for subtract's refusal: the first (atom, degree) of b, atoms
    in b's order and degrees increasing, whose coefficient exceeds a's."""
    for name, poly in b.terms.items():
        for k, c in sorted(poly.coeffs.items()):
            if c > a.coefficient(name).coefficient(k):
                return name, k
    return None


@settings(max_examples=400)
@given(normal_forms(), normal_forms())
def test_subtract_refuses_exactly_on_underflow(a, b):
    assert (a + b).subtract(b) == a
    under = first_underflow(a, b)
    if under is None:
        assert a.subtract(b) + b == a
    else:
        with pytest.raises(NotASummandError) as exc:
            a.subtract(b)
        assert str(exc.value) == "coefficient of {} underflows at L^{}".format(*under)


class TestSolveTensorFactor:
    def test_gm_instance(self):
        solved = solve_tensor_factor("X", M1, NormalForm({"Hilb": M2_TWIST}), RHS_NF)
        assert solved.normal_form == NormalForm({"B": ONE, "Y": P("L^2")})
        assert "not asserted" in CANCELLATION_NOTE and not hasattr(Solved, "note")

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
            solve_tensor_factor("X", ZERO, NormalForm(), NormalForm())

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
        assert dim_of(TensorTwist(Atom("B"), P("L^4")), registry) == 10

    def test_point(self, registry):
        assert dim_of(Atom("pt"), registry) == 0

    def test_sum_takes_max(self, registry):
        e = TensorTwist(Atom("Hilb"), ladder(0, 1))
        assert dim_of(e, registry) == 4

    def test_unregistered(self, registry):
        with pytest.raises(UnregisteredAtomError):
            dim_of(Atom("nope"), registry)


class TestNormalizeProperties:
    @settings(max_examples=1000)
    @given(motive_exprs(), motive_exprs())
    def test_respects_sum(self, a, b):
        assert normalize(Sum((a, b))) == normalize(a) + normalize(b)

    @settings(max_examples=500)
    @given(motive_exprs(), nonzero_tate_polys())
    def test_respects_twist(self, a, p):
        assert normalize(TensorTwist(a, p)) == normalize(a).scale(p)

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
    assert str(NormalForm()) == "{}"


def test_registry_rejects_conflicting_reregistration():
    reg = AtomRegistry()
    reg.register(MotiveAtom("B", 6))
    reg.register(MotiveAtom("B", 6))  # identical is fine
    # the third field takes no part in the clash check
    reg.register(MotiveAtom("B", 6, frozenset({"unknown"})))
    assert reg.dim("B") == 6
    with pytest.raises(ValueError, match="dim 6, not 5"):
        reg.register(MotiveAtom("B", 5))
    with pytest.raises(ValueError, match="nonnegative"):
        reg.register(MotiveAtom("B", -1))
    with pytest.raises(UnregisteredAtomError):
        reg.dim("C")


# exactness: a dimension is an int, never a float or bool truncated to one
@pytest.mark.parametrize("dim", [2.5, 2.0, True, "2", None])
def test_registry_takes_only_int_dims(dim):
    with pytest.raises(TypeError, match="is not an int"):
        AtomRegistry().register(MotiveAtom("A", dim))


class TestDeepTrees:
    DEPTH = 5000

    @pytest.fixture
    def registry(self):
        reg = AtomRegistry()
        reg.register(MotiveAtom("B", 6))
        reg.register(MotiveAtom("pt", 0))
        return reg

    def test_twist_chain(self, registry):
        e = Atom("B")
        for _ in range(self.DEPTH):
            e = TensorTwist(e, L)
        assert normalize(e) == NormalForm({"B": TatePolynomial({self.DEPTH: 1})})
        assert dim_of(e, registry) == 6 + self.DEPTH

    def test_alternating_sum_twist_chain(self, registry):
        # pt + (pt + (pt + ...) * L) * L: one pt per twist level
        e = Atom("pt")
        for _ in range(self.DEPTH):
            e = Sum((Atom("pt"), TensorTwist(e, L)))
        assert normalize(e) == NormalForm({"pt": ladder(0, self.DEPTH)})
        assert dim_of(Sum((e, Atom("B"))), registry) == self.DEPTH

    def test_atoms_keep_left_to_right_order(self):
        e = Sum((Atom("Q6"), TensorTwist(Sum((Atom("K3"), Atom("P2"))), L), Atom("Q6")))
        assert list(normalize(e).terms) == ["Q6", "K3", "P2"]
