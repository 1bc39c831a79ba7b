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
from motivecalc.gm import GMScenario, verify_identity
from motivecalc.motive import CANCELLATION_NOTE, NotASummandError, Solved
from motivecalc.tatepoly import ONE, ZERO, L

from strategies import (
    bulk_program,
    motive_exprs,
    nonzero_tate_polys,
    print_expr,
    session_atlas,
    tate_polys,
    top_level_summands,
)

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
    B, Y, H = Atom("B", 6), Atom("Y", 2), Atom("Hilb", 3)
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
        B = Atom("B", 6)
        e = Sum((TensorTwist(B, ladder(0, 1)), TensorTwist(B, P("L^2"))))
        assert normalize(e) == NormalForm({"B": ladder(0, 2)})

    def test_full_rhs_tree(self):
        assert normalize(full_rhs_tree()) == RHS_NF

    def test_unknown_with_tensor_factor(self):
        hilb = TensorTwist(Atom("Hilb", 3), ladder(0, 1))
        e = Sum((TensorTwist(Atom("X", 6), M1), TensorTwist(hilb, ladder(0, 2) * ladder(1, 3))))
        assert normalize(e) == NormalForm({"X": M1, "Hilb": M2_TWIST})

    def test_rejects_empty_sum_and_zero_twist(self):
        with pytest.raises(ValueError):
            Sum(())
        with pytest.raises(ValueError):
            TensorTwist(Atom("B", 6), ZERO)


class TestNodes:
    @pytest.mark.parametrize(
        "op",
        [
            lambda: 2 * L,
            lambda: L * 2,
            lambda: Atom("K3", 2) + Atom("K3", 2),
            lambda: Atom("K3", 2) * L,
        ],
        ids=["int*L", "L*int", "Atom+Atom", "Atom*L"],
    )
    def test_no_operators(self, op):
        # trees are built with Sum and TensorTwist, twists scale by twists
        with pytest.raises(TypeError):
            op()

    def test_every_node_is_a_motive_expr(self):
        k3 = Atom("K3", 2)
        for node in (k3, Sum((k3,)), TensorTwist(k3, L)):
            assert isinstance(node, MotiveExpr)

    def test_equal_nodes_hash_equally(self):
        for build in (
            lambda: Atom("K3", 2),
            lambda: Sum((Atom("K3", 2), Atom("B", 6))),
            lambda: TensorTwist(Sum((Atom("K3", 2),)), ladder(0, 2)),
        ):
            a, b = build(), build()
            assert a is not b and a == b and hash(a) == hash(b)
        assert TensorTwist(Atom("K3", 2), L) != TensorTwist(Atom("K3", 2), ladder(0, 1))

    def test_equal_only_within_one_class(self):
        k3 = Atom("K3", 2)
        assert k3 != ("K3", 2) and ("K3", 2) != k3
        assert k3 != Sum((k3,)) and Sum((k3,)) != (k3,)
        assert TensorTwist(k3, L) != (k3, L)

    def test_fields_are_read_only(self):
        k3 = Atom("K3", 2)
        for node, field in (
            (k3, "name"),
            (k3, "top"),
            (Sum((k3,)), "children"),
            (Sum((k3,)), "top"),
            (TensorTwist(k3, L), "twist"),
        ):
            with pytest.raises(AttributeError):
                setattr(node, field, k3)
            with pytest.raises(AttributeError):
                delattr(node, field)
            with pytest.raises(AttributeError):
                node.other = 1
            assert not hasattr(node, "__dict__")
        assert k3.name == "K3"

    def test_copy_and_pickle_rebuild_equal_nodes(self):
        twisted = TensorTwist(Atom("B", 6), ladder(0, 2))
        assert copy.copy(twisted) == twisted and copy.copy(twisted).twist is twisted.twist
        tree = Sum((Atom("K3", 2), Sum((Atom("B", 6),)), twisted))
        for clone in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone == tree and type(clone.children[1]) is Sum

    def test_repr_is_the_field_form(self):
        # a derived top weight is no field: the constructor does not take it
        k3 = Atom("K3", 2)
        assert repr(k3) == "Atom(name='K3', top=2)"
        assert repr(Sum((k3,))) == "Sum(children=(Atom(name='K3', top=2),))"
        assert repr(TensorTwist(k3, L)) == (
            "TensorTwist(child=Atom(name='K3', top=2), twist=TatePolynomial({1: 1}))"
        )

    def test_walks_refuse_other_values(self):
        with pytest.raises(TypeError, match="not a MotiveExpr"):
            normalize(("K3",))
        # a node over other values has no top weight, so it is refused when built
        for build in (lambda: Sum((("K3",),)), lambda: TensorTwist("K3", L)):
            with pytest.raises(AttributeError, match="top"):
                build()


class TestEqual:
    def test_distributed_vs_factored(self):
        A = Atom("A", 0)
        assert normalize(TensorTwist(A, ladder(0, 1))) == normalize(Sum((A, TensorTwist(A, L))))

    def test_two_sided_identity(self):
        lhs = Sum((TensorTwist(Atom("X", 6), M1), TensorTwist(Atom("Hilb", 3), M2_TWIST)))
        rhs = full_rhs_tree()
        replaced = normalize(lhs).substitute(
            "X", NormalForm({"B": ONE, "Y": P("L^2")})
        )
        assert replaced == normalize(rhs)

    def test_distinct_atoms_differ(self):
        assert normalize(Atom("B", 6)) != normalize(Atom("Y", 2))


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
    def test_twist_adds_weight(self):
        assert TensorTwist(Atom("B", 6), P("L^4")).top == 10

    def test_point(self):
        # dim_of reads the node's top weight, not the registry
        assert dim_of(Atom("pt", 0), AtomRegistry()) == 0

    def test_sum_takes_max(self):
        e = Sum((Atom("Hilb", 3), TensorTwist(Atom("Hilb", 3), ladder(0, 1)), Atom("pt", 0)))
        assert e.top == 4


def reference_top(e: MotiveExpr, registry: AtomRegistry) -> int:
    """Top weight by a walk over the registry: dim(atom) + k for each L^k
    twist, max over sums."""
    top = 0
    stack = [(e, 0)]  # (node, total degree of the twists above it)
    while stack:
        node, shift = stack.pop()
        t = type(node)
        if t is Atom:
            top = max(top, registry.atom(node.name).top + shift)
        elif t is Sum:
            stack.extend((c, shift) for c in reversed(node.children))
        elif t is TensorTwist:
            stack.append((node.child, shift + node.twist.degree))
        else:
            raise TypeError(f"not a MotiveExpr: {node!r}")
    return top


def atoms_of(e: MotiveExpr) -> list[Atom]:
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.append(node)
        elif isinstance(node, Sum):
            stack.extend(node.children)
        else:
            stack.append(node.child)
    return out


class TestTopWeight:
    """Each node's stored top weight agrees with a walk of its tree."""

    @settings(max_examples=300)
    @given(motive_exprs())
    def test_built_trees(self, e):
        assert e.top == reference_top(e, session_atlas().registry)

    @settings(max_examples=300, deadline=None)
    @given(motive_exprs())
    def test_parsed_programs(self, e):
        atlas = session_atlas()
        parsed = Parser(atlas).parse(print_expr(e))
        assert parsed.top == reference_top(parsed, atlas.registry) == e.top

    @pytest.mark.parametrize(
        "text",
        [
            "Bl(Prod(Q(6), P(4)), PB(K3, 3), 6)",
            "Fib(Hilb2(K3), 3) * (1 + L^5) + Gr(2,5) * L",
            "Bl(P(4), P(2), 2) + X * L^2 + Hilb2QY",
            "PB(Fib(X, 0), 1)",
        ],
    )
    def test_every_parsed_atom_has_its_registered_dim(self, text):
        atlas = session_atlas()
        atlas.registry.register(MotiveAtom("X", 6))
        atlas.registry.register(MotiveAtom("Hilb2QY", 3))
        parsed = Parser(atlas).parse(text)
        for atom in atoms_of(parsed):
            assert atom.top == atlas.registry.atom(atom.name).top
        assert parsed.top == reference_top(parsed, atlas.registry)


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
    assert reg.atom("B").top == 6
    with pytest.raises(ValueError, match="dim 6, not 5"):
        reg.register(MotiveAtom("B", 5))
    with pytest.raises(ValueError, match="nonnegative"):
        reg.register(MotiveAtom("B", -1))
    with pytest.raises(UnregisteredAtomError):
        reg.atom("C").top


# exactness: a dimension is an int, never a float or bool truncated to one
@pytest.mark.parametrize("dim", [2.5, 2.0, True, "2", None])
def test_registry_takes_only_int_dims(dim):
    with pytest.raises(TypeError, match="is not an int"):
        AtomRegistry().register(MotiveAtom("A", dim))


class TestRegistryContract:
    """The registry holds one node per name: a refused registration stores
    none and leaves an earlier one in place, and every lookup returns it."""

    @pytest.mark.parametrize(
        "dim, error, message",
        [
            (2.0, TypeError, "dim of 'B' is not an int: 2.0"),
            (-1, ValueError, "dim must be nonnegative"),
            (5, ValueError, "atom 'B' already registered with dim 6, not 5"),
        ],
    )
    def test_a_refusal_keeps_the_earlier_node(self, dim, error, message):
        reg = AtomRegistry()
        reg.register(MotiveAtom("B", 6))
        node = reg.atom("B")
        reg.register(MotiveAtom("B", 6, frozenset({"unknown"})))  # accepted, no new node
        with pytest.raises(error) as exc:
            reg.register(MotiveAtom("B", dim))
        assert str(exc.value) == message
        assert reg.atom("B") is node and (node.name, node.top) == ("B", 6)

    @pytest.mark.parametrize("dim, error", [(2.0, TypeError), (-1, ValueError)])
    def test_a_refusal_stores_no_node(self, dim, error):
        reg = AtomRegistry()
        with pytest.raises(error):
            reg.register(MotiveAtom("A", dim))
        with pytest.raises(UnregisteredAtomError):
            reg.atom("A")


class TestOneNodePerName:
    """Work count: an atom's node is built when its name is registered, and
    every tree that names the atom shares it."""

    @pytest.fixture()
    def built(self, monkeypatch):
        built, init = [], Atom.__init__
        monkeypatch.setattr(Atom, "__init__", lambda a, *args: built.append(args) or init(a, *args))
        return built

    def test_a_bulk_program_builds_one_node_per_name(self, built):
        # the 2000-term dsl-bulk program at seed 1: over 2000 leaves, 22 names
        parsed = Parser(Atlas()).parse(bulk_program(1, 2000))
        leaves = atoms_of(parsed)
        assert len(leaves) > 2000 and len({a.name for a in leaves}) == 22
        assert len(built) == 22 and len({id(a) for a in leaves}) == 22

    def test_repeated_leaves_are_one_object(self, built):
        parsed = Parser(Atlas()).parse("K3 + K3 * L")
        assert parsed.children[0] is parsed.children[1].child
        assert built == [("K3", 2)]

    def test_a_derivation_builds_no_node(self, built):
        assert verify_identity(GMScenario()).ok
        assert built == []


class TestOneReadPerSummand:
    """Work count: a parse reads each distinct top-level summand once, and
    the next parse reads them again."""

    @pytest.fixture()
    def reads(self, monkeypatch):
        # the token index of each _factor call at the top level: one per summand read
        reads, factor = [], Parser._factor
        monkeypatch.setattr(
            Parser, "_factor", lambda p: (p._depth == 1 and reads.append(p._i)) or factor(p)
        )
        return reads

    def test_a_bulk_program_reads_each_distinct_summand_once(self, reads):
        # the 2000-term dsl-bulk program at seed 1 has 630 distinct summands
        text = bulk_program(1, 2000)
        summands = ["".join(s.split()) for s in top_level_summands(text)]
        assert len(summands) == 2000 and len(set(summands)) == 630
        parsed = Parser(Atlas()).parse(text)
        assert len(reads) == 630
        leaves = atoms_of(parsed)
        assert len(leaves) > 2000 and len({id(a) for a in leaves}) == 22
        alone = Parser(Atlas())
        assert parsed == Sum(tuple(alone.parse(s) for s in summands))

    def test_the_next_parse_reads_them_again(self, reads):
        parser, text = Parser(Atlas()), "K3 * L + Q(6) + K3 * L"
        parser.parse(text)
        parser.parse(text)
        assert len(reads) == 4


def unshared(e: MotiveExpr) -> MotiveExpr:
    """A copy of e in which no node object occurs twice."""
    if isinstance(e, Sum):
        return Sum(tuple(unshared(c) for c in e.children))
    if isinstance(e, TensorTwist):
        return TensorTwist(unshared(e.child), e.twist)
    return copy.deepcopy(e)


class TestSharedChildrenWalkedOnce:
    """normalize walks a child that a Sum holds several times once, with its
    count; the normal form and its term order are those of unshared copies."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(motive_exprs(max_leaves=6), min_size=1, max_size=4), st.data())
    def test_like_unshared_copies(self, pool, data):
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        twist = data.draw(nonzero_tate_polys(max_exp=4, max_coeff=4))
        inner = Sum(tuple(picks))
        # shared at two levels: picks repeat inside inner, and inner repeats in e
        e = Sum((inner, *picks, TensorTwist(inner, twist), inner))
        nf, copies = normalize(e), normalize(unshared(e))
        assert nf == copies
        assert list(nf.terms) == list(copies.terms)

    def test_a_bulk_program_multiplies_once_per_distinct_summand(self, monkeypatch):
        # the 2000-term dsl-bulk program at seed 1: 531 twist products, as for
        # its 630 distinct summands alone (909 with one walk per occurrence)
        parsed = Parser(Atlas()).parse(bulk_program(1, 2000))
        distinct = Sum(tuple({id(c): c for c in parsed.children}.values()))
        assert len(parsed.children) == 2000 and len(distinct.children) == 630
        products, mul = [], TatePolynomial.__mul__
        monkeypatch.setattr(TatePolynomial, "__mul__", lambda p, q: products.append(q) or mul(p, q))
        normalize(parsed)
        shared = len(products)
        normalize(distinct)
        assert shared == len(products) - shared == 531


class TestDeepTrees:
    DEPTH = 5000

    def test_twist_chain(self):
        e = Atom("B", 6)
        for _ in range(self.DEPTH):
            e = TensorTwist(e, L)
        assert normalize(e) == NormalForm({"B": TatePolynomial({self.DEPTH: 1})})
        assert e.top == 6 + self.DEPTH

    def test_alternating_sum_twist_chain(self):
        # pt + (pt + (pt + ...) * L) * L: one pt per twist level
        e = Atom("pt", 0)
        for _ in range(self.DEPTH):
            e = Sum((Atom("pt", 0), TensorTwist(e, L)))
        assert normalize(e) == NormalForm({"pt": ladder(0, self.DEPTH)})
        assert Sum((e, Atom("B", 6))).top == self.DEPTH

    def test_atoms_keep_left_to_right_order(self):
        e = Sum((Atom("Q6", 6), TensorTwist(Sum((Atom("K3", 2), Atom("P2", 2))), L), Atom("Q6", 6)))
        assert list(normalize(e).terms) == ["Q6", "K3", "P2"]
