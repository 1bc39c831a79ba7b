import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from motivecalc import (
    CohomologyProfile,
    HodgeDiamond,
    MissingRealizationError,
    NormalForm,
    SymbolicRank,
    TatePolynomial,
    check_symmetries,
    k3,
    ladder,
    lefschetz_section_profile,
    projective_space,
    quadric,
    realize_hodge,
    torsion_status,
)
from motivecalc.dsl import Parser
from motivecalc.hodge import FREE, UNKNOWN

P = Parser().parse_polynomial
ONE = TatePolynomial.one()

K3 = k3().diamond
Q6 = quadric(6).diamond


def gm_diamond():
    return realize_hodge(
        NormalForm({"B": ONE, "Y": P("L^2")}), {"B": Q6, "Y": K3}
    )


class TestRealizeHodge:
    def test_sixfold_diamond(self):
        d = gm_diamond()
        assert d.n == 6
        assert d.hodge(3, 3) == 22
        assert d.hodge(2, 2) == d.hodge(4, 4) == 2
        assert d.hodge(2, 4) == d.hodge(4, 2) == 1
        assert d.hodge(1, 1) == 1
        # middle row of the diamond
        assert [d.hodge(p, 6 - p) for p in range(7)] == [0, 0, 1, 22, 1, 0, 0]

    def test_point_ladder_gives_p1(self):
        pt = HodgeDiamond(0, {(0, 0): 1})
        d = realize_hodge(NormalForm({"pt": ladder(0, 1)}), {"pt": pt})
        assert d == projective_space(1).diamond

    def test_shifted_k3(self):
        d = realize_hodge(NormalForm({"K3": P("L")}), {"K3": K3})
        assert d.hodge(2, 2) == 20
        assert d.hodge(3, 1) == d.hodge(1, 3) == 1

    def test_missing_realization(self):
        with pytest.raises(MissingRealizationError, match="no Hodge realization for atom 'mystery'"):
            realize_hodge(NormalForm({"mystery": ONE}), {})

    def test_additive_over_sums(self):
        a = NormalForm({"B": ladder(0, 2)})
        b = NormalForm({"Y": P("L^2 + L^4")})
        table = {"B": Q6, "Y": K3}
        left = realize_hodge(a + b, table)
        da, db = realize_hodge(a, table), realize_hodge(b, table)
        for p in range(left.n + 1):
            for q in range(left.n + 1):
                assert left.hodge(p, q) == da.hodge(p, q) + db.hodge(p, q)


def twisted(d: HodgeDiamond, k: int) -> HodgeDiamond:
    """Realization of a single atom tensored by L^k."""
    return realize_hodge(NormalForm({"S": TatePolynomial.lefschetz(k)}), {"S": d})


class TestTwistDiamond:
    def test_k3_by_two(self):
        d = twisted(K3, 2)
        assert d.n == 4
        assert d.hodge(3, 3) == 20
        assert d.hodge(2, 2) == d.hodge(4, 4) == 1
        assert d.hodge(2, 4) == d.hodge(4, 2) == 1

    def test_zero_is_identity(self):
        assert twisted(Q6, 0) == Q6

    def test_point_by_three(self):
        pt = HodgeDiamond(0, {(0, 0): 1})
        d = twisted(pt, 3)
        assert d.entries() == [(3, 3, 1)]

    def test_matches_realize(self):
        # every entry moves by (k, k); the ambient dimension is the top weight
        d = twisted(K3, 2)
        assert d.entries() == [(p + 2, q + 2, v) for p, q, v in K3.entries()]


class TestCheckSymmetries:
    def test_gm_diamond(self):
        assert check_symmetries(gm_diamond())

    def test_k3(self):
        assert check_symmetries(K3)

    def test_broken_conjugation(self):
        d = HodgeDiamond(1, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
        assert not check_symmetries(d)


class TestLefschetzProfile:
    def test_hilbert_square_section(self):
        from motivecalc import hilb2_surface

        ambient = hilb2_surface(k3()).diamond
        prof = lefschetz_section_profile(ambient, True)
        assert prof.n == 3
        assert prof.ranks[:3] == (1, 0, 23)
        assert isinstance(prof.ranks[3], SymbolicRank)
        assert prof.ranks[4:] == (23, 0, 1)
        assert prof.all_free()

    def test_plane_curve(self):
        prof = lefschetz_section_profile(projective_space(2).diamond, True)
        assert prof.ranks[0] == 1 and prof.ranks[2] == 1
        assert isinstance(prof.ranks[1], SymbolicRank)

    def test_unknown_ambient_propagates(self):
        prof = lefschetz_section_profile(projective_space(2).diamond, False)
        assert not prof.all_free()
        assert set(prof.torsion) == {UNKNOWN}

    def test_numeric_duality_and_single_symbol(self):
        prof = lefschetz_section_profile(quadric(6).diamond, True)
        s = prof.n
        symbolic = [k for k, r in enumerate(prof.ranks) if isinstance(r, SymbolicRank)]
        assert symbolic == [s]
        for k in range(2 * s + 1):
            if k != s and 2 * s - k != s:
                assert prof.ranks[k] == prof.ranks[2 * s - k]


class TestTorsionStatus:
    def make_table(self, hilb_free=True):
        from motivecalc import hilb2_surface

        prof_b = CohomologyProfile.from_diamond(Q6, True)
        prof_y = CohomologyProfile.from_diamond(K3, True)
        prof_h = lefschetz_section_profile(hilb2_surface(k3()).diamond, hilb_free)
        return {"B": prof_b, "Y": prof_y, "Hilb": prof_h}

    def test_all_free(self):
        nf = NormalForm({"B": ONE, "Y": P("L^2"), "Hilb": P("L")})
        assert torsion_status(nf, self.make_table()) == FREE

    def test_empty_is_free(self):
        assert torsion_status(NormalForm(), {}) == FREE

    def test_unknown_atom_propagates(self):
        nf = NormalForm({"Hilb": ONE})
        assert torsion_status(nf, self.make_table(hilb_free=False)) == UNKNOWN

    def test_missing_profile(self):
        with pytest.raises(MissingRealizationError, match="no cohomology profile for atom 'B'"):
            torsion_status(NormalForm({"B": ONE}), {})


class TestBettiPolynomial:
    def test_gm_sixfold(self):
        b = gm_diamond().betti()
        assert b == (1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1)
        assert gm_diamond().euler() == 32

    def test_even_quadric(self):
        assert Q6.betti() == (1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 1, 0, 1)
        assert Q6.euler() == 8

    def test_point(self):
        assert HodgeDiamond(0, {(0, 0): 1}).betti() == (1,)

    def test_degree_is_twice_top_weight(self):
        nf = NormalForm({"B": ladder(0, 4)})
        d = realize_hodge(nf, {"B": Q6})
        assert len(d.betti()) - 1 == 2 * 10


def test_symbolic_rank_arithmetic():
    m = SymbolicRank("m")
    assert str(m + 12) == "m + 12"
    assert str(m) == "m"


def test_pretty_layout_is_triangular():
    text = projective_space(1).diamond.pretty()
    lines = text.splitlines()
    assert [ln.split() for ln in lines] == [["1"], ["0", "0"], ["1"]]


@settings(max_examples=200)
@given(a=st.integers(0, 3), b=st.integers(1, 25), k=st.integers(0, 4))
def test_twist_preserves_symmetry_and_euler(a, b, k):
    d = HodgeDiamond(2, {(0, 0): 1, (2, 2): 1, (2, 0): a, (0, 2): a, (1, 1): b})
    t = twisted(d, k)
    c = 2 + 2 * k  # duality is about the shifted center (1 + k, 1 + k)
    for p in range(t.n + 1):
        for q in range(t.n + 1):
            assert t.hodge(p, q) == t.hodge(q, p) == t.hodge(c - p, c - q)
    assert t.euler() == d.euler()
