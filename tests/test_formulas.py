import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from motivecalc import (
    Atom,
    DimensionMismatchError,
    InvalidRankError,
    NonCellularFactorError,
    NormalForm,
    TatePolynomial,
    blow_up,
    codim_rank_leq,
    dim_of,
    kunneth,
    ladder,
    normalize,
    p_fibration,
    projective_bundle,
    realize_hodge,
)

from motivecalc.dsl import Parser

from conftest import session_atlas

P = Parser().parse_polynomial


@pytest.fixture(scope="module")
def atlas():
    a = session_atlas()
    a.projective_space(0)
    a.projective_space(1)
    return a


class TestProjectiveBundle:
    def test_rank_four_over_surface(self, atlas):
        e = projective_bundle(Atom("K3"), 4)
        assert normalize(e) == NormalForm({"K3": ladder(0, 3)})
        assert dim_of(e, atlas.registry) == 5

    def test_rank_three(self, atlas):
        e = projective_bundle(Atom("Q6"), 3)
        assert normalize(e) == NormalForm({"Q6": ladder(0, 2)})
        assert dim_of(e, atlas.registry) == 8

    def test_rank_one_is_identity(self):
        e = projective_bundle(Atom("K3"), 1)
        assert normalize(e) == NormalForm({"K3": TatePolynomial.one()})

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            projective_bundle(Atom("K3"), 0)


class TestBlowUp:
    def test_surface_point_blowup(self, atlas):
        e = blow_up(Atom("P2"), Atom("P0"), 2, atlas.registry)
        nf = normalize(e)
        assert nf == NormalForm({"P2": TatePolynomial.one(), "P0": P("L")})
        d = realize_hodge(nf, atlas.diamond_table())
        assert d.euler() == 4

    def test_codim_six_twist(self, atlas):
        ambient = kunneth(Atom("Q6"), Atom("P4"), atlas)
        # a dim-4 center in the dim-10 ambient
        center = projective_bundle(Atom("K3"), 3)
        e = blow_up(ambient, center, 6, atlas.registry)
        assert normalize(e).coefficient("K3") == ladder(0, 2) * ladder(1, 5)

    def test_dimension_mismatch(self, atlas):
        with pytest.raises(DimensionMismatchError):
            blow_up(Atom("P4"), Atom("K3"), 3, atlas.registry)

    def test_codim_below_two_rejected(self, atlas):
        with pytest.raises(ValueError):
            blow_up(Atom("P2"), Atom("P1"), 1, atlas.registry)

    def test_unchecked_mode(self):
        e = blow_up(Atom("A"), Atom("Z"), 4, None)
        assert normalize(e) == NormalForm({"A": TatePolynomial.one(), "Z": ladder(1, 3)})

    def test_dimension_preserved(self, atlas):
        ambient = kunneth(Atom("Q6"), Atom("P4"), atlas)
        center = projective_bundle(Atom("K3"), 3)
        e = blow_up(ambient, center, 6, atlas.registry)
        assert dim_of(e, atlas.registry) == dim_of(ambient, atlas.registry)


class TestKunneth:
    def test_product_with_p4(self, atlas):
        e = kunneth(Atom("Q6"), Atom("P4"), atlas)
        assert normalize(e) == NormalForm({"Q6": ladder(0, 4)})

    def test_point_factor_is_identity(self, atlas):
        e = kunneth(Atom("K3"), Atom("P0"), atlas)
        assert normalize(e) == NormalForm({"K3": TatePolynomial.one()})

    def test_cellular_factor_on_either_side(self, atlas):
        left = kunneth(Atom("P4"), Atom("K3"), atlas)
        right = kunneth(Atom("K3"), Atom("P4"), atlas)
        assert normalize(left) == normalize(right)

    def test_two_noncellular_factors_rejected(self, atlas):
        with pytest.raises(NonCellularFactorError):
            kunneth(Atom("K3"), Atom("K3"), atlas)


class TestFibration:
    def test_p1_fibration(self):
        e = p_fibration(Atom("Hilb"), 1)
        assert normalize(e) == NormalForm({"Hilb": ladder(0, 1)})

    def test_p2_fibration_of_composite(self):
        d2 = p_fibration(Atom("Hilb"), 1)
        e = p_fibration(d2, 2)
        assert normalize(e) == NormalForm({"Hilb": ladder(0, 1) * ladder(0, 2)})

    def test_zero_fiber_is_identity(self):
        x = Atom("X")
        assert p_fibration(x, 0) is x

    def test_matches_projective_bundle(self):
        assert normalize(p_fibration(Atom("A"), 3)) == normalize(
            projective_bundle(Atom("A"), 4)
        )


class TestCodim:
    @pytest.mark.parametrize("r,expected", [(2, 2), (1, 6), (0, 12)])
    def test_rank_3_by_4(self, r, expected):
        assert codim_rank_leq(3, 4, r) == expected

    def test_corank_helper(self):
        # the corank >= k stratum is the rank <= min(e, f) - k locus
        assert codim_rank_leq(3, 4, min(3, 4) - 1) == 2
        assert codim_rank_leq(3, 4, min(3, 4) - 2) == 6
        assert codim_rank_leq(3, 4, min(3, 4) - 3) == 12

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            codim_rank_leq(3, 4, 4)
        with pytest.raises(InvalidRankError):
            codim_rank_leq(3, 4, -1)


CENTERS = ["P0", "P1", "P2", "K3", "Q3"]


@settings(max_examples=200, deadline=None)
@given(
    center=st.sampled_from(CENTERS),
    codim=st.integers(2, 5),
    rank=st.integers(1, 5),
)
def test_euler_additivity_and_multiplicativity(center, codim, rank):
    """Blow-up adds (c-1) * chi(center); projective bundles multiply by the rank."""
    atlas = session_atlas()
    atlas.projective_space(0)
    atlas.projective_space(1)
    atlas.quadric(3)
    center_dim = atlas.registry.get(center).dim
    ambient = atlas.projective_space(center_dim + codim).atom.name
    table = atlas.diamond_table()

    e = blow_up(Atom(ambient), Atom(center), codim, atlas.registry)
    chi = realize_hodge(normalize(e), table).euler()
    chi_ambient = table[ambient].euler()
    chi_center = table[center].euler()
    assert chi == chi_ambient + (codim - 1) * chi_center

    pb = projective_bundle(Atom(center), rank)
    assert realize_hodge(normalize(pb), table).euler() == rank * chi_center
