import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from motivecalc import (
    Atlas,
    Atom,
    DimensionMismatchError,
    NormalForm,
    ONE,
    blow_up,
    ladder,
    normalize,
    projective_bundle,
    realize_hodge,
)

from motivecalc.dsl import Parser
from motivecalc.formulas import (
    InvalidRankError,
    NonCellularFactorError,
    codim_rank_leq,
    kunneth,
    projective_fibration,
)

from strategies import session_atlas

P = Parser(Atlas()).parse_polynomial


@pytest.fixture(scope="module")
def atlas():
    a = session_atlas()
    a.projective_space(0)
    a.projective_space(1)
    return a


class TestProjectiveBundle:
    def test_rank_four_over_surface(self, atlas):
        e = projective_bundle(Atom("K3", 2), 4)
        assert normalize(e) == NormalForm({"K3": ladder(0, 3)})
        assert e.top == 5

    def test_rank_three(self, atlas):
        e = projective_bundle(Atom("Q6", 6), 3)
        assert normalize(e) == NormalForm({"Q6": ladder(0, 2)})
        assert e.top == 8

    def test_rank_one_is_identity(self):
        e = projective_bundle(Atom("K3", 2), 1)
        assert normalize(e) == NormalForm({"K3": ONE})

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            projective_bundle(Atom("K3", 2), 0)


class TestBlowUp:
    def test_surface_point_blowup(self, atlas):
        e = blow_up(Atom("P2", 2), Atom("P0", 0), 2)
        nf = normalize(e)
        assert nf == NormalForm({"P2": ONE, "P0": P("L")})
        d = realize_hodge(nf, atlas.diamond_table())
        assert d.euler() == 4

    def test_codim_six_twist(self, atlas):
        ambient = kunneth(Atom("Q6", 6), Atom("P4", 4), atlas)
        # a dim-4 center in the dim-10 ambient
        center = projective_bundle(Atom("K3", 2), 3)
        e = blow_up(ambient, center, 6)
        assert normalize(e).coefficient("K3") == ladder(0, 2) * ladder(1, 5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            blow_up(Atom("P4", 4), Atom("K3", 2), 3)

    def test_codim_below_two_rejected(self):
        with pytest.raises(DimensionMismatchError, match="codimension 1 outside 2..1001"):
            blow_up(Atom("P2", 2), Atom("P1", 1), 1)

    def test_dimension_preserved(self, atlas):
        ambient = kunneth(Atom("Q6", 6), Atom("P4", 4), atlas)
        center = projective_bundle(Atom("K3", 2), 3)
        e = blow_up(ambient, center, 6)
        assert e.top == ambient.top == 10


class TestKunneth:
    def test_product_with_p4(self, atlas):
        e = kunneth(Atom("Q6", 6), Atom("P4", 4), atlas)
        assert normalize(e) == NormalForm({"Q6": ladder(0, 4)})

    def test_point_factor_is_identity(self, atlas):
        e = kunneth(Atom("K3", 2), Atom("P0", 0), atlas)
        assert normalize(e) == NormalForm({"K3": ONE})

    def test_cellular_factor_on_either_side(self, atlas):
        left = kunneth(Atom("P4", 4), Atom("K3", 2), atlas)
        right = kunneth(Atom("K3", 2), Atom("P4", 4), atlas)
        assert normalize(left) == normalize(right)

    def test_two_noncellular_factors_rejected(self, atlas):
        with pytest.raises(NonCellularFactorError):
            kunneth(Atom("K3", 2), Atom("K3", 2), atlas)


class TestFibration:
    """A P^k-fibration decomposes as a projective bundle of rank k + 1."""

    def test_p1_fibration(self):
        e = projective_bundle(Atom("Hilb", 3), 1 + 1)
        assert normalize(e) == NormalForm({"Hilb": ladder(0, 1)})

    def test_p2_fibration_of_composite(self):
        d2 = projective_bundle(Atom("Hilb", 3), 1 + 1)
        e = projective_bundle(d2, 2 + 1)
        assert normalize(e) == NormalForm({"Hilb": ladder(0, 1) * ladder(0, 2)})

    def test_zero_fiber_is_identity(self):
        x = Atom("X", 6)
        assert projective_bundle(x, 0 + 1) is x

    @pytest.mark.parametrize("k", [0, 1, 2, 1000])
    def test_fibration_is_bundle_of_rank_k_plus_1(self, k):
        x = Atom("X", 6)
        assert normalize(projective_fibration(x, k)) == normalize(projective_bundle(x, k + 1))

    @pytest.mark.parametrize("k", [-1, 1001])
    def test_fiber_dimension_range(self, k):
        with pytest.raises(DimensionMismatchError, match=f"fiber dimension {k} outside 0..1000"):
            projective_fibration(Atom("X", 6), k)


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
        # the refusal names both bundle ranks, as a scenario's bad rank needs
        for r in (4, -1):
            message = rf"^rank {r} outside \[0, 3\] for bundle ranks 3 and 4$"
            with pytest.raises(InvalidRankError, match=message):
                codim_rank_leq(3, 4, r)


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
    center_dim = atlas.registry.atom(center).top
    ambient = atlas.projective_space(center_dim + codim).name
    table = atlas.diamond_table()

    e = blow_up(Atom(ambient, center_dim + codim), Atom(center, center_dim), codim)
    chi = realize_hodge(normalize(e), table).euler()
    chi_ambient = table[ambient].euler()
    chi_center = table[center].euler()
    assert chi == chi_ambient + (codim - 1) * chi_center

    pb = projective_bundle(Atom(center, center_dim), rank)
    assert realize_hodge(normalize(pb), table).euler() == rank * chi_center
