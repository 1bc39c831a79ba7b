import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

from motivecalc import (
    Atlas,
    HodgeDiamond,
    MissingRealizationError,
    NormalForm,
    check_symmetries,
    k3,
    ladder,
    normalize,
    projective_space,
    quadric,
    realize_hodge,
)
from motivecalc.dsl import Parser
from motivecalc.tatepoly import ONE, ZERO, L

P = Parser(Atlas()).parse_polynomial

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

    def test_zero_form_is_the_empty_point(self):
        assert realize_hodge(NormalForm(), {}) == HodgeDiamond(0, {})
        assert realize_hodge(NormalForm({"B": ZERO}), {}) == HodgeDiamond(0, {})

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
    return realize_hodge(NormalForm({"S": L**k}), {"S": d})


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


def full_grid_symmetric(d: HodgeDiamond) -> bool:
    """Reference check over every cell of the (n+1) x (n+1) grid."""
    n = d.n
    for p in range(n + 1):
        for q in range(n + 1):
            v = d.hodge(p, q)
            if v != d.hodge(q, p) or v != d.hodge(n - p, n - q):
                return False
    return True


@st.composite
def diamonds(draw):
    """Random diamonds; about half are closed under both symmetries and then
    possibly bumped in one cell, so both outcomes of the check occur."""
    n = draw(st.integers(0, 5))
    cell = st.tuples(st.integers(0, n), st.integers(0, n))
    h = draw(st.dictionaries(cell, st.integers(0, 3), max_size=8))
    if draw(st.booleans()):
        closed: dict = {}
        for (p, q), v in h.items():
            for c in [(p, q), (q, p), (n - p, n - q), (n - q, n - p)]:
                closed[c] = max(closed.get(c, 0), v)
        h = closed
        if draw(st.booleans()):
            c = draw(cell)
            h[c] = h.get(c, 0) + 1
    return HodgeDiamond(n, h)


class TestCheckSymmetries:
    def test_gm_diamond(self):
        assert check_symmetries(gm_diamond())

    def test_k3(self):
        assert check_symmetries(K3)

    def test_broken_conjugation(self):
        d = HodgeDiamond(1, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
        assert not check_symmetries(d)

    @settings(max_examples=500)
    @given(diamonds())
    def test_matches_full_grid(self, d):
        assert check_symmetries(d) == full_grid_symmetric(d)


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


def test_pretty_layout_is_triangular():
    text = projective_space(1).diamond.pretty()
    lines = text.splitlines()
    assert [ln.split() for ln in lines] == [["1"], ["0", "0"], ["1"]]


def pretty_reference(d: HodgeDiamond) -> str:
    """The renderer that looks up, formats and centers every cell of the
    triangle, zeros included."""
    rows = []
    for k in range(2 * d.n + 1):
        ps = range(min(d.n, k), max(0, k - d.n) - 1, -1)
        rows.append([str(d.hodge(p, k - p)) for p in ps])
    width = max(len(s) for row in rows for s in row)
    cell = width + 2
    total = cell * (2 * d.n + 1)
    lines = []
    for row in rows:
        text = "".join(s.center(cell) for s in row).center(total).rstrip()
        lines.append(text)
    return "\n".join(lines)


@st.composite
def symmetric_sparse_diamonds(draw):
    """Diamonds closed under both symmetries, with a few nonzero orbits of
    values of one to seven digits."""
    n = draw(st.integers(0, 12))
    cell = st.tuples(st.integers(0, n), st.integers(0, n))
    h = {}
    for (p, q), v in draw(st.dictionaries(cell, st.integers(1, 10**6), max_size=10)).items():
        for c in [(p, q), (q, p), (n - p, n - q), (n - q, n - p)]:
            h[c] = v
    return HodgeDiamond(n, h)


@settings(max_examples=300)
@given(symmetric_sparse_diamonds())
@example(HodgeDiamond(0, {}))
def test_pretty_matches_reference(d):
    assert d.pretty() == pretty_reference(d)


def test_pretty_matches_reference_at_dimension_579():
    atlas = Atlas()
    expr = Parser(atlas).parse("Gr(24,48) * (1 + L^3) + Hilb2(K3) * L^5 + P(4)")
    d = realize_hodge(normalize(expr), atlas.diamond_table())
    assert d.n == 579
    assert d.pretty() == pretty_reference(d)


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


# exactness: the dimension and every index and Hodge number are ints
@pytest.mark.parametrize(
    "n,h",
    [
        (2, {(0, 0): 0.5}),
        (2.0, {}),
        (True, {}),
        (2, {(0, 0): True}),
        (2, {(1.0, 1): 1}),
        (2, {(1, True): 1}),
        (2, {(0, 0): 1.0}),
    ],
)
def test_diamond_takes_only_ints(n, h):
    with pytest.raises(TypeError, match="is not an int"):
        HodgeDiamond(n, h)


@pytest.mark.parametrize(
    "n,h,message",
    [
        (-1, {}, "^dimension must be nonnegative$"),
        (2, {(3, 0): 1}, r"^entry \(3,0\) outside \[0,2\]\^2$"),
        (2, {(1, 1): -1}, r"^negative Hodge number at \(1,1\)$"),
    ],
)
def test_diamond_value_errors_unchanged(n, h, message):
    with pytest.raises(ValueError, match=message):
        HodgeDiamond(n, h)
