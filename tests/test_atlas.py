"""Atlas entries against independent oracles: brute-force subspace counting
over small finite fields, a sympy product formula for q-binomials, and the
two-point truncation of the Hilbert-scheme Betti generating function."""

import itertools
import random
from collections import Counter

import pytest
import sympy

from motivecalc import (
    Atlas,
    OddCohomologyError,
    check_symmetries,
    gaussian_binomial,
    grassmannian,
    hilb2_surface,
    k3,
    projective_space,
    quadric,
)
from motivecalc.atlas import AtlasEntry
from motivecalc.hodge import HodgeDiamond


# -- oracles ----------------------------------------------------------------


def count_subspaces_bruteforce(q, n, k):
    """Number of k-dimensional subspaces of F_q^n, by enumerating spans."""
    vectors = list(itertools.product(range(q), repeat=n))

    def add(u, v):
        return tuple((a + b) % q for a, b in zip(u, v))

    def scale(c, u):
        return tuple((c * a) % q for a in u)

    def span(basis):
        out = {tuple([0] * n)}
        for coeffs in itertools.product(range(q), repeat=len(basis)):
            v = tuple([0] * n)
            for c, b in zip(coeffs, basis):
                v = add(v, scale(c, b))
            out.add(v)
        return frozenset(out)

    spans = set()
    nonzero = [v for v in vectors if any(v)]
    for basis in itertools.combinations(nonzero, k):
        s = span(basis)
        if len(s) == q**k:  # basis was independent
            spans.add(s)
    return len(spans)


def q_binomial_sympy(n, k):
    """Coefficients of the Gaussian binomial via the product formula
    prod_{i<k} (q^(n-i) - 1) / (q^(i+1) - 1): identical factors cancel, and
    sympy divides what is left exactly."""
    q = sympy.symbols("q")
    top, bottom = Counter(n - i for i in range(k)), Counter(i + 1 for i in range(k))

    def product(exponents):
        return sympy.prod((sympy.Poly(q**e - 1, q) for e in exponents), start=sympy.Poly(1, q))

    quo, rem = sympy.div(product((top - bottom).elements()), product((bottom - top).elements()))
    assert rem.is_zero
    return list(reversed(quo.all_coeffs()))


def hilb2_betti_goettsche(b):
    """Betti numbers of the Hilbert square from the generating function
    prod_m prod_i (1 - z^(2m-2+i) t^m)^((-1)^(i+1) b_i), truncated at t^2."""
    z, t = sympy.symbols("z t")
    prod = sympy.Integer(1)
    for m in (1, 2):
        for i, bi in enumerate(b):
            if bi:
                prod *= (1 - z ** (2 * m - 2 + i) * t**m) ** ((-1) ** (i + 1) * bi)
    series = sympy.series(prod, t, 0, 3).removeO()
    coeff = sympy.expand(series.coeff(t, 2))
    poly = sympy.Poly(coeff, z)
    return tuple(int(poly.coeff_monomial(z**j)) for j in range(sympy.degree(poly, z) + 1))


def random_surface_entry(rng):
    h20 = rng.randrange(0, 4)
    h11 = rng.randrange(1, 30)
    d = HodgeDiamond(
        2, {(0, 0): 1, (2, 2): 1, (2, 0): h20, (0, 2): h20, (1, 1): h11}
    )
    return AtlasEntry(
        name=f"S_{h20}_{h11}",
        diamond=d,
        torsion_free=True,
        provenance="random test surface",
    )


# -- tests -------------------------------------------------------------------


class TestProjectiveSpace:
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_diagonal_ones(self, n):
        e = projective_space(n)
        assert e.diamond.betti() == tuple(1 if k % 2 == 0 else 0 for k in range(2 * n + 1))
        assert e.diamond.euler() == n + 1
        assert e.torsion_free


class TestQuadric:
    def test_q6(self):
        e = quadric(6)
        assert e.diamond.entries() == [(p, p, 2 if p == 3 else 1) for p in range(7)]
        assert e.diamond.euler() == 8

    def test_q5(self):
        e = quadric(5)
        assert e.diamond.entries() == [(p, p, 1) for p in range(6)]
        assert e.diamond.euler() == 6

    def test_q1_is_p1(self):
        assert quadric(1).diamond == projective_space(1).diamond

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_euler_closed_forms(self, m):
        assert quadric(2 * m).diamond.euler() == 2 * m + 2
        assert quadric(2 * m + 1).diamond.euler() == 2 * m + 2


class TestGrassmannian:
    def test_gr25_coefficients(self):
        e = grassmannian(2, 5)
        assert [e.cells.coefficient(p) for p in range(7)] == [1, 1, 2, 2, 2, 1, 1]
        assert e.diamond.euler() == 10

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(17) for k in range(n + 1)])
    def test_gaussian_binomial_vs_sympy_product_formula(self, n, k):
        got = gaussian_binomial(n, k)
        want = q_binomial_sympy(n, k)
        assert got.degree == len(want) - 1
        assert [got.coefficient(p) for p in range(len(want))] == want

    # off-centre k puts the q-Pascal band's lower edge above column 1 for most rows
    @pytest.mark.parametrize(
        "n,k", [(48, 24), (63, 31), (62, 31), (40, 7), (40, 33), (1001, 1), (1001, 1000)]
    )
    def test_gaussian_binomial_beyond_the_sweep(self, n, k):
        got = gaussian_binomial(n, k)
        want = q_binomial_sympy(n, k)
        assert got.degree == len(want) - 1
        assert [got.coefficient(p) for p in range(len(want))] == want
        assert got == gaussian_binomial(n, n - k)

    def test_gr24(self):
        e = grassmannian(2, 4)
        assert [e.cells.coefficient(p) for p in range(5)] == [1, 1, 2, 1, 1]
        assert e.diamond.euler() == 6

    def test_gr1n_is_projective_space(self):
        assert grassmannian(1, 5).diamond == projective_space(4).diamond

    @pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2), (2, 4, 1)])
    def test_point_counts_bruteforce(self, q, n, k):
        # evaluating the q-binomial at q counts subspaces over F_q
        poly = gaussian_binomial(n, k)
        value = sum(a * q**e for e, a in poly.items())
        assert value == count_subspaces_bruteforce(q, n, k)

    @pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 5)])
    def test_euler_is_binomial(self, k, n):
        import math

        assert grassmannian(k, n).diamond.euler() == math.comb(n, k)


class TestK3:
    def test_invariants(self):
        e = k3()
        assert e.diamond.betti() == (1, 0, 22, 0, 1)
        assert {(1, 1, 20), (2, 0, 1)} <= set(e.diamond.entries())
        assert e.diamond.euler() == 24
        assert e.torsion_free


class TestHilb2:
    def test_hilb2_k3(self):
        e = hilb2_surface(k3())
        assert e.diamond.betti() == (1, 0, 23, 0, 276, 0, 23, 0, 1)
        assert {(1, 1, 21), (2, 2, 232)} <= set(e.diamond.entries())
        assert e.diamond.euler() == 324
        assert e.torsion_free

    def test_hilb2_k3_vs_goettsche(self):
        assert e_betti() == hilb2_betti_goettsche((1, 0, 22, 0, 1))

    def test_hilb2_p2(self):
        e = hilb2_surface(projective_space(2))
        assert e.diamond.betti() == (1, 0, 2, 0, 3, 0, 2, 0, 1)
        assert e.diamond.euler() == 9

    def test_rejects_odd_cohomology(self):
        bad = AtlasEntry(
            name="A",
            diamond=HodgeDiamond(
                2, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 2,
                    (2, 1): 2, (1, 2): 2, (2, 2): 1}
            ),
            torsion_free=True,
            provenance="abelian-like surface",
        )
        assert check_symmetries(bad.diamond)
        with pytest.raises(OddCohomologyError):
            hilb2_surface(bad)

    def test_rejects_non_surface(self):
        with pytest.raises(OddCohomologyError):
            hilb2_surface(projective_space(3))

    def test_euler_identity_on_random_surfaces(self):
        rng = random.Random(20260823)
        for _ in range(5):
            s = random_surface_entry(rng)
            chi = s.diamond.euler()
            assert hilb2_surface(s).diamond.euler() == chi * (chi + 1) // 2 + chi

    def test_goettsche_agreement_on_random_surfaces(self):
        rng = random.Random(7)
        for _ in range(3):
            s = random_surface_entry(rng)
            got = hilb2_surface(s).diamond.betti()
            assert got == hilb2_betti_goettsche(s.diamond.betti())


def e_betti():
    return hilb2_surface(k3()).diamond.betti()


def test_every_entry_passes_symmetry_checks():
    entries = [
        projective_space(0),
        projective_space(4),
        quadric(5),
        quadric(6),
        grassmannian(2, 5),
        k3(),
        hilb2_surface(k3()),
    ]
    for e in entries:
        assert check_symmetries(e.diamond)


def test_atlas_caching_and_dump():
    atlas = Atlas()
    a = atlas.quadric(6)
    b = atlas.quadric(6)
    assert a is b
    atlas.k3()
    atlas.hilb2("K3")
    dump = atlas.dump()
    names = [d["name"] for d in dump]
    assert names == sorted(names)
    assert "Hilb2K3" in names


def test_atlas_builds_each_builtin_once(monkeypatch):
    import motivecalc.atlas as atlas_module
    from motivecalc.dsl import Parser

    calls = []

    def counting_grassmannian(k, n):
        calls.append((k, n))
        return grassmannian(k, n)

    monkeypatch.setattr(atlas_module, "grassmannian", counting_grassmannian)
    atlas = Atlas()
    Parser(atlas).parse("Gr(2,5) + Gr(2,5) * L")
    assert calls == [(2, 5)]
    Parser(Atlas()).parse("Gr(2,5)")
    assert calls == [(2, 5), (2, 5)]  # a fresh atlas builds again


def test_clashing_user_entry_fails_on_every_call():
    atlas = Atlas()
    fake = projective_space(3)
    diamond = HodgeDiamond(3, {(0, 0): 1, (1, 1): 2, (2, 2): 2, (3, 3): 1})
    atlas.add(AtlasEntry(fake.name, diamond, True, "user entry"))
    for _ in range(2):
        with pytest.raises(ValueError, match="entry 'P3' already present"):
            atlas.projective_space(3)


def test_an_entry_is_its_mathematics_and_the_first_label_stays():
    built = projective_space(4)
    first = AtlasEntry("P4", built.diamond, True, "user entry", built.cells)
    assert first == built and hash(first) == hash(built)
    atlas = Atlas()
    assert atlas.add(first) is first
    assert atlas.projective_space(4) is first and first.provenance == "user entry"
    # another torsion flag, or no cells, is another entry
    for other in (
        AtlasEntry("P4", built.diamond, False, "user entry", built.cells),
        AtlasEntry("P4", built.diamond, True, "user entry"),
    ):
        atlas = Atlas()
        atlas.add(other)
        with pytest.raises(ValueError, match="entry 'P4' already present"):
            atlas.projective_space(4)


def test_hilb2_built_once_and_requires_base():
    atlas = Atlas()
    with pytest.raises(KeyError):
        atlas.hilb2("K3")
    atlas.k3()
    assert atlas.hilb2("K3") is atlas.hilb2("K3")


def test_hilb2_of_a_missing_base_raises_its_name():
    with pytest.raises(KeyError) as exc:
        Atlas().hilb2("missing")
    assert type(exc.value) is KeyError and exc.value.args == ("missing",)
