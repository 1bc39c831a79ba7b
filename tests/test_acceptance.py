"""Acceptance suite: one test per criterion, each printing a pass line.

All checks are exact (integer/symbolic identities); there are no numeric
tolerances anywhere.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from motivecalc import (
    Atom,
    NormalForm,
    NotDivisibleError,
    TatePolynomial,
    blow_up,
    check_symmetries,
    codim_rank_leq,
    gaussian_binomial,
    hilb2_surface,
    k3,
    kunneth,
    ladder,
    normalize,
    print_expr,
    projective_bundle,
    realize_hodge,
    solve_tensor_factor,
)
from motivecalc.dsl import Parser
from motivecalc.gm import (
    GMScenario,
    build_d1_prime,
    build_d2,
    build_lhs,
    build_rhs,
    perturbed,
    profile_table,
    realization_table,
    solve_mx,
    torsion_report,
    verify_identity,
)
from motivecalc.hodge import FREE, SymbolicRank, HodgeDiamond
from motivecalc.atlas import AtlasEntry
from motivecalc.motive import MotiveAtom

from conftest import motive_exprs, nonzero_tate_polys, session_atlas, tate_polys

P = Parser().parse_polynomial

M1 = P("1 + 2L + 2L^2 + 2L^3 + L^4")
M2_TWIST = P("L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6")


def ok(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_rhs_reproduction():
    nf = normalize(build_rhs(GMScenario()))
    assert nf == NormalForm(
        {
            "B": M1,
            "Y": P("L^2 + 2L^3 + 2L^4 + 2L^5 + L^6"),
            "Hilb2QY": M2_TWIST,
        }
    )
    ok(1, "RHS reproduction")


def test_criterion_2_lhs_and_identity():
    s = GMScenario()
    assert normalize(build_lhs(s)) == NormalForm({"X": M1, "Hilb2QY": M2_TWIST})
    assert verify_identity(s).ok
    ok(2, "LHS reproduction and identity")


def test_criterion_3_solve_and_diamond():
    s = GMScenario()
    solved = solve_mx(s).normal_form
    assert solved == NormalForm({"B": TatePolynomial.one(), "Y": P("L^2")})
    d = realize_hodge(solved, realization_table(s))
    expected = {(p, p): 1 for p in range(7)}
    expected[(3, 3)] = 22
    expected[(2, 2)] = expected[(4, 4)] = 2
    expected[(2, 4)] = expected[(4, 2)] = 1
    for p in range(7):
        for q in range(7):
            assert d.hodge(p, q) == expected.get((p, q), 0)
    ok(3, "solve and Hodge diamond")


def test_criterion_4_derived_numerics():
    s = GMScenario()
    d = realize_hodge(solve_mx(s).normal_form, realization_table(s))
    assert d.betti() == (1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1)
    assert d.euler() == 32
    from motivecalc import quadric

    assert d.euler() == quadric(6).diamond.euler() + k3().diamond.euler() == 8 + 24
    ok(4, "derived numerics")


def test_criterion_5_torsion_certificate():
    s = GMScenario()
    cert = torsion_report(s)
    assert cert.conclusion == FREE
    assert cert.unit_embedding
    assert set(cert.atom_status.values()) == {FREE}
    prof = profile_table(s)["Hilb2QY"]
    assert prof.ranks[0] == 1 and prof.ranks[1] == 0 and prof.ranks[2] == 23
    assert isinstance(prof.ranks[3], SymbolicRank)
    assert prof.all_free()
    ok(5, "torsion certificate")


def test_criterion_6_codimension_gates():
    assert codim_rank_leq(3, 4, 2) == 2  # corank 1
    assert codim_rank_leq(3, 4, 1) == 6  # corank 2
    assert codim_rank_leq(3, 4, 0) == 12  # corank 3
    s = GMScenario()
    assert codim_rank_leq(3, 4, 0) > s.ambient_dim == 10
    assert s.validate()
    ok(6, "codimension gates")


def test_criterion_7_atlas_oracles():
    # Gaussian binomial vs independent q-Pascal recurrence written out here
    def q_pascal(n, k):
        table = {(0, 0): {0: 1}}
        for m in range(1, n + 1):
            for j in range(0, m + 1):
                left = dict(table.get((m - 1, j - 1), {}))
                right = table.get((m - 1, j), {})
                for e, a in right.items():
                    left[e + j] = left.get(e + j, 0) + a
                table[(m, j)] = left
        return table[(n, k)]

    got = gaussian_binomial(5, 2)
    assert got.coeffs == q_pascal(5, 2)
    assert [got.coefficient(p) for p in range(7)] == [1, 1, 2, 2, 2, 1, 1]

    hilb = hilb2_surface(k3())
    assert hilb.diamond.betti() == (1, 0, 23, 0, 276, 0, 23, 0, 1)
    assert hilb.diamond.euler() == 324

    rng = random.Random(4242)
    for _ in range(5):
        h20, h11 = rng.randrange(0, 4), rng.randrange(1, 30)
        entry = AtlasEntry(
            atom=MotiveAtom(f"S{h20}_{h11}", 2),
            diamond=HodgeDiamond(
                2, {(0, 0): 1, (2, 2): 1, (2, 0): h20, (0, 2): h20, (1, 1): h11}
            ),
            torsion_free=True,
            provenance="random surface",
        )
        chi = entry.diamond.euler()
        assert hilb2_surface(entry).diamond.euler() == chi * (chi + 1) // 2 + chi
    ok(7, "atlas oracles")


class TestCriterion8PropertySuites:
    @settings(max_examples=1000)
    @given(motive_exprs(), motive_exprs(), nonzero_tate_polys())
    def test_a_normalizer_semiring_laws(self, a, b, p):
        assert normalize(a + b) == normalize(a) + normalize(b)
        assert normalize(a * p) == normalize(a).scale(p)
        assert normalize(b + a) == normalize(a + b)

    @settings(max_examples=200, deadline=None)
    @given(
        center=st.sampled_from(["P0", "P1", "P2", "K3", "Q4"]),
        codim=st.integers(2, 5),
        rank=st.integers(1, 5),
    )
    def test_b_euler_additivity(self, center, codim, rank):
        atlas = session_atlas()
        atlas.projective_space(0)
        atlas.projective_space(1)
        atlas.quadric(4)
        dc = atlas.registry.get(center).dim
        ambient = atlas.projective_space(dc + codim).atom.name
        table = atlas.diamond_table()
        e = blow_up(Atom(ambient), Atom(center), codim, atlas.registry)
        chi = realize_hodge(normalize(e), atlas.diamond_table()).euler()
        assert chi == table[ambient].euler() + (codim - 1) * table[center].euler()
        pb = projective_bundle(Atom(center), rank)
        assert realize_hodge(normalize(pb), table).euler() == rank * table[center].euler()

    def test_c_symmetry_of_all_emitted_diamonds(self):
        s = GMScenario()
        atlas = session_atlas()
        diamonds = [e.diamond for e in map(atlas.get, atlas.names())]
        diamonds.append(hilb2_surface(k3()).diamond)
        # a P^2-bundle over a K3: K3 * (1 + L + L^2)
        diamonds.append(realize_hodge(NormalForm({"K3": ladder(0, 2)}), {"K3": k3().diamond}))
        diamonds.append(realize_hodge(solve_mx(s).normal_form, realization_table(s)))
        for d in diamonds:
            assert check_symmetries(d)

    def test_d_blowup_order_invariance(self):
        s = GMScenario()
        bp = kunneth(Atom("B"), Atom("P4"), s.atlas)
        d2, d1p = build_d2(s), build_d1_prime(s)
        a = blow_up(blow_up(bp, d2, s.codim_d2, s.registry), d1p, s.codim_d1, s.registry)
        b = blow_up(blow_up(bp, d1p, s.codim_d1, s.registry), d2, s.codim_d2, s.registry)
        assert normalize(a) == normalize(b)

    @settings(max_examples=1000, deadline=None)
    @given(motive_exprs())
    def test_e_parse_print_roundtrip(self, e):
        parser = Parser(session_atlas())
        assert normalize(parser.parse(print_expr(e))) == normalize(e)

    @settings(max_examples=1000)
    @given(tate_polys(), nonzero_tate_polys())
    def test_f_div_exact_inverts_mul(self, p, d):
        assert (p * d).div_exact(d) == p

    def test_done(self):
        ok(8, "property suites")


def test_criterion_9_negative_controls():
    for changes in [
        {"pv5_dim": 3},
        {"psy_fiber": 2},
        {"pbr_fiber": 1},
        {"d2_fiber": 2},
        {"rho_fiber": 2},
        {"px_fiber": 2},
        {"ux_fiber": 2},
        {"lhs_center_fiber": 1},
        {"codim_psy": 4},
        {"codim_rho_d2": 2},
        {"codim_d2": 5},
        {"codim_d1": 3},
        {"codim_lhs_center": 3},
    ]:
        assert not verify_identity(perturbed(GMScenario(), **changes)).ok, changes
    with pytest.raises(NotDivisibleError):
        solve_tensor_factor(
            "X", ladder(0, 1), NormalForm(), NormalForm({"A": P("1 + L^2")})
        )
    ok(9, "negative controls")
