"""Acceptance suite: one test per criterion, each printing a pass line.

All checks are exact (integer/symbolic identities); there are no numeric
tolerances anywhere.
"""

import random
from dataclasses import fields

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from motivecalc import (
    Atlas,
    Atom,
    DimensionMismatchError,
    NormalForm,
    NotDivisibleError,
    ONE,
    Sum,
    TensorTwist,
    blow_up,
    check_symmetries,
    gaussian_binomial,
    ladder,
    normalize,
    projective_bundle,
    realize_hodge,
    solve_tensor_factor,
)
from motivecalc.atlas import AtlasEntry, hilb2_surface, k3
from motivecalc.dsl import Parser
from motivecalc.formulas import InvalidRankError, codim_rank_leq, projective_fibration
from motivecalc.gm import (
    ATOMS,
    FREE,
    GMScenario,
    ScenarioError,
    build_sides,
    perturbed,
    solve_mx,
    torsion_report,
    verify_identity,
)
from motivecalc.hodge import HodgeDiamond

from strategies import (
    motive_exprs,
    nonzero_tate_polys,
    print_expr,
    rhs_centers,
    session_atlas,
    tate_polys,
)

P = Parser(Atlas()).parse_polynomial

M1 = P("1 + 2L + 2L^2 + 2L^3 + L^4")
M2_TWIST = P("L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6")
# the answer atoms' diamonds, read off their atlas entries as Derivation.answer does
DIAMONDS = {name: ATOMS[name].entry.diamond for name in ("B", "Y")}


def ok(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_rhs_reproduction():
    nf = normalize(build_sides(GMScenario())[1])
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
    assert normalize(build_sides(s)[0]) == NormalForm({"X": M1, "Hilb2QY": M2_TWIST})
    assert verify_identity(s).ok
    ok(2, "LHS reproduction and identity")


def test_criterion_3_solve_and_diamond():
    s = GMScenario()
    solved = solve_mx(s)
    assert solved == NormalForm({"B": ONE, "Y": P("L^2")})
    d = realize_hodge(solved, DIAMONDS)
    expected = {(p, p): 1 for p in range(7)}
    expected[(3, 3)] = 22
    expected[(2, 2)] = expected[(4, 4)] = 2
    expected[(2, 4)] = expected[(4, 2)] = 1
    assert d.entries() == sorted((p, q, v) for (p, q), v in expected.items())
    ok(3, "solve and Hodge diamond")


def test_criterion_4_derived_numerics():
    s = GMScenario()
    d = realize_hodge(solve_mx(s), DIAMONDS)
    assert d.betti() == (1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1)
    assert d.euler() == 32
    from motivecalc import quadric

    assert d.euler() == quadric(6).diamond.euler() + k3().diamond.euler() == 8 + 24
    ok(4, "derived numerics")


def test_criterion_5_torsion_certificate():
    s = GMScenario()
    cert = torsion_report(s)
    assert cert["conclusion"] == FREE
    assert cert["unit_embedding"]
    assert set(cert["atoms"].values()) == {FREE}
    flags = {name: a.torsion_free for name, a in ATOMS.items()}
    assert flags == {"B": True, "Y": True, "Hilb2QY": True, "X": None}
    ok(5, "torsion certificate")


def test_criterion_6_codimension_gates():
    assert codim_rank_leq(3, 4, 2) == 2  # corank 1
    assert codim_rank_leq(3, 4, 1) == 6  # corank 2
    assert codim_rank_leq(3, 4, 0) == 12  # corank 3
    s = GMScenario()
    assert codim_rank_leq(3, 4, 0) > ATOMS["B"].dim + s.pv5_dim == 10
    build_sides(s)  # every gate passes
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
            name=f"S{h20}_{h11}",
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
        assert normalize(Sum((a, b))) == normalize(a) + normalize(b)
        assert normalize(TensorTwist(a, p)) == normalize(a).scale(p)
        assert normalize(Sum((b, a))) == normalize(Sum((a, b)))

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
        dc = atlas.registry.atom(center).top
        ambient = atlas.projective_space(dc + codim).name
        table = atlas.diamond_table()
        e = blow_up(Atom(ambient, dc + codim), Atom(center, dc), codim)
        chi = realize_hodge(normalize(e), atlas.diamond_table()).euler()
        assert chi == table[ambient].euler() + (codim - 1) * table[center].euler()
        pb = projective_bundle(Atom(center, dc), rank)
        assert realize_hodge(normalize(pb), table).euler() == rank * table[center].euler()

    def test_c_symmetry_of_all_emitted_diamonds(self):
        s = GMScenario()
        atlas = session_atlas()
        diamonds = list(atlas.diamond_table().values())
        diamonds.append(hilb2_surface(k3()).diamond)
        # a P^2-bundle over a K3: K3 * (1 + L + L^2)
        diamonds.append(realize_hodge(NormalForm({"K3": ladder(0, 2)}), {"K3": k3().diamond}))
        diamonds.append(realize_hodge(solve_mx(s), DIAMONDS))
        for d in diamonds:
            assert check_symmetries(d)

    def test_d_blowup_order_invariance(self):
        s = GMScenario()
        bp = projective_fibration(Atom("B", 6), s.pv5_dim)
        d2, d1p = rhs_centers(build_sides(s)[1])
        c1, c2 = codim_rank_leq(s.rank_e, s.rank_f, 2), codim_rank_leq(s.rank_e, s.rank_f, 1)
        a = blow_up(blow_up(bp, d2, c2), d1p, c1)
        b = blow_up(blow_up(bp, d1p, c1), d2, c2)
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


# the gate that rejects each declared fact when it is moved by -1 and by +1;
# the ranks fix the codims of D1 and D2, so each rank direction meets its own
# gate: rank_e - 1 leaves no corank-3 locus to measure, rank_e + 1 and
# rank_f - 1 make that locus nonempty, and rank_f + 1 makes D2's codim 8
DIM = DimensionMismatchError
REJECTING_GATE = {
    "rank_e": (InvalidRankError, ScenarioError),
    "rank_f": (ScenarioError, DIM),
    "pv5_dim": (DIM, DIM),
    "d2_fiber": (DIM, DIM),
    "psy_fiber": (DIM, DIM),
    "pbr_fiber": (DIM, DIM),
    "rho_fiber": (DIM, DIM),
    "px_fiber": (DIM, DIM),
    "ux_fiber": (DIM, DIM),
    "lhs_center_fiber": (DIM, DIM),
    "codim_psy": (DIM, DIM),
    "codim_rho_d2": (DIM, DIM),
    "codim_lhs_center": (DIM, DIM),
}


def test_criterion_9_negative_controls():
    s = GMScenario()
    # perfbench derives its perturbations from the fields that are init and
    # typed "int"; a field outside that filter would shrink its workload
    assert all(f.init and f.type == "int" for f in fields(GMScenario))
    assert {f.name for f in fields(GMScenario)} == set(REJECTING_GATE)
    for name, gates in REJECTING_GATE.items():
        for step, gate in zip((-1, 1), gates):
            changes = {name: getattr(s, name) + step}
            d = verify_identity(perturbed(s, **changes))
            assert not d.ok and type(d.error) is gate, changes
    # no single fact reaches the normal-form comparison; two together do
    d = verify_identity(perturbed(s, px_fiber=2, ux_fiber=2))
    assert not d.ok and d.error is None
    assert "differ" in d.message
    with pytest.raises(NotDivisibleError):
        solve_tensor_factor(
            "X", ladder(0, 1), NormalForm(), NormalForm({"A": P("1 + L^2")})
        )
    ok(9, "negative controls")


def test_every_built_rhs_has_a_torsion_flag_per_atom():
    # Derivation.torsion reads ATOMS[name].torsion_free for each atom of the rhs
    s = GMScenario()
    sweep = [s, perturbed(s, px_fiber=2, ux_fiber=2)]
    sweep += [
        perturbed(s, **{name: getattr(s, name) + step})
        for name in REJECTING_GATE
        for step in (-1, 1)
    ]
    built = [d for d in map(verify_identity, sweep) if d.rhs is not None]
    assert len(built) >= 2
    for d in built:
        assert all(ATOMS[name].torsion_free is not None for name in d.rhs.atoms())
