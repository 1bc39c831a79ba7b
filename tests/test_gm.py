import ast
import random
from collections import Counter
from dataclasses import fields
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from motivecalc import (
    Atlas,
    AtlasEntry,
    IdentityError,
    L,
    NormalForm,
    TatePolynomial,
    blow_up,
    ladder,
    normalize,
    realize_hodge,
)
import motivecalc.atlas as atlas
import motivecalc.gm as gm
from motivecalc.gm import (
    EXPECTED_MX,
    FREE,
    UNKNOWN,
    GMScenario,
    ScenarioError,
    build_sides,
    full_report,
    perturbed,
    solve_mx,
    torsion_report,
    verify_identity,
)
from motivecalc.cli import main
from motivecalc.dsl import Parser
from motivecalc.formulas import DimensionMismatchError, codim_rank_leq, projective_fibration
from motivecalc.motive import Atom

from strategies import rhs_centers
from test_acceptance import REJECTING_GATE

P = Parser(Atlas()).parse_polynomial
ATOMS_AT_IMPORT = dict(gm.ATOMS)
# the answer atoms' diamonds, read off their atlas entries as Derivation.answer does
DIAMONDS = {name: gm.ATOMS[name].entry.diamond for name in ("B", "Y")}

M1 = P("1 + 2L + 2L^2 + 2L^3 + L^4")
M2_TWIST = P("L + 3L^2 + 5L^3 + 5L^4 + 3L^5 + L^6")

RHS_EXPECTED = NormalForm(
    {
        "B": M1,
        "Y": P("L^2 + 2L^3 + 2L^4 + 2L^5 + L^6"),
        "Hilb2QY": M2_TWIST,
    }
)
LHS_EXPECTED = NormalForm({"X": M1, "Hilb2QY": M2_TWIST})


@pytest.fixture(scope="module")
def scenario():
    return GMScenario()


class TestBuildRhs:
    def test_full_normal_form(self, scenario):
        assert normalize(build_sides(scenario)[1]) == RHS_EXPECTED

    def test_intermediate_d2(self, scenario):
        d2, _ = rhs_centers(build_sides(scenario)[1])
        assert normalize(d2) == NormalForm({"Hilb2QY": ladder(0, 1)})

    def test_intermediate_d1_prime(self, scenario):
        _, d1_prime = rhs_centers(build_sides(scenario)[1])
        nf = normalize(d1_prime)
        assert nf == NormalForm(
            {
                "B": ladder(0, 2),
                "Y": P("L + 2L^2 + 2L^3 + 2L^4 + L^5"),
                "Hilb2QY": P("L + 3L^2 + 3L^3 + L^4"),
            }
        )


class TestBuildLhs:
    def test_full_normal_form(self, scenario):
        assert normalize(build_sides(scenario)[0]) == LHS_EXPECTED

    def test_fiber_product_factor(self, scenario):
        # P^3 x P^1 fiber contributes exactly the tensor factor of X
        assert ladder(0, 3) * ladder(0, 1) == M1

    def test_center_dimensions(self, scenario):
        # blow-up center is two fiber dimensions above the corank-2 locus
        d2_dim = gm.ATOMS["B"].dim + scenario.pv5_dim - scenario.codim_d2
        assert d2_dim + scenario.lhs_center_fiber + scenario.codim_lhs_center == 10


class TestVerifyIdentity:
    def test_canonical(self, scenario):
        report = verify_identity(scenario)
        assert report.ok
        assert report.lhs == LHS_EXPECTED
        assert report.rhs == RHS_EXPECTED

    def test_blowup_order_invariance(self, scenario):
        s = scenario
        bp = projective_fibration(Atom("B", 6), s.pv5_dim)
        d2, d1p = rhs_centers(build_sides(s)[1])
        order_a = blow_up(blow_up(bp, d2, s.codim_d2), d1p, s.codim_d1)
        order_b = blow_up(blow_up(bp, d1p, s.codim_d1), d2, s.codim_d2)
        assert normalize(order_a) == normalize(order_b) == RHS_EXPECTED

    def test_consistent_perturbation_differs(self):
        # still dimension-consistent, but the fiber product changes
        s = perturbed(GMScenario(), px_fiber=2, ux_fiber=2)
        report = verify_identity(s)
        assert not report.ok
        assert "differ" in report.message

    def test_non_gate_error_propagates(self, monkeypatch):
        # only the gate types read as a failed verification
        def broken(s):
            raise ValueError("not a gate")

        monkeypatch.setattr(gm, "build_sides", broken)
        with pytest.raises(ValueError, match="not a gate") as exc:
            verify_identity(GMScenario())
        assert type(exc.value) is ValueError


PERTURBATIONS = [
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
]


@pytest.mark.parametrize("changes", PERTURBATIONS, ids=lambda c: next(iter(c)))
def test_negative_controls(changes):
    s = perturbed(GMScenario(), **changes)
    assert not verify_identity(s).ok


class TestSolve:
    def test_solved_normal_form(self, scenario):
        assert solve_mx(scenario) == EXPECTED_MX
        assert "cancellation" in gm.CANCELLATION_NOTE

    def test_resubstitution_reproduces_rhs(self, scenario):
        solved = solve_mx(scenario)
        lhs = normalize(build_sides(scenario)[0])
        m1 = lhs.coefficient("X")
        m2 = NormalForm({"Hilb2QY": lhs.coefficient("Hilb2QY")})
        assert solved.scale(m1) + m2 == RHS_EXPECTED

    def test_realized_diamond(self, scenario):
        d = realize_hodge(solve_mx(scenario), DIAMONDS)
        assert (3, 3, 22) in d.entries()
        assert d.betti() == (1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1)
        assert d.euler() == 32

    def test_diamond_is_quadric_plus_twisted_k3_entrywise(self, scenario):
        from motivecalc.atlas import k3, quadric

        d = realize_hodge(solve_mx(scenario), DIAMONDS)
        q6, s = quadric(6).diamond, k3().diamond
        want = {(p, q): v for p, q, v in q6.entries()}
        for p, q, v in s.entries():
            want[p + 2, q + 2] = want.get((p + 2, q + 2), 0) + v
        assert d.entries() == sorted((p, q, v) for (p, q), v in want.items())


class TestTorsion:
    def test_canonical_certificate(self, scenario):
        cert = torsion_report(scenario)
        assert cert["conclusion"] == FREE
        assert cert["unit_embedding"]
        assert cert["atoms"] == {"B": FREE, "Y": FREE, "Hilb2QY": FREE}

    def test_report_prints_the_certificate_unchanged(self, scenario):
        cert = torsion_report(scenario)
        assert set(cert) == {"unit_embedding", "atoms", "conclusion"}
        assert cert == full_report(scenario)["torsion"]

    def test_hilb_profile_shape(self, scenario):
        flags = {name: a.torsion_free for name, a in gm.ATOMS.items()}
        assert flags == {"B": True, "Y": True, "Hilb2QY": True, "X": None}

    def test_forced_unknown_propagates(self, monkeypatch):
        # only the Hilb2(K3) entry is untrusted: the K3 itself stays free
        monkeypatch.setattr(atlas, "hilb2_surface", untrusted(atlas.hilb2_surface))
        monkeypatch.setattr(gm, "ATOMS", gm._scenario_atoms())
        cert = torsion_report(GMScenario())
        assert cert["atoms"] == {"B": FREE, "Y": FREE, "Hilb2QY": UNKNOWN}
        assert cert["conclusion"] == UNKNOWN

    def test_no_unit_embedding_is_unknown(self):
        # every atom is free, but X enters the lhs only as X * L
        lhs = NormalForm({"X": L, "Hilb2QY": M2_TWIST})
        cert = gm.Derivation(True, "identity holds", lhs, RHS_EXPECTED).torsion()
        assert cert["atoms"] == {"B": FREE, "Y": FREE, "Hilb2QY": FREE}
        assert cert["unit_embedding"] is False and cert["conclusion"] == UNKNOWN

    def test_untrusted_k3_propagates(self, monkeypatch):
        assert untrusted_atoms(monkeypatch, "k3") == {"Y", "Hilb2QY"}

    def test_untrusted_quadric_propagates(self, monkeypatch):
        assert untrusted_atoms(monkeypatch, "quadric") == {"B"}


def untrusted(build):
    """The atlas constructor build, its entries rebuilt as not torsion-free."""

    def flipped(*args):
        e = build(*args)
        return AtlasEntry(e.name, e.diamond, False, e.provenance, e.cells)

    return flipped


def untrusted_atoms(monkeypatch, builtin):
    """Mark one atlas entry as not torsion-free and return the atoms of the
    full report whose status became unknown; the conclusion must follow.
    The flag is read off the atlas entry, and Hilb2(K3) inherits the K3's;
    the table of atoms is rebuilt from the patched constructors."""
    monkeypatch.setattr(atlas, builtin, untrusted(getattr(atlas, builtin)))
    monkeypatch.setattr(gm, "ATOMS", gm._scenario_atoms())
    torsion = full_report(GMScenario())["torsion"]
    assert torsion["conclusion"] == UNKNOWN
    return {a for a, status in torsion["atoms"].items() if status == UNKNOWN}


def test_the_scenario_class_holds_only_its_facts():
    # every gate lives in build_sides: no method and no property on GMScenario
    tree = ast.parse(Path(gm.__file__).read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GMScenario")
    body = cls.body[1:] if ast.get_docstring(cls) is not None else cls.body
    assert all(isinstance(n, ast.AnnAssign) for n in body)
    assert [n.target.id for n in body] == [f.name for f in fields(GMScenario)]
    assert len(body) == 15


def test_scenario_is_its_facts():
    assert GMScenario() == GMScenario()
    assert perturbed(GMScenario(), codim_d2=5) == GMScenario(codim_d2=5)
    facts = vars(GMScenario())
    assert len(facts) == 15 and set(facts) == {f.name for f in fields(GMScenario)}


@pytest.mark.parametrize(
    "pv5_dim, gate", [(-1, DimensionMismatchError), (1001, ScenarioError)], ids=["-1", "1001"]
)
def test_out_of_range_fact_fails_verification(pv5_dim, gate):
    # facts are not checked when the scenario is built: the fibration's range
    # gate rejects -1, and the scenario's corank-3 check rejects 1001
    d = verify_identity(GMScenario(pv5_dim=pv5_dim))
    assert not d.ok and type(d.error) is gate


# the multi-fact moves the identity cannot see: (name, whether a scenario
# makes the move, the default facts that undo it)
FAMILIES = [
    (
        # codims 2 and 6, and a corank-3 codim of 12 or more, above the ambient dim 10
        "rank pair (m, m+1) or (m+1, m), m >= 3",
        lambda s: min(s.rank_e, s.rank_f) >= 3 and abs(s.rank_e - s.rank_f) == 1,
        {"rank_e": 3, "rank_f": 4},
    ),
    (
        "the two fibrations over X swapped",
        lambda s: (s.px_fiber, s.ux_fiber) == (1, 3),
        {"px_fiber": 3, "ux_fiber": 1},
    ),
    (
        # Y*(1+L)(L+...+L^4) = Y*(1+...+L^3)(L+L^2), both Y*L*[2]*[4]
        "psy_fiber 1, codim_psy 5",
        lambda s: (s.psy_fiber, s.codim_psy) == (1, 5),
        {"psy_fiber": 3, "codim_psy": 3},
    ),
]


def test_multi_fact_survey():
    """20,000 seeded draws of 2 to 5 facts, each moved by -2, -1, 1 or 2:
    every derivation returns (a range refusal is a failed gate, not an
    escaping ValueError), and every accepted draw is the default once its
    declared family moves are undone."""
    rng, base, facts = random.Random(1), GMScenario(), list(vars(GMScenario()))
    accepted, seen = set(), set()
    for _ in range(20_000):
        moved = rng.sample(facts, rng.randint(2, 5))
        changes = {f: getattr(base, f) + rng.choice((-2, -1, 1, 2)) for f in moved}
        s = perturbed(base, **changes)
        if verify_identity(s).ok:
            undo = {}
            for name, makes, default in FAMILIES:
                if makes(s) and any(getattr(s, f) != v for f, v in default.items()):
                    seen.add(name)
                    undo.update(default)
            assert perturbed(s, **undo) == base, changes
            accepted.add(tuple(sorted(changes.items())))
    # seed 1 reaches every family, alone and combined
    assert len(accepted) == 8 and seen == {name for name, _, _ in FAMILIES}
    assert gm.ATOMS == ATOMS_AT_IMPORT


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.sampled_from(list(vars(GMScenario()))), st.integers(-3, 12)))
@example({"rank_e": 5, "rank_f": 6, "px_fiber": 1, "ux_fiber": 3})
@example({"psy_fiber": 1, "codim_psy": 5})
def test_fact_box(changes):
    """Any facts moved anywhere in -3..12 (every default lies in that box):
    the derivation returns, an accepted one carries both normal forms, and
    an accepted fact set is the default once its family moves are undone."""
    s = perturbed(GMScenario(), **changes)
    d = verify_identity(s)
    if d.ok:
        assert d.lhs is not None and d.rhs is not None
        undo = {}
        for _, makes, default in FAMILIES:
            if makes(s):
                undo.update(default)
        assert perturbed(s, **undo) == GMScenario(), changes


def test_the_report_builds_no_atlas_entry(monkeypatch, capsys):
    # the answer atoms' entries are built once, when gm is imported
    def refuse(self, *args):
        raise AssertionError("an atlas entry was built")

    monkeypatch.setattr(AtlasEntry, "__init__", refuse)
    assert full_report(GMScenario())["identity_ok"]
    assert main(["verify-gm6"]) == 0
    assert capsys.readouterr().out.endswith("torsion: FREE\n")


def test_a_derivation_checks_only_its_normal_forms(monkeypatch):
    # normalize checks one polynomial per atom of each side (X and Hilb2QY,
    # then B, Y and Hilb2QY); every twist, product and quotient is shared or
    # built by tatepoly's arithmetic without a second check
    checked, init = [], TatePolynomial.__init__
    monkeypatch.setattr(TatePolynomial, "__init__", lambda p, c: checked.append(c) or init(p, c))
    assert verify_identity(GMScenario()).ok and verify_identity(GMScenario()).ok
    assert len(checked) <= 2 * 5


def test_both_sides_read_one_d2_node(monkeypatch):
    # four fibrations per side; D2 built for each of its three uses made ten
    calls, fibration = [], gm.projective_fibration
    monkeypatch.setattr(gm, "projective_fibration", lambda b, k: calls.append(k) or fibration(b, k))
    assert verify_identity(GMScenario()).ok
    assert len(calls) == 8
    lhs, rhs = build_sides(GMScenario())
    d2, d1_prime = rhs_centers(rhs)
    # each other use wraps D2 in its fibration, then in its blow-up's twist
    assert lhs.children[1].child.child is d2 and d1_prime.children[1].child.child is d2


def test_every_gate_runs_before_a_side_is_normalized(monkeypatch):
    # a rejected scenario builds no normal form; one that passes every gate
    # normalizes each side once, whether or not the comparison then holds
    calls = []
    monkeypatch.setattr(gm, "normalize", lambda e: calls.append(e) or normalize(e))
    s = GMScenario()
    for name in REJECTING_GATE:
        for step in (-1, 1):
            changes = {name: getattr(s, name) + step}
            d = verify_identity(perturbed(s, **changes))
            assert d.error is not None and calls == [], changes
    for passing in (s, perturbed(s, px_fiber=2, ux_fiber=2)):
        verify_identity(passing)
        assert len(calls) == 2
        calls.clear()


@pytest.mark.parametrize(
    "changes, gate, message",
    [
        (
            {"codim_d2": 5, "px_fiber": 2},
            ScenarioError,
            "scenario check failed: codim_d2 = 5, but ranks (3, 4) give 6",
        ),
        (
            {"px_fiber": 2, "codim_rho_d2": 2},
            DimensionMismatchError,
            "center dim 6 + codim 4 != ambient dim 9",
        ),
        (
            {"lhs_center_fiber": 3, "psy_fiber": 4},
            DimensionMismatchError,
            "center dim 7 + codim 4 != ambient dim 10",
        ),
    ],
    ids=["scenario-before-lhs", "lhs-before-rhs", "lhs-center-before-rhs"],
)
def test_the_first_gate_in_derivation_order_is_reported(changes, gate, message):
    # the scenario checks, then the lhs's blow-up, then the rhs's: each pair fails two
    d = verify_identity(perturbed(GMScenario(), **changes))
    assert not d.ok and type(d.error) is gate
    assert d.message == f"construction failed: {message}"


@pytest.mark.parametrize(
    "changes, gate, message",
    [
        (
            {"rank_e": 3, "rank_f": 3, "codim_d1": 1, "codim_d2": 4},
            ScenarioError,
            "scenario check failed: corank-3 codim 9 > ambient dim 10: locus empty",
        ),
        (
            # the rhs's blow-up along D2 owns the dimension equation of D2
            {"rank_e": 3, "rank_f": 5, "codim_d1": 3, "codim_d2": 8},
            DimensionMismatchError,
            "center dim 4 + codim 8 != ambient dim 10",
        ),
    ],
    ids=["corank-3-locus", "corank-2-dimension"],
)
def test_ranks_with_matching_codims_meet_a_later_check(changes, gate, message):
    # both codims follow the new ranks, so the first two checks pass
    d = verify_identity(perturbed(GMScenario(), **changes))
    assert not d.ok and type(d.error) is gate
    assert d.message == f"construction failed: {message}"


def test_perturbed_returns_a_fresh_scenario():
    s = GMScenario()
    with pytest.raises(
        TypeError, match=r"^GMScenario\.__init__\(\) got an unexpected keyword argument 'codim_d3'$"
    ):
        perturbed(s, codim_d3=1)
    moved = perturbed(s, codim_d2=5, px_fiber=2)
    assert s == GMScenario()
    assert type(moved) is GMScenario and moved == GMScenario(codim_d2=5, px_fiber=2)
    assert perturbed(s) == s and perturbed(s) is not s


class TestScenarioValidation:
    """The scenario checks, the first gates that build_sides runs."""

    def test_canonical_passes(self, scenario):
        build_sides(scenario)

    def test_corank_codims(self, scenario):
        assert codim_rank_leq(3, 4, 2) == scenario.codim_d1
        assert codim_rank_leq(3, 4, 1) == scenario.codim_d2
        assert codim_rank_leq(3, 4, 0) == 12 > gm.ATOMS["B"].dim + scenario.pv5_dim

    def test_bad_codim_rejected(self):
        with pytest.raises(ScenarioError):
            build_sides(perturbed(GMScenario(), codim_d2=5))

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"rank_e": 2}, "codim_d1 = 2, but ranks (2, 4) give 3"),
            ({"rank_f": 5, "codim_d1": 3}, "codim_d2 = 6, but ranks (3, 5) give 8"),
        ],
        ids=["codim_d1", "codim_d2"],
    )
    def test_codim_refusal_names_the_fact_and_the_ranks(self, changes, message):
        with pytest.raises(ScenarioError) as exc:
            build_sides(perturbed(GMScenario(), **changes))
        assert str(exc.value) == f"scenario check failed: {message}"


def test_full_report_structure():
    report = full_report(GMScenario())
    assert report["identity_ok"]
    assert report["solved"] == {"B": "1", "Y": "L^2"}
    assert report["betti"] == [1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1]
    assert report["euler"] == 32
    assert report["torsion"]["conclusion"] == FREE


def test_full_report_failure_path():
    report = full_report(perturbed(GMScenario(), codim_d2=5))
    assert not report["identity_ok"]
    assert "solved" not in report


def test_full_report_derives_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gm, "build_sides", counted("build_sides", gm.build_sides))
    monkeypatch.setattr(gm, "codim_rank_leq", counted("codim_rank_leq", gm.codim_rank_leq))
    assert full_report(GMScenario())["identity_ok"]
    assert calls["build_sides"] == 1
    assert calls["codim_rank_leq"] == 3  # the three scenario checks, once


class TestFailedIdentity:
    """Only a verified derivation answers: the pair below builds both sides
    but fails the comparison, so nothing is solved or certified from it."""

    SCENARIO = perturbed(GMScenario(), px_fiber=2, ux_fiber=2)

    @pytest.mark.parametrize(
        "call",
        [torsion_report, solve_mx, lambda s: verify_identity(s).answer()],
        ids=["torsion_report", "solve_mx", "answer"],
    )
    def test_raises_identity_error(self, call):
        with pytest.raises(IdentityError, match="^normal forms differ: "):
            call(self.SCENARIO)

    def test_report_stops_at_the_comparison(self):
        d = verify_identity(self.SCENARIO)
        assert not d.ok and d.error is None
        assert full_report(self.SCENARIO) == {
            "identity_ok": False,
            "message": d.message,
            "lhs": d.lhs.to_dict(),
            "rhs": d.rhs.to_dict(),
        }

    def test_construction_failure_is_reraised(self):
        s = perturbed(GMScenario(), codim_d1=3)
        with pytest.raises(ScenarioError):
            solve_mx(s)
        with pytest.raises(ScenarioError):
            torsion_report(s)
