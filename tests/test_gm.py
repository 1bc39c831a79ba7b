from collections import Counter
from dataclasses import fields, replace

import pytest

from motivecalc import (
    Atlas,
    IdentityError,
    NormalForm,
    blow_up,
    ladder,
    normalize,
    realize_hodge,
)
import motivecalc.atlas as atlas
import motivecalc.gm as gm
from motivecalc.gm import (
    FREE,
    UNKNOWN,
    GMScenario,
    ScenarioError,
    build_d1_prime,
    build_d2,
    build_lhs,
    build_rhs,
    expected_mx,
    full_report,
    perturbed,
    realization_table,
    solve_mx,
    torsion_flags,
    torsion_report,
    verify_identity,
)
from motivecalc.dsl import Parser
from motivecalc.formulas import projective_fibration
from motivecalc.motive import Atom

P = Parser(Atlas()).parse_polynomial

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
        assert normalize(build_rhs(scenario)) == RHS_EXPECTED

    def test_intermediate_d2(self, scenario):
        assert normalize(build_d2(scenario)) == NormalForm({"Hilb2QY": ladder(0, 1)})

    def test_intermediate_d1_prime(self, scenario):
        nf = normalize(build_d1_prime(scenario))
        assert nf == NormalForm(
            {
                "B": ladder(0, 2),
                "Y": P("L + 2L^2 + 2L^3 + 2L^4 + L^5"),
                "Hilb2QY": P("L + 3L^2 + 3L^3 + L^4"),
            }
        )


class TestBuildLhs:
    def test_full_normal_form(self, scenario):
        assert normalize(build_lhs(scenario)) == LHS_EXPECTED

    def test_fiber_product_factor(self, scenario):
        # P^3 x P^1 fiber contributes exactly the tensor factor of X
        assert ladder(0, 3) * ladder(0, 1) == M1

    def test_center_dimensions(self, scenario):
        # blow-up center is two fiber dimensions above the corank-2 locus
        d2_dim = scenario.ambient_dim - scenario.codim_d2
        assert d2_dim + scenario.lhs_center_fiber + scenario.codim_lhs_center == 10


class TestVerifyIdentity:
    def test_canonical(self, scenario):
        report = verify_identity(scenario)
        assert report.ok
        assert report.lhs == LHS_EXPECTED
        assert report.rhs == RHS_EXPECTED

    def test_blowup_order_invariance(self, scenario):
        s = scenario
        bp = projective_fibration(Atom("B"), s.pv5_dim)
        d2 = build_d2(s)
        d1p = build_d1_prime(s)
        reg = gm.REGISTRY
        order_a = blow_up(blow_up(bp, d2, s.codim_d2, reg), d1p, s.codim_d1, reg)
        order_b = blow_up(blow_up(bp, d1p, s.codim_d1, reg), d2, s.codim_d2, reg)
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

        monkeypatch.setattr(gm, "build_rhs", broken)
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
        solved = solve_mx(scenario)
        assert solved.normal_form == expected_mx()
        assert "cancellation" in solved.note

    def test_resubstitution_reproduces_rhs(self, scenario):
        solved = solve_mx(scenario).normal_form
        lhs = normalize(build_lhs(scenario))
        m1 = lhs.coefficient("X")
        m2 = NormalForm({"Hilb2QY": lhs.coefficient("Hilb2QY")})
        assert solved.scale(m1) + m2 == RHS_EXPECTED

    def test_realized_diamond(self, scenario):
        d = realize_hodge(solve_mx(scenario).normal_form, realization_table())
        assert d.hodge(3, 3) == 22
        assert d.betti() == (1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1)
        assert d.euler() == 32

    def test_diamond_is_quadric_plus_twisted_k3_entrywise(self, scenario):
        from motivecalc import k3, quadric

        d = realize_hodge(solve_mx(scenario).normal_form, realization_table())
        q6, s = quadric(6).diamond, k3().diamond
        for p in range(7):
            for q in range(7):
                shifted = s.hodge(p - 2, q - 2) if p >= 2 and q >= 2 else 0
                assert d.hodge(p, q) == q6.hodge(p, q) + shifted


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
        assert torsion_flags() == {"B": True, "Y": True, "Hilb2QY": True}

    def test_forced_unknown_propagates(self, monkeypatch):
        # only the Hilb2(K3) entry is untrusted: the K3 itself stays free
        build = atlas.hilb2_surface
        monkeypatch.setattr(
            atlas, "hilb2_surface", lambda *args: replace(build(*args), torsion_free=False)
        )
        cert = torsion_report(GMScenario())
        assert cert["atoms"] == {"B": FREE, "Y": FREE, "Hilb2QY": UNKNOWN}
        assert cert["conclusion"] == UNKNOWN

    def test_untrusted_k3_propagates(self, monkeypatch):
        assert untrusted_atoms(monkeypatch, "k3") == {"Y", "Hilb2QY"}

    def test_untrusted_quadric_propagates(self, monkeypatch):
        assert untrusted_atoms(monkeypatch, "quadric") == {"B"}


def untrusted_atoms(monkeypatch, builtin):
    """Mark one atlas entry as not torsion-free and return the atoms of the
    full report whose status became unknown; the conclusion must follow.
    The flag is read off the atlas entry, and Hilb2(K3) inherits the K3's."""
    build = getattr(atlas, builtin)
    monkeypatch.setattr(
        atlas, builtin, lambda *args: replace(build(*args), torsion_free=False)
    )
    torsion = full_report(GMScenario())["torsion"]
    assert torsion["conclusion"] == UNKNOWN
    return {a for a, status in torsion["atoms"].items() if status == UNKNOWN}


def test_scenario_is_its_facts():
    assert GMScenario() == GMScenario()
    assert perturbed(GMScenario(), codim_d2=5) == GMScenario(codim_d2=5)
    facts = vars(GMScenario())
    assert len(facts) == 15 and set(facts) == {f.name for f in fields(GMScenario)}


@pytest.mark.parametrize("pv5_dim", [-1, 1001])
def test_out_of_range_fact_fails_verification(pv5_dim):
    # facts are not checked when the scenario is built; validate rejects them
    d = verify_identity(GMScenario(pv5_dim=pv5_dim))
    assert not d.ok and type(d.error) is ScenarioError


def test_derivations_leave_the_registry_alone():
    s = GMScenario()
    full_report(s)
    for f in fields(GMScenario):
        for step in (-1, 1):
            full_report(perturbed(s, **{f.name: getattr(s, f.name) + step}))
    assert "P4" not in gm.REGISTRY
    for name, dim in gm.SCENARIO_DIMS.items():
        assert gm.REGISTRY.dim(name) == dim


class TestScenarioValidation:
    def test_canonical_passes(self, scenario):
        scenario.validate()

    def test_corank_codims(self, scenario):
        from motivecalc import codim_rank_leq

        assert codim_rank_leq(3, 4, 2) == scenario.codim_d1
        assert codim_rank_leq(3, 4, 1) == scenario.codim_d2
        assert codim_rank_leq(3, 4, 0) == 12 > scenario.ambient_dim

    def test_bad_codim_rejected(self):
        with pytest.raises(ScenarioError):
            perturbed(GMScenario(), codim_d2=5).validate()


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

    monkeypatch.setattr(gm, "build_lhs", counted("build_lhs", gm.build_lhs))
    monkeypatch.setattr(gm, "build_rhs", counted("build_rhs", gm.build_rhs))
    monkeypatch.setattr(GMScenario, "validate", counted("validate", GMScenario.validate))
    assert full_report(GMScenario())["identity_ok"]
    assert calls["build_lhs"] == calls["build_rhs"] == 1
    assert calls["validate"] <= 1


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
