from collections import Counter

import pytest

from motivecalc import (
    NormalForm,
    blow_up,
    kunneth,
    ladder,
    normalize,
    realize_hodge,
)
import motivecalc.gm as gm
from motivecalc.gm import (
    GMScenario,
    ScenarioError,
    build_d1_prime,
    build_d2,
    build_lhs,
    build_rhs,
    expected_mx,
    full_report,
    perturbed,
    profile_table,
    realization_table,
    solve_mx,
    torsion_report,
    verify_identity,
)
from motivecalc.dsl import Parser
from motivecalc.hodge import FREE, UNKNOWN, CohomologyProfile
from motivecalc.motive import Atom

P = Parser().parse_polynomial

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
        bp = kunneth(Atom("B"), Atom("P4"), s.atlas)
        d2 = build_d2(s)
        d1p = build_d1_prime(s)
        order_a = blow_up(blow_up(bp, d2, s.codim_d2, s.registry), d1p, s.codim_d1, s.registry)
        order_b = blow_up(blow_up(bp, d1p, s.codim_d1, s.registry), d2, s.codim_d2, s.registry)
        assert normalize(order_a) == normalize(order_b) == RHS_EXPECTED

    def test_relaxed_perturbation_reports_differing_coefficients(self):
        s = perturbed(GMScenario(), codim_d2=5, strict=False)
        report = verify_identity(s)
        assert not report.ok
        assert "Hilb2QY" in report.message

    def test_consistent_perturbation_differs(self):
        # still dimension-consistent, but the fiber product changes
        s = perturbed(GMScenario(), px_fiber=2, ux_fiber=2)
        report = verify_identity(s)
        assert not report.ok
        assert "differ" in report.message


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
        assert solved.normal_form == expected_mx(scenario)
        assert "cancellation" in solved.note

    def test_resubstitution_reproduces_rhs(self, scenario):
        solved = solve_mx(scenario).normal_form
        lhs = normalize(build_lhs(scenario))
        m1 = lhs.coefficient("X")
        m2 = NormalForm({"Hilb2QY": lhs.coefficient("Hilb2QY")})
        assert solved.scale(m1) + m2 == RHS_EXPECTED

    def test_realized_diamond(self, scenario):
        d = realize_hodge(solve_mx(scenario).normal_form, realization_table(scenario))
        assert d.hodge(3, 3) == 22
        assert d.betti() == (1, 0, 1, 0, 2, 0, 24, 0, 2, 0, 1, 0, 1)
        assert d.euler() == 32

    def test_diamond_is_quadric_plus_twisted_k3_entrywise(self, scenario):
        from motivecalc import k3, quadric

        d = realize_hodge(solve_mx(scenario).normal_form, realization_table(scenario))
        q6, s = quadric(6).diamond, k3().diamond
        for p in range(7):
            for q in range(7):
                shifted = s.hodge(p - 2, q - 2) if p >= 2 and q >= 2 else 0
                assert d.hodge(p, q) == q6.hodge(p, q) + shifted


class TestTorsion:
    def test_canonical_certificate(self, scenario):
        cert = torsion_report(scenario)
        assert cert.conclusion == FREE
        assert cert.unit_embedding
        assert cert.atom_status == {"B": FREE, "Y": FREE, "Hilb2QY": FREE}

    def test_hilb_profile_shape(self, scenario):
        prof = profile_table(scenario)["Hilb2QY"]
        assert prof.ranks[0] == 1 and prof.ranks[1] == 0 and prof.ranks[2] == 23
        assert prof.all_free()

    def test_forced_unknown_propagates(self, scenario):
        profiles = profile_table(scenario)
        hilb = profiles["Hilb2QY"]
        profiles["Hilb2QY"] = CohomologyProfile(
            hilb.n, hilb.ranks, tuple(UNKNOWN for _ in hilb.torsion)
        )
        cert = torsion_report(scenario, profiles)
        assert cert.conclusion == UNKNOWN

    def test_untrusted_k3_propagates(self, scenario):
        profiles = profile_table(scenario)
        y = profiles["Y"]
        profiles["Y"] = CohomologyProfile(
            y.n, y.ranks, tuple(UNKNOWN for _ in y.torsion)
        )
        assert torsion_report(scenario, profiles).conclusion == UNKNOWN


class TestScenarioValidation:
    def test_canonical_passes(self, scenario):
        checks = scenario.validate()
        assert len(checks) == 4

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
    assert report["schema"] == "motive-calc/1"


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
