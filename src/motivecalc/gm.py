"""End-to-end pipeline for the Gushel-Mukai sixfold computation.

Encodes the double-blow-up comparison: both sides of the identity are built
from declared geometric facts (fibration ranks and blow-up codimensions),
checked for equality after substituting the expected answer, then solved by
exact cancellation and realized as a Hodge diamond together with a
torsion-freeness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .tatepoly import ONE, TatePolynomial
from .motive import (
    Atom,
    AtomRegistry,
    MotiveAtom,
    NormalForm,
    Solved,
    Unknown,
    normalize,
    solve_tensor_factor,
)
from .hodge import (
    UNKNOWN,
    CohomologyProfile,
    HodgeDiamond,
    atom_torsion,
    lefschetz_section_profile,
    realize_hodge,
    torsion_status,
)
from .atlas import Atlas
from .formulas import (
    DimensionMismatchError,
    blow_up,
    codim_rank_leq,
    kunneth,
    p_fibration,
    projective_bundle,
)


class ScenarioError(ValueError):
    """Declared facts are mutually inconsistent."""


@dataclass
class GMScenario:
    """Declared geometric facts of the sixfold construction.

    Every field is an input the comparison depends on; perturbing any one of
    them is expected to break the identity (negative controls rely on this).
    With strict=False, dimension and codimension validation is skipped so
    that inconsistent perturbations still produce comparable normal forms.
    """

    # ranks of the degeneracy map between bundles
    rank_e: int = 3
    rank_f: int = 4
    # fibration fiber dimensions
    pv5_dim: int = 4  # projective factor of the ambient product
    psy_fiber: int = 3  # P^3-fibration over Y
    pbr_fiber: int = 2  # projectivized rank-3 bundle over B
    d2_fiber: int = 1  # P^1-fibration over the Hilbert-square divisor
    rho_fiber: int = 1  # preimage of the corank-2 locus in the inner blow-up
    px_fiber: int = 3  # first fibration factor over X
    ux_fiber: int = 1  # second fibration factor over X
    lhs_center_fiber: int = 2  # P^2-fibration over the corank-2 locus
    # blow-up codimensions
    codim_psy: int = 3
    codim_rho_d2: int = 3
    codim_d2: int = 6
    codim_d1: int = 2
    codim_lhs_center: int = 4
    strict: bool = True

    registry: AtomRegistry = field(init=False, repr=False)
    atlas: Atlas = field(init=False, repr=False)

    def __post_init__(self):
        self.registry = AtomRegistry()
        self.atlas = Atlas(self.registry)
        self.registry.register(MotiveAtom("B", 6, frozenset({"smooth_projective"})))
        self.registry.register(MotiveAtom("Y", 2, frozenset({"smooth_projective"})))
        self.registry.register(
            MotiveAtom("Hilb2QY", 3, frozenset({"smooth_projective"}))
        )
        self.registry.register(MotiveAtom("X", 6, frozenset({"unknown"})))
        self.atlas.projective_space(self.pv5_dim)

    @property
    def ambient_dim(self) -> int:
        return 6 + self.pv5_dim

    def validate(self) -> list[str]:
        """Check declared codimensions against the expected-codimension
        formula and the dimension bookkeeping; returns the passed checks."""
        checks = []

        def expect(cond: bool, text: str):
            if not cond:
                raise ScenarioError(f"scenario check failed: {text}")
            checks.append(text)

        e, f = self.rank_e, self.rank_f
        expect(
            self.codim_d1 == codim_rank_leq(e, f, min(e, f) - 1),
            f"codim of corank-1 locus = {self.codim_d1}",
        )
        expect(
            self.codim_d2 == codim_rank_leq(e, f, min(e, f) - 2),
            f"codim of corank-2 locus = {self.codim_d2}",
        )
        c3 = codim_rank_leq(e, f, min(e, f) - 3)
        expect(
            c3 > self.ambient_dim,
            f"corank-3 codim {c3} > ambient dim {self.ambient_dim}: locus empty",
        )
        expect(
            self.ambient_dim - self.codim_d2 == 3 + self.d2_fiber,
            "corank-2 locus dimension matches its fibration over the divisor",
        )
        return checks


def _reg(s: GMScenario) -> AtomRegistry | None:
    return s.registry if s.strict else None


def build_d2(s: GMScenario):
    """The corank-2 degeneracy locus as a fibration over the Hilbert-square divisor."""
    return p_fibration(Atom("Hilb2QY"), s.d2_fiber)


def build_d1_prime(s: GMScenario):
    """The resolved corank-1 locus as an iterated blow-up."""
    psy = projective_bundle(Atom("Y"), s.psy_fiber + 1)
    pbr = projective_bundle(Atom("B"), s.pbr_fiber + 1)
    inner = blow_up(pbr, psy, s.codim_psy, _reg(s))
    center = p_fibration(build_d2(s), s.rho_fiber)
    return blow_up(inner, center, s.codim_rho_d2, _reg(s))


def build_rhs(s: GMScenario):
    """Double blow-up of the product side, grouped by the B, Y and
    Hilbert-square atoms."""
    bp = kunneth(Atom("B"), Atom(f"P{s.pv5_dim}"), s.atlas)
    stage1 = blow_up(bp, build_d2(s), s.codim_d2, _reg(s))
    return blow_up(stage1, build_d1_prime(s), s.codim_d1, _reg(s))


def build_lhs(s: GMScenario):
    """The same variety fibered over the unknown X, blown up along a
    projective fibration over the corank-2 locus."""
    top = p_fibration(p_fibration(Unknown("X"), s.px_fiber), s.ux_fiber)
    center = p_fibration(build_d2(s), s.lhs_center_fiber)
    return blow_up(top, center, s.codim_lhs_center, _reg(s))


def expected_mx(s: GMScenario) -> NormalForm:
    """The candidate answer substituted during verification: B + Y * L^2."""
    return NormalForm({"B": ONE, "Y": TatePolynomial.lefschetz(2)})


@dataclass(frozen=True)
class Derivation:
    """A scenario's one derivation pass: its facts validated (when strict),
    both sides built and normalized once, and compared after substituting
    X -> B + Y*L^2.  Solving, realization and the torsion certificate all
    read the normal forms stored here.

    A construction or validation failure is kept in ``error`` rather than
    raised, so perturbed scenarios can be probed; lhs and rhs are then None.
    """

    scenario: GMScenario = field(repr=False, compare=False)
    ok: bool
    message: str
    lhs: NormalForm | None = None
    rhs: NormalForm | None = None
    substituted: NormalForm | None = None
    error: Exception | None = None

    def __bool__(self) -> bool:
        return self.ok

    def sides(self) -> tuple[NormalForm, NormalForm]:
        """The normalized lhs and rhs; re-raises a construction failure."""
        if self.error is not None:
            raise self.error
        return self.lhs, self.rhs

    def solve(self) -> Solved:
        """Cancel the common summand and tensor factor to extract the normal
        form of X from the two-sided identity."""
        lhs, rhs = self.sides()
        m2 = NormalForm({n: p for n, p in lhs.terms.items() if n != "X"})
        return solve_tensor_factor("X", lhs.coefficient("X"), m2, rhs)

    def torsion(
        self, profiles: dict[str, CohomologyProfile] | None = None
    ) -> TorsionCertificate:
        """Machine-checkable chain: X is a unit-coefficient summand of a sum
        whose atoms all have torsion-free integral cohomology, hence its own
        integral cohomology is torsion-free."""
        lhs, rhs = self.sides()
        if profiles is None:
            profiles = profile_table(self.scenario)
        unit = lhs.coefficient("X").coefficient(0) >= 1
        status = atom_torsion(rhs, profiles)
        conclusion = torsion_status(rhs, profiles) if unit else UNKNOWN
        notes = (
            "a direct sum of Tate twists of torsion-free groups is torsion-free, "
            "and so is any direct summand of one",
        )
        return TorsionCertificate(unit, status, conclusion, notes)

    def answer(self) -> tuple[Solved, HodgeDiamond, TorsionCertificate]:
        """The solved M(X), its Hodge diamond and its torsion certificate."""
        solved = self.solve()
        diamond = realize_hodge(solved.normal_form, realization_table(self.scenario))
        return solved, diamond, self.torsion()


def verify_identity(s: GMScenario) -> Derivation:
    """Derive the scenario once: validate (when strict), build and normalize
    both sides, and compare them after substituting X -> B + Y*L^2.

    Construction or validation failures are reported as a failed
    verification, not raised, so perturbed scenarios can be probed."""
    try:
        if s.strict:
            s.validate()
        lhs, rhs = (normalize(build_side(s)) for build_side in (build_lhs, build_rhs))
    except (ScenarioError, DimensionMismatchError, ValueError) as exc:
        return Derivation(s, False, f"construction failed: {exc}", error=exc)
    substituted = lhs.substitute("X", expected_mx(s))
    if substituted == rhs:
        return Derivation(s, True, "identity holds", lhs, rhs, substituted)
    diffs = []
    for name in sorted(set(substituted.atoms()) | set(rhs.atoms())):
        a, b = substituted.coefficient(name), rhs.coefficient(name)
        if a != b:
            diffs.append(f"{name}: {a} vs {b}")
    message = "normal forms differ: " + "; ".join(diffs)
    return Derivation(s, False, message, lhs, rhs, substituted)


def solve_mx(s: GMScenario) -> Solved:
    """The normal form of X solved from the scenario's identity."""
    return verify_identity(s).solve()


def realization_table(s: GMScenario) -> dict[str, HodgeDiamond]:
    """Hodge diamonds of the atoms of the answer: B is the quadric Q6 and Y
    the K3 surface, both taken from the scenario's atlas."""
    return {"B": s.atlas.quadric(6).diamond, "Y": s.atlas.k3().diamond}


def profile_table(s: GMScenario) -> dict[str, CohomologyProfile]:
    """Torsion profiles of the building blocks: the quadric and the K3 are
    free outright; the Hilbert-square divisor inherits freeness as a smooth
    ample divisor in the Hilbert square of the K3."""
    q6, k3_entry = s.atlas.quadric(6), s.atlas.k3()
    hilb2 = s.atlas.hilb2(k3_entry.atom.name)
    return {
        "B": CohomologyProfile.from_diamond(q6.diamond, q6.torsion_free),
        "Y": CohomologyProfile.from_diamond(k3_entry.diamond, k3_entry.torsion_free),
        "Hilb2QY": lefschetz_section_profile(hilb2.diamond, hilb2.torsion_free),
    }


@dataclass(frozen=True)
class TorsionCertificate:
    unit_embedding: bool
    atom_status: dict[str, str]
    conclusion: str
    notes: tuple[str, ...]


def torsion_report(
    s: GMScenario, profiles: dict[str, CohomologyProfile] | None = None
) -> TorsionCertificate:
    """The torsion certificate of X; see Derivation.torsion."""
    return verify_identity(s).torsion(profiles)


def perturbed(s: GMScenario, **changes) -> GMScenario:
    """Copy of the scenario with some declared facts altered."""
    return replace(s, **changes)


def full_report(s: GMScenario) -> dict:
    """Everything the CLI prints: normal forms, the solved answer, its Hodge
    diamond, Betti numbers, Euler characteristic, and the torsion chain."""
    verify = verify_identity(s)
    out: dict = {
        "schema": "motive-calc/1",
        "identity_ok": verify.ok,
        "message": verify.message,
    }
    if verify.lhs is not None:
        out["lhs"] = verify.lhs.to_dict()
        out["rhs"] = verify.rhs.to_dict()
    if not verify.ok:
        return out
    solved, diamond, cert = verify.answer()
    out.update(
        {
            "solved": solved.normal_form.to_dict(),
            "solved_note": solved.note,
            "hodge": diamond.to_json_dict(),
            "betti": list(diamond.betti()),
            "euler": diamond.euler(),
            "torsion": {
                "unit_embedding": cert.unit_embedding,
                "atoms": cert.atom_status,
                "conclusion": cert.conclusion,
            },
        }
    )
    return out
