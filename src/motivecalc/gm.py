"""End-to-end pipeline for the Gushel-Mukai sixfold computation.

Encodes the double-blow-up comparison: both sides of the identity are built
from declared geometric facts (bundle ranks, fiber dimensions and blow-up
codimensions; the degeneracy loci's codimensions follow from the ranks),
checked for equality after substituting the expected answer, then solved by
exact cancellation and realized as a Hodge diamond together with a
torsion-freeness certificate.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from .tatepoly import ONE, Frozen, L
from .motive import (
    CANCELLATION_NOTE,
    Atom,
    NormalForm,
    normalize,
    solve_tensor_factor,
)
from .hodge import HodgeDiamond, realize_hodge
from . import atlas
from .formulas import DimensionMismatchError, InvalidRankError
from .formulas import blow_up, codim_rank_leq, projective_fibration


class ScenarioError(ValueError):
    """Declared facts are mutually inconsistent."""


class IdentityError(ArithmeticError):
    """The two sides of the identity have different normal forms."""


# torsion status of an atom or of X: only ever "free" or "unknown", since the
# propagation rules (direct sums, Tate twists, summands, Lefschetz + universal
# coefficients) never need more
FREE = "free"
UNKNOWN = "unknown"


# an atom of the sixfold construction: dimension, torsion flag (None for the
# unknown X) and, for an atom of the answer, its atlas entry and DSL spelling
ScenarioAtom = collections.namedtuple("ScenarioAtom", "dim torsion_free entry spelling")


def _scenario_atoms() -> dict[str, ScenarioAtom]:
    """B is the quadric Q6 and Y the K3 surface, each read off its atlas entry.
    Hilb2QY, a smooth ample divisor in Hilb2(K3), takes that entry's torsion
    flag: by Lefschetz and universal coefficients its integral cohomology is
    torsion-free whenever the ambient one is."""
    q6, k3 = atlas.quadric(6), atlas.k3()
    return {
        "B": ScenarioAtom(q6.diamond.n, q6.torsion_free, q6, "Q(6)"),
        "Y": ScenarioAtom(k3.diamond.n, k3.torsion_free, k3, "K3"),
        "Hilb2QY": ScenarioAtom(3, atlas.hilb2_surface(k3).torsion_free, None, None),
        "X": ScenarioAtom(6, None, None, None),
    }


# built once at import and never written after; NODES holds each atom's one
# expression node, shared by every derivation
ATOMS = _scenario_atoms()
NODES = {name: Atom(name, a.dim) for name, a in ATOMS.items()}
EXPECTED_MX = NormalForm({"B": ONE, "Y": L**2})  # the candidate answer substituted for X


@dataclass
class GMScenario:
    """Declared geometric facts of the sixfold construction.

    Every field is an input the comparison depends on; perturbing any one of
    them is expected to break the identity (negative controls rely on this).
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
    codim_lhs_center: int = 4


def build_sides(s: GMScenario):
    """Every gate of the scenario, then the lhs and rhs expression trees. The
    codimensions of the degeneracy loci D1, D2 and the corank-3 locus are the
    expected (e - r)(f - r) of the bundle ranks (Fulton, Intersection Theory,
    Ch. 14); min(e, f) < 3 raises InvalidRankError, and a nonempty corank-3
    locus ScenarioError. The lhs's gates run next, then the rhs's. Both sides
    read one D2 node; the rhs's blow-up along it checks its dimension."""
    e, f = s.rank_e, s.rank_f
    codim_d1, codim_d2, c3 = (codim_rank_leq(e, f, min(e, f) - k) for k in (1, 2, 3))
    if c3 <= (ambient := ATOMS["B"].dim + s.pv5_dim):
        raise ScenarioError(
            f"scenario check failed: corank-3 codim {c3} > ambient dim {ambient}: locus empty"
        )
    # lhs: the variety fibered over the unknown X, blown up along a projective
    # fibration over D2, itself a fibration over the Hilbert-square divisor
    top = projective_fibration(projective_fibration(NODES["X"], s.px_fiber), s.ux_fiber)
    d2 = projective_fibration(NODES["Hilb2QY"], s.d2_fiber)
    lhs = blow_up(top, projective_fibration(d2, s.lhs_center_fiber), s.codim_lhs_center)
    # rhs: the product side blown up along D2, then along D1', the resolved
    # corank-1 locus, an iterated blow-up; psy is built before pbr, as the
    # order of the gates and so of the messages requires
    stage1 = blow_up(projective_fibration(NODES["B"], s.pv5_dim), d2, codim_d2)
    psy = projective_fibration(NODES["Y"], s.psy_fiber)
    inner = blow_up(projective_fibration(NODES["B"], s.pbr_fiber), psy, s.codim_psy)
    d1_prime = blow_up(inner, projective_fibration(d2, s.rho_fiber), s.codim_rho_d2)
    return lhs, blow_up(stage1, d1_prime, codim_d1)


class Derivation(Frozen):
    """A scenario's one derivation pass: every gate run and both sides built by
    build_sides, and only then both normalized once and compared after
    substituting X -> B + Y*L^2. Solving, realization and the torsion
    certificate all read the normal forms ``lhs`` and ``rhs`` stored here.

    A gate's rejection is kept in ``error`` rather than raised, so perturbed
    scenarios can be probed; lhs and rhs are then None.
    """

    __slots__ = ("ok", "message", "lhs", "rhs", "error")

    def __init__(self, ok: bool, message: str, lhs=None, rhs=None, error=None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "message", message)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "error", error)

    def _key(self) -> tuple:
        # the message carries the error's text; exceptions compare by identity
        return self.ok, self.message, self.lhs, self.rhs

    def sides(self) -> tuple[NormalForm, NormalForm]:
        """The normalized lhs and rhs if the identity holds; else raises its failure."""
        if not self.ok:
            raise self.error or IdentityError(self.message)
        return self.lhs, self.rhs

    def solve(self) -> NormalForm:
        """Cancel the common summand and tensor factor to extract the normal
        form of X from the two-sided identity."""
        lhs, rhs = self.sides()
        m2 = NormalForm({n: p for n, p in lhs.terms.items() if n != "X"})
        return solve_tensor_factor("X", lhs.coefficient("X"), m2, rhs).normal_form

    def torsion(self) -> dict:
        """Machine-checkable chain: X is a unit-coefficient summand of a sum
        whose atoms all have torsion-free integral cohomology, hence its own
        integral cohomology is torsion-free.  Each atom is FREE iff its flag
        says torsion-free, else UNKNOWN."""
        lhs, rhs = self.sides()
        unit = lhs.coefficient("X").coefficient(0) >= 1
        atoms = {name: FREE if ATOMS[name].torsion_free else UNKNOWN for name in rhs.atoms()}
        conclusion = FREE if unit and UNKNOWN not in atoms.values() else UNKNOWN
        return {"unit_embedding": unit, "atoms": atoms, "conclusion": conclusion}

    def answer(self) -> tuple[NormalForm, HodgeDiamond, dict]:
        """The normal form of M(X), its Hodge diamond and its torsion certificate."""
        solved = self.solve()
        table = {name: a.entry.diamond for name, a in ATOMS.items() if a.entry is not None}
        return solved, realize_hodge(solved, table), self.torsion()


def verify_identity(s: GMScenario) -> Derivation:
    """Derive the scenario once: build_sides runs every gate and builds both
    sides, then both are normalized and compared after substituting
    X -> B + Y*L^2. Every gate (a scenario check, a dimension or codimension
    check or a bad rank) runs before any normal form is built; its rejection
    is reported as a failed verification, not raised, and any other error
    propagates."""
    try:
        lhs, rhs = build_sides(s)
    except (ScenarioError, DimensionMismatchError, InvalidRankError) as exc:
        return Derivation(False, f"construction failed: {exc}", error=exc)
    lhs, rhs = normalize(lhs), normalize(rhs)
    substituted = lhs.substitute("X", EXPECTED_MX)
    if substituted == rhs:
        return Derivation(True, "identity holds", lhs, rhs)
    diffs = []
    for name in sorted(set(substituted.atoms()) | set(rhs.atoms())):
        a, b = substituted.coefficient(name), rhs.coefficient(name)
        if a != b:
            diffs.append(f"{name}: {a} vs {b}")
    message = "normal forms differ: " + "; ".join(diffs)
    return Derivation(False, message, lhs, rhs)


def solve_mx(s: GMScenario) -> NormalForm:
    """The normal form of X solved from the scenario's identity."""
    return verify_identity(s).solve()


def torsion_report(s: GMScenario) -> dict:
    """The torsion certificate of X; see Derivation.torsion."""
    return verify_identity(s).torsion()


def perturbed(s: GMScenario, **changes) -> GMScenario:
    """Copy of the scenario with some declared facts altered."""
    return GMScenario(**{**vars(s), **changes})


def full_report(s: GMScenario) -> dict:
    """Everything the CLI prints: normal forms, the solved answer, its Hodge
    diamond, Betti numbers, Euler characteristic, and the torsion chain."""
    verify = verify_identity(s)
    out: dict = {"identity_ok": verify.ok, "message": verify.message}
    if verify.lhs is not None:
        out["lhs"] = verify.lhs.to_dict()
        out["rhs"] = verify.rhs.to_dict()
    if not verify.ok:
        return out
    solved, diamond, cert = verify.answer()
    out.update(
        {
            "solved": solved.to_dict(),
            "solved_note": CANCELLATION_NOTE,
            "hodge": diamond.to_json_dict(),
            "betti": list(diamond.betti()),
            "euler": diamond.euler(),
            "torsion": cert,
        }
    )
    return out
