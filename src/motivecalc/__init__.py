"""motivecalc: exact calculus of direct-sum/Tate-twist decompositions of
motives and cohomology, with geometric formula builders and Hodge/Betti
realizations."""

from .tatepoly import ONE, L, TatePolynomial, NotDivisibleError, ladder
from .motive import (
    Atom,
    AtomRegistry,
    MotiveAtom,
    MotiveExpr,
    NormalForm,
    Solved,
    Sum,
    TensorTwist,
    UnregisteredAtomError,
    dim_of,
    normalize,
    solve_tensor_factor,
)
from .hodge import HodgeDiamond, check_symmetries, realize_hodge
from .atlas import Atlas, AtlasEntry, gaussian_binomial, quadric
from .formulas import DimensionMismatchError, blow_up, projective_bundle
from .gm import (
    GMScenario,
    IdentityError,
    ScenarioError,
    Derivation,
    full_report,
    perturbed,
    solve_mx,
    torsion_report,
    verify_identity,
)
from .dsl import Parser

__version__ = "0.1.0"
