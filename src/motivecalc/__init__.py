"""motivecalc: exact calculus of direct-sum/Tate-twist decompositions of
motives and cohomology, with geometric formula builders and Hodge/Betti
realizations."""

from .tatepoly import ONE, ZERO, L, TatePolynomial, NotDivisibleError, ladder
from .motive import (
    Atom,
    AtomRegistry,
    MotiveAtom,
    MotiveExpr,
    NormalForm,
    NotASummandError,
    Solved,
    Sum,
    TensorTwist,
    UnregisteredAtomError,
    dim_of,
    normalize,
    solve_tensor_factor,
)
from .hodge import (
    HodgeDiamond,
    MissingRealizationError,
    check_symmetries,
    realize_hodge,
)
from .atlas import (
    Atlas,
    AtlasEntry,
    OddCohomologyError,
    gaussian_binomial,
    grassmannian,
    hilb2_surface,
    k3,
    projective_space,
    quadric,
)
from .formulas import (
    DimensionMismatchError,
    InvalidRankError,
    NonCellularFactorError,
    blow_up,
    codim_rank_leq,
    kunneth,
    projective_bundle,
)
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
from .dsl import ArityError, DslError, DslSyntaxError, Parser, UnknownIdentifierError

__version__ = "0.1.0"
