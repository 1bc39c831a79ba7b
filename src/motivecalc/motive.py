"""Expression algebra for motive decompositions.

Expressions are trees built from named atoms (and at most one "unknown"
placeholder), direct sums, and tensoring by a twist polynomial.  The
canonical representation is a NormalForm: a map atom-name -> TatePolynomial.
Equality, summand subtraction, and the solve/cancel step all happen at the
normal-form level.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from .tatepoly import ONE, TatePolynomial, NotDivisibleError


class UnregisteredAtomError(KeyError):
    """An expression references an atom name absent from the registry."""


class NotASummandError(ArithmeticError):
    """Attempted to remove a summand that does not embed coefficientwise."""


@dataclass(frozen=True)
class MotiveAtom:
    """An opaque generator: the motive of a named variety of known dimension."""

    name: str
    dim: int
    tags: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")
        object.__setattr__(self, "tags", frozenset(self.tags))


class AtomRegistry:
    """Append-only name -> MotiveAtom table."""

    def __init__(self):
        self._atoms: dict[str, MotiveAtom] = {}

    def register(self, atom: MotiveAtom) -> MotiveAtom:
        existing = self._atoms.get(atom.name)
        if existing is None:
            self._atoms[atom.name] = atom
            return atom
        if existing != atom:
            raise ValueError(f"atom {atom.name!r} already registered with different data")
        return existing

    def get(self, name: str) -> MotiveAtom:
        try:
            return self._atoms[name]
        except KeyError:
            raise UnregisteredAtomError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._atoms

    def names(self) -> list[str]:
        return sorted(self._atoms)


# -- expression trees ------------------------------------------------------


class MotiveExpr:
    """Base class for expression nodes.  ``a + b`` is direct sum, ``a * p``
    tensors by a TatePolynomial."""

    def __add__(self, other: "MotiveExpr") -> "MotiveExpr":
        if not isinstance(other, MotiveExpr):
            return NotImplemented
        return Sum((self, other))

    def __mul__(self, twist: TatePolynomial) -> "MotiveExpr":
        if not isinstance(twist, TatePolynomial):
            return NotImplemented
        return TensorTwist(self, twist)


@dataclass(frozen=True)
class Atom(MotiveExpr):
    name: str


@dataclass(frozen=True)
class Unknown(MotiveExpr):
    """A placeholder atom to be solved for (outermost tensor position only)."""

    name: str


@dataclass(frozen=True)
class Sum(MotiveExpr):
    children: tuple[MotiveExpr, ...]

    def __post_init__(self):
        if not self.children:
            raise ValueError("Sum needs at least one child")
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class TensorTwist(MotiveExpr):
    child: MotiveExpr
    twist: TatePolynomial

    def __post_init__(self):
        if not self.twist:
            raise ValueError("tensor twist factor must be nonzero")


# -- normal forms ----------------------------------------------------------


class NormalForm:
    """Canonical map atom-name -> TatePolynomial (zero polynomials absent)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[str, TatePolynomial] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean = {}
        for name, poly in items:
            if poly:
                clean[name] = clean[name] + poly if name in clean else poly
        self._terms = clean

    @property
    def terms(self) -> dict[str, TatePolynomial]:
        return dict(self._terms)

    def atoms(self) -> list[str]:
        return sorted(self._terms)

    def coefficient(self, name: str) -> TatePolynomial:
        return self._terms.get(name, TatePolynomial.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if isinstance(other, NormalForm):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "NormalForm") -> "NormalForm":
        out = dict(self._terms)
        for name, poly in other._terms.items():
            out[name] = out[name] + poly if name in out else poly
        return NormalForm(out)

    def scale(self, poly: TatePolynomial) -> "NormalForm":
        return NormalForm({n: p * poly for n, p in self._terms.items()})

    def subtract(self, part: "NormalForm") -> "NormalForm":
        """Remove a direct summand; raises NotASummandError on underflow."""
        out = dict(self._terms)
        for name, poly in part._terms.items():
            have = out.get(name, TatePolynomial.zero())
            coeffs = have.coeffs
            for k, a in poly.items():
                nv = coeffs.get(k, 0) - a
                if nv < 0:
                    raise NotASummandError(
                        f"coefficient of {name} underflows at L^{k}"
                    )
                if nv:
                    coeffs[k] = nv
                else:
                    coeffs.pop(k, None)
            rem = TatePolynomial(coeffs)
            if rem:
                out[name] = rem
            else:
                out.pop(name, None)
        return NormalForm(out)

    def substitute(self, name: str, replacement: "NormalForm") -> "NormalForm":
        """Replace an atom by a whole normal form, distributing its coefficient."""
        if name not in self._terms:
            return self
        poly = self._terms[name]
        rest = {n: p for n, p in self._terms.items() if n != name}
        return NormalForm(rest) + replacement.scale(poly)

    def to_dict(self) -> dict[str, str]:
        return {name: str(self._terms[name]) for name in self.atoms()}

    def __str__(self) -> str:
        if not self._terms:
            return "{}"
        inner = ", ".join(f"{n}: {self._terms[n]}" for n in self.atoms())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"NormalForm({self._terms!r})"


def normalize(e: MotiveExpr) -> NormalForm:
    """Flatten sums and distribute twists into the canonical atom -> polynomial map."""
    if isinstance(e, (Atom, Unknown)):
        return NormalForm({e.name: ONE})
    if isinstance(e, Sum):
        out = NormalForm()
        for child in e.children:
            out = out + normalize(child)
        return out
    if isinstance(e, TensorTwist):
        return normalize(e.child).scale(e.twist)
    raise TypeError(f"not a MotiveExpr: {e!r}")


def dim_of(e: MotiveExpr, registry: AtomRegistry) -> int:
    """Top weight of an expression: dim(atom) + k for each L^k twist, max over sums.

    Unknown placeholders are allowed as long as their declared dimension is
    registered (the solve pipeline needs dimension checks on both sides).
    """
    if isinstance(e, (Atom, Unknown)):
        return registry.get(e.name).dim
    if isinstance(e, Sum):
        return max(dim_of(c, registry) for c in e.children)
    if isinstance(e, TensorTwist):
        return dim_of(e.child, registry) + e.twist.degree
    raise TypeError(f"not a MotiveExpr: {e!r}")


CANCELLATION_NOTE = (
    "formal normal-form cancellation: atoms treated as independent generators; "
    "valid for any realization in which the removed tensor factor and summand "
    "are not zero divisors, not asserted as an isomorphism of motives"
)


@dataclass(frozen=True)
class Solved:
    """Result of solve_tensor_factor, with the modeling caveat attached."""

    normal_form: NormalForm
    note: str = CANCELLATION_NOTE


def solve_tensor_factor(
    unknown: str,
    m1: TatePolynomial,
    m2: NormalForm,
    rhs: NormalForm,
) -> Solved:
    """Solve N * m1 + m2 = rhs for the normal form N.

    Subtracts the summand m2 and divides every remaining coefficient exactly
    by m1.  Raises ValueError for a zero m1, NotASummandError when m2 does
    not embed and NotDivisibleError when some coefficient is not divisible.
    """
    if not m1:
        raise ValueError("tensor factor must be nonzero")
    reduced = rhs.subtract(m2)
    solved = NormalForm({n: p.div_exact(m1) for n, p in reduced.terms.items()})
    return Solved(solved)
