"""Expression algebra for motive decompositions.

Expressions are trees built from named atoms, direct sums, and tensoring by
a twist polynomial; each node carries its top weight (an atom's is its
dimension), and an atom to be solved for is an ordinary atom.  The registry
maps each atom name to its one node, shared by every tree that names it.
The canonical representation is a NormalForm: a map atom-name -> TatePolynomial.
Equality, summand subtraction, and the solve/cancel step all happen at the
normal-form level.
"""

from __future__ import annotations

import collections
from collections.abc import Mapping

from .tatepoly import ONE, ZERO, Frozen, TatePolynomial


class UnregisteredAtomError(KeyError):
    """An expression references an atom name absent from the registry."""


class NotASummandError(ArithmeticError):
    """Attempted to remove a summand that does not embed coefficientwise."""


# an opaque generator: the motive of a named variety of known dimension; the
# registry reads only the name and the dimension of an atom
MotiveAtom = collections.namedtuple("MotiveAtom", "name dim tags", defaults=(frozenset(),))


class AtomRegistry:
    """Append-only name -> node table: one shared Atom per registered name."""

    def __init__(self):
        self._atoms: dict[str, Atom] = {}

    def register(self, atom: MotiveAtom) -> None:
        name, dim = atom.name, atom.dim
        if type(dim) is not int:
            raise TypeError(f"dim of {name!r} is not an int: {dim!r}")
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        have = self._atoms.get(name)
        if have is None:
            self._atoms[name] = Atom(name, dim)
        elif have.top != dim:
            raise ValueError(f"atom {name!r} already registered with dim {have.top}, not {dim}")

    def atom(self, name: str) -> Atom:
        """The node of a registered name, the same object on every call."""
        try:
            return self._atoms[name]
        except KeyError:
            raise UnregisteredAtomError(name) from None


# -- expression trees ------------------------------------------------------


class Atom(Frozen):
    __slots__ = ("name", "top")  # top: the atom's dimension

    def __init__(self, name: str, top: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "top", top)


class _Derived(Frozen):
    # the top weight of a node built from others: it sits outside the
    # subclass's own __slots__, so equality, repr, copy and pickle skip it
    __slots__ = ("top",)


class Sum(_Derived):
    __slots__ = ("children",)

    def __init__(self, children: tuple[MotiveExpr, ...]):
        if not children:
            raise ValueError("Sum needs at least one child")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "top", max([c.top for c in children]))


class TensorTwist(_Derived):
    __slots__ = ("child", "twist")

    def __init__(self, child: MotiveExpr, twist: TatePolynomial):
        if not twist:
            raise ValueError("tensor twist factor must be nonzero")
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "twist", twist)
        object.__setattr__(self, "top", child.top + twist.degree)


# an expression node: a named atom, a direct sum, or a tensor by a twist
MotiveExpr = Atom | Sum | TensorTwist


# -- normal forms ----------------------------------------------------------


class NormalForm(Frozen):
    """Canonical map atom-name -> TatePolynomial (zero polynomials absent)."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[str, TatePolynomial] = {}):
        object.__setattr__(self, "_terms", {name: poly for name, poly in terms.items() if poly})

    @property
    def terms(self) -> dict[str, TatePolynomial]:
        return dict(self._terms)

    def atoms(self) -> list[str]:
        return sorted(self._terms)

    def coefficient(self, name: str) -> TatePolynomial:
        return self._terms.get(name, ZERO)

    def _key(self):  # the dict itself: the sixfold's identity compares two normal forms
        return self._terms

    __hash__ = None  # its terms are a dict

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
            have = self.coefficient(name)
            left = {k: have.coefficient(k) - a for k, a in poly.items()}
            under = [k for k, a in left.items() if a < 0]
            if under:
                raise NotASummandError(f"coefficient of {name} underflows at L^{min(under)}")
            out[name] = TatePolynomial({**have.coeffs, **left})
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
        inner = ", ".join(f"{n}: {self._terms[n]}" for n in self.atoms())
        return "{" + inner + "}"


def normalize(e: MotiveExpr) -> NormalForm:
    """Flatten sums and distribute twists into the canonical atom -> polynomial map."""
    acc: dict[str, dict[int, int]] = {}
    stack = [(e, ONE, 1)]  # (node, product of the twists above it, count); leftmost on top
    while stack:
        node, twist, m = stack.pop()
        t = type(node)
        if t is Atom:
            coeffs = acc.setdefault(node.name, {})
            for k, a in twist._coeffs.items():  # stored terms; their order is irrelevant
                coeffs[k] = coeffs.get(k, 0) + a * m
        elif t is Sum:
            # a child the Sum holds more than once is walked once, with its count;
            # grouped by id, since hashing a node walks its whole subtree
            walk = {}
            for c in node.children:
                entry = walk.get(id(c))
                if entry:
                    entry[2] += m
                else:
                    walk[id(c)] = [c, twist, m]
            stack.extend(reversed(walk.values()))
        elif t is TensorTwist:
            stack.append((node.child, node.twist if twist is ONE else twist * node.twist, m))
        else:
            raise TypeError(f"not a MotiveExpr: {node!r}")
    return NormalForm({name: TatePolynomial(c) for name, c in acc.items()})


def dim_of(e: MotiveExpr, registry: AtomRegistry) -> int:
    """Top weight of an expression, ``e.top``; the registry is not read.  Kept
    because perfbench/worker.py times this call."""
    return e.top


CANCELLATION_NOTE = (
    "formal normal-form cancellation: atoms treated as independent generators; "
    "valid for any realization in which the removed tensor factor and summand "
    "are not zero divisors, not asserted as an isomorphism of motives"
)


class Solved(Frozen):
    """Result of solve_tensor_factor; CANCELLATION_NOTE states its modeling
    caveat.  Kept because perfbench/worker.py reads its ``normal_form``."""

    __slots__ = ("normal_form",)

    def __init__(self, normal_form: NormalForm):
        object.__setattr__(self, "normal_form", normal_form)


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
    ``unknown`` is not read; it stays because perfbench/worker.py passes it.
    """
    if not m1:
        raise ValueError("tensor factor must be nonzero")
    reduced = rhs.subtract(m2)
    solved = NormalForm({n: p.div_exact(m1) for n, p in reduced.terms.items()})
    return Solved(solved)
