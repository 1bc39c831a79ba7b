"""Geometric formula builders: projective bundles (and Zariski-locally-trivial
projective fibrations, which decompose the same way), smooth blow-ups,
products with a cellular factor, and expected codimensions of degeneracy
loci.

These constructors only manipulate decompositions; no ideal-theoretic
geometry happens here.  Every codimension is an explicit input, validated
against the top weights of the expressions, never inferred.
"""

from __future__ import annotations

from .tatepoly import MAX_DIM, ladder
from .motive import Atom, MotiveExpr, Sum, TensorTwist
from .atlas import Atlas


class DimensionMismatchError(ValueError):
    """A fiber dimension or blow-up codimension out of range, or a blow-up
    center dimension + codimension that disagrees with the ambient."""


class NonCellularFactorError(ValueError):
    """Product requested with no cellular factor; general products are out of scope."""


class InvalidRankError(ValueError):
    """Target rank outside [0, min(e, f)]."""


def projective_bundle(base: MotiveExpr, r: int) -> MotiveExpr:
    """Projectivization of a rank-r bundle: a P^(r-1)-fibration."""
    if not 1 <= r <= MAX_DIM + 1:
        raise ValueError(f"bundle rank {r} outside 1..{MAX_DIM + 1}")
    return projective_fibration(base, r - 1)


def projective_fibration(base: MotiveExpr, k: int) -> MotiveExpr:
    """Zariski-locally-trivial P^k-fibration: base tensored by
    1 + L + ... + L^k, and base itself when k == 0."""
    if not 0 <= k <= MAX_DIM:
        raise DimensionMismatchError(f"fiber dimension {k} outside 0..{MAX_DIM}")
    return base if k == 0 else TensorTwist(base, ladder(0, k))


def blow_up(ambient: MotiveExpr, center: MotiveExpr, codim: int) -> MotiveExpr:
    """Smooth blow-up: ambient plus center tensored by L + ... + L^(codim-1).

    The declared codimension is validated against the top weights of the
    ambient and the center.
    """
    if not 2 <= codim <= MAX_DIM + 1:
        raise DimensionMismatchError(f"blow-up codimension {codim} outside 2..{MAX_DIM + 1}")
    da, dc = ambient.top, center.top
    if dc + codim != da:
        raise DimensionMismatchError(f"center dim {dc} + codim {codim} != ambient dim {da}")
    return Sum((ambient, TensorTwist(center, ladder(1, codim - 1))))


def kunneth(a: MotiveExpr, b: MotiveExpr, atlas: Atlas) -> MotiveExpr:
    """Product a x b where at least one factor is a cellular atlas atom
    (projective space, quadric, Grassmannian): the cellular factor
    contributes its Poincare polynomial as a twist."""

    for cellular, other in ((b, a), (a, b)):
        entry = atlas.get(cellular.name) if isinstance(cellular, Atom) else None
        if entry is not None and entry.cells is not None:
            return TensorTwist(other, entry.cells)
    raise NonCellularFactorError(
        "product needs at least one cellular atlas factor"
    )


def codim_rank_leq(e: int, f: int, r: int) -> int:
    """Expected codimension (e-r)(f-r) of the rank <= r locus of a map
    between bundles of ranks e and f."""
    if not 0 <= r <= min(e, f):
        raise InvalidRankError(f"rank {r} outside [0, {min(e, f)}]")
    return (e - r) * (f - r)
