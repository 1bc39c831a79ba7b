"""Geometric formula builders: projective bundles, smooth blow-ups, locally
trivial projective fibrations, products with a cellular factor, and expected
codimensions of degeneracy loci.

These constructors only manipulate decompositions; no ideal-theoretic
geometry happens here.  Every codimension is an explicit input, validated
against the dimension bookkeeping of the registry, never inferred.
"""

from __future__ import annotations

from .tatepoly import ladder
from .motive import Atom, AtomRegistry, MotiveExpr, TensorTwist, dim_of
from .atlas import Atlas


class DimensionMismatchError(ValueError):
    """Blow-up center dimension + codimension disagrees with the ambient."""


class NonCellularFactorError(ValueError):
    """Product requested with no cellular factor; general products are out of scope."""


class InvalidRankError(ValueError):
    """Target rank outside [0, min(e, f)]."""


def projective_bundle(base: MotiveExpr, r: int) -> MotiveExpr:
    """Projectivization of a rank-r bundle: base tensored by 1 + L + ... + L^(r-1)."""
    if r < 1:
        raise ValueError("bundle rank must be >= 1")
    return TensorTwist(base, ladder(0, r - 1))


def p_fibration(base: MotiveExpr, k: int) -> MotiveExpr:
    """Zariski-locally-trivial P^k-fibration; same decomposition as a
    projective bundle of rank k+1, kept separate so provenance can
    distinguish declared fibrations from actual bundles."""
    if k < 0:
        raise ValueError("fiber dimension must be >= 0")
    if k == 0:
        return base
    return TensorTwist(base, ladder(0, k))


def blow_up(
    ambient: MotiveExpr,
    center: MotiveExpr,
    codim: int,
    registry: AtomRegistry | None,
) -> MotiveExpr:
    """Smooth blow-up: ambient plus center tensored by L + ... + L^(codim-1).

    With a registry the declared codimension is validated against the
    dimension bookkeeping; pass None only to probe inconsistent scenarios.
    """
    if codim < 2:
        raise ValueError("blow-up codimension must be >= 2")
    if registry is not None:
        da = dim_of(ambient, registry)
        dc = dim_of(center, registry)
        if dc + codim != da:
            raise DimensionMismatchError(
                f"center dim {dc} + codim {codim} != ambient dim {da}"
            )
    return ambient + TensorTwist(center, ladder(1, codim - 1))


def kunneth(a: MotiveExpr, b: MotiveExpr, atlas: Atlas) -> MotiveExpr:
    """Product a x b where at least one factor is a cellular atlas atom
    (projective space, quadric, Grassmannian): the cellular factor
    contributes its Poincare polynomial as a twist."""

    def cells_of(e: MotiveExpr):
        if isinstance(e, Atom):
            entry = atlas.get(e.name)
            if entry is not None and entry.cells is not None:
                return entry.cells
        return None

    cb = cells_of(b)
    if cb is not None:
        return TensorTwist(a, cb)
    ca = cells_of(a)
    if ca is not None:
        return TensorTwist(b, ca)
    raise NonCellularFactorError(
        "product needs at least one cellular atlas factor"
    )


def codim_rank_leq(e: int, f: int, r: int) -> int:
    """Expected codimension (e-r)(f-r) of the rank <= r locus of a map
    between bundles of ranks e and f."""
    if not 0 <= r <= min(e, f):
        raise InvalidRankError(f"rank {r} outside [0, {min(e, f)}]")
    return (e - r) * (f - r)
