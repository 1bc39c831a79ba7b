"""Built-in Hodge diamonds and torsion facts for the standard varieties:
projective spaces, smooth quadrics, Grassmannians, K3 surfaces, and Hilbert
squares of surfaces with no odd cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tatepoly import TatePolynomial, ladder
from .motive import AtomRegistry, MotiveAtom
from .hodge import HodgeDiamond, check_symmetries


class OddCohomologyError(ValueError):
    """hilb2 is only implemented for surfaces with b1 = b3 = 0."""


@dataclass(frozen=True)
class AtlasEntry:
    atom: MotiveAtom
    diamond: HodgeDiamond
    torsion_free: bool
    provenance: str
    # Poincare polynomial in L for cellular varieties (diagonal diamond);
    # None for non-cellular entries such as K3.
    cells: TatePolynomial | None = None

    def __post_init__(self):
        if self.atom.dim != self.diamond.n:
            raise ValueError("atom dimension disagrees with diamond")
        if not check_symmetries(self.diamond):
            raise ValueError(f"diamond of {self.atom.name} fails symmetry checks")


def _diagonal(poly: TatePolynomial) -> HodgeDiamond:
    n = poly.degree
    return HodgeDiamond(n, {(k, k): a for k, a in poly.items()})


def projective_space(n: int) -> AtlasEntry:
    if n < 0:
        raise ValueError("n must be >= 0")
    cells = ladder(0, n)
    return AtlasEntry(
        atom=MotiveAtom(f"P{n}", n, frozenset({"smooth_projective", "cellular"})),
        diamond=_diagonal(cells),
        torsion_free=True,
        provenance=f"projective space of dimension {n}",
        cells=cells,
    )


def quadric(n: int) -> AtlasEntry:
    """Smooth n-dimensional quadric: diagonal ones, with a doubled middle
    entry in even dimension."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cells = ladder(0, n)
    if n % 2 == 0:
        cells = cells + TatePolynomial.lefschetz(n // 2)
    return AtlasEntry(
        atom=MotiveAtom(f"Q{n}", n, frozenset({"smooth_projective", "cellular"})),
        diamond=_diagonal(cells),
        torsion_free=True,
        provenance=f"smooth quadric of dimension {n}",
        cells=cells,
    )


def gaussian_binomial(n: int, k: int) -> TatePolynomial:
    """q-binomial coefficient [n choose k]_q via the q-Pascal recurrence,
    with q read as the Tate class."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    row = [TatePolynomial.one()]
    for m in range(1, n + 1):
        new = [TatePolynomial.one()]
        for j in range(1, m):
            new.append(row[j - 1] + row[j].shift(j))
        new.append(TatePolynomial.one())
        row = new
    return row[k]


def grassmannian(k: int, n: int) -> AtlasEntry:
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    cells = gaussian_binomial(n, k)
    dim = k * (n - k)
    return AtlasEntry(
        atom=MotiveAtom(f"Gr({k},{n})", dim, frozenset({"smooth_projective", "cellular"})),
        diamond=_diagonal(cells),
        torsion_free=True,
        provenance=f"Grassmannian of {k}-planes in {n}-space",
        cells=cells,
    )


def k3() -> AtlasEntry:
    h = {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
    return AtlasEntry(
        atom=MotiveAtom("K3", 2, frozenset({"smooth_projective"})),
        diamond=HodgeDiamond(2, h),
        torsion_free=True,
        provenance="K3 surface",
    )


def hilb2_surface(s: AtlasEntry) -> AtlasEntry:
    """Hilbert square of a surface with no odd cohomology.

    The Hodge table is the symmetric square of the table of s plus a copy of
    s shifted by one Tate twist; torsion-freeness is inherited.
    """
    d = s.diamond
    if d.n != 2:
        raise OddCohomologyError("input must be a surface")
    b = d.betti()
    if b[1] or b[3]:
        raise OddCohomologyError("surface must have b1 = b3 = 0")

    pieces = d.entries()
    h: dict[tuple[int, int], int] = {}

    def bump(p, q, v):
        if v:
            h[(p, q)] = h.get((p, q), 0) + v

    # symmetric square (all classes sit in even degree, so no signs)
    for i, (p1, q1, v1) in enumerate(pieces):
        for j in range(i, len(pieces)):
            p2, q2, v2 = pieces[j]
            c = v1 * (v1 + 1) // 2 if i == j else v1 * v2
            bump(p1 + p2, q1 + q2, c)
    # exceptional summand: the surface twisted by L
    for p, q, v in pieces:
        bump(p + 1, q + 1, v)

    return AtlasEntry(
        atom=MotiveAtom(
            f"Hilb2{s.atom.name}", 4, frozenset({"smooth_projective"})
        ),
        diamond=HodgeDiamond(4, h),
        torsion_free=s.torsion_free,
        provenance=f"Hilbert square of {s.atom.name}",
    )


class Atlas:
    """Append-only cache of atlas entries sharing one atom registry."""

    def __init__(self, registry: AtomRegistry | None = None):
        self.registry = registry if registry is not None else AtomRegistry()
        self._entries: dict[str, AtlasEntry] = {}

    def add(self, entry: AtlasEntry) -> AtlasEntry:
        existing = self._entries.get(entry.atom.name)
        if existing is not None:
            if existing != entry:
                raise ValueError(f"entry {entry.atom.name!r} already present")
            return existing
        self.registry.register(entry.atom)
        self._entries[entry.atom.name] = entry
        return entry

    def get(self, name: str) -> AtlasEntry | None:
        return self._entries.get(name)

    def names(self) -> list[str]:
        return sorted(self._entries)

    # builtin constructors, cached under canonical names

    def projective_space(self, n: int) -> AtlasEntry:
        return self.add(projective_space(n))

    def quadric(self, n: int) -> AtlasEntry:
        return self.add(quadric(n))

    def grassmannian(self, k: int, n: int) -> AtlasEntry:
        return self.add(grassmannian(k, n))

    def k3(self) -> AtlasEntry:
        return self.add(k3())

    def hilb2(self, name: str) -> AtlasEntry:
        base = self.get(name)
        if base is None:
            raise KeyError(name)
        return self.add(hilb2_surface(base))

    def diamond_table(self) -> dict[str, HodgeDiamond]:
        return {name: e.diamond for name, e in self._entries.items()}

    def dump(self) -> list[dict]:
        out = []
        for name in self.names():
            e = self._entries[name]
            out.append(
                {
                    "name": name,
                    "dim": e.atom.dim,
                    "torsion_free": e.torsion_free,
                    "provenance": e.provenance,
                    "cells": str(e.cells) if e.cells is not None else None,
                    "diamond": e.diamond.to_json_dict(),
                }
            )
        return out
