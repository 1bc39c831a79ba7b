"""Built-in Hodge diamonds and torsion facts for the standard varieties:
projective spaces, smooth quadrics, Grassmannians, K3 surfaces, and Hilbert
squares of surfaces with no odd cohomology.
"""

from __future__ import annotations

from .tatepoly import MAX_DIM, Frozen, L, TatePolynomial, gaussian_binomial, ladder
from .motive import AtomRegistry, MotiveAtom
from .hodge import HodgeDiamond, check_symmetries, diagonal


class OddCohomologyError(ValueError):
    """hilb2 is only implemented for surfaces with b1 = b3 = 0."""


class AtlasEntry(Frozen):
    """A variety's Hodge diamond and torsion flag; ``cells`` is the Poincare
    polynomial in L of a cellular one (diagonal diamond), else None.  Equality
    and hash skip the ``provenance`` label: an entry is its mathematics."""

    __slots__ = ("name", "diamond", "torsion_free", "provenance", "cells")

    def __init__(
        self, name: str, diamond: HodgeDiamond, torsion_free: bool, provenance: str, cells=None
    ):
        if not check_symmetries(diamond):
            raise ValueError(f"diamond of {name} fails symmetry checks")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "diamond", diamond)
        object.__setattr__(self, "torsion_free", torsion_free)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "cells", cells)

    def _key(self) -> tuple:
        return self.name, self.diamond, self.torsion_free, self.cells


def _cellular(name: str, cells: TatePolynomial, provenance: str) -> AtlasEntry:
    """Entry of a torsion-free cellular variety: its diamond is diagonal."""
    return AtlasEntry(name, diagonal(cells), True, provenance, cells)


def projective_space(n: int) -> AtlasEntry:
    if not 0 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside 0..{MAX_DIM}")
    return _cellular(f"P{n}", ladder(0, n), f"projective space of dimension {n}")


def quadric(n: int) -> AtlasEntry:
    """Smooth n-dimensional quadric: diagonal ones, with a doubled middle
    entry in even dimension."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside 1..{MAX_DIM}")
    cells = ladder(0, n)
    if n % 2 == 0:
        cells = cells + L ** (n // 2)
    return _cellular(f"Q{n}", cells, f"smooth quadric of dimension {n}")


def grassmannian(k: int, n: int) -> AtlasEntry:
    if not 1 <= k < n or k * (n - k) > MAX_DIM:
        raise ValueError(f"need 1 <= k < n and k(n - k) <= {MAX_DIM}")
    return _cellular(
        f"Gr({k},{n})", gaussian_binomial(n, k), f"Grassmannian of {k}-planes in {n}-space"
    )


def k3() -> AtlasEntry:
    h = {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
    return AtlasEntry("K3", HodgeDiamond(2, h), True, "K3 surface")


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
    # symmetric square (all classes sit in even degree, so no signs)
    for i, (p1, q1, v1) in enumerate(pieces):
        for j in range(i, len(pieces)):
            p2, q2, v2 = pieces[j]
            key = (p1 + p2, q1 + q2)
            h[key] = h.get(key, 0) + (v1 * (v1 + 1) // 2 if i == j else v1 * v2)
    # exceptional summand: the surface twisted by L
    for p, q, v in pieces:
        h[(p + 1, q + 1)] = h.get((p + 1, q + 1), 0) + v

    return AtlasEntry(
        f"Hilb2{s.name}", HodgeDiamond(4, h), s.torsion_free, f"Hilbert square of {s.name}"
    )


class Atlas:
    """Append-only cache of atlas entries sharing one atom registry; it builds
    each builtin (constructor and arguments) once per instance."""

    def __init__(self):
        self.registry = AtomRegistry()
        self._entries: dict[str, AtlasEntry] = {}
        self._built: dict[tuple, AtlasEntry] = {}

    def add(self, entry: AtlasEntry) -> AtlasEntry:
        """Register an entry; an equal one already present stays, provenance and all."""
        existing = self._entries.get(entry.name)
        if existing is not None:
            if existing != entry:
                raise ValueError(f"entry {entry.name!r} already present")
            return existing
        self.registry.register(MotiveAtom(entry.name, entry.diamond.n))
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> AtlasEntry | None:
        return self._entries.get(name)

    # builtin constructors, cached under canonical names

    def _build(self, constructor, *args) -> AtlasEntry:
        # keyed only once add() succeeds, so a clashing entry fails every call
        key = (constructor, *args)
        entry = self._built.get(key)
        if entry is None:
            entry = self._built[key] = self.add(constructor(*args))
        return entry

    def projective_space(self, n: int) -> AtlasEntry:
        return self._build(projective_space, n)

    def quadric(self, n: int) -> AtlasEntry:
        return self._build(quadric, n)

    def grassmannian(self, k: int, n: int) -> AtlasEntry:
        return self._build(grassmannian, k, n)

    def k3(self) -> AtlasEntry:
        return self._build(k3)

    def hilb2(self, name: str) -> AtlasEntry:
        return self._build(hilb2_surface, self._entries[name])

    def diamond_table(self) -> dict[str, HodgeDiamond]:
        return {name: e.diamond for name, e in self._entries.items()}

    def dump(self) -> list[dict]:
        out = []
        for name in sorted(self._entries):
            e = self._entries[name]
            out.append(
                {
                    "name": name,
                    "dim": e.diamond.n,
                    "torsion_free": e.torsion_free,
                    "provenance": e.provenance,
                    "cells": str(e.cells) if e.cells is not None else None,
                    "diamond": e.diamond.to_json_dict(),
                }
            )
        return out
