"""Built-in Hodge diamonds and torsion facts for the standard varieties:
projective spaces, smooth quadrics, Grassmannians, K3 surfaces, and Hilbert
squares of surfaces with no odd cohomology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .tatepoly import MAX_DIM, L, TatePolynomial, _unpack, ladder
from .motive import AtomRegistry, MotiveAtom
from .hodge import HodgeDiamond, check_symmetries


class OddCohomologyError(ValueError):
    """hilb2 is only implemented for surfaces with b1 = b3 = 0."""


@dataclass(frozen=True)
class AtlasEntry:
    name: str
    diamond: HodgeDiamond
    torsion_free: bool
    provenance: str
    # Poincare polynomial in L for cellular varieties (diagonal diamond);
    # None for non-cellular entries such as K3.
    cells: TatePolynomial | None = None

    def __post_init__(self):
        if not check_symmetries(self.diamond):
            raise ValueError(f"diamond of {self.name} fails symmetry checks")


def _cellular(name: str, cells: TatePolynomial, provenance: str) -> AtlasEntry:
    """Entry of a torsion-free cellular variety with cells[k] cells of
    dimension k: its dimension is the top cell degree and its diamond is
    diagonal, h^{k,k} = cells[k]."""
    n = cells.degree
    return AtlasEntry(
        name=name,
        diamond=HodgeDiamond(n, {(k, k): a for k, a in cells.items()}),
        torsion_free=True,
        provenance=provenance,
        cells=cells,
    )


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


def gaussian_binomial(n: int, k: int) -> TatePolynomial:
    """q-binomial coefficient [n choose k]_q via the q-Pascal recurrence,
    with q read as the Tate class."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    k = min(k, n - k)  # [n, k] = [n, n - k]; each row keeps columns 0..k only
    # row[j] packs [m, j] at w bytes a degree: its coefficients sum to comb(m, j) <= comb(n, k)
    w = (math.comb(n, k).bit_length() + 7) // 8
    row = [1] + [0] * k
    for m in range(1, n + 1):
        # [m, j] = [m-1, j-1] + L^j [m-1, j], where [m-1, j] = 0 for j >= m
        row = [1] + [row[j - 1] + (row[j] << 8 * w * j) for j in range(1, k + 1)]
    return TatePolynomial(_unpack(row[k], w))


def grassmannian(k: int, n: int) -> AtlasEntry:
    if not 1 <= k < n or k * (n - k) > MAX_DIM:
        raise ValueError(f"need 1 <= k < n and k(n - k) <= {MAX_DIM}")
    return _cellular(
        f"Gr({k},{n})", gaussian_binomial(n, k), f"Grassmannian of {k}-planes in {n}-space"
    )


def k3() -> AtlasEntry:
    h = {(0, 0): 1, (2, 0): 1, (1, 1): 20, (0, 2): 1, (2, 2): 1}
    return AtlasEntry(
        name="K3",
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
        name=f"Hilb2{s.name}",
        diamond=HodgeDiamond(4, h),
        torsion_free=s.torsion_free,
        provenance=f"Hilbert square of {s.name}",
    )


class Atlas:
    """Append-only cache of atlas entries sharing one atom registry; it builds
    each builtin (constructor and arguments) once per instance."""

    def __init__(self):
        self.registry = AtomRegistry()
        self._entries: dict[str, AtlasEntry] = {}
        self._built: dict[tuple, AtlasEntry] = {}

    def add(self, entry: AtlasEntry) -> AtlasEntry:
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
        base = self.get(name)
        if base is None:
            raise KeyError(name)
        return self._build(hilb2_surface, base)

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
