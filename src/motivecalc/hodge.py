"""Realizations: Hodge diamonds, cohomology profiles, and torsion bookkeeping.

A HodgeDiamond is the exact table h^{p,q}; a CohomologyProfile tracks
per-degree ranks (possibly symbolic) together with a two-state torsion flag.
Torsion is only ever "free" or "unknown": the propagation rules (direct sums,
Tate twists, summands, Lefschetz + universal coefficients) never need more.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from .motive import NormalForm

FREE = "free"
UNKNOWN = "unknown"


class MissingRealizationError(KeyError):
    """A normal-form atom has no entry in the realization table."""

    def __str__(self) -> str:
        # KeyError would show the repr of its argument
        return str(self.args[0])


@dataclass(frozen=True)
class SymbolicRank:
    """A named, unevaluated Betti number (e.g. the middle rank a Lefschetz
    section argument never pins down)."""

    name: str
    offset: int = 0

    def __add__(self, other: int) -> "SymbolicRank":
        return SymbolicRank(self.name, self.offset + other)

    __radd__ = __add__

    def __str__(self) -> str:
        return f"{self.name} + {self.offset}" if self.offset else self.name


class HodgeDiamond:
    """The table h^{p,q}, 0 <= p,q <= n, stored sparsely (zeros absent)."""

    __slots__ = ("n", "_h")

    def __init__(self, n: int, h: Mapping[tuple[int, int], int]):
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        clean = {}
        for (p, q), v in h.items():
            if not (0 <= p <= n and 0 <= q <= n):
                raise ValueError(f"entry ({p},{q}) outside [0,{n}]^2")
            if v < 0:
                raise ValueError(f"negative Hodge number at ({p},{q})")
            if v:
                clean[(p, q)] = v
        self.n = n
        self._h = clean

    def hodge(self, p: int, q: int) -> int:
        return self._h.get((p, q), 0)

    def entries(self) -> list[tuple[int, int, int]]:
        return [(p, q, v) for (p, q), v in sorted(self._h.items())]

    def betti(self) -> tuple[int, ...]:
        b = [0] * (2 * self.n + 1)
        for (p, q), v in self._h.items():
            b[p + q] += v
        return tuple(b)

    def euler(self) -> int:
        # odd cohomology enters with sign -1
        return sum(v if (p + q) % 2 == 0 else -v for (p, q), v in self._h.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, HodgeDiamond):
            return self.n == other.n and self._h == other._h
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._h.items())))

    def __repr__(self) -> str:
        return f"HodgeDiamond(n={self.n}, h={dict(sorted(self._h.items()))!r})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "h": [[p, q, v] for p, q, v in self.entries()]}

    def pretty(self) -> str:
        """Triangular text layout, h^{0,0} at the top, row k lists h^{p,q}
        with p+q = k and p decreasing left to right."""
        rows = []
        for k in range(2 * self.n + 1):
            ps = range(min(self.n, k), max(0, k - self.n) - 1, -1)
            rows.append([str(self.hodge(p, k - p)) for p in ps])
        width = max(len(s) for row in rows for s in row)
        cell = width + 2
        total = cell * (2 * self.n + 1)
        lines = []
        for row in rows:
            text = "".join(s.center(cell) for s in row).center(total).rstrip()
            lines.append(text)
        return "\n".join(lines)


def check_symmetries(d: HodgeDiamond) -> bool:
    """Conjugation symmetry h^{p,q}=h^{q,p} and duality h^{p,q}=h^{n-p,n-q}."""
    n = d.n
    for p in range(n + 1):
        for q in range(n + 1):
            v = d.hodge(p, q)
            if v != d.hodge(q, p) or v != d.hodge(n - p, n - q):
                return False
    return True


def realize_hodge(
    nf: NormalForm, table: Mapping[str, HodgeDiamond]
) -> HodgeDiamond:
    """Hodge realization of a normal form: additive over atoms, with L^k
    shifting both indices by k.  Ambient dimension is the top weight
    max(dim(atom) + deg(coefficient))."""
    if nf.is_zero():
        return HodgeDiamond(0, {})
    dims = []
    for name in nf.atoms():
        if name not in table:
            raise MissingRealizationError(f"no Hodge realization for atom {name!r}")
        dims.append(table[name].n + nf.coefficient(name).degree)
    n = max(dims)
    h: dict[tuple[int, int], int] = {}
    for name in nf.atoms():
        d = table[name]
        for k, a in nf.coefficient(name).items():
            for p, q, v in d.entries():
                key = (p + k, q + k)
                h[key] = h.get(key, 0) + a * v
    return HodgeDiamond(n, h)


@dataclass(frozen=True)
class CohomologyProfile:
    """Per-degree integral cohomology bookkeeping for a dim-n variety:
    rank (int or SymbolicRank) and torsion flag for each degree 0..2n."""

    n: int
    ranks: tuple
    torsion: tuple[str, ...]

    def __post_init__(self):
        if len(self.ranks) != 2 * self.n + 1 or len(self.torsion) != 2 * self.n + 1:
            raise ValueError("profile must cover degrees 0..2n")
        for t in self.torsion:
            if t not in (FREE, UNKNOWN):
                raise ValueError(f"bad torsion flag {t!r}")

    @classmethod
    def from_diamond(cls, d: HodgeDiamond, torsion_free: bool) -> "CohomologyProfile":
        flag = FREE if torsion_free else UNKNOWN
        b = d.betti()
        return cls(d.n, b, tuple(flag for _ in b))

    def all_free(self) -> bool:
        return all(t == FREE for t in self.torsion)

    def rank(self, k: int):
        return self.ranks[k]

    def __str__(self) -> str:
        cells = [f"b{k}={r}" for k, r in enumerate(self.ranks)]
        status = "free" if self.all_free() else "unknown"
        return f"[{', '.join(cells)}; torsion {status}]"


def lefschetz_section_profile(
    ambient: HodgeDiamond, ambient_torsion_free: bool, middle_name: str = "m"
) -> CohomologyProfile:
    """Cohomology profile of a smooth ample divisor in ``ambient``.

    Below the middle degree the section inherits the ambient ranks (and
    torsion-freeness, via universal coefficients); above it everything is
    filled in by duality; the middle rank itself stays a named symbol.
    """
    if ambient.n < 1:
        raise ValueError("ambient must have dimension >= 1")
    s = ambient.n - 1  # section dimension
    amb = ambient.betti()
    ranks: list = []
    for k in range(2 * s + 1):
        if k < s:
            ranks.append(amb[k])
        elif k == s:
            ranks.append(SymbolicRank(middle_name))
        else:
            ranks.append(amb[2 * s - k])
    flag = FREE if ambient_torsion_free else UNKNOWN
    return CohomologyProfile(s, tuple(ranks), tuple(flag for _ in ranks))


def atom_torsion(nf: NormalForm, table: Mapping[str, CohomologyProfile]) -> dict[str, str]:
    """Torsion flag of each atom occurring in the normal form: FREE iff its
    profile is free in every degree, else UNKNOWN."""
    status = {}
    for name in nf.atoms():
        if name not in table:
            raise MissingRealizationError(f"no cohomology profile for atom {name!r}")
        status[name] = FREE if table[name].all_free() else UNKNOWN
    return status


def torsion_status(nf: NormalForm, table: Mapping[str, CohomologyProfile]) -> str:
    """FREE iff every atom occurring in the normal form is FREE; a direct sum
    of Tate twists of torsion-free groups is torsion-free, and so is any
    direct summand of one."""
    return FREE if all(s == FREE for s in atom_torsion(nf, table).values()) else UNKNOWN
