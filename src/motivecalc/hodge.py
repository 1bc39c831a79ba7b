"""Realizations: Hodge diamonds.

A HodgeDiamond is the exact table h^{p,q}; realize_hodge maps a normal form
to one, additively over atoms.
"""

from __future__ import annotations

from collections.abc import Mapping

from .tatepoly import MAX_DIM, Frozen, TatePolynomial
from .motive import NormalForm

# pretty() refuses a diamond whose text could pass this many characters
MAX_PRETTY_CHARS = 2**27

class MissingRealizationError(KeyError):
    """A normal-form atom has no entry in the realization table."""

    def __str__(self) -> str:
        # KeyError would show the repr of its argument
        return str(self.args[0])


class HodgeDiamond(Frozen):
    """The table h^{p,q}, 0 <= p,q <= n, stored sparsely (zeros absent)."""

    __slots__ = ("n", "_h")

    def __init__(self, n: int, h: Mapping[tuple[int, int], int]):
        if type(n) is not int:
            raise TypeError(f"dimension {n!r} is not an int")
        if n < 0:
            raise ValueError("dimension must be nonnegative")
        clean = {}
        for (p, q), v in h.items():
            if not type(p) is type(q) is type(v) is int:
                raise TypeError(f"entry ({p!r},{q!r}) = {v!r} is not an int triple")
            if not (0 <= p <= n and 0 <= q <= n):
                raise ValueError(f"entry ({p},{q}) outside [0,{n}]^2")
            if v < 0:
                raise ValueError(f"negative Hodge number at ({p},{q})")
            if v:
                clean[(p, q)] = v
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_h", clean)

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

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._h.items())))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "h": [[p, q, v] for p, q, v in self.entries()]}

    def pretty(self) -> str:
        """Triangular text layout, h^{0,0} at the top, row k lists h^{p,q}
        with p+q = k and p decreasing left to right.  Raises ValueError
        before building anything if the text could pass MAX_PRETTY_CHARS."""
        n = self.n
        cell = len(str(max(self._h.values(), default=0))) + 2
        size = (2 * n + 1) ** 2 * cell  # 2n+1 rows, each at most (2n+1) cells wide
        if size > MAX_PRETTY_CHARS:
            raise ValueError(
                f"Hodge diamond of dimension {n} with cell width {cell} would render "
                f"up to {size} characters, over the bound {MAX_PRETTY_CHARS}"
            )
        # row p + q lists p from min(n, p + q) down, so (p, q) sits at min(q, n - p)
        rows: list[list[tuple[int, int]]] = [[] for _ in range(2 * n + 1)]
        for (p, q), v in self._h.items():
            rows[p + q].append((min(q, n - p), v))
        for row in rows:
            if len(row) > 1:  # columns in order; no two cells of a row share one
                row.sort()
        zero = "0".center(cell)
        tail = cell - len(zero.rstrip())  # blanks after the last zero of a row
        # a margin and the zeros after it are one slice: widest margin, a zero per column
        pad = cell * n
        template = " " * pad + zero * (n + 1)
        # each distinct row is rendered once: with both symmetries row 2n - k is row k
        done, lines = {}, []
        for k, row in enumerate(rows):
            m = n + 1 - abs(k - n)
            line = done.get(key := (m, *row))
            if line is None:
                # an odd margin implies an odd total width: str.center pads it left first
                a, col, pieces = pad - (cell * (2 * n + 1 - m) + 1) // 2, 0, []
                for j, v in row:
                    pieces += (template[a : pad + cell * (j - col)], str(v).center(cell))
                    a, col = pad, j + 1
                if col < m:
                    pieces.append(template[a : pad + cell * (m - col) - tail])
                else:
                    pieces[-1] = pieces[-1].rstrip()
                line = done[key] = "".join(pieces)
            lines.append(line)
        return "\n".join(lines)


def _unchecked(n: int, h: dict[tuple[int, int], int]) -> HodgeDiamond:
    """The diamond over h, a fresh result of this module: keys in [0, n]^2 to ints > 0."""
    object.__setattr__(d := object.__new__(HodgeDiamond), "n", n)
    object.__setattr__(d, "_h", h)
    return d


def diagonal(cells: TatePolynomial) -> HodgeDiamond:
    """Diamond of a variety with cells[k] > 0 cells of dimension k: h^{k,k} = cells[k]."""
    return _unchecked(cells.degree, {(k, k): a for k, a in cells.coeffs.items()})


def check_symmetries(d: HodgeDiamond) -> bool:
    """Conjugation symmetry h^{p,q}=h^{q,p} and duality h^{p,q}=h^{n-p,n-q}.

    Only stored (nonzero) entries are visited: both maps are involutions, so
    once every nonzero cell matches its images, no zero cell can have a
    nonzero image either."""
    n, h = d.n, d._h
    return all(v == h.get((q, p), 0) == h.get((n - p, n - q), 0) for (p, q), v in h.items())


def realize_hodge(
    nf: NormalForm, table: Mapping[str, HodgeDiamond]
) -> HodgeDiamond:
    """Hodge realization of a normal form: additive over atoms, with L^k
    shifting both indices by k.  Ambient dimension is the top weight
    max(dim(atom) + deg(coefficient)), at most MAX_DIM."""
    n = 0  # the top weight of the zero form, realized as HodgeDiamond(0, {})
    for name in nf.atoms():
        if name not in table:
            raise MissingRealizationError(f"no Hodge realization for atom {name!r}")
        n = max(n, table[name].n + nf.coefficient(name).degree)
    if n > MAX_DIM:
        raise ValueError(f"top weight {n} exceeds the Hodge realization cap {MAX_DIM}")
    h: dict[tuple[int, int], int] = {}
    for name in nf.atoms():
        entries = table[name]._h.items()
        for k, a in nf.coefficient(name).coeffs.items():
            for (p, q), v in entries:
                key = (p + k, q + k)
                h[key] = h.get(key, 0) + a * v
    return _unchecked(n, h)  # each a * v > 0, at p + k, q + k <= table[name].n + degree <= n
